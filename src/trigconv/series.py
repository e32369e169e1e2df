"""Partial sums and tail-norm machinery for trigonometric series.

Evaluation targets the two series shapes the checkers care about:

* sine series  sum_{k>=1} b_k sin kx  (b real or complex), evaluated on
  (0, pi] and extended by oddness/periodicity;
* two-sided exponential series  sum_{k>=1} (c_k e^{ikx} +
  c_{-k} e^{-ikx}), evaluated on (-pi, pi] as C(x) +- S(x), with
  C = sum (c_k + c_{-k}) cos kx and S = sum i (c_k - c_{-k}) sin kx at |x|.

One real engine evaluates both, and _cos_sin_rows is its one entry: the
rows of C(x) = sum a_k cos kx and S(x) = sum b_k sin kx per checkpoint,
from the nonzero terms (k, a_k, b_k) in order of k; a sine series has no
cosine half.  The columns of every row are fixed: first the uniform points
x = pi j/M for j = 0..M (x = 0 and x = pi included), then the off-grid
ladder points in ascending order.  A reader takes maxima over the columns,
so it needs no sorted merge of the two.  Every step is elementwise or a
fixed-order sum: no BLAS product, so no row depends on the BLAS build or
its thread count.
The terms come from the sequence's support when it lists one (a
lacunary sequence costs its few powers of two), else from the nonzero
entries of the dense prefix.  On the uniform points x_j = pi j/M a term
depends on k only through k mod 2M, so with w the coefficients folded into
2M bins, C_j = Re(rfft(w))_j and S_j = -Im(rfft(w))_j (real and imaginary
parts of complex coefficients are folded and transformed apart).  The
bins of each checkpoint segment are added to one running row, and each
checkpoint transforms that row: one row of bins is held, not one per
checkpoint.  The geometric ladder lies off that grid.  There the terms
are summed directly by blocked angle addition: with a block length B, a
power of two near sqrt(k_max), each k = Bq + r gives sin kx = sin(Bqx)
cos(rx) + cos(Bqx) sin(rx), so sin and cos are taken of Bqx for the
distinct q that occur and of rx for the r, at every ladder point in one
call each.  The points then run in blocks of
P = max(1, 2^15 // max(table size, terms)):
per block one pair of products forms the P tables T[q, r], one slice (the
support is one run of k) or one gather reads the terms, and one reduction
per checkpoint segment sums them.  So a curve with few terms pays for its
arithmetic, not for numpy calls per point: a lacunary curve's 18 terms
share one block of about 330 points, while a dense curve at N_ref 2^15 and
beyond keeps one point per block.  In-process on a 2-core Xeon (numpy
2.4.6) this took the ladder of the lacunary curve from 1.3 to 0.25 ms and
that of a harmonic curve at N_ref 2^13 from 2.6 to 2.2 ms.

Sup-norms are estimated from below by grid maxima of |S_{N_ref} - S_n|
over an adaptive grid that always contains the critical points
x0 = pi/(8 n_ref) and the geometric ladder x0 * 2^{j/4}, besides the
uniform points pi j/M, M = 8 n_ref capped at 8192 (the label grid(n_ref,8)
names the nominal 8 per oscillation).  GridSpec drops the ladder points
that are uniform points, by a searchsorted over the uniform points.
Column 0 (x = 0) adds nothing to the maximum: there S is exactly +-0, the
imaginary part of the real FFT's DC bin, as it is at x = pi, the Nyquist
bin.  The estimate is a grid lower bound for the truncated tail
S_{N_ref} - S_n only: no certified upper end.  The companion truncation
slack sum_{N_ref < k <= 16 N_ref} |c_k| of a sine series measures how much
of the coefficient mass the reference horizon leaves out; it reads a
sequence's support when it lists one, so a lacunary sequence costs its few
powers of two, and any other sequence through values_between.

The test-point probe at x0 = pi/(8n) measures the sides of criterion 7's
inequality from the two-sided rows at n and 4n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sequences import (
    STABILIZATION_THRESHOLD,
    CoefficientSequence,
    SequenceError,
    TwoSidedSequence,
    _indices,
    _require_finite,
)
from .summation import exact_sum

__all__ = [
    "GridSpec",
    "CurveEntry",
    "TailNormCurve",
    "ProbeResult",
    "truncation_slack",
    "testpoint_block_probe",
    "convergence_curve",
]

# The uniform grid size M = OVERSAMPLE * n_ref, capped at MAX_UNIFORM: for
# n_ref > 1024 the uniform part has fewer than 8 points per oscillation.
OVERSAMPLE = 8
MAX_UNIFORM = 8192

# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _uniform_points(j: np.ndarray, count: int) -> np.ndarray:
    """The uniform points pi j / count; j = count gives pi exactly."""
    return math.pi * (j / count)


@dataclass(frozen=True)
class GridSpec:
    """Adaptive evaluation grid on (0, pi] for a frequency scale n_ref.

    Points: the uniform points pi j/M, j = 1..M, with M = 8 n_ref capped at
    MAX_UNIFORM = 8192, and the geometric ladder x0 * 2^{j/4} with
    x0 = pi/(8 n_ref) -- always containing x0 itself exactly.  The label
    grid(n_ref,8) names the nominal 8 points per oscillation; from
    n_ref = 1024 on, M stays at 8192.
    """

    n_ref: int

    def __post_init__(self):
        if self.n_ref < 1:
            raise SequenceError("grid needs n_ref >= 1")

    @property
    def x0(self) -> float:
        return math.pi / (8.0 * self.n_ref)

    def _layout(self) -> tuple[int, np.ndarray]:
        """(M, off): the uniform points are pi j/M for j = 0..M, and off
        holds the ladder points that are not uniform, in ascending order.

        One searchsorted over the increasing uniform points gives each
        ladder point x the first uniform point >= x, which x may equal
        (x <= pi, the last one)."""
        count = min(OVERSAMPLE * self.n_ref, MAX_UNIFORM)
        ladder = []
        j = 0
        while True:
            x = self.x0 * 2.0 ** (j / 4.0)
            if x > math.pi:
                break
            ladder.append(x)
            j += 1
        ladder = np.asarray(ladder)
        uniform = _uniform_points(np.arange(count + 1), count)
        return count, ladder[uniform[np.searchsorted(uniform, ladder)]
                             != ladder]

    def points(self) -> np.ndarray:
        """The grid points of (0, pi] in increasing order."""
        M, off = self._layout()
        return np.sort(np.concatenate(
            [_uniform_points(np.arange(1, M + 1), M), off]))

    def describe(self) -> str:
        return f"grid({self.n_ref},{OVERSAMPLE})"


# ---------------------------------------------------------------------------
# partial-sum rows
# ---------------------------------------------------------------------------

def _block_length(k_max: int) -> int:
    """The block length B of the angle addition: a power of two near
    sqrt(k_max), so that both tables hold about sqrt(k_max) entries."""
    return 1 << (k_max.bit_length() // 2)


def _terms(seq: CoefficientSequence, n_max: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted k <= n_max with c_k != 0, and those c_k: read on the
    support when the sequence lists one, so that no dense prefix is built,
    else from the nonzero entries of the prefix."""
    if seq.support is None:
        v = seq.prefix(n_max)
        nz = np.flatnonzero(v)
        return nz + 1, v[nz]
    k = seq.support(0, n_max)
    v = seq.values_at(k)
    keep = v != 0
    return k[keep], v[keep]


def _uniform_rows(idx: np.ndarray, w: np.ndarray, ends: np.ndarray,
                  size: int, cosine: bool) -> np.ndarray:
    """Per end e, sum_{i<e} w_i cos (or sin) of k_i pi j/M at j = 0..M,
    from idx = k mod 2M (size = 2M): the bins of w folded in order of k
    into one running row, segment by segment, and Re or -Im of that row's
    real FFT at each end.  Adding each segment's bins to the row is the
    cumulative sum of the segments' bins, one addition at a time, and
    each FFT is the one of that row alone, so one row of bins is kept."""
    if np.iscomplexobj(w):
        return (_uniform_rows(idx, w.real, ends, size, cosine)
                + 1j * _uniform_rows(idx, w.imag, ends, size, cosine))
    out = np.empty((len(ends), size // 2 + 1))
    running = np.zeros(size)
    for row, lo, hi in zip(out, np.r_[0, ends[:-1]], ends):
        running += np.bincount(idx[lo:hi], w[lo:hi], size)
        spectrum = np.fft.rfft(running)
        if cosine:
            row[:] = spectrum.real
        else:
            np.negative(spectrum.imag, out=row)
    return out


# Values per ladder block: a block of P points holds P tables T[q, r] and P
# rows of terms, each of at most about this many entries (0.25 MB of floats).
_BLOCK_VALUES = 1 << 15


def _ladder_rows(k: np.ndarray, a: Optional[np.ndarray], b: np.ndarray,
                 off: np.ndarray, ends: np.ndarray
                 ) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Per end e, sum_{i<e} a_i cos k_i x and sum_{i<e} b_i sin k_i x at
    each point x of off (no cosine half when a is None), by blocked angle
    addition over the table T[q, r] of the distinct q and the r.

    sin and cos of every angle Bq x and r x come from one call each.  The
    points then run in blocks of P = max(1, _BLOCK_VALUES // max(table
    size, terms)): per block one product pair forms the P tables, one slice
    or gather their trig values, one product the terms, and one reduction
    per checkpoint segment sums each point's row along its contiguous last
    axis, so that every segment keeps the pairwise tree of a 1-D sum.  The
    segment sums are then totalled in order of k, one addition at a time.
    """
    n = k.size
    if n == 0:
        zeros = np.zeros((len(ends), off.size), b.dtype)
        return (None if a is None else zeros.astype(a.dtype)), zeros
    B = _block_length(int(k[-1]))
    q, r = np.divmod(k, B)
    if k[-1] - k[0] + 1 == n:
        # one run of k: T covers q[0]..q[-1] times every r, and the terms
        # are the slice of the flat table from k[0] - B q[0]
        uq, ur = np.arange(q[0], q[-1] + 1), np.arange(B)
        start = int(k[0] - B * q[0])
        flat = None
    else:
        uq, qi = np.unique(q, return_inverse=True)
        ur, ri = np.unique(r, return_inverse=True)
        flat = qi * ur.size + ri
    U, R = uq.size, ur.size
    # sin and cos of Bq x and of r x, from the exact integers Bq, r
    ax = np.multiply.outer(off, np.concatenate([B * uq, ur]).astype(float))
    sin_ = np.sin(ax)
    cos_ = np.cos(ax, out=ax)
    sh, sl = sin_[:, :U, None], sin_[:, None, U:]
    ch, cl = cos_[:, :U, None], cos_[:, None, U:]

    P = max(1, _BLOCK_VALUES // max(U * R, n))
    table, other = np.empty((P, U, R)), np.empty((P, U, R))
    picked = None if flat is None else np.empty((P, n))
    bounds = list(enumerate(zip(np.r_[0, ends[:-1]].tolist(), ends.tolist())))
    halves = [(w, cosine, np.empty((P, n), w.dtype),
               np.empty((len(ends), off.size), w.dtype))
              for w, cosine in ((b, False), (a, True)) if w is not None]
    for p0 in range(0, off.size, P):
        pts = slice(p0, min(off.size, p0 + P))
        m = pts.stop - p0
        t, o = table[:m], other[:m]
        flat_t = t.reshape(m, U * R)
        for w, cosine, terms, sums in halves:
            if cosine:      # cos kx = cos Bqx cos rx - sin Bqx sin rx
                np.multiply(ch[pts], cl[pts], out=t)
                np.multiply(sh[pts], sl[pts], out=o)
                np.subtract(t, o, out=t)
            else:           # sin kx = sin Bqx cos rx + cos Bqx sin rx
                np.multiply(sh[pts], cl[pts], out=t)
                np.multiply(ch[pts], sl[pts], out=o)
                np.add(t, o, out=t)
            if flat is None:
                trig = flat_t[:, start:start + n]
            else:
                trig = np.take(flat_t, flat, axis=1, out=picked[:m],
                               mode="clip")
            np.multiply(w, trig, out=terms[:m])
            for row, (lo, hi) in bounds:
                np.add.reduce(terms[:m, lo:hi], axis=1, out=sums[row, pts])
    rows = [sums for *_, sums in halves]
    for sums in rows:
        # running totals over the segments.  A total that starts from 0.0
        # is never -0.0, while a cumulative sum keeps a -0.0 first segment
        # sum; adding +0.0 turns such a zero into +0.0 and changes no other
        # value
        np.cumsum(sums, axis=0, out=sums)
        sums += 0.0
    return (None if a is None else rows[1]), rows[0]


def _cos_sin_rows(k: np.ndarray, a: Optional[np.ndarray], b: np.ndarray,
                  grid: GridSpec, ends: np.ndarray):
    """(C, S): per end e the rows of C_e(x) = sum_{i<e} a_i cos k_i x (None
    when a is None) and S_e(x) = sum_{i<e} b_i sin k_i x, as arrays of
    shape (len(ends), M + 1 + len(off)) for (M, off) = grid._layout().
    Column j < M + 1 is the uniform point x = pi j/M, so x = 0 and x = pi
    are columns 0 and M; the off-grid ladder points follow in ascending
    order.  k holds the nonzero terms in increasing order, and a
    checkpoint cp is the end searchsorted(k, cp, side="right")."""
    M, off = grid._layout()
    ladder_c, ladder_s = _ladder_rows(k, a, b, off, ends)
    idx = k % (2 * M)

    def rows(w, ladder, cosine):
        return np.concatenate(
            [_uniform_rows(idx, w, ends, 2 * M, cosine), ladder], axis=1)

    C = None if a is None else rows(a, ladder_c, True)
    return C, rows(b, ladder_s, False)


# ---------------------------------------------------------------------------
# tail norms and slack
# ---------------------------------------------------------------------------

def _default_nref(n: int) -> int:
    return max(1 << 16, 64 * n)


def _abs_range_sum(seq: CoefficientSequence, lo: int, hi: int) -> float:
    """sum_{k=lo+1}^{hi} |c_k|; explicit data counts only up to its
    length.  A sequence that lists its support is read there alone, in one
    exact sum.  Any other is read in chunks of 2^20 indices, with one exact
    sum per chunk of its values_between made |c_k| in place (zeros
    included: an exact sum does not change with them), so no huge prefix
    is built or cached.  The chunks stay at 2^20 indices, because
    math.fsum over more rounded chunk sums could change the last bit."""
    if seq.length is not None:
        hi = min(hi, seq.length)
    if seq.support is not None:
        return exact_sum(np.abs(seq.values_at(seq.support(lo, hi))))
    parts = []
    for start in range(lo, hi, 1 << 20):
        v = seq.values_between(start, min(hi, start + (1 << 20)))
        parts.append(exact_sum(np.abs(v, out=v if seq.is_real else None)))
    return math.fsum(parts)


def truncation_slack(seq: CoefficientSequence,
                     N_ref: int) -> tuple[float, bool]:
    """sum of |c_k| over the four octaves (N_ref, 16 N_ref].

    Returns the measured slack and a settled flag: the last octave must
    contribute at most STABILIZATION_THRESHOLD of the measured total
    (vacuously settled when the total is zero, e.g. explicit data ending
    before N_ref).  A sum past the float range raises SequenceError.
    """
    parts = []
    try:
        for j in range(4):
            parts.append(_abs_range_sum(seq, N_ref << j, N_ref << (j + 1)))
        total = math.fsum(parts)
    except OverflowError:  # math.fsum: the exact sum is past the range
        total = math.inf
    _require_finite(total, "the truncation slack")
    settled = total == 0.0 or parts[-1] <= STABILIZATION_THRESHOLD * total
    return total, settled


# ---------------------------------------------------------------------------
# the test-point probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    """The measured sides of the test-point probe at x0 = pi/(8n)."""

    sin_floor_ok: bool
    lhs: float                 # 2 sum Re c_k sin k x0 over (n, 4n]
    norm_diff: float           # grid max of |S_{4n} - S_n|
    pair_abs_sum: float        # sum |c_k + c_{-k}| over (n, 4n]


def testpoint_block_probe(ts: TwoSidedSequence, n: int) -> ProbeResult:
    """Measure the three sides of the inequality at the test point
    x0 = pi/(8n):

        2 sum_{k=n+1}^{4n} Re c_k sin k x0
            <= max_grid |S_{4n} - S_n| + sum_{k=n+1}^{4n} |c_k + c_{-k}|.

    Every k in (n, 4n] has k*x0 in (pi/8, pi/2], hence sin k x0 >=
    sin(pi/8), which sin_floor_ok records.  The premise, pair sums and
    differences in a sector K(theta0) on [1, 4n], is the caller's to check
    (check_pair_sector), and the caller judges the sides.  x0 belongs to
    the two-sided grid (the grid's points, their mirror images and 0), so
    the right side dominates the left up to round-off.
    """
    if n < 1:
        raise SequenceError("n >= 1 required")
    x0 = math.pi / (8.0 * n)
    k = np.arange(n + 1, 4 * n + 1, dtype=float)
    sines = np.sin(k * x0)
    sin_floor_ok = bool(np.all(sines >= math.sin(math.pi / 8.0) - 1e-12))

    lhs = 2.0 * exact_sum(ts.pos.prefix(4 * n)[n:].real * sines)
    a, b = ts.pair_sums(4 * n), 1j * ts.pair_diffs(4 * n)
    pair_abs = exact_sum(np.abs(a[n:]))

    # the series is C(|x|) + S(|x|) at x = 0 and the grid points, and
    # C(|x|) - S(|x|) at their mirror images in (-pi, 0).  S is +-0 at
    # x = 0 and x = pi, where C - S is C + S up to the sign of a zero, so
    # both are taken over every column
    nz = np.flatnonzero((a != 0) | (b != 0))
    k = nz + 1
    C, S = _cos_sin_rows(k, a[nz], b[nz], GridSpec(n_ref=n),
                         np.searchsorted(k, [n, 4 * n], side="right"))
    plus, minus = C + S, C - S
    norm_diff = float(np.maximum(np.abs(plus[1] - plus[0]).max(),
                                 np.abs(minus[1] - minus[0]).max()))
    return ProbeResult(sin_floor_ok, lhs, norm_diff, pair_abs)


# ---------------------------------------------------------------------------
# convergence curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveEntry:
    """One row of a curve: the tail sup-norm estimate at n and the max of
    k|c_k| over [n, min(2n, L + 1)), L the length of the data or infinite."""

    n: int
    sup_estimate: float
    max_k_ck: float


@dataclass
class TailNormCurve:
    """Tail sup-norm estimates against the n*c_n diagnostic, per n, with
    the grid and the resolved reference horizon N_ref they were taken at,
    and the one truncation slack of N_ref that every CSV row repeats."""

    entries: list
    grid: str
    n_ref: int
    reference_horizon: int
    truncation_slack: float
    slack_settled: bool

    CSV_HEADER = "n,sup_estimate,truncation_slack,max_k_ck"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for e in self.entries:
            lines.append(f"{e.n},{e.sup_estimate!r},"
                         f"{self.truncation_slack!r},{e.max_k_ck!r}")
        return "\n".join(lines) + "\n"


def _tail_rows(seq: CoefficientSequence, n_list: Sequence[int],
               N_ref: Optional[int]
               ) -> tuple[list[CurveEntry], int, GridSpec]:
    """The CurveEntry of each n, with the resolved N_ref and grid (see
    convergence_curve), from one pass of _cos_sin_rows.  Finite input whose
    estimate or k|c_k| overflows the float range raises SequenceError."""
    ns = [int(v) for v in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise SequenceError("n_list must be strictly increasing, n >= 1")
    n_max = ns[-1]
    grid = GridSpec(n_ref=n_max)
    if N_ref is None:
        N_ref = _default_nref(n_max) if seq.length is None else seq.length
    N_ref = int(N_ref)
    if N_ref <= n_max:
        raise SequenceError("reference horizon must exceed max(n_list)")
    k, b = _terms(seq, N_ref)
    # finite input can overflow in a partial sum, a difference or k|c_k|:
    # the non-finite values are rejected below, with no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        _, S = _cos_sin_rows(k, None, b, grid, np.searchsorted(
            k, ns + [N_ref], side="right"))
        sups = np.abs(S[-1] - S[:-1]).max(axis=1).tolist()
        m = 2 * n_max if seq.length is None else min(2 * n_max, seq.length)
        weighted = np.abs(seq.prefix(m))
        weighted *= _indices(m)

    out = []
    for n, sup in zip(ns, sups):
        mk = float(weighted[n - 1:2 * n - 1].max())
        _require_finite(sup, f"the tail sup-norm estimate at n = {n}")
        _require_finite(mk, f"max k|c_k| over [{n}, {min(2 * n, m + 1)})")
        out.append(CurveEntry(n, sup, mk))
    return out, N_ref, grid


def convergence_curve(seq: CoefficientSequence, n_list: Sequence[int],
                      N_ref: Optional[int] = None) -> TailNormCurve:
    """Tail sup-norm estimate and max k|c_k| over [n, min(2n, L + 1)) per n.

    All n share one reference horizon and one grid, GridSpec(n_ref=max n),
    so every row is computed in a single pass and the rows are comparable
    across n.  N_ref defaults to the length L of finite data, whose tail is
    then exact (slack 0.0), and for a generator (L infinite) to
    max(2^16, 64 max n).  Finite input whose estimate, k|c_k| or slack
    overflows the float range raises SequenceError.
    """
    entries, N_ref, grid = _tail_rows(seq, n_list, N_ref)
    with np.errstate(over="ignore", invalid="ignore"):
        slack, settled = truncation_slack(seq, N_ref)
    return TailNormCurve(entries, grid.describe(), grid.n_ref, N_ref, slack,
                         settled)
