"""Partial sums and tail-norm machinery for trigonometric series.

Evaluation targets the two series shapes the checkers care about:

* sine series  sum_{k>=1} b_k sin kx  (b real or complex), evaluated on
  (0, pi] and extended by oddness/periodicity;
* two-sided exponential series  sum_{k>=1} (c_k e^{ikx} +
  c_{-k} e^{-ikx}), evaluated on (-pi, pi] as C(x) +- S(x), with
  C = sum (c_k + c_{-k}) cos kx and S = sum i (c_k - c_{-k}) sin kx at |x|.

One real engine evaluates both: the rows of C(x) = sum a_k cos kx and
S(x) = sum b_k sin kx at x = 0 and the grid points of (0, pi], from the
nonzero terms (k, a_k, b_k) in order of k; a sine series has no cosine
half.  The terms come from the sequence's support when it lists one (a
lacunary sequence costs its few powers of two), else from the nonzero
entries of the dense prefix.  On the uniform points x_j = pi j/M a term
depends on k only through k mod 2M, so with w the coefficients folded into
2M bins, C_j = Re(rfft(w))_j and S_j = -Im(rfft(w))_j (real and imaginary
parts of complex coefficients are folded and transformed apart).  The
geometric ladder lies off that grid.  There the terms are summed directly
by blocked angle addition: with a block length B, a power of two near
sqrt(k_max), each k = Bq + r gives sin kx = sin(Bqx) cos(rx) +
cos(Bqx) sin(rx), so sin and cos are taken of Bqx for the distinct q that
occur and of rx for the r, at every ladder point in one call each.  The
points then run in blocks of P = max(1, 2^15 // max(table size, terms)):
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
names the nominal 8 per oscillation).  GridSpec places each ladder point
once, by a searchsorted over the uniform points, and the rows are written
at those places, with no sort.  The estimate is a grid lower bound for
the truncated tail S_{N_ref} - S_n only: no certified upper end.  The
companion truncation slack sum_{N_ref < k <= 16 N_ref} |c_k| of a sine
series measures how much of the coefficient mass the reference horizon
leaves out; it reads a sequence's support when it lists one, so a
lacunary sequence costs its few powers of two, and any other sequence
through values_between.

The explicit bounds (closed-form Dirichlet kernel, the pi/x estimate, and
the test-point probe at x0) live here so the verification harness can
exercise each inequality separately.
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
    "dirichlet_sine",
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


def _merged(uniform: np.ndarray, ladder: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """The rows of uniform and ladder side by side, the ladder in the
    columns ``at``, in one 2-D array: no sort, no gather.  A row at a time,
    numpy writes a mask about three times as fast as a 2-D one."""
    uniform, ladder = np.atleast_2d(uniform, ladder)
    out = np.empty((uniform.shape[0], uniform.shape[1] + at.size),
                   np.result_type(uniform, ladder))
    rest = np.ones(out.shape[1], dtype=bool)
    rest[at] = False
    for row, values in zip(out, uniform):
        row[rest] = values
    out[:, at] = ladder
    return out


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

    def _layout(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(M, xs, at): xs the sorted points 0, pi/M, ..., pi and the
        ladder points that are not uniform, and xs[at] those ladder points.

        One searchsorted over the increasing uniform points gives each
        ladder point x the first uniform point >= x, which x may equal
        (x <= pi, the last one); a kept point comes after the uniform
        points below it and the kept points before it."""
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
        pos = np.searchsorted(uniform, ladder)
        keep = uniform[pos] != ladder
        at = pos[keep] + np.arange(np.count_nonzero(keep))
        return count, _merged(uniform, ladder[keep], at)[0], at

    def points(self) -> np.ndarray:
        return self._layout()[1][1:]

    def describe(self) -> str:
        return f"grid({self.n_ref},{OVERSAMPLE})"


# ---------------------------------------------------------------------------
# the sine Dirichlet kernel
# ---------------------------------------------------------------------------

def _require_x_in_halfperiod(x: float) -> None:
    if not (0.0 < x <= math.pi):
        raise SequenceError(f"x = {x} outside (0, pi]")


def dirichlet_sine(n: int, x: float) -> float:
    """sum_{k=1}^n sin kx via sin(nx/2) sin((n+1)x/2) / sin(x/2).

    Defined on (0, pi], where |result| <= pi/x.
    """
    _require_x_in_halfperiod(x)
    if n <= 0:
        return 0.0
    half = 0.5 * x
    return math.sin(n * half) * math.sin((n + 1) * half) / math.sin(half)


# ---------------------------------------------------------------------------
# partial-sum rows
# ---------------------------------------------------------------------------

def _checkpoint_list(checkpoints: Sequence[int]) -> list[int]:
    cps = sorted({int(c) for c in checkpoints})
    if cps and cps[0] < 0:
        raise SequenceError("negative checkpoint")
    return cps


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
    from idx = k mod 2M (size = 2M): the cumulative bins of w, folded in
    order of k, then Re or -Im of their real FFT."""
    if np.iscomplexobj(w):
        return (_uniform_rows(idx, w.real, ends, size, cosine)
                + 1j * _uniform_rows(idx, w.imag, ends, size, cosine))
    bins = np.empty((len(ends), size))
    for row, lo, hi in zip(bins, np.r_[0, ends[:-1]], ends):
        row[:] = np.bincount(idx[lo:hi], w[lo:hi], size)
    np.cumsum(bins, axis=0, out=bins)
    spectrum = np.fft.rfft(bins)
    return spectrum.real if cosine else -spectrum.imag


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
    """(xs, C, S): the sorted points 0, the grid points of (0, pi]; and per
    end e the rows at xs of C_e(x) = sum_{i<e} a_i cos k_i x (None when a
    is None) and S_e(x) = sum_{i<e} b_i sin k_i x, as arrays of shape
    (len(ends), len(xs)).  k holds the nonzero terms in increasing order.
    The uniform and ladder halves of each row are written in place, at
    the positions GridSpec._layout gives the ladder points."""
    M, xs, at = grid._layout()
    ladder_c, ladder_s = _ladder_rows(k, a, b, xs[at], ends)
    idx = k % (2 * M)

    def rows(w, ladder, cosine):
        return _merged(_uniform_rows(idx, w, ends, 2 * M, cosine), ladder, at)

    C = None if a is None else rows(a, ladder_c, True)
    return xs, C, rows(b, ladder_s, False)


def _rows(seq: CoefficientSequence, grid: GridSpec,
          checkpoints: Sequence[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """S_cp on the grid for every checkpoint cp, in one pass over k.

    Returns grid.points() and per checkpoint the row of the sine partial
    sum S_cp at them (float for real coefficients, else complex): the sine
    rows of _cos_sin_rows, with no cosine half, of the nonzero b_k up to
    the last checkpoint (see _terms, _uniform_rows and _ladder_rows).
    Every step is elementwise or a fixed-order sum: no BLAS product.
    """
    cps = _checkpoint_list(checkpoints)
    k, b = _terms(seq, cps[-1] if cps else 0)
    xs, _, S = _cos_sin_rows(k, None, b, grid,
                             np.searchsorted(k, cps, side="right"))
    return xs[1:], {cp: row[1:] for cp, row in zip(cps, S)}


def _two_sided_rows(ts: TwoSidedSequence, grid: GridSpec,
                    checkpoints: Sequence[int]
                    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """sum_{k<=cp} (c_k e^{ikx} + c_{-k} e^{-ikx}) for every checkpoint
    cp, at the grid points, their mirror images and 0, covering (-pi, pi]:
    C(|x|) +- S(|x|) with C the cosine rows of the pair sums c_k + c_{-k}
    and S the sine rows of i (c_k - c_{-k})."""
    cps = _checkpoint_list(checkpoints)
    n_max = cps[-1] if cps else 0
    a, b = ts.pair_sums(n_max), 1j * ts.pair_diffs(n_max)
    nz = np.flatnonzero((a != 0) | (b != 0))
    k = nz + 1
    xs, C, S = _cos_sin_rows(k, a[nz], b[nz], grid,
                             np.searchsorted(k, cps, side="right"))
    inner = slice(-2, 0, -1)    # the points of (0, pi), mirrored
    rows = {cp: np.concatenate([c[inner] - s[inner], c + s])
            for cp, c, s in zip(cps, C, S)}
    return np.concatenate([-xs[inner], xs]), rows


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

    pos = np.asarray(ts.pos.prefix(4 * n), dtype=complex)
    lhs = 2.0 * exact_sum(pos[n:].real * sines)
    pair_abs = exact_sum(np.abs(ts.pair_sums(4 * n)[n:]))

    _, rows = _two_sided_rows(ts, GridSpec(n_ref=n), [n, 4 * n])
    norm_diff = float(np.abs(rows[4 * n] - rows[n]).max())
    return ProbeResult(sin_floor_ok, lhs, norm_diff, pair_abs)


# ---------------------------------------------------------------------------
# convergence curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveEntry:
    n: int
    sup_estimate: float
    truncation_slack: float
    max_k_ck: float


@dataclass
class TailNormCurve:
    """Tail sup-norm estimates against the n*c_n diagnostic, per n, with
    the grid and the resolved reference horizon N_ref they were taken at."""

    entries: list
    grid: str
    n_ref: int
    reference_horizon: int
    slack_settled: bool

    CSV_HEADER = "n,sup_estimate,truncation_slack,max_k_ck"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for e in self.entries:
            lines.append(f"{e.n},{e.sup_estimate!r},"
                         f"{e.truncation_slack!r},{e.max_k_ck!r}")
        return "\n".join(lines) + "\n"


def _tail_rows(seq: CoefficientSequence, n_list: Sequence[int],
               N_ref: Optional[int]
               ) -> tuple[list[tuple[int, float, float]], int, GridSpec]:
    """(n, tail sup-norm estimate, max_{k in [n, 2n)} k|c_k|) per n, with
    the resolved N_ref and grid (see convergence_curve), from one pass of
    _rows.  Finite input whose estimate or k|c_k| overflows the float range
    raises SequenceError."""
    ns = [int(v) for v in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise SequenceError("n_list must be strictly increasing, n >= 1")
    n_max = ns[-1]
    grid = GridSpec(n_ref=n_max)
    N_ref = _default_nref(n_max) if N_ref is None else int(N_ref)
    if N_ref <= n_max:
        raise SequenceError("reference horizon must exceed max(n_list)")
    k = _indices(2 * n_max).astype(float)
    # finite input can overflow in a partial sum, a difference or k|c_k|:
    # the non-finite values are rejected below, with no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        _, rows = _rows(seq, grid, ns + [N_ref])
        weighted = k * np.abs(seq.prefix(2 * n_max))
        sups = [float(np.abs(rows[N_ref] - rows[n]).max()) for n in ns]

    out = []
    for n, sup in zip(ns, sups):
        mk = float(weighted[n - 1:2 * n - 1].max())
        _require_finite(sup, f"the tail sup-norm estimate at n = {n}")
        _require_finite(mk, f"max k|c_k| over [{n}, {2 * n})")
        out.append((n, sup, mk))
    return out, N_ref, grid


def convergence_curve(seq: CoefficientSequence, n_list: Sequence[int],
                      N_ref: Optional[int] = None) -> TailNormCurve:
    """Tail sup-norm estimate and max_{k in [n, 2n)} k|c_k| per n.

    All n share one reference horizon and one grid, GridSpec(n_ref=max n),
    so every row is computed in a single pass and the rows are comparable
    across n.  Finite input whose estimate, k|c_k| or slack
    overflows the float range raises SequenceError.
    """
    rows, N_ref, grid = _tail_rows(seq, n_list, N_ref)
    with np.errstate(over="ignore", invalid="ignore"):
        slack, settled = truncation_slack(seq, N_ref)
    entries = [CurveEntry(n, sup, slack, mk) for n, sup, mk in rows]
    return TailNormCurve(entries, grid.describe(), grid.n_ref, N_ref,
                         settled)
