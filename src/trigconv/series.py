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
cos(Bqx) sin(rx), so a point evaluates sin and cos of Bqx for the distinct
q that occur and of rx for the r, forms the product table T[q, r], and
reads the terms from it: a slice when the support is one run of k, else
one gather.

Sup-norms are estimated from below by grid maxima of |S_{N_ref} - S_n|
over an adaptive grid that always contains the critical points
x0 = pi/(8 n_ref) and the geometric ladder x0 * 2^{j/4}.  The estimate is
a grid lower bound for the truncated tail S_{N_ref} - S_n only: no
certified upper end is computed.  The companion truncation slack
sum_{N_ref < k <= 16 N_ref} |c_k| of a sine series measures how much of
the coefficient mass the reference horizon leaves out; it reads only the
sequence's support, so a lacunary sequence costs its few powers of two.

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
    _PIECE,
    _indices,
    _range_indices,
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

# Cap on the uniform grid size M: for n_ref > 1024 the uniform part has
# fewer than 8 points per oscillation.
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

    Points: the uniform points pi j/M, j = 1..M, with M = oversample * n_ref
    capped at MAX_UNIFORM, and the geometric ladder x0 * 2^{j/4} with
    x0 = pi/(8 n_ref) -- always containing x0 itself exactly.
    """

    n_ref: int
    oversample: int = 8

    def __post_init__(self):
        if self.n_ref < 1 or self.oversample < 1:
            raise SequenceError("grid needs n_ref and oversample >= 1")

    @property
    def x0(self) -> float:
        return math.pi / (8.0 * self.n_ref)

    def _split(self) -> tuple[int, np.ndarray]:
        """(M, the sorted ladder points that are not uniform)."""
        count = min(self.oversample * self.n_ref, MAX_UNIFORM)
        ladder = []
        j = 0
        while True:
            x = self.x0 * 2.0 ** (j / 4.0)
            if x > math.pi:
                break
            ladder.append(x)
            j += 1
        off = np.asarray(ladder)
        uniform = _uniform_points(np.arange(1, count + 1), count)
        return count, off[~np.isin(off, uniform)]

    def points(self) -> np.ndarray:
        count, off = self._split()
        return np.sort(np.concatenate(
            [_uniform_points(np.arange(1, count + 1), count), off]))

    def describe(self) -> str:
        return f"grid({self.n_ref},{self.oversample})"


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


def _ladder_rows(k: np.ndarray, a: Optional[np.ndarray], b: np.ndarray,
                 off: np.ndarray, ends: np.ndarray
                 ) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Per end e, sum_{i<e} a_i cos k_i x and sum_{i<e} b_i sin k_i x at
    each point x of off (no cosine half when a is None), by blocked angle
    addition over the table T[q, r] of the distinct q and the r."""
    n = k.size
    cos_rows = None if a is None else np.zeros((len(ends), off.size), a.dtype)
    sin_rows = np.zeros((len(ends), off.size), b.dtype)
    if n == 0:
        return cos_rows, sin_rows
    B = _block_length(int(k[-1]))
    q, r = np.divmod(k, B)
    if k[-1] - k[0] + 1 == n:
        # one run of k: T covers q[0]..q[-1] times every r, and the terms
        # are the slice of T.ravel() from k[0] - B q[0]
        uq, ur = np.arange(q[0], q[-1] + 1), np.arange(B)
        start = int(k[0] - B * q[0])
        flat = None
    else:
        uq, qi = np.unique(q, return_inverse=True)
        ur, ri = np.unique(r, return_inverse=True)
        flat = qi * ur.size + ri
    # sin and cos of Bq x and of r x, from one array of the integers Bq, r
    angles = np.concatenate([B * uq, ur]).astype(float)
    ax, sin_, cos_ = (np.empty_like(angles) for _ in range(3))
    sh, sl = sin_[:uq.size], sin_[uq.size:]
    ch, cl = cos_[:uq.size], cos_[uq.size:]
    table, other = np.empty((uq.size, ur.size)), np.empty((uq.size, ur.size))
    flat_table = table.ravel()
    picked = None if flat is None else np.empty(n)
    bounds = list(zip(np.r_[0, ends[:-1]].tolist(), ends.tolist()))
    halves = [(b, np.empty(n, b.dtype), sin_rows, False)]
    if a is not None:
        halves.append((a, np.empty(n, a.dtype), cos_rows, True))

    for i, x in enumerate(off.tolist()):
        np.multiply(angles, x, out=ax)
        np.sin(ax, out=sin_)
        np.cos(ax, out=cos_)
        for w, terms, rows, cosine in halves:
            if cosine:      # cos kx = cos Bqx cos rx - sin Bqx sin rx
                np.multiply.outer(ch, cl, out=table)
                np.multiply.outer(sh, sl, out=other)
                table -= other
            else:           # sin kx = sin Bqx cos rx + cos Bqx sin rx
                np.multiply.outer(sh, cl, out=table)
                np.multiply.outer(ch, sl, out=other)
                table += other
            if flat is None:
                trig = flat_table[start:start + n]
            else:
                trig = np.take(flat_table, flat, out=picked)
            np.multiply(w, trig, out=terms)
            acc = 0.0
            for row, (lo, hi) in enumerate(bounds):
                acc += terms[lo:hi].sum()
                rows[row, i] = acc
    return cos_rows, sin_rows


def _cos_sin_rows(k: np.ndarray, a: Optional[np.ndarray], b: np.ndarray,
                  grid: GridSpec, ends: np.ndarray):
    """(xs, C, S): the sorted points 0, the grid points of (0, pi]; and per
    end e the rows at xs of C_e(x) = sum_{i<e} a_i cos k_i x (None when a
    is None) and S_e(x) = sum_{i<e} b_i sin k_i x, as arrays of shape
    (len(ends), len(xs)).  k holds the nonzero terms in increasing order."""
    M, off = grid._split()
    xs = np.concatenate([_uniform_points(np.arange(M + 1), M), off])
    order = np.argsort(xs, kind="stable")
    ladder_c, ladder_s = _ladder_rows(k, a, b, off, ends)
    idx = k % (2 * M)

    def rows(w, ladder, cosine):
        uniform = _uniform_rows(idx, w, ends, 2 * M, cosine)
        return np.concatenate([uniform, ladder], axis=1)[:, order]

    C = None if a is None else rows(a, ladder_c, True)
    return xs[order], C, rows(b, ladder_s, False)


def _rows(seq: CoefficientSequence, grid: GridSpec,
          checkpoints: Sequence[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """S_cp on the grid for every checkpoint cp, in one pass over k.

    Returns grid.points() and per checkpoint the row of the sine partial
    sum S_cp at them (float for real coefficients, else complex): the sine
    rows of _cos_sin_rows, with no cosine half.  The terms are the nonzero
    b_k up to the last checkpoint, read on the support when the sequence
    lists one.  On the uniform points pi j/M a row is S_j = -Im(rfft(w))_j
    of the coefficients w folded by k mod 2M.  At each ladder point x the
    terms are summed directly, in order of k and one checkpoint segment at
    a time, with sin kx read from the table T[q, r] = sin(Bqx) cos(rx) +
    cos(Bqx) sin(rx) of k = Bq + r (B from _block_length of the largest
    k): sin and cos are evaluated at the exact integers Bq, for the
    distinct q only, and r times x, and T is read by one slice when the k
    form a single run, else by one gather.  Every step is elementwise or a
    fixed-order sum: no BLAS product.
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


def _support_chunks(seq: CoefficientSequence, lo: int, hi: int):
    """(size, index pieces) per chunk of the k in (lo, hi] where c_k may
    be nonzero: seq.support(lo, hi) as one chunk of one piece when the
    sequence lists its support, else the whole range in chunks of 2^20
    and pieces of _PIECE, so no huge prefix or index array is built or
    cached."""
    if seq.support is not None:
        k = seq.support(lo, hi)
        yield k.shape[0], (k,)
        return
    step = 1 << 20
    for start in range(lo, hi, step):
        stop = min(hi, start + step)
        bounds = [(a, min(stop, a + _PIECE))
                  for a in range(start, stop, _PIECE)]
        yield stop - start, (_range_indices(a, b) for a, b in bounds)


def _abs_range_sum(seq: CoefficientSequence, lo: int, hi: int) -> float:
    """sum_{k=lo+1}^{hi} |c_k|, read on the support of c; explicit data
    counts only up to its length.  One exact sum per chunk: each piece
    writes its nonzero |c_k| into the chunk's buffer, as zeros do not
    change the sum.  The chunks stay at 2^20 indices, because math.fsum over more
    rounded chunk sums could change the last bit."""
    if seq.length is not None:
        hi = min(hi, seq.length)
    parts = []
    for size, pieces in _support_chunks(seq, lo, hi):
        buf, m = np.empty(size), 0
        for k in pieces:
            a = np.abs(seq.values_at(k))
            a = a[a != 0.0]
            buf[m:m + a.shape[0]] = a
            m += a.shape[0]
        parts.append(exact_sum(buf[:m]))
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
               N_ref: Optional[int], oversample: int = 8
               ) -> tuple[list[tuple[int, float, float]], int, GridSpec]:
    """(n, tail sup-norm estimate, max_{k in [n, 2n)} k|c_k|) per n, with
    the resolved N_ref and grid (see convergence_curve), from one pass of
    _rows.  Finite input whose estimate or k|c_k| overflows the float range
    raises SequenceError."""
    ns = [int(v) for v in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise SequenceError("n_list must be strictly increasing, n >= 1")
    n_max = ns[-1]
    grid = GridSpec(n_ref=n_max, oversample=oversample)
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
                      N_ref: Optional[int] = None,
                      oversample: int = 8) -> TailNormCurve:
    """Tail sup-norm estimate and max_{k in [n, 2n)} k|c_k| per n.

    All n share one reference horizon and one grid, GridSpec(n_ref=max n,
    oversample), so every row is computed in a single pass and the rows are
    comparable across n.  Finite input whose estimate, k|c_k| or slack
    overflows the float range raises SequenceError.
    """
    rows, N_ref, grid = _tail_rows(seq, n_list, N_ref, oversample)
    with np.errstate(over="ignore", invalid="ignore"):
        slack, settled = truncation_slack(seq, N_ref)
    entries = [CurveEntry(n, sup, slack, mk) for n, sup, mk in rows]
    return TailNormCurve(entries, grid.describe(), grid.n_ref, N_ref,
                         settled)
