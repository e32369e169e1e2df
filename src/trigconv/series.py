"""Partial sums and tail-norm machinery for trigonometric series.

Evaluation targets the two series shapes the checkers care about:

* sine series  sum_{k>=1} b_k sin kx  (b real or complex), evaluated on
  (0, pi] and extended by oddness/periodicity;
* two-sided exponential series  c_0 + sum_{k>=1} (c_k e^{ikx} +
  c_{-k} e^{-ikx}), evaluated on (-pi, pi] directly.

One engine evaluates both on a grid: a sine series is the two-sided series
c_{+-k} = +-b_k / 2i.  On the uniform points x_j = pi j/M a term depends on
k only through k mod 2M, so each partial-sum row there is one unscaled
length-2M inverse FFT of the coefficients folded into 2M bins.  The
geometric ladder lies off that grid.  There the terms are summed directly
over the nonzero coefficients by blocked angle addition: with a block
length B, a power of two near sqrt(k_max) taken from the support, each
k = Bq + r gives e^{ikx} = e^{iBqx} e^{irx}, so a point costs about
2 sqrt(k_max) calls to exp plus one gather and one multiply per nonzero
term, for dense and sparse (lacunary) supports alike.

Sup-norms are estimated from below by grid maxima of |S_{N_ref} - S_n|
over an adaptive grid that always contains the critical points
x0 = pi/(8 n_ref) and the geometric ladder x0 * 2^{j/4}.  The estimate is
a grid lower bound for the truncated tail S_{N_ref} - S_n only: no
certified upper end is computed.  The companion truncation slack
sum_{N_ref < k <= 16 N_ref} |c_k| of a sine series measures how much of
the coefficient mass the reference horizon leaves out; it reads only the
sequence's support, so a lacunary sequence costs its few powers of two.

The explicit bounds (closed-form Dirichlet kernel, the pi/x estimate, the
summation-by-parts tail bound, and the test-point probe at x0) live here so
the verification harness can exercise each inequality separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .conditions import HOLDS, STABILIZATION_THRESHOLD, check_pair_sector
from .sequences import (
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    _indices,
    _require_finite,
    sector_dominance_constant,
)
from .summation import exact_sum

__all__ = [
    "GridSpec",
    "CurveEntry",
    "TailNormCurve",
    "ProbeResult",
    "dirichlet_sine",
    "truncation_slack",
    "abel_tail_bound",
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


def _fold(k: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """Bins b[r] = sum of w over k = r mod size, summed in input order."""
    idx = k % size
    return np.bincount(idx, w.real, size) + 1j * np.bincount(idx, w.imag, size)


def _block_length(k_max: int) -> int:
    """The block length B of the angle addition: a power of two near
    sqrt(k_max), so that both tables hold about sqrt(k_max) entries."""
    return 1 << (k_max.bit_length() // 2)


def _rows(obj: Union[CoefficientSequence, TwoSidedSequence], grid: GridSpec,
          checkpoints: Sequence[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """S_cp on the grid for every checkpoint cp, in one pass over k.

    Returns the sorted evaluation points -- grid.points() for a sine
    series; for a two-sided one, those points, their mirror images and 0,
    covering (-pi, pi] -- and per checkpoint the row of S_cp at them (float
    for a real sine series, else complex).  A sine series runs as the
    two-sided series c_{+-k} = +-b_k / 2i.  On the uniform points pi j/M a
    row is one unscaled length-2M inverse FFT of the coefficients folded by
    k mod 2M.  At each other point x the nonzero terms are summed directly,
    in order of k and one checkpoint segment at a time, with e^{ikx} built
    by blocked angle addition: k = Bq + r (B from _block_length of the
    largest nonzero k) and e^{ikx} = e^{i(Bq)x} e^{irx}, gathered from one
    table of each factor, exp evaluated at the exact integer Bq or r times
    x.  Every step is a fixed-order numpy operation: no BLAS product.
    """
    cps = _checkpoint_list(checkpoints)
    n_max = cps[-1] if cps else 0
    M, off = grid._split()
    if isinstance(obj, TwoSidedSequence):
        c0, real = complex(obj.c0), False
        pv, nv = obj.pos.prefix(n_max), obj.neg.prefix(n_max)
        nz = np.flatnonzero((pv != 0) | (nv != 0))
        pos, neg = pv[nz].astype(complex), nv[nz].astype(complex)
        j = np.arange(-M + 1, M + 1)
        off = np.concatenate([-off[::-1], off])
    else:
        c0, real = 0j, obj.is_real
        b = obj.prefix(n_max)
        nz = np.flatnonzero(b)
        pos = b[nz] / 2j
        neg = -pos
        j = np.arange(1, M + 1)
    k = nz + 1
    ends = np.searchsorted(k, cps, side="right")

    B = _block_length(int(k[-1]) if k.size else 1)
    q, r = np.divmod(k, B)
    high = B * np.arange(int(q[-1]) + 1 if k.size else 1)
    low = np.arange(B)
    direct = np.empty((len(cps), off.shape[0]), dtype=complex)
    for i, x in enumerate(off):
        e = np.exp(1j * (high * x))[q]
        e *= np.exp(1j * (low * x))[r]
        terms = pos * e
        terms += neg * np.conj(e)
        acc, lo = c0, 0
        for row, hi in enumerate(ends):
            acc += terms[lo:hi].sum()
            direct[row, i] = acc
            lo = hi

    xs = np.concatenate([_uniform_points(j, M), off])
    order = np.argsort(xs, kind="stable")
    size = 2 * M
    bins = np.zeros(size, dtype=complex)
    bins[0] = c0
    rows: dict[int, np.ndarray] = {}
    lo = 0
    for cp, hi, d in zip(cps, ends, direct):
        bins += _fold(k[lo:hi], pos[lo:hi], size) + _fold(-k[lo:hi], neg[lo:hi], size)
        lo = hi
        row = np.concatenate([np.fft.ifft(bins, norm="forward")[j % size], d])[order]
        rows[cp] = row.real if real else row
    return xs[order], rows


# ---------------------------------------------------------------------------
# tail norms and slack
# ---------------------------------------------------------------------------

def _default_nref(n: int) -> int:
    return max(1 << 16, 64 * n)


def _support_chunks(seq: CoefficientSequence, lo: int, hi: int):
    """Index arrays covering every k in (lo, hi] where c_k may be nonzero:
    seq.support(lo, hi) when the sequence lists its support, else the whole
    range in chunks of 2^20, so no huge prefix is built or cached."""
    if seq.support is not None:
        yield seq.support(lo, hi)
        return
    step = 1 << 20
    for start in range(lo, hi, step):
        yield np.arange(start + 1, min(hi, start + step) + 1, dtype=np.int64)


def _abs_range_sum(seq: CoefficientSequence, lo: int, hi: int) -> float:
    """sum_{k=lo+1}^{hi} |c_k|, read on the support of c; explicit data
    counts only up to its length.  Only the nonzero |c_k| reach the exact
    sum; zeros do not change it."""
    if seq.length is not None:
        hi = min(hi, seq.length)
    parts = []
    for k in _support_chunks(seq, lo, hi):
        a = np.abs(seq.values_at(k))
        parts.append(exact_sum(a[a != 0.0]))
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
# explicit bounds
# ---------------------------------------------------------------------------

def abel_tail_bound(c: CoefficientSequence, N: int, x: float,
                    horizon: int) -> float:
    """(pi/x) * (sum_{k=N}^{H} |c_k - c_{k+1}| + |c_N|), the
    summation-by-parts tail estimate at truncation horizon H."""
    _require_x_in_halfperiod(x)
    if N < 1:
        raise SequenceError("N >= 1 required")
    H = int(horizon)
    if H < N:
        raise SequenceError("horizon below N")
    vals = np.asarray(c.prefix(H + 1))
    var = exact_sum(np.abs(vals[N - 1:H] - vals[N:H + 1]))
    return (math.pi / x) * (var + abs(complex(vals[N - 1])))


@dataclass
class ProbeResult:
    """Outcome of the test-point probe at x0 = pi/(8n)."""

    n: int
    x0: float
    sin_floor_ok: bool
    premises_ok: bool
    lhs: float                 # 2 sum Re c_k sin k x0 over (n, 4n]
    norm_diff: float           # grid max of |S_{4n} - S_n|
    pair_abs_sum: float        # sum |c_k + c_{-k}| over (n, 4n]
    slack: float               # norm_diff + pair_abs_sum - lhs
    lower_reference: float     # n |c_{2n}| / (sector dominance constant)
    grid_size: int

    @property
    def inequality_ok(self) -> bool:
        scale = max(1.0, abs(self.lhs), self.norm_diff)
        return self.slack >= -1e-9 * scale


def testpoint_block_probe(ts: TwoSidedSequence, n: int,
                          sector: Sector) -> ProbeResult:
    """Probe the three-term inequality at the test point x0 = pi/(8n):

        2 sum_{k=n+1}^{4n} Re c_k sin k x0
            <= max_grid |S_{4n} - S_n| + sum_{k=n+1}^{4n} |c_k + c_{-k}|.

    Every k in (n, 4n] has k*x0 in (pi/8, pi/2], hence sin k x0 >=
    sin(pi/8); the sector membership of the pair sums/differences is the
    probe's premise and is checked on [1, 4n].  x0 belongs to the grid, so
    the right side genuinely dominates the left up to round-off; the slack
    is recorded.  lower_reference carries the chain value (window N0 = 1)
    n |c_{2n}| / M(theta0) for comparison against the norm difference.
    """
    if n < 1:
        raise SequenceError("n >= 1 required")
    x0 = math.pi / (8.0 * n)
    k = np.arange(n + 1, 4 * n + 1, dtype=float)
    sines = np.sin(k * x0)
    sin_floor_ok = bool(np.all(sines >= math.sin(math.pi / 8.0) - 1e-12))

    premises_ok = check_pair_sector(ts, sector, 4 * n).verdict == HOLDS

    pos = np.asarray(ts.pos.prefix(4 * n), dtype=complex)
    lhs = 2.0 * exact_sum(pos[n:].real * sines)
    pair_abs = exact_sum(np.abs(ts.pair_sums(4 * n)[n:]))

    xs, rows = _rows(ts, GridSpec(n_ref=n), [n, 4 * n])
    norm_diff = float(np.abs(rows[4 * n] - rows[n]).max())

    c2n = abs(complex(pos[2 * n - 1]))
    lower_ref = n * c2n / sector_dominance_constant(sector)
    return ProbeResult(n, x0, sin_floor_ok, premises_ok, lhs, norm_diff,
                       pair_abs, norm_diff + pair_abs - lhs, lower_ref,
                       int(xs.shape[0]))


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
