"""Condition checkers for coefficient sequences.

Each checker examines a finite prefix and returns a ConditionReport with a
three-way verdict:

* ``holds``        -- the defining inequalities hold on the checked range and
                      the truncated quantities have stabilized;
* ``fails``        -- a concrete witness index violates the condition;
* ``inconclusive`` -- no violation, but a truncated sum is still moving
                      (its last dyadic block contributes more than the
                      stabilization threshold), so no finite constant can be
                      trusted.

Condition vocabulary (ids):

    MONOTONE                  b_n non-increasing
    QUASIMONOTONE(alpha)      b_n / n**alpha non-increasing
    ORV_WEIGHT(R)             R positive, non-decreasing, sup R(2n)/R(n) finite
    ORVQM(R, theta0)          c_n/R(n) - c_{n+1}/R(n+1) in K(theta0) for all n
    REST_BV                   sum_{n>=m} |b_n - b_{n+1}| <= M * b_m
    WEIGHTED_REST_BV[_REAL]   same with c_n/R(n) and |c_m|/R(m)
    GROUP_BV(N0)              sum_{n=m}^{2m} |c_n - c_{n+1}|
                                  <= M * max_{m <= n < m+N0} |c_n|
    PAIR_SECTOR(theta0)       c_n + c_-n and c_n - c_-n in K(theta0)

Differences are always Delta c_n = c_n - c_{n+1}.  All long sums run
through the deterministic helpers in :mod:`trigconv.summation`.

The one-sided checkers (MONOTONE, QUASIMONOTONE, REST_BV, WEIGHTED_REST_BV,
GROUP_BV, ORVQM) read a :class:`PrefixView`: ``g[n-1] = c_n/R(n)`` and the
tail sums ``tail[m-1] = sum_{n>=m} |g_n - g_{n+1}|`` from one
``suffix_sums`` call, built once per (sequence, horizon, weight) by the
caller and never cached on the sequence.  Two dtype rules: without a
weight ``g`` is the prefix itself, real or complex as stored, with no
division and no copy; a weight divides in complex arithmetic, even for
real input, and truncates N where R overflows to infinity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .sequences import (
    ANGLE_TOL,
    REL_TOL,
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    WeightSequence,
    _require_finite,
)
from .summation import exact_sum, suffix_sums

__all__ = [
    "ConditionReport",
    "PrefixView",
    "check_quasimonotone",
    "check_orv_weight",
    "check_orvqm",
    "check_rest_bv",
    "check_weighted_rest_bv",
    "check_group_bv",
    "check_pair_sector",
    "classify",
    "dyadic_block_maxima",
    "DEFAULT_HORIZON",
    "STABILIZATION_THRESHOLD",
    "NULL_TREND_TOL",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Default truncation horizon for generator-backed sequences; explicit
# sequences default to their data length.
DEFAULT_HORIZON = 1 << 20

# A truncated sum counts as stabilized when its last dyadic block [N/2, N]
# contributes at most this fraction of the total.
STABILIZATION_THRESHOLD = 1e-3

# Trend tolerance for an "n*c_n -> 0" check.  Every run manifest records it
# (tolerances.null_trend_tol), but no checker reads it.
NULL_TREND_TOL = 0.1


@dataclass
class ConditionReport:
    """Outcome of one condition check on one sequence prefix."""

    condition: str
    verdict: str
    constant: Optional[float]
    witness: Optional[int]
    m_min: int
    m_max: int
    horizon: int
    stabilization: Optional[float]
    notes: str = field(default="", compare=False)

    def __post_init__(self):
        for value in (self.constant, self.stabilization):
            if value is not None:
                _require_finite(value, f"{self.condition} constant")

    def to_json_dict(self) -> dict:
        """Stable serialization shape used by the CLI and the schemas."""
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "constant": self.constant,
            "witness": self.witness,
            "range": {"m_min": self.m_min, "m_max": self.m_max,
                      "horizon": self.horizon},
            "stabilization": self.stabilization,
        }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def resolve_horizon(seq: CoefficientSequence, horizon: Optional[int]) -> int:
    if horizon is not None:
        return int(horizon)
    return DEFAULT_HORIZON if seq.length is None else seq.length


def _scan_range(N: int, m_range, last: int) -> range:
    """The m of m_range (default [1, N/4]) up to ``last``, the largest m
    whose terms lie inside a prefix of N terms."""
    if m_range is None:
        m_lo, m_hi = 1, max(1, N // 4)
    else:
        m_lo, m_hi = int(m_range[0]), int(m_range[1])
        if m_lo < 1 or m_hi < m_lo:
            raise SequenceError(f"bad index range [{m_lo}, {m_hi}]")
    return range(m_lo, min(m_hi, last) + 1)


def _require_scan(scan: range, N: int) -> range:
    """The fit rule: a scan that leaves no m is an input error, never a
    verdict over an empty range."""
    if not scan:
        raise SequenceError(f"horizon {N} too small for the scan starting "
                            f"at m = {scan.start}")
    return scan


def dyadic_block_maxima(vals: np.ndarray) -> list[float]:
    """Maxima of vals over the dyadic index blocks [2^j, 2^(j+1)) (1-based).

    The last block [2^K, N] is cut at the array's end.  When it holds fewer
    than 2^(K-1) terms, fewer than the block before it, it is merged into
    that block, [2^(K-1), N]: a final maximum never rests on a few terms
    (at N = 2^K the cut block is the single term n = N).  The last block
    starts at 2^(len - 1) either way.
    """
    N = vals.shape[0]
    K = N.bit_length() - 1
    count = K if K >= 1 and N - (1 << K) + 1 < 1 << (K - 1) else K + 1
    starts = (1 << np.arange(count)) - 1
    return np.maximum.reduceat(vals, starts).tolist()


@dataclass(frozen=True, eq=False)
class PrefixView:
    """g and tail (see the module docstring) of one prefix, tail[N-1] = 0;
    ``weight`` None means R = 1."""

    seq: CoefficientSequence
    weight: Optional[WeightSequence]
    g: np.ndarray
    tail: np.ndarray

    @classmethod
    def of(cls, seq: CoefficientSequence, horizon: Optional[int] = None,
           weight: Optional[WeightSequence] = None) -> "PrefixView":
        g = seq.prefix(resolve_horizon(seq, horizon))
        if weight is not None:
            rvals, finite_len = weight.validated_prefix(g.shape[0])
            if finite_len < 2:
                raise SequenceError(
                    f"weight {weight.label!r} is finite for {finite_len} of "
                    f"{g.shape[0]} terms; the weighted checks need at least 2")
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.divide(g[:finite_len], rvals[:finite_len], dtype=complex)
        absdiff = np.zeros(g.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            np.abs(g[:-1] - g[1:], out=absdiff[:-1])
        try:  # inf or NaN in g or in a difference reaches tail[0]
            tail = suffix_sums(absdiff)
        except OverflowError:  # math.fsum: the exact sum is past the range
            tail = np.array([np.inf])
        _require_finite(tail[0], "the variation sum of c_n/R(n)")
        return cls(seq, weight, g, tail)

    @property
    def N(self) -> int:
        return self.g.shape[0]

    @property
    def weight_label(self) -> str:
        return "one" if self.weight is None else self.weight.label

    @cached_property
    def nonneg_real(self) -> bool:
        """c_1..c_N real and >= 0 (c, not c/R, for a weighted view)."""
        c = self.seq.prefix(self.N)
        return self.seq.is_real and bool(np.all(c >= 0.0))

    def unweighted(self, cond: str) -> np.ndarray:
        """g, which must be the sequence itself for condition ``cond``."""
        if self.weight is not None:
            raise SequenceError(f"{cond} needs the unweighted view of "
                                f"{self.seq.label!r}")
        return self.g

    def nonneg(self, cond: str) -> np.ndarray:
        """g, which must be the sequence itself, real and nonnegative, for
        condition ``cond``."""
        g = self.unweighted(cond)
        if not self.nonneg_real:
            raise SequenceError(
                f"not a nonnegative sequence: {self.seq.label!r}")
        return g

    def block_sums(self, m: np.ndarray) -> np.ndarray:
        """sum_{n=m}^{min(2m, N-1)} |g_n - g_{n+1}| for each m, as
        differences of the tail sums."""
        return self.tail[m - 1] - self.tail[np.minimum(2 * m, self.N - 1)]


# Pairs per span of the early-exit scans below: a failing prefix costs the
# spans up to its witness, and no temporary outgrows one span.
_SPAN = 1 << 16


def _first_flagged(pairs: int, flagged) -> Optional[int]:
    """1-based index n of the first violating pair (n, n+1), n in 1..pairs.

    ``flagged(lo, hi)`` returns the offset from lo of the first violation
    among the pairs lo+1..hi, which read the terms lo+1..hi+1, or None.
    Spans of _SPAN pairs run in order and the scan returns at the first
    span with a violation, so it reports the same n as one scan of every
    pair.
    """
    for lo in range(0, pairs, _SPAN):
        hit = flagged(lo, min(lo + _SPAN, pairs))
        if hit is not None:
            return lo + hit + 1
    return None


def _first_increase(x: np.ndarray) -> Optional[int]:
    """0-based index i of the first pair with x[i+1] > x[i] beyond tolerance,
    or None.

    Only a pair with b > a can pass b > a + REL_TOL max(|a|, |b|): the slack
    is >= 0 and rounding is monotone, so b <= a gives a + slack >= a >= b,
    and a NaN compares false either way.  The slack test runs on those
    candidates alone, on the same operands, so it flags the same pairs as a
    test of every pair.
    """
    cand = np.flatnonzero(x[1:] > x[:-1])
    if not cand.size:
        return None
    a, b = x[cand], x[cand + 1]
    slack = REL_TOL * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(over="ignore"):  # no float exceeds an inf a + slack
        bad = b > a + slack
    return int(cand[np.argmax(bad)]) if bad.any() else None


def _top_ratios(ratios: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest ratios, largest first and ties by
    index: ``np.argsort(-ratios, kind="stable")[:count]`` without sorting
    every ratio."""
    key = -ratios
    if key.shape[0] <= count:
        return np.argsort(key, kind="stable")
    cut = np.partition(key, count - 1)[count - 1]
    if np.isnan(cut):  # fewer than count ordered values
        return np.argsort(key, kind="stable")[:count]
    above = np.flatnonzero(key < cut)
    tied = np.flatnonzero(key == cut)[:count - above.shape[0]]
    top = np.concatenate([above, tied])
    return top[np.lexsort((top, key[top]))]


def _snap_small(diffs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Zero out differences below round-off scale (plateau protection)."""
    out = diffs.copy()
    out[np.abs(diffs) <= REL_TOL * scale] = 0.0
    return out


def _sector_scan(z: np.ndarray, bound: float) -> tuple[Optional[int], float]:
    """(the first 1-based n with |arg z_n| > bound, or None; the largest
    |arg z_n|, 0.0 for empty z), taking arg 0 = 0."""
    ang = np.zeros(z.shape[0])
    nonzero = z != 0
    ang[nonzero] = np.abs(np.arctan2(z[nonzero].imag, z[nonzero].real))
    outside = ~(ang <= bound)
    witness = int(np.argmax(outside)) + 1 if outside.any() else None
    return witness, float(ang.max()) if ang.size else 0.0


def _first_real_outside(g: np.ndarray, bound: float) -> Optional[int]:
    """0-based index i of the first snapped difference g[i] - g[i+1] of a
    real g with |arg| > bound, or None.

    A real difference d has arg 0 when d >= 0 (snapping keeps it >= 0), and
    |arg| pi or NaN otherwise, and pi > bound for every theta0 < pi/2.  So
    only the pairs with ~(d >= 0) can leave the sector; the snap and the
    sector test run on those candidates alone, on the same operands.
    """
    d = g[:-1] - g[1:]
    cand = np.flatnonzero(~(d >= 0.0))
    if not cand.size:
        return None
    scale = np.maximum(np.abs(g[cand]), np.abs(g[cand + 1]))
    witness, _ = _sector_scan(_snap_small(d[cand], scale), bound)
    return None if witness is None else int(cand[witness - 1])


# ---------------------------------------------------------------------------
# monotonicity-type conditions
# ---------------------------------------------------------------------------

def check_quasimonotone(view: PrefixView,
                        alpha: float = 0.0) -> ConditionReport:
    """Is b_n / n**alpha non-increasing on the checked range?

    alpha = 0 is plain monotonicity (condition id MONOTONE).  Takes the
    unweighted view of a nonnegative real sequence.  Comparisons allow
    relative round-off of 1e-12 so that plateaus generated in floating
    point still count as non-increasing.

    The quotient is formed one span at a time and the scan stops at the
    first violation.  Each span's n and n**alpha are the same floats as in
    one arange over 1..N, so every quotient keeps its bits; alpha = 0 skips
    the division, since b / 1.0 is b.
    """
    cond = "MONOTONE" if alpha == 0 else f"QUASIMONOTONE(alpha={alpha:g})"
    vals, N = view.nonneg(cond), view.N

    def increase(lo: int, hi: int) -> Optional[int]:
        x = vals[lo:hi + 1]
        if alpha != 0:
            x = x / np.arange(lo + 1, hi + 2, dtype=float) ** alpha
        return _first_increase(x)

    witness = _first_flagged(N - 1, increase)
    if witness is None:
        return ConditionReport(cond, HOLDS, None, None, 1, N, N, None)
    return ConditionReport(cond, FAILS, None, witness, 1, N, N, None)


def check_orv_weight(weight: WeightSequence, horizon: int) -> ConditionReport:
    """Does the weight look O-regularly varying on data?

    Checks positivity and monotonicity (errors on violation), then measures
    r_n = R(2n)/R(n).  The verdict is ``holds`` when the running maximum of
    r_n is stable over the last dyadic block of n; a growing ratio (or an
    overflow-truncated range) yields ``inconclusive`` -- unbounded growth can
    never be proven from a finite prefix, so ``fails`` is not emitted.
    """
    N = int(horizon)
    vals, finite_len = weight.validated_prefix(N)
    cond = f"ORV_WEIGHT({weight.label})"
    n_max = finite_len // 2
    if n_max < 1:
        return ConditionReport(cond, INCONCLUSIVE, None, None, 1, N, N, None,
                               notes="range too short")
    n = np.arange(1, n_max + 1)
    ratios = vals[2 * n - 1] / vals[n - 1]
    constant = float(ratios.max())
    witness = int(np.argmax(ratios)) + 1
    half_max = float(ratios[:max(1, n_max // 2)].max())
    stab = (constant - half_max) / constant if constant > 0 else 0.0
    truncated = finite_len < N
    if stab <= STABILIZATION_THRESHOLD and not truncated:
        verdict = HOLDS
    else:
        verdict = INCONCLUSIVE
    notes = "overflow beyond n=%d" % finite_len if truncated else ""
    return ConditionReport(cond, verdict, constant, witness, 1, n_max, N,
                           stab, notes=notes)


def check_orvqm(view: PrefixView, sector: Sector) -> ConditionReport:
    """Do the weighted differences stay in the sector?

    Checks c_n/R(n) - c_{n+1}/R(n+1) in K(theta0) for every n in range.
    Differences below round-off scale are snapped to zero first, so plateaus
    survive; with theta0 = 0 this reduces to "c_n/R(n) non-increasing".
    Reports the largest observed |arg| as the constant when the check holds.

    A real g (an unweighted view of a real sequence) is scanned span by span
    and stops at the first violation.  When it holds, every difference had
    arg 0, so its constant is 0.0, the largest |arg| of a full scan.  A
    complex g is scanned whole.
    """
    g, N = view.g, view.N
    cond = f"ORVQM({view.weight_label},theta0={sector.theta0:.6g})"
    bound = sector.theta0 + ANGLE_TOL
    if np.iscomplexobj(g):
        diffs = g[:-1] - g[1:]
        scale = np.maximum(np.abs(g[:-1]), np.abs(g[1:]))
        witness, widest = _sector_scan(_snap_small(diffs, scale), bound)
    else:
        witness = _first_flagged(
            N - 1, lambda lo, hi: _first_real_outside(g[lo:hi + 1], bound))
        widest = 0.0
    if witness is None:
        return ConditionReport(cond, HOLDS, widest, None, 1, N, N, None)
    return ConditionReport(cond, FAILS, None, witness, 1, N, N, None)


# ---------------------------------------------------------------------------
# tail-variation conditions
# ---------------------------------------------------------------------------

def _tail_variation_core(view: PrefixView, rhs: np.ndarray, m_range,
                         cond: str) -> ConditionReport:
    """Shared scan for the rest-bounded-variation style conditions.

    rhs[m-1] is the comparison value at m; the tail sums T_m are the view's
    (nonnegative terms: no cancellation).  Zero-denominator rule: rhs = 0
    with T_m = 0 contributes ratio 0; rhs = 0 with T_m > 0 is a hard failure
    with witness m.
    """
    N = view.N
    scan = _require_scan(_scan_range(N, m_range, N - 1), N)
    m_lo, m_hi = scan.start, scan.stop - 1
    Tm = view.tail[m_lo - 1:m_hi]
    Rm = rhs[m_lo - 1:m_hi]
    zero_rhs = Rm == 0.0
    if np.any(zero_rhs & (Tm > 0.0)):
        witness = m_lo + int(np.argmax(zero_rhs & (Tm > 0.0)))
        return ConditionReport(cond, FAILS, None, witness, m_lo, m_hi, N, None)
    with np.errstate(over="ignore"):  # an inf constant is rejected
        ratios = np.divide(Tm, Rm, out=np.zeros(Rm.shape), where=~zero_rhs)
    constant = float(ratios.max()) if ratios.size else 0.0
    witness = m_lo + int(np.argmax(ratios)) if ratios.size else None
    total = float(view.tail[m_lo - 1])
    half_start = max(m_lo, N // 2)
    block = float(view.tail[half_start - 1])
    stab = block / total if total > 0.0 else 0.0
    verdict = HOLDS if stab <= STABILIZATION_THRESHOLD else INCONCLUSIVE
    return ConditionReport(cond, verdict, constant, witness, m_lo, m_hi, N, stab)


def check_rest_bv(view: PrefixView, m_range=None) -> ConditionReport:
    """Rest bounded variation: sum_{n>=m} |b_n - b_{n+1}| <= M * b_m.

    Takes the unweighted view of a nonnegative sequence.  The constant
    reported is the smallest M consistent with the checked range, max over
    m of T_m / b_m.  A growing harmonic-like variation sum is flagged
    ``inconclusive`` through the dyadic stabilization rule.
    """
    return _tail_variation_core(view, view.nonneg("REST_BV"), m_range,
                                "REST_BV")


def check_weighted_rest_bv(view: PrefixView, m_range=None) -> ConditionReport:
    """Weighted variant: sum_{n>=m} |c_n/R(n) - c_{n+1}/R(n+1)| bounded by
    M * |c_m| / R(m).  Real nonnegative input gets the _REAL condition id."""
    cond = ("WEIGHTED_REST_BV_REAL" if view.nonneg_real
            else "WEIGHTED_REST_BV")
    cond += f"({view.weight_label})"
    return _tail_variation_core(view, np.abs(view.g), m_range, cond)


def _group_bv_range(N: int, N0: int, m_range) -> range:
    """The m of the GROUP_BV(N0) scan, [m, 2m + 1] and [m, m + N0 - 1]
    inside the prefix; empty (skipped by classify) if the window won't fit."""
    return _scan_range(N, m_range, min((N - 1) // 2, N - N0 + 1))


def check_group_bv(view: PrefixView, n0_list: Sequence[int],
                   m_range=None) -> list[ConditionReport]:
    """Group bounded variation with a fixed comparison window, one report
    per window length N0 in ``n0_list`` (in its order, repeats included):

        L_m = sum_{n=m}^{2m} |c_n - c_{n+1}|
            <= M * max_{m <= n < m+N0} |c_n| =: M * R_m    for all m.

    Takes the unweighted view.  Both sides are finite, so the verdict is
    exact -- ``holds`` with the smallest consistent M (max ratio, refined by
    exactly rounded block sums at the candidate maximizers) or ``fails``
    with a witness m where R_m = 0 while L_m > 0.  Never ``inconclusive``.

    L_m does not depend on N0, so one pass serves every window: R_m grows
    in place (max is exact: each window keeps its bits) and each
    refinement block is summed once.
    """
    windows = sorted({int(n0) for n0 in n0_list})
    if not windows:
        return []
    if windows[0] < 1:
        raise SequenceError("window length N0 must be >= 1")
    c, N = view.unweighted("GROUP_BV"), view.N
    longest = _group_bv_range(N, windows[0], m_range)
    _require_scan(_group_bv_range(N, windows[-1], m_range), N)  # the shortest
    cabs = np.abs(c)
    m_lo, m = longest.start, np.arange(longest.start, longest.stop)
    L = view.block_sums(m)
    R = cabs[m - 1]               # a copy, grown in place below

    @functools.cache
    def exact_L(mm: int) -> float:
        hi = min(2 * mm, N - 1)
        return exact_sum(np.abs(c[mm - 1:hi] - c[mm:hi + 1]))

    reports, width = {}, 1
    for N0 in windows:
        cond = f"GROUP_BV(N0={N0})"
        count = len(_group_bv_range(N, N0, m_range))
        Lw, Rw = L[:count], R[:count]
        for k in range(width, N0):
            np.maximum(Rw, cabs[m_lo - 1 + k:m_lo - 1 + k + count], out=Rw)
        width, span = N0, (m_lo, m_lo + count - 1, N)
        zero_rhs = Rw == 0.0
        candidates = np.flatnonzero(zero_rhs & (Lw != 0.0)) + m_lo
        witness = next((int(mm) for mm in candidates if exact_L(mm) > 0.0),
                       None)
        if witness is not None:
            reports[N0] = ConditionReport(cond, FAILS, None, witness, *span,
                                          None)
            continue
        with np.errstate(over="ignore"):  # an inf constant is rejected
            ratios = np.divide(Lw, Rw, out=np.zeros(count), where=~zero_rhs)
        # refine the top candidates with exactly rounded block sums: the scan
        # uses suffix-sum differences, which carry ambient-scale round-off
        order = _top_ratios(ratios, 8)
        best_val, best_m = -1.0, m_lo + int(order[0])
        for idx in order[Rw[order] != 0.0]:
            mm = m_lo + int(idx)
            r = exact_L(mm) / float(Rw[idx])
            if r > best_val or (r == best_val and mm < best_m):
                best_val, best_m = r, mm
        reports[N0] = ConditionReport(cond, HOLDS, max(best_val, 0.0),
                                      best_m, *span, 0.0)
    return [reports[int(n0)] for n0 in n0_list]


# ---------------------------------------------------------------------------
# two-sided conditions
# ---------------------------------------------------------------------------

def check_pair_sector(ts: TwoSidedSequence, sector: Sector,
                      N: int) -> ConditionReport:
    """Are c_n + c_-n and c_n - c_-n both in K(theta0) for 1 <= n <= N?

    When both families of combinations stay in the sector, so does
    2 c_n = (c_n + c_-n) + (c_n - c_-n); the derived membership is checked
    as well (sector closure under addition makes it automatic up to
    round-off).  Reports the largest observed |arg| as the constant.
    """
    sums = ts.pair_sums(N)
    diffs = ts.pair_diffs(N)
    pa = np.abs(np.asarray(ts.pos.prefix(N), dtype=complex))
    na = np.abs(np.asarray(ts.neg.prefix(N), dtype=complex))
    scale = pa + na
    sums = _snap_small(sums, scale)
    diffs = _snap_small(diffs, scale)
    doubles = sums + diffs
    cond = f"PAIR_SECTOR(theta0={sector.theta0:.6g})"
    worst = 0.0
    for z in (sums, diffs):
        witness, widest = _sector_scan(z, sector.theta0 + ANGLE_TOL)
        if witness is not None:
            return ConditionReport(cond, FAILS, None, witness, 1, N, N, None)
        worst = max(worst, widest)
    witness, _ = _sector_scan(doubles, sector.theta0 + 2 * ANGLE_TOL)
    if witness is not None:
        return ConditionReport(cond, FAILS, None, witness, 1, N, N, None,
                               notes="derived membership of 2c_n failed")
    return ConditionReport(cond, HOLDS, worst, None, 1, N, N, None)


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

def classify(seq: CoefficientSequence, *, horizon: Optional[int] = None,
             m_max: Optional[int] = None,
             n0_list: Sequence[int] = (1, 2, 4, 8, 16), theta0: float = 0.0,
             weight: Optional[WeightSequence] = None) -> list[ConditionReport]:
    """Run every applicable checker on the coefficients of a sine series
    with shared horizons and collect reports.

    Real nonnegative sequences get the monotonicity family and REST_BV;
    every sequence gets GROUP_BV for each window length in n0_list, the
    weighted checks (against the constant weight 1 unless a weight is
    supplied) and ORVQM in the sector K(theta0).  The tail-variation scans
    run over m in [1, m_max] (default N/4).  Member errors (insufficient
    length, negative values where forbidden) propagate.
    """
    N = resolve_horizon(seq, horizon)
    if N < 2:
        raise SequenceError(
            f"horizon {N} leaves the checkers an empty scan range; "
            f"at least 2 terms are needed")
    reports: list[ConditionReport] = []
    sector = Sector(theta0)

    m_range = None if m_max is None else (1, m_max)
    plain = PrefixView.of(seq, N)
    weighted = plain if weight is None else PrefixView.of(seq, N, weight)
    if plain.nonneg_real:
        for alpha in (0.0, 0.5, 1.0):
            reports.append(check_quasimonotone(plain, alpha))
        reports.append(check_rest_bv(plain, m_range))
    reports.append(check_weighted_rest_bv(weighted, m_range))
    reports.extend(check_group_bv(
        plain, [n0 for n0 in n0_list if _group_bv_range(N, n0, m_range)],
        m_range))
    reports.append(check_orvqm(weighted, sector))
    return reports
