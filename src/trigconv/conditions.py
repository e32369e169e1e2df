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
``suffix_sums`` call.  The caller builds one view per (sequence, horizon,
weight); the view builds its tail sums when a checker first reads them,
at most once, and never caches them on the sequence.  MONOTONE,
QUASIMONOTONE and ORVQM never read them, and GROUP_BV reads them only
for a window that no zero right side fails, so a prefix whose checks
all end that way costs no tail sums; a variation sum past the float
range is reported at that first read.  One dtype rule: ``g`` has the
dtype of the prefix, float64 for a real sequence and complex128 for a
complex one.  Without a weight it is the prefix itself, with no
division and no copy; a weight divides it by R, truncating N where R
overflows to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .sequences import (
    ANGLE_TOL,
    REL_TOL,
    STABILIZATION_THRESHOLD,
    CoefficientSequence,
    Sector,
    SequenceError,
    WeightSequence,
    _require_finite,
    excerpt_int,
)
from .summation import suffix_sums, variation_sums

__all__ = [
    "FAILS",
    "HOLDS",
    "INCONCLUSIVE",
    "ConditionReport",
    "PrefixView",
    "check_group_bv",
    "check_orv_weight",
    "check_orvqm",
    "check_pair_sector",
    "check_quasimonotone",
    "check_rest_bv",
    "check_weighted_rest_bv",
    "classify",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Default truncation horizon for generator-backed sequences; explicit
# sequences default to their data length.
DEFAULT_HORIZON = 1 << 20

# Default GROUP_BV window lengths N0 of classify, the CLI's --n0 and the
# lacunary counterexample.
DEFAULT_WINDOWS = (1, 2, 4, 8, 16)


@dataclass
class ConditionReport:
    """Outcome of one condition check on one sequence prefix; the checked
    range is m = 1..m_max of a prefix of ``horizon`` terms."""

    condition: str
    verdict: str
    constant: Optional[float]
    witness: Optional[int]
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
            "range": {"m_min": 1, "m_max": self.m_max,
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


def _scan_end(N: int, m_max: Optional[int], last: int) -> int:
    """The last m of the scan m = 1..m_max (default N/4) cut at ``last``,
    the largest m whose terms lie inside a prefix of N terms; 0 when no m
    fits."""
    m_max = max(1, N // 4) if m_max is None else int(m_max)
    if m_max < 1:
        raise SequenceError(f"bad index range [1, {excerpt_int(m_max)}]")
    return max(0, min(m_max, last))


def _group_bv_scan_end(N: int, m_max: Optional[int], N0: int) -> int:
    """The last m of a GROUP_BV scan with window N0: it ends where
    [m, 2m + 1] or [m, m + N0 - 1] would leave the prefix; 0 when no m
    fits."""
    return _scan_end(N, m_max, min((N - 1) // 2, N - N0 + 1))


@dataclass(frozen=True, eq=False)
class PrefixView:
    """g of one prefix (see the module docstring), and its tail sums on
    first read; ``weight`` None means R = 1."""

    seq: CoefficientSequence
    weight: Optional[WeightSequence]
    g: np.ndarray

    @classmethod
    def of(cls, seq: CoefficientSequence, horizon: Optional[int] = None,
           weight: Optional[WeightSequence] = None) -> "PrefixView":
        """The view of the first ``horizon`` terms (default: the data, or
        DEFAULT_HORIZON terms of a generator); every checker scans at
        least one pair, so fewer than 2 terms are an input error.

        A weighted view's g_n = fl(c_n/R(n)) is formed in c's dtype.  For
        real c that is one IEEE 754 division, which is correctly rounded;
        for complex c numpy's complex divide is not.  A quotient past the
        float range is a SequenceError."""
        N = resolve_horizon(seq, horizon)
        if N < 2:
            raise SequenceError(
                f"horizon {excerpt_int(N)} leaves the checkers an empty "
                f"scan range; at least 2 terms are needed")
        g = seq.prefix(N)
        if weight is not None:
            rvals, finite_len = weight.validated_prefix(g.shape[0])
            if finite_len < 2:
                raise SequenceError(
                    f"weight {weight.label!r} is finite for {finite_len} of "
                    f"{g.shape[0]} terms; the weighted checks need at least 2")
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.divide(g[:finite_len], rvals[:finite_len])
            if not np.isfinite(g).all():
                raise SequenceError("c_n/R(n) overflows the float range")
        return cls(seq, weight, g)

    @cached_property
    def tail(self) -> np.ndarray:
        """tail[m-1] = sum_{n>=m} |g_n - g_{n+1}|, tail[N-1] = 0, from one
        suffix_sums call at the first read; a variation sum past the float
        range is a SequenceError there, and nothing is kept."""
        g, absdiff = self.g, np.zeros(self.N)
        d = absdiff[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            if np.iscomplexobj(g):
                np.abs(g[:-1] - g[1:], out=d)
            else:       # one buffer, with no temporary of N values
                np.abs(np.subtract(g[:-1], g[1:], out=d), out=d)
        try:  # g is finite; an overflowing difference reaches tail[0]
            tail = suffix_sums(absdiff)
        except OverflowError:  # math.fsum: the exact sum is past the range
            tail = np.array([np.inf])
        _require_finite(tail[0], "the variation sum of c_n/R(n)")
        return tail

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
        return self.seq.is_real and float(c.min()) >= 0.0

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


# Pairs per span of the early-exit scans below: the first span holds
# _FIRST_SPAN and each next one twice as many, up to _SPAN.  A scan that
# fails at n reads fewer than 2n + _FIRST_SPAN pairs while the spans grow,
# and fewer than n + _SPAN after; no temporary outgrows one span.
_FIRST_SPAN = 1 << 10
_SPAN = 1 << 16


def _first_flagged(count: int, flagged) -> Optional[int]:
    """The first violating n in 1..count, or None; for the pair scans n is
    the pair (n, n+1).

    ``flagged(lo, hi)`` returns the offset from lo of the first violation
    among n = lo+1..hi (pairs that read the terms lo+1..hi+1), or None.
    The spans tile 1..count in order, growing from _FIRST_SPAN to _SPAN
    indices, and the scan returns at the first span with a violation, so
    it reports the same n as one scan of every index.
    """
    lo, span = 0, min(_FIRST_SPAN, _SPAN)
    while lo < count:
        hi = min(lo + span, count)
        hit = flagged(lo, hi)
        if hit is not None:
            return lo + hit + 1
        lo, span = hi, min(2 * span, _SPAN)
    return None


def _first_increase(x: np.ndarray) -> tuple[Optional[int], bool]:
    """(0-based index i of the first pair with x[i+1] > x[i] beyond
    tolerance, or None; whether any pair has x[i+1] > x[i] at all).

    Only a pair with b > a can pass b > a + REL_TOL max(|a|, |b|): the slack
    is >= 0 and rounding is monotone, so b <= a gives a + slack >= a >= b,
    and a NaN compares false either way.  The slack test runs on those
    candidates alone, on the same operands, so it flags the same pairs as a
    test of every pair.
    """
    cand = np.flatnonzero(x[1:] > x[:-1])
    if not cand.size:
        return None, False
    a, b = x[cand], x[cand + 1]
    slack = REL_TOL * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(over="ignore"):  # no float exceeds an inf a + slack
        bad = b > a + slack
    return (int(cand[np.argmax(bad)]) if bad.any() else None), True


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

def check_quasimonotone(view: PrefixView) -> list[ConditionReport]:
    """Is b_n / n**alpha non-increasing on the checked range?  One report
    for each alpha of the ladder 0, 1/2, 1, in that order.

    alpha = 0 is plain monotonicity (condition id MONOTONE).  Takes the
    unweighted view of a nonnegative real sequence.  Comparisons allow
    relative round-off of 1e-12 so that plateaus generated in floating
    point still count as non-increasing.

    Each quotient is formed one span at a time and its scan stops at the
    first violation.  Each span's n and n**alpha are the same floats as in
    one arange over 1..N, so every quotient keeps its bits; alpha = 0 skips
    the division, since b / 1.0 is b.

    The ladder stops scanning once a scan finds its quotients x_n exactly
    non-increasing (no pair has x_(n+1) > x_n, not even within the
    tolerance); every alpha left then holds, by one of two lemmas, and
    gets the report its own scan would give.  u = 2^-53, and fl is
    round-to-nearest, which is monotone; IEEE 754 rounds / and sqrt
    correctly.

    (a) If b is exactly non-increasing, the quotients hold at alpha = 1/2
    and 1.  There p_n = fl(n**alpha) is positive and non-decreasing: fl(n)
    = n for n <= 2^53 at alpha = 1, and fl(sqrt n) at alpha = 1/2 (numpy's
    n**1.0 and n**0.5 are those floats; a test pins both facts).  As b >=
    0, b_(n+1)/p_(n+1) <= b_n/p_(n+1) <= b_n/p_n, so fl(b_(n+1)/p_(n+1)) <=
    fl(b_n/p_n): no pair rises.

    (b) If x_n = fl(b_n/s_n), s_n = fl(sqrt n), is exactly non-increasing
    with x_N >= 2^-1022, and N <= 2^48, the quotients hold at alpha = 1.
    Every x_n >= x_N > 0, so b_n > 0.  y_n = b_n/s_n rounds to x_n with
    relative error at most u' = u/(1 - u): u where y_n is normal, and u'
    bounds the one case left, a y_n within 2^-1075 below 2^-1022 that
    rounds up to it.  s_n = sqrt(n)(1 + e), |e| <= u.  So for each pair,
    y_(n+1) <= x_(n+1)/(1 - u') <= x_n/(1 - u') <= y_n (1 + u')/(1 - u'),
    and

        (b_(n+1)/(n+1)) / (b_n/n) = (y_(n+1)/y_n) (s_(n+1)/s_n) n/(n+1)
            <= ((1 + u')/(1 - u'))^2 sqrt(n/(n+1))
            <= (1 + 4.01u) (1 - 1/(2(n+1))),

    which is below 1 when n + 1 < 2^49, as 4.01u < 1/(2(n+1)) there.  So
    b_n/n strictly decreases on 1..N, and fl(b_n/n), the quotient at alpha
    = 1, is non-increasing: no pair rises.
    """
    reports, decides, N = [], False, view.N
    for alpha in (0.0, 0.5, 1.0):
        if decides:
            report = ConditionReport(f"QUASIMONOTONE(alpha={alpha:g})",
                                     HOLDS, None, None, N, N, None)
        else:
            report, decides = _quasimonotone_scan(view, alpha)
        reports.append(report)
    return reports


# lemma (b) of check_quasimonotone: the least normal float, and the
# longest prefix it covers
_NORMAL_MIN = 2.0 ** -1022
_LEMMA_B_N = 1 << 48


def _quasimonotone_scan(view: PrefixView,
                        alpha: float) -> tuple[ConditionReport, bool]:
    """The report of the scan at one alpha, and, for alpha = 0 or 1/2,
    whether it decides every larger alpha of the ladder: no pair of its
    quotients rises at all, and lemma (a) (alpha = 0) or lemma (b) (x_N >=
    2^-1022, N <= 2^48) applies."""
    cond = "MONOTONE" if alpha == 0 else f"QUASIMONOTONE(alpha={alpha:g})"
    vals, N = view.nonneg(cond), view.N
    rose, last = False, 0.0

    def increase(lo: int, hi: int) -> Optional[int]:
        nonlocal rose, last
        x = vals[lo:hi + 1]
        if alpha != 0:
            x = x / np.arange(lo + 1, hi + 2, dtype=float) ** alpha
        hit, rises = _first_increase(x)
        rose, last = rose or rises, float(x[-1])
        return hit

    witness = _first_flagged(N - 1, increase)
    decides = not rose and (
        alpha == 0 or (last >= _NORMAL_MIN and N <= _LEMMA_B_N))
    verdict = HOLDS if witness is None else FAILS
    return ConditionReport(cond, verdict, None, witness, N, N, None), decides


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
        return ConditionReport(cond, INCONCLUSIVE, None, None, N, N, None,
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
    return ConditionReport(cond, verdict, constant, witness, n_max, N,
                           stab, notes=notes)


def _theta0_text(sector: Sector) -> str:
    """theta0 in a label: ``:.6g`` when that reads back as the same float,
    else its repr, so that a label names one sector."""
    short = f"{sector.theta0:.6g}"
    return short if float(short) == sector.theta0 else repr(sector.theta0)


def check_orvqm(view: PrefixView, sector: Sector) -> ConditionReport:
    """Do the weighted differences stay in the sector?

    Checks c_n/R(n) - c_{n+1}/R(n+1) in K(theta0) for every n in range.
    Differences below round-off scale are snapped to zero first, so plateaus
    survive; with theta0 = 0 this reduces to "c_n/R(n) non-increasing".
    Reports the largest observed |arg| as the constant when the check holds.

    A real g (any view of a real sequence, weighted or not) is scanned
    span by span and stops at the first violation.  When it holds, every
    difference had arg 0, so its constant is 0.0, the largest |arg| of a
    full scan.  A complex g is scanned whole.
    """
    g, N = view.g, view.N
    cond = f"ORVQM({view.weight_label},theta0={_theta0_text(sector)})"
    bound = sector.theta0 + ANGLE_TOL
    if np.iscomplexobj(g):
        diffs, size = g[:-1] - g[1:], np.abs(g)   # |g| once for both
        scale = np.maximum(size[:-1], size[1:])
        witness, widest = _sector_scan(_snap_small(diffs, scale), bound)
    else:
        witness = _first_flagged(
            N - 1, lambda lo, hi: _first_real_outside(g[lo:hi + 1], bound))
        widest = 0.0
    if witness is None:
        return ConditionReport(cond, HOLDS, widest, None, N, N, None)
    return ConditionReport(cond, FAILS, None, witness, N, N, None)


# ---------------------------------------------------------------------------
# tail-variation conditions
# ---------------------------------------------------------------------------

def _tail_variation_scan(view: PrefixView, m_max: Optional[int]) -> tuple:
    """The fields after the label of a tail-variation report, the scan of
    the rest-bounded-variation style conditions over m = 1..m_hi: m_max
    (default N/4) cut at N - 1.

    The right side at m is R_m = |g_m| (for REST_BV g is nonnegative, so
    R_m = g_m), formed over the scan alone; the tail sums T_m are the
    view's (nonnegative terms: no cancellation).  Zero-denominator rule:
    R_m = 0 with T_m = 0 contributes ratio 0; R_m = 0 with T_m > 0 is a
    hard failure with witness m.

    With L the last n where g_n != g_{n+1}, T_m > 0 exactly when m <= L,
    so the witness is the first m with R_m = 0 if g still changes after it,
    found without the tail sums.  They are read first only when
    4(N-1) max|g|, twice a bound on every T_m, is past the float range, so
    that a variation sum past that range stays an error; max|g| is read
    only then, for a real g as max(max g, -min g), with no |g| array.
    """
    g, N = view.g, view.N
    m_hi = _scan_end(N, m_max, N - 1)  # >= 1: N >= 2 terms
    Rm = np.abs(g[:m_hi])
    zero_rhs = Rm == 0.0
    if zero_rhs.any():
        top = (float(np.abs(g).max()) if np.iscomplexobj(g)
               else max(float(g.max()), -float(g.min())))
        if not math.isfinite(4.0 * (N - 1) * top):
            view.tail    # raises for a variation sum past the range
        m = int(np.argmax(zero_rhs))      # the first zero, 0-based
        if np.any(g[m + 1:] != g[m]):
            return FAILS, None, m + 1, m_hi, N, None
    Tm = view.tail[:m_hi]
    with np.errstate(over="ignore"):  # an inf constant is rejected
        # ratio 0 where R_m = 0: the divide leaves that 0 of Rm in place
        ratios = np.divide(Tm, Rm, out=Rm, where=~zero_rhs)
    constant = float(ratios.max())
    witness = 1 + int(np.argmax(ratios))
    total = float(view.tail[0])
    block = float(view.tail[max(1, N // 2) - 1])
    stab = block / total if total > 0.0 else 0.0
    verdict = HOLDS if stab <= STABILIZATION_THRESHOLD else INCONCLUSIVE
    return verdict, constant, witness, m_hi, N, stab


def check_rest_bv(view: PrefixView,
                  m_max: Optional[int] = None) -> ConditionReport:
    """Rest bounded variation: sum_{n>=m} |b_n - b_{n+1}| <= M * b_m.

    Takes the unweighted view of a nonnegative sequence.  The constant
    reported is the smallest M consistent with the checked range, max over
    m of T_m / b_m.  A growing harmonic-like variation sum is flagged
    ``inconclusive`` through the dyadic stabilization rule.
    """
    view.nonneg("REST_BV")
    return ConditionReport("REST_BV", *_tail_variation_scan(view, m_max))


def check_weighted_rest_bv(view: PrefixView,
                           m_max: Optional[int] = None) -> ConditionReport:
    """Weighted variant: sum_{n>=m} |c_n/R(n) - c_{n+1}/R(n+1)| bounded by
    M * |c_m| / R(m).  Real nonnegative input gets the _REAL condition id."""
    cond = ("WEIGHTED_REST_BV_REAL" if view.nonneg_real
            else "WEIGHTED_REST_BV")
    cond += f"({view.weight_label})"
    return ConditionReport(cond, *_tail_variation_scan(view, m_max))


def _windows(n0_list: Sequence[int]) -> list[int]:
    """The distinct window lengths of n0_list, ascending; each must be >= 1."""
    windows = sorted({int(n0) for n0 in n0_list})
    if windows and windows[0] < 1:
        raise SequenceError("window length N0 must be >= 1")
    return windows


# L^_m -+ _BOUND * tail[m-1] brackets the exactly rounded L_m; the proof
# is in check_group_bv
_BOUND = 2.0 ** -39


def _widen(R: np.ndarray, width: int, N0: int) -> int:
    """Grow R[i] = max |c_n| over n in [i + 1, i + 1 + width) in place to
    the windows of length N0 > 0 (each entry whose window fits R), and
    return N0: with s <= width, max(R_m, R_(m+s)) covers [m, m + width +
    s).  max is exact, so the bits do not depend on the steps taken."""
    while width < N0:
        s = min(width, N0 - width)
        np.maximum(R[:-s], R[s:], out=R[:-s])
        width += s
    return width


def _window_maxima(c: np.ndarray, N0: int, lo: int, hi: int) -> np.ndarray:
    """R_m = max |c_n| over [m, m + N0) for m = lo + 1..hi, from the terms
    c_(lo+1)..c_(hi+N0-1) alone."""
    R = np.abs(c[lo:hi + N0 - 1])
    _widen(R, 1, N0)
    return R[:hi - lo]


def _first_zero_rhs_failure(c: np.ndarray, N0: int,
                            count: int) -> Optional[int]:
    """The smallest m in 1..count with R_m = 0 < L_m, or None, with R_m
    formed span by span from c (_window_maxima).

    R_m = 0 makes c_m = 0, so L_m, an exact sum of |c_n - c_{n+1}| >= 0
    over n in [m, 2m], is positive if and only if c is nonzero somewhere
    on [m + 1, 2m + 1]: no sum is needed.  A span whose R_m have no zero
    costs one min once they are formed.
    """
    def failing(lo: int, hi: int) -> Optional[int]:
        part = _window_maxima(c, N0, lo, hi)
        if part.min() != 0.0:
            return None
        m = np.flatnonzero(part == 0.0) + (lo + 1)
        # 0-based positions of the nonzero c_k, k in [m[0] + 1, 2 m[-1] + 1]
        nonzero = np.flatnonzero(c[m[0]:2 * m[-1] + 1]) + m[0]
        nxt = np.append(nonzero, c.shape[0])[np.searchsorted(nonzero, m)]
        hit = np.flatnonzero(nxt <= 2 * m)   # position 2m is k = 2m + 1
        return int(m[hit[0]]) - lo - 1 if hit.size else None

    return _first_flagged(count, failing)


def check_group_bv(view: PrefixView, n0_list: Sequence[int],
                   m_max: Optional[int] = None) -> list[ConditionReport]:
    """Group bounded variation with a fixed comparison window, one report
    per window length N0 in ``n0_list`` (in its order, repeats included):

        L_m = sum_{n=m}^{2m} |c_n - c_{n+1}|
            <= M * max_{m <= n < m+N0} |c_n| =: M * R_m    for all m.

    Each window scans m = 1..m_max (default N/4) up to the last m with
    [m, 2m + 1] and [m, m + N0 - 1] inside the prefix; a window that
    leaves no m is an input error.  Takes the unweighted view.  Both sides
    are finite, so the verdict is exact and never ``inconclusive``.  With
    L~_m the exactly rounded L_m (math.fsum over the block's
    |c_n - c_{n+1}|), the guarantee is:

    * ``fails`` with the smallest m of the scan where R_m = 0 < L_m,
      decided from where c is nonzero, with no sum;
    * else ``holds`` with the constant max over every m of fl(L~_m / R_m)
      (0 where R_m = 0, since L_m = 0 there once no m fails), and the
      smallest m reaching it as the witness.

    Pruning.  The scan keeps m <= (N - 1)/2, so the block ends at 2m and
    the view's tail sums give L^_m = fl(t_a - t_b), t_i = tail[i], a =
    m - 1, b = 2m.  With exact tails T_i, suffix_sums guarantees |t_i -
    T_i| <= g T_i, g = gamma_4096 < 2^-41 (1 + 2^-40) for its chunks of
    summation._CHUNK = 4096 terms, and T_b <= T_a as every term is >= 0.
    A sum or difference of floats that falls below 2^-1021 is exact, so
    each rounding below is relative.  So, u = 2^-53:

        |t_a - t_b - L_m| <= g (T_a + T_b) <= 2 g T_a,
        |L^_m - (t_a - t_b)| <= u (L_m + 2 g T_a) <= u (1 + 2 g) T_a,
        |L~_m - L_m| <= u L_m <= u T_a,

    in sum |L^_m - L~_m| <= (2g + 2u + 2gu) T_a <= 2^-40 (1 + 2^-11) t_a.
    x = t_a 2^-39 is exact unless it is subnormal, then within 2^-1075,
    so x exceeds that bound when t_a >= 2^-1034.  Below that every tail
    term and every partial sum is a multiple of 2^-1074 under 2^-1021, so
    every addition is exact and L^_m = L~_m.  Either way A_m = fl(L^_m +
    x) >= L~_m >= fl(L^_m - x) = B_m, since rounding is monotone and L~_m
    is a float; an overflow makes A_m = inf, which keeps its m.  Division
    by R_m > 0 rounds monotonically as well, so fl(B_m / R_m) <= fl(L~_m /
    R_m) <= fl(A_m / R_m).  Hence fl(B_m / R_m) at any one m, here the
    first m with the largest fl(A_m / R_m), is a floor at most the
    constant, and every m that reaches the constant has fl(A_m / R_m) at
    or above that floor (above 0 where the floor is not positive).  Those
    are the m kept, and the exact maximum over them is the constant.  A
    does not depend on N0.

    Lemma: the windows that fail are a prefix of the ascending windows.
    Take N0 < N0'.  Every R_m of N0' is at least that of N0, and the scan
    of N0' is no longer, so an m of the scan of N0' with R_m = 0 < L_m
    there has the same at N0.  So the zero-right-side scan runs only until
    a window passes it; every later window passes.  It runs over
    _first_flagged's spans, each forming its R_m from c alone
    (_window_maxima), so a window that fails early reads the terms up to
    its witness's span and holds no array over the scan.  The first window
    that passes forms R and A over its scan, the longest of the scans
    left, and R grows in place from window to window (_widen): with s <=
    width, max(R_m, R_(m+s)) covers [m, m + width + s).  max is exact, so
    R_m has the same bits whatever the steps.

    L_m does not depend on N0 either.  One memo over the scan keeps each
    L~_m once it is summed: it is written into A, where it is a valid A_m
    for every later window, and a mask marks its m.  Each window sums only
    the kept m the memo lacks, in one summation.variation_sums call over
    c (block m is the range [m - 1, 2m) of 0-based differences), so each
    block is summed once, and reads its constant and witness from
    fl(L~_m / R_m) over the m of the memo.  An m of the memo that the
    window does not keep has that ratio below the floor (0 where the floor
    is not positive), so it moves neither.
    """
    windows = _windows(n0_list)
    if not windows:
        return []
    c, N = view.unweighted("GROUP_BV"), view.N
    # the longest window's scan is the shortest
    counts = [_group_bv_scan_end(N, m_max, N0) for N0 in windows]
    if not counts[-1]:  # the fit rule: no verdict over an empty range
        raise SequenceError(f"horizon {N} too small for the scan starting "
                            "at m = 1")
    reports = {}
    for first, (N0, count) in enumerate(zip(windows, counts)):
        witness = _first_zero_rhs_failure(c, N0, count)
        if witness is None:
            break
        reports[N0] = ConditionReport(f"GROUP_BV(N0={N0})", FAILS, None,
                                      witness, count, N, None)
    else:
        return [reports[int(n0)] for n0 in n0_list]
    # windows[first:] all pass (the lemma).  R[m - 1] = max |c_n| over
    # [m, m + width) for every m of their scans, and A_m for every m of
    # the longest of them
    windows, counts = windows[first:], counts[first:]
    R = np.abs(c[:max(n + n0 - 1 for n, n0 in zip(counts, windows))])
    width = 1
    tail = view.tail    # built here, at its first read
    ta = tail[:counts[0]]
    A = ta - tail[2:2 * counts[0] + 1:2]
    work = np.multiply(ta, _BOUND)
    with np.errstate(over="ignore"):  # inf keeps its m
        A += work
    done = np.zeros(counts[0], dtype=bool)  # the memo's m

    for N0, count in zip(windows, counts):
        cond, span = f"GROUP_BV(N0={N0})", (count, N)
        width = _widen(R, width, N0)
        Rw = R[:count]
        w = work[:count]                      # fl(A_m / R_m)
        with np.errstate(over="ignore"):
            if Rw.min() > 0.0:
                np.divide(A[:count], Rw, out=w)
            else:                             # ratio 0 at R_m = 0
                w.fill(0.0)
                np.divide(A[:count], Rw, out=w, where=Rw != 0.0)
        top, floor = int(np.argmax(w)), 0.0
        if w[top] > 0.0:    # fl(B_m / R_m) at the largest fl(A_m / R_m)
            a, b = top, 2 * (top + 1)
            with np.errstate(over="ignore"):
                floor = ((tail[a] - tail[b]) - tail[a] * _BOUND) / Rw[top]
        # the kept m that the memo lacks
        todo = np.flatnonzero((w >= floor if floor > 0.0 else w > 0.0)
                              & ~done[:count])
        A[todo] = variation_sums(c, todo, 2 * todo + 2)  # the memo's L~_m
        done[todo] = True
        memo = np.flatnonzero(done[:count])   # R_m > 0 at each of them
        with np.errstate(over="ignore"):      # an inf constant is rejected
            ratios = A[memo] / Rw[memo]       # fl(L~_m / R_m)
        best = float(ratios.max()) if memo.size else 0.0
        witness = 1 + int(memo[np.argmax(ratios)]) if best > 0.0 else 1
        reports[N0] = ConditionReport(cond, HOLDS, best, witness, *span, 0.0)
    return [reports[int(n0)] for n0 in n0_list]


# ---------------------------------------------------------------------------
# two-sided conditions
# ---------------------------------------------------------------------------

def check_pair_sector(pos: CoefficientSequence, neg: CoefficientSequence,
                      sector: Sector, N: int) -> ConditionReport:
    """Are c_n + c_-n and c_n - c_-n both in K(theta0) for 1 <= n <= N?
    pos holds c_n and neg holds c_-n, n >= 1.

    When both families of combinations stay in the sector, so does
    2 c_n = (c_n + c_-n) + (c_n - c_-n); the derived membership is checked
    as well, within theta0 + 2 ANGLE_TOL.  The band |arg| <= theta0 +
    ANGLE_TOL that the two families pass is convex only while theta0 +
    ANGLE_TOL <= pi/2, and only there does closure under addition make the
    derived check automatic up to round-off.  Past that it can fail: with
    theta0 just below pi/2, -5e-13 + i and -5e-13 - i both pass, and their
    sum has arg pi.  Reports the largest observed |arg| as the constant.
    """
    if N < 1:
        raise SequenceError(f"bad index range [1, {excerpt_int(N)}]")
    p, q = pos.prefix(N), neg.prefix(N)
    scale = np.abs(p) + np.abs(q)
    sums = _snap_small(p.astype(complex) + q, scale)
    diffs = _snap_small(p.astype(complex) - q, scale)
    doubles = sums + diffs
    cond = f"PAIR_SECTOR(theta0={_theta0_text(sector)})"
    worst = 0.0
    for z in (sums, diffs):
        witness, widest = _sector_scan(z, sector.theta0 + ANGLE_TOL)
        if witness is not None:
            return ConditionReport(cond, FAILS, None, witness, N, N, None)
        worst = max(worst, widest)
    witness, _ = _sector_scan(doubles, sector.theta0 + 2 * ANGLE_TOL)
    if witness is not None:
        return ConditionReport(cond, FAILS, None, witness, N, N, None,
                               notes="derived membership of 2c_n failed")
    return ConditionReport(cond, HOLDS, worst, None, N, N, None)


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

def classify(seq: CoefficientSequence, *, horizon: Optional[int] = None,
             m_max: Optional[int] = None,
             n0_list: Sequence[int] = DEFAULT_WINDOWS, theta0: float = 0.0,
             weight: Optional[WeightSequence] = None) -> list[ConditionReport]:
    """Run every applicable checker on the coefficients of a sine series
    with shared horizons and collect reports.

    Real nonnegative sequences get the monotonicity family and REST_BV;
    every sequence gets GROUP_BV for each window length in n0_list, the
    weighted checks (against the constant weight 1 unless a weight is
    supplied) and ORVQM in the sector K(theta0).  The tail-variation scans
    run over m in [1, m_max] (default N/4).  A window length below 1 is an
    error at any horizon, before the windows that do not fit are skipped.
    Member errors (insufficient length, negative values where forbidden)
    propagate.

    The monotonicity family is check_quasimonotone's ladder over alpha =
    0, 1/2, 1, whose docstring proves the scans it skips.  With no weight,
    WEIGHTED_REST_BV_REAL(one) is REST_BV's report under that id: the same
    scan of the same view.
    """
    _windows(n0_list)
    plain = PrefixView.of(seq, horizon)
    N = plain.N
    weighted = plain if weight is None else PrefixView.of(seq, N, weight)
    sector = Sector(theta0)
    reports: list[ConditionReport] = []
    if plain.nonneg_real:
        reports.extend(check_quasimonotone(plain))
        reports.append(check_rest_bv(plain, m_max))
    if weight is None and plain.nonneg_real:
        reports.append(replace(reports[-1],
                               condition="WEIGHTED_REST_BV_REAL(one)"))
    else:
        reports.append(check_weighted_rest_bv(weighted, m_max))
    reports.extend(check_group_bv(
        plain, [n0 for n0 in n0_list if _group_bv_scan_end(N, m_max, n0)],
        m_max))
    reports.append(check_orvqm(weighted, sector))
    return reports
