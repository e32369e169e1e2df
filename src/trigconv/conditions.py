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
    N_TIMES_C_NULL            n * c_n -> 0 (dyadic block maxima trend)
    PAIR_ABS_SUMMABLE         sum |c_n + c_-n| < infinity (stabilized total)

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
)
from .summation import exact_sum, suffix_sums

__all__ = [
    "ConditionReport",
    "ClassifyOptions",
    "PrefixView",
    "check_quasimonotone",
    "check_orv_weight",
    "check_orvqm",
    "check_rest_bv",
    "check_weighted_rest_bv",
    "check_group_bv",
    "check_pair_sector",
    "check_pair_null_and_summable",
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

# Trend tolerance for the "n*c_n -> 0" check: the final dyadic block maximum
# must fall below this for a ``holds`` verdict.
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


def _resolve_m_range(m_range, N: int) -> tuple[int, int]:
    if m_range is None:
        return 1, max(1, N // 4)
    m_lo, m_hi = int(m_range[0]), int(m_range[1])
    if m_lo < 1 or m_hi < m_lo:
        raise SequenceError(f"bad index range [{m_lo}, {m_hi}]")
    return m_lo, m_hi


def dyadic_block_maxima(vals: np.ndarray) -> list[float]:
    """Maxima of vals over the dyadic index blocks [2^j, 2^(j+1)) (1-based;
    the last block is cut at the array's end)."""
    starts = (1 << np.arange(vals.shape[0].bit_length())) - 1
    return np.maximum.reduceat(vals, starts).tolist()


@dataclass(frozen=True, eq=False)
class PrefixView:
    """g and tail (see the module docstring) of one prefix, tail[N-1] = 0;
    ``weight`` None means R = 1.  ``exact_block_sum`` memoizes the exactly
    rounded block sum L_m per m, so every GROUP_BV window (L_m does not
    depend on N0) and every checker sharing the view sums a block once."""

    seq: CoefficientSequence
    weight: Optional[WeightSequence]
    g: np.ndarray
    tail: np.ndarray
    _exact_blocks: dict = field(default_factory=dict, init=False,
                                repr=False)

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
            g = np.asarray(g[:finite_len], dtype=complex) / rvals[:finite_len]
        absdiff = np.zeros(g.shape[0])
        np.abs(g[:-1] - g[1:], out=absdiff[:-1])
        return cls(seq, weight, g, suffix_sums(absdiff))

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

    def exact_block_sum(self, m: int) -> float:
        """The block sum of ``block_sums`` at one m, exactly rounded."""
        total = self._exact_blocks.get(m)
        if total is None:
            hi = min(2 * m, self.N - 1)
            total = exact_sum(np.abs(self.g[m - 1:hi] - self.g[m:hi + 1]))
            self._exact_blocks[m] = total
        return total


def _first_increase(x: np.ndarray) -> Optional[int]:
    """1-based index n of the first pair with x[n+1] > x[n] beyond tolerance."""
    if x.shape[0] < 2:
        return None
    a, b = x[:-1], x[1:]
    slack = REL_TOL * np.maximum(np.abs(a), np.abs(b))
    bad = b > a + slack
    if not bad.any():
        return None
    return int(np.argmax(bad)) + 1


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


def _sector_angles(z: np.ndarray) -> np.ndarray:
    """|arg z| elementwise, 0 where z == 0."""
    ang = np.zeros(z.shape[0])
    nonzero = z != 0
    ang[nonzero] = np.abs(np.arctan2(z[nonzero].imag, z[nonzero].real))
    return ang


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
    """
    cond = "MONOTONE" if alpha == 0 else f"QUASIMONOTONE(alpha={alpha:g})"
    vals, N = view.nonneg(cond), view.N
    n = np.arange(1, N + 1, dtype=float)
    quotient = vals / n ** alpha
    witness = _first_increase(quotient)
    if witness is None:
        return ConditionReport(cond, HOLDS, None, None, 1, N, N, None)
    return ConditionReport(cond, FAILS, None, witness, 1, N, N, None)


def check_orv_weight(weight: WeightSequence,
                     horizon: int = 1 << 16) -> ConditionReport:
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
    """
    g, N = view.g, view.N
    diffs = g[:-1] - g[1:]
    scale = np.maximum(np.abs(g[:-1]), np.abs(g[1:]))
    diffs = _snap_small(diffs, scale)
    cond = f"ORVQM({view.weight_label},theta0={sector.theta0:.6g})"
    angles = _sector_angles(diffs)
    ok = angles <= sector.theta0 + ANGLE_TOL
    if ok.all():
        constant = float(angles.max()) if angles.size else 0.0
        return ConditionReport(cond, HOLDS, constant, None, 1, N, N, None)
    witness = int(np.argmax(~ok)) + 1
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
    m_lo, m_hi = _resolve_m_range(m_range, N)
    m_hi = min(m_hi, N - 1) if N > 1 else m_lo
    if N < 2:
        return ConditionReport(cond, HOLDS, 0.0, None, m_lo, m_lo, N, 0.0)
    Tm = view.tail[m_lo - 1:m_hi]
    Rm = rhs[m_lo - 1:m_hi]
    zero_rhs = Rm == 0.0
    if np.any(zero_rhs & (Tm > 0.0)):
        witness = m_lo + int(np.argmax(zero_rhs & (Tm > 0.0)))
        return ConditionReport(cond, FAILS, None, witness, m_lo, m_hi, N, None)
    ratios = np.zeros(Tm.shape[0])
    pos = ~zero_rhs
    ratios[pos] = Tm[pos] / Rm[pos]
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


def check_group_bv(view: PrefixView, N0: int = 1,
                   m_range=None) -> ConditionReport:
    """Group bounded variation with a fixed comparison window:

        L_m = sum_{n=m}^{2m} |c_n - c_{n+1}|
            <= M * max_{m <= n < m+N0} |c_n| =: M * R_m    for all m.

    Takes the unweighted view.  Both sides are finite, so the verdict is
    exact -- ``holds`` with the smallest consistent M (max ratio, refined by
    exactly rounded block sums at the candidate maximizers) or ``fails``
    with a witness m where R_m = 0 while L_m > 0.  Never ``inconclusive``.
    """
    N0 = int(N0)
    if N0 < 1:
        raise SequenceError("window length N0 must be >= 1")
    cond = f"GROUP_BV(N0={N0})"
    c, N = view.unweighted(cond), view.N
    cabs = np.abs(c)
    m_lo, m_hi = _resolve_m_range(m_range, N)
    m_hi = min(m_hi, (N - 1) // 2, N - N0 + 1)
    if m_hi < m_lo:
        raise SequenceError(
            f"horizon {N} too small for the window scan starting at {m_lo}")

    m = np.arange(m_lo, m_hi + 1)
    L = view.block_sums(m)
    R = cabs[m - 1].copy()
    for k in range(1, N0):
        R = np.maximum(R, cabs[m - 1 + k])

    zero_rhs = R == 0.0
    if zero_rhs.any():
        for idx in np.flatnonzero(zero_rhs):
            if L[idx] == 0.0:
                continue  # exactly-zero block: suffix values coincide
            mm = int(m[idx])
            if view.exact_block_sum(mm) > 0.0:
                return ConditionReport(cond, FAILS, None, mm, m_lo, m_hi, N, None)
    ratios = np.zeros(m.shape[0])
    pos = ~zero_rhs
    ratios[pos] = L[pos] / R[pos]
    if not ratios.size:
        return ConditionReport(cond, HOLDS, 0.0, None, m_lo, m_hi, N, 0.0)
    # refine the top candidates with exactly rounded block sums: the scan
    # uses suffix-sum differences, which carry ambient-scale round-off
    order = _top_ratios(ratios, 8)
    best_val, best_m = -1.0, int(m[int(order[0])])
    for idx in order:
        mm = int(m[int(idx)])
        if R[idx] == 0.0:
            continue
        r = view.exact_block_sum(mm) / float(R[idx])
        if r > best_val or (r == best_val and mm < best_m):
            best_val, best_m = r, mm
    constant = max(best_val, 0.0)
    return ConditionReport(cond, HOLDS, constant, best_m, m_lo, m_hi, N, 0.0)


# ---------------------------------------------------------------------------
# two-sided conditions
# ---------------------------------------------------------------------------

def check_pair_sector(ts: TwoSidedSequence, sector: Sector,
                      horizon: Optional[int] = None) -> ConditionReport:
    """Are c_n + c_-n and c_n - c_-n both in K(theta0) for 1 <= n <= N?

    When both families of combinations stay in the sector, so does
    2 c_n = (c_n + c_-n) + (c_n - c_-n); the derived membership is checked
    as well (sector closure under addition makes it automatic up to
    round-off).  Reports the largest observed |arg| as the constant.
    """
    N = resolve_horizon(ts.pos, horizon)
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
        ang = _sector_angles(z)
        bad = ang > sector.theta0 + ANGLE_TOL
        if bad.any():
            witness = int(np.argmax(bad)) + 1
            return ConditionReport(cond, FAILS, None, witness, 1, N, N, None)
        worst = max(worst, float(ang.max()) if ang.size else 0.0)
    bad = _sector_angles(doubles) > sector.theta0 + 2 * ANGLE_TOL
    if bad.any():
        witness = int(np.argmax(bad)) + 1
        return ConditionReport(cond, FAILS, None, witness, 1, N, N, None,
                               notes="derived membership of 2c_n failed")
    return ConditionReport(cond, HOLDS, worst, None, 1, N, N, None)


def check_pair_null_and_summable(ts: TwoSidedSequence,
                                 horizon: Optional[int] = None,
                                 ) -> tuple[ConditionReport, ConditionReport]:
    """The two tail conditions of the exponential-series criterion.

    First report (N_TIMES_C_NULL): dyadic block maxima of
    n * max(|c_n|, |c_-n|) must decay; ``holds`` once the final block
    maximum sits below NULL_TREND_TOL, ``fails`` when the trend never decays
    (final block at the running maximum), ``inconclusive`` in between.  The
    final block maximum is recorded as both constant and stabilization.

    Second report (PAIR_ABS_SUMMABLE): the truncated sum of |c_n + c_-n|
    with the dyadic stabilization rule; its value is the constant.
    """
    N = resolve_horizon(ts.pos, horizon)
    pa = np.abs(np.asarray(ts.pos.prefix(N), dtype=complex))
    na = np.abs(np.asarray(ts.neg.prefix(N), dtype=complex))
    n = np.arange(1, N + 1, dtype=float)
    t = n * np.maximum(pa, na)

    block_max = dyadic_block_maxima(t)
    overall = max(block_max)
    last = block_max[-1]
    lo = 1 << (len(block_max) - 1)
    witness = lo + int(np.argmax(t[lo - 1:N]))
    if last <= NULL_TREND_TOL:
        verdict = HOLDS
    elif overall > 0 and last >= (1.0 - 1e-3) * overall:
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    rep5 = ConditionReport("N_TIMES_C_NULL", verdict, last,
                           witness if verdict == FAILS else None,
                           1, N, N, last)

    s = np.abs(ts.pair_sums(N))
    total = exact_sum(s)
    half = exact_sum(s[max(1, N // 2) - 1:])
    stab = half / total if total > 0.0 else 0.0
    verdict6 = HOLDS if stab <= STABILIZATION_THRESHOLD else INCONCLUSIVE
    rep6 = ConditionReport("PAIR_ABS_SUMMABLE", verdict6, total, None,
                           1, N, N, stab)
    return rep5, rep6


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyOptions:
    """Shared knobs for the aggregate classifier."""

    horizon: Optional[int] = None
    m_max: Optional[int] = None
    n0_list: Sequence[int] = (1, 2, 4, 8, 16)
    theta0: float = 0.0
    weight: Optional[WeightSequence] = None


def classify(obj, options: Optional[ClassifyOptions] = None) -> list[ConditionReport]:
    """Run every applicable checker with shared horizons and collect reports.

    One-sided real nonnegative sequences get the monotonicity family and
    REST_BV; every one-sided sequence gets GROUP_BV for each window length
    and the weighted checks (against the constant weight 1 unless a weight
    is supplied).  Two-sided input additionally gets the pair conditions,
    with the one-sided battery applied to the positive half.  Member errors
    (insufficient length, negative values where forbidden) propagate.
    """
    opts = options or ClassifyOptions()
    seq = obj.pos if isinstance(obj, TwoSidedSequence) else obj
    N = resolve_horizon(seq, opts.horizon)
    if N < 2:
        raise SequenceError(
            f"horizon {N} leaves the checkers an empty scan range; "
            f"at least 2 terms are needed")
    reports: list[ConditionReport] = []
    sector = Sector(opts.theta0)
    if isinstance(obj, TwoSidedSequence):
        reports.append(check_pair_sector(obj, sector, opts.horizon))
        reports.extend(check_pair_null_and_summable(obj, opts.horizon))

    m_range = None if opts.m_max is None else (1, opts.m_max)
    plain = PrefixView.of(seq, N)
    weighted = (plain if opts.weight is None
                else PrefixView.of(seq, N, opts.weight))
    if plain.nonneg_real:
        for alpha in (0.0, 0.5, 1.0):
            reports.append(check_quasimonotone(plain, alpha))
        reports.append(check_rest_bv(plain, m_range))
    reports.append(check_weighted_rest_bv(weighted, m_range))
    for n0 in opts.n0_list:
        if N >= 3 and N - n0 + 1 >= 1:  # window scan needs at least one m
            reports.append(check_group_bv(plain, n0, m_range))
    reports.append(check_orvqm(weighted, sector))
    return reports
