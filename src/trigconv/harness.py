"""Corpus-level verification of the implication and equivalence claims.

Each ``verify_*``/``probe_*`` entry point measures both sides of the
inequalities behind one claim and returns a VerificationOutcome whose
records carry the measured left/right sides and slack.  Claims:

* ``weighted_bv_implies_group_bv`` -- a weighted rest-bounded-variation
  constant transfers to a group-bounded-variation constant through an
  explicit chain, with the predicted bound (M+1)*rho - 1;
* ``orvqm_implies_group_bv`` -- sector-constrained weighted differences
  give the same implication with M <= 1/cos(theta0) via sector telescoping:
  the same chain (one ``_chain`` checks both claims) behind a sector
  premise;
* ``lacunary_counterexample`` -- the lacunary family keeps n^alpha b_n
  at 1 on a sparse set while its series converges uniformly, and the
  group-variation check fails for every fixed window;
* ``uniform_convergence_equivalence`` -- co-trending of n|c_n| and the
  tail sup-norm column on a corpus, waived where group variation fails;
* ``necessity_probe`` / ``sufficiency_bounds`` -- the test-point and
  summation-by-parts inequalities on randomized instances.

Randomized corpora are built backward from a zero tail out of positive
(or sector-boundary complex) decrements, so the premises hold by
construction rather than by rejection sampling (see corpus_member); a
corpus run keeps a member with unmet premises apart from violations.
Everything is a pure function of the seed: two runs with the same
parameters serialize to identical JSON.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import (
    DEFAULT_WINDOWS,
    FAILS,
    HOLDS,
    ConditionReport,
    PrefixView,
    check_group_bv,
    check_orv_weight,
    check_orvqm,
    check_pair_sector,
    check_weighted_rest_bv,
)
from .sequences import (
    _block_exponent,
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    WeightSequence,
    excerpt_int,
    sector_dominance_constant,
    sequence_from_text,
    unit_noise,
    weight_from_text,
)
from .series import _tail_rows, testpoint_block_probe
from .summation import exact_sum, suffix_sums, variation_sums

__all__ = [
    "InequalityRecord",
    "VerificationOutcome",
    "corpus_member",
    "probe_necessity",
    "probe_sufficiency",
    "run_sector_implication_corpus",
    "run_weighted_implication_corpus",
    "verify_equivalence_diagnostics",
    "verify_lacunary_counterexample",
]

CLAIM_WEIGHTED = "weighted_bv_implies_group_bv"
CLAIM_SECTOR = "orvqm_implies_group_bv"
CLAIM_LACUNARY = "lacunary_counterexample"
CLAIM_EQUIV = "uniform_convergence_equivalence"
CLAIM_NECESSITY = "necessity_probe"
CLAIM_SUFFICIENCY = "sufficiency_bounds"

STATUS_OK = "ok"
STATUS_VIOLATED = "violated"
STATUS_PREMISES = "premises_not_met"

# Relative tolerance granted to every measured inequality: slack may be
# as low as -_SLACK_RTOL * scale before a gate counts as violated.
_SLACK_RTOL = 1e-9

# Oracle-pinned equivalence thresholds (see the diagnostics docstring).
EQUIV_SUP_TOL = 0.15
EQUIV_NCN_TOL = 0.15


def _finite_or_none(x: float) -> Optional[float]:
    return float(x) if math.isfinite(x) else None


@dataclass
class InequalityRecord:
    """One measured inequality: lhs <= rhs with slack = rhs - lhs."""

    name: str
    instance: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    witness: Optional[int] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "passed": bool(self.passed),
            "lhs": _finite_or_none(self.lhs),
            "rhs": _finite_or_none(self.rhs),
            "slack": _finite_or_none(self.slack),
            "witness": None if self.witness is None else int(self.witness),
            "detail": self.detail,
        }


@dataclass
class VerificationOutcome:
    claim: str
    status: str
    records: list
    summary: dict

    def to_json_dict(self) -> dict:
        summary = {k: (_finite_or_none(v) if isinstance(v, float) else v)
                   for k, v in self.summary.items()}
        return {
            "claim": self.claim,
            "status": self.status,
            "summary": summary,
            "records": [r.to_json_dict() for r in self.records],
        }

    def table(self) -> str:
        lines = [f"claim: {self.claim}   status: {self.status}"]
        for key in sorted(self.summary):
            lines.append(f"  {key}: {self.summary[key]}")
        for r in self.records:
            mark = "pass" if r.passed else "FAIL"
            lines.append(
                f"  [{mark}] {r.name:32s} {r.instance:34s} "
                f"lhs={r.lhs:.6g} rhs={r.rhs:.6g} slack={r.slack:.3g}"
                + (f" witness={r.witness}" if r.witness is not None else "")
            )
        return "\n".join(lines)


def _gate(name: str, instance: str, lhs: float, rhs: float,
          witness: Optional[int] = None, detail: str = "",
          scale: Optional[float] = None) -> InequalityRecord:
    slack = rhs - lhs
    tol = _SLACK_RTOL * (scale if scale is not None
                         else max(1.0, abs(lhs), abs(rhs)))
    return InequalityRecord(name, instance, slack >= -tol, lhs, rhs, slack,
                            witness, detail)


def _judged(claim: str, records: list, summary: dict) -> VerificationOutcome:
    """ok when every record passes, else violated."""
    status = STATUS_OK if all(r.passed for r in records) else STATUS_VIOLATED
    return VerificationOutcome(claim, status, records, summary)


def _suffix(vals: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(vals):
        return suffix_sums(vals.real) + 1j * suffix_sums(vals.imag)
    return suffix_sums(vals)


# ---------------------------------------------------------------------------
# randomized premise-satisfying corpus
# ---------------------------------------------------------------------------

_CORPUS_LENGTH = 4096
_CORPUS_CUT = 1536          # decrements stop here: exact zero tails
_DECAY_POWERS = (1.6, 2.0, 2.4)
_SECTOR_ANGLES = (math.pi / 8.0, math.pi / 6.0)
_RBV_KAPPA = 0.05


def _weight_menu(q: float) -> list[str]:
    betas = [b for b in (0.25, 0.5, 0.75) if b <= q - 1.1]
    return ["one", "log"] + [f"power({b})" for b in betas]


@functools.lru_cache(maxsize=None)
def _decay(q: float) -> np.ndarray:
    """n^-q for n = 1.._CORPUS_CUT, read-only: built once per decay power
    of _DECAY_POWERS, as no seed moves it."""
    powers = np.arange(1, _CORPUS_CUT + 1, dtype=float) ** (-q)
    powers.setflags(write=False)
    return powers


@functools.lru_cache(maxsize=None)
def _rbv_factor() -> np.ndarray:
    """1 + kappa on the dyadic blocks [2^k, 2^(k+1)) of even k and 1 -
    kappa on the others, for n = 1.._CORPUS_LENGTH, read-only: built once,
    as no seed moves it."""
    exponents = _block_exponent(np.arange(1, _CORPUS_LENGTH + 1))
    factor = 1.0 + _RBV_KAPPA * np.where(exponents % 2 == 0, 1.0, -1.0)
    factor.setflags(write=False)
    return factor


@functools.lru_cache(maxsize=None)
def _corpus_weight(text: str) -> WeightSequence:
    """One WeightSequence per menu text (at most five), so that the corpus
    members that share a weight build and validate its prefix once; a
    weight is a pure function of n, so sharing it changes no value."""
    return weight_from_text(text)


def corpus_member(seed: int) -> tuple[CoefficientSequence, WeightSequence, Optional[Sector]]:
    """Deterministic instance for the implication claims, built to meet
    the chain's premises.

    Draw positive decrements d_n = (0.25 + 0.75 u_n) n^{-q} up to the cut,
    accumulate backward into g (so g is the exact tail sum of the d's and
    ends in zeros), and set c_n = g_n R(n).  Odd seeds rotate the
    decrements into the sector K(theta0) (the differences of c_n/R(n) then
    sit in the sector by construction); even seeds instead modulate g by
    1 +/- kappa across dyadic blocks, producing bounded-variation members
    that are not quasimonotone.  Weight growth is capped against the decay
    power.  c_n = 0 for n > 1536 of the 4096 terms, so every member meets
    the null premise.
    """
    L, cut = _CORPUS_LENGTH, _CORPUS_CUT
    u = unit_noise(seed, np.arange(4 + 2 * cut))
    pick = (u + 1.0) / 2.0
    q = _DECAY_POWERS[int(pick[0] * len(_DECAY_POWERS)) % len(_DECAY_POWERS)]
    menu = _weight_menu(q)
    wtext = menu[int(pick[1] * len(menu)) % len(menu)]
    weight = _corpus_weight(wtext)

    mags = (0.25 + 0.75 * pick[4:4 + cut]) * _decay(q)
    sector: Optional[Sector] = None
    if seed % 2 == 1:
        theta0 = _SECTOR_ANGLES[int(pick[2] * len(_SECTOR_ANGLES)) % len(_SECTOR_ANGLES)]
        phases = (2.0 * pick[4 + cut:4 + 2 * cut] - 1.0) * theta0
        d = mags * np.exp(1j * phases)
        sector = Sector(theta0)
    else:
        d = mags

    g = np.zeros(L, dtype=complex if sector is not None else float)
    g[:cut] = _suffix(d)
    if sector is None:
        # dyadic-blockwise +/- kappa modulation: keeps rest-bounded
        # variation while breaking monotonicity at block boundaries
        g *= _rbv_factor()
    rvals, _ = weight.validated_prefix(L)
    c = g * rvals
    kind = "sector" if sector is not None else "rbv"
    label = f"corpus@{seed}:{kind}(q={q:g},{wtext})"
    return CoefficientSequence.explicit(c, label=label), weight, sector


# ---------------------------------------------------------------------------
# implication claims
# ---------------------------------------------------------------------------

def _null_premise(plain: PrefixView) -> InequalityRecord:
    """premise/null: the view reads all of finite data, and its last value
    is exactly 0.  The witness is the last index L with c_L != 0, or 0 for
    all-zero data.

    (2') is stated for a null sequence.  Finite data stands for its zero
    extension c_n = 0 (n > N), which is null, and when c_N = 0 the view's
    tail sums are that extension's: tail[N-1] = 0 = |c_N - c_(N+1)|.  A
    prefix of a generator, or of data, decides nothing past its end, so
    neither meets the premise.
    """
    nonzero = plain.g[::-1] != 0
    k = int(np.argmax(nonzero))     # the last nonzero, from the end
    last = plain.N - k if nonzero[k] else 0
    data = plain.N == plain.seq.length
    return InequalityRecord(
        "premise/null", plain.seq.label, data and last < plain.N, math.nan,
        math.nan, math.nan, witness=last,
        detail="data, zero past the witness" if data
        else "a prefix does not decide nullness")


@functools.lru_cache(maxsize=8)
def _weight_premise(weight: WeightSequence, horizon: int) -> ConditionReport:
    """check_orv_weight(weight, horizon), once per weight and horizon: a
    pure function of the weight's first ``horizon`` values, which the
    members of a corpus run share (_corpus_weight gives at most five
    weights).  The chain only reads the report."""
    return check_orv_weight(weight, horizon)


def _chain(seq: CoefficientSequence, weight: WeightSequence,
           sector: Optional[Sector] = None) -> VerificationOutcome:
    """Drive the weighted-variation constant M through the proof chain;
    with a sector, the claim is the sector corollary and the chain runs
    behind a sector premise.

    Reads the default prefix of seq: its data, or 2^20 terms of a
    generator.  With a sector, the premise is the ORVQM check of the
    weighted differences; a sequence that fails it (the lacunary family,
    say) yields ``premises_not_met`` and no other record.  Sector
    telescoping then gives M <= 1/cos(theta0):

      sector telescoping  sum_{k>=m} |diff|  <=  Re h_m / cos(theta0),
                          h = c/R, over the weighted-variation scan
      variation constant  M  <=  1/cos(theta0)

    Premises of the chain (else ``premises_not_met``, keeping only the
    sector premise of the records before them): c is null (see
    _null_premise), the weight passes its doubling check, and the weighted
    rest-variation report holds with constant M.  Gates, for every n in
    the scan range:

      dominated tail     max_{k>=n} |c_k|/R(k)  <=  M |c_n|/R(n)
      block chain        sum_{k=n}^{2n} |c_k - c_{k+1}|
                           <=  M R(2n+1) g_n + g_n (R(2n+1) - R(n)),
                         g_n = |c_n|/R(n)
      predicted constant group-variation constant <= (M+1) rho - 1,
                         rho = max_n R(2n+1)/R(n)

    The gates' g_n is fl(|c_n|/R(n)).  For real c that is bit for bit
    |h_n|, h the weighted view's g: a real division is correctly rounded
    and |c_n|/R(n) = |c_n/R(n)|, so the gates take |h| with no second
    divide, and the premise and the gates read one rounding of each
    quotient.  For complex c the gates divide |c| by R, since the view's
    complex divide is not correctly rounded, and so they do when the
    weight is finite for fewer than N terms, which shortens the weighted
    view.  The gates read m = 1..K as slices: g[:K], tail[:K], and
    tail[2:2K+1:2] for the m-th entry at 2m.
    """
    plain, weighted = PrefixView.of(seq), PrefixView.of(seq, weight=weight)
    N, label = plain.N, seq.label
    claim = CLAIM_WEIGHTED if sector is None else CLAIM_SECTOR
    records: list[InequalityRecord] = []
    if sector is not None:
        qrep = check_orvqm(weighted, sector)
        if qrep.verdict != HOLDS:
            unmet = InequalityRecord(
                "premise/sector_differences", label, False, math.nan,
                math.nan, math.nan, witness=qrep.witness,
                detail=f"verdict={qrep.verdict}")
            return VerificationOutcome(claim, STATUS_PREMISES, [unmet], {})
        records.append(InequalityRecord(
            "premise/sector_differences", label, True, float(qrep.constant),
            sector.theta0, sector.theta0 - float(qrep.constant),
            detail="largest |arg| of the weighted differences"))
    wrep = check_weighted_rest_bv(weighted)
    held = wrep.verdict == HOLDS
    if sector is not None:
        h, K = weighted.g, wrep.m_max
        dominance = sector_dominance_constant(sector)
        lhs = weighted.tail[:K]
        rhs = dominance * np.maximum(h[:K].real, 0.0)
        i = int(np.argmin(rhs - lhs))
        records.append(_gate("sector/telescoping", label, float(lhs[i]),
                             float(rhs[i]), witness=i + 1,
                             scale=max(1.0, float(np.abs(h).max()))))
        rec = _gate("sector/variation_constant", label,
                    float(wrep.constant) if held else math.inf, dominance,
                    detail=f"1/cos(theta0) = {dominance:.6g}")
        rec.passed = rec.passed and held
        records.append(rec)

    worv = _weight_premise(weight, min(N, 1 << 16))
    notes = f"; {worv.notes}" if worv.notes else ""
    premises = [
        _null_premise(plain),
        InequalityRecord(
            "premise/weight_doubling", label, worv.verdict == HOLDS,
            worv.constant if worv.constant is not None else math.nan,
            math.inf, math.inf, detail=f"verdict={worv.verdict}{notes}"),
        InequalityRecord(
            "premise/weighted_variation", label, held,
            wrep.constant if wrep.constant is not None else math.nan,
            math.inf, math.inf, detail=f"verdict={wrep.verdict}")]
    if not all(r.passed for r in premises):
        return VerificationOutcome(claim, STATUS_PREMISES,
                                   records[:1] + premises, {})
    records.extend(premises)

    M2 = float(wrep.constant)
    cabs = np.abs(plain.g)
    rvals, _ = weight.validated_prefix(N)
    if np.iscomplexobj(plain.g) or weighted.N < N:
        g = cabs / rvals
    else:   # |fl(c/R)| = fl(|c|/R), bit for bit (see above)
        g = np.abs(weighted.g)
    K = min(wrep.m_max, (N - 1) // 2)   # the gates read m = 1..K
    scale = max(1.0, float(cabs.max()))
    gm = g[:K]

    # dominated tail: running maximum of g from the right
    lhs1 = np.maximum.accumulate(g[::-1])[::-1][:K]
    rhs1 = M2 * gm
    i1 = int(np.argmin(rhs1 - lhs1))
    records.append(_gate("chain/dominated_tail", label,
                         float(lhs1[i1]), float(rhs1[i1]),
                         witness=i1 + 1, scale=scale))

    # block chain: suffix-difference variation per block against the
    # two-term right side; 2m <= N - 1, so the block [m, 2m] fits
    lhs2 = plain.tail[:K] - plain.tail[2:2 * K + 1:2]
    R2 = rvals[2:2 * K + 1:2]   # R(2n+1), 1-based
    R1 = rvals[:K]              # R(n)
    rhs2 = M2 * R2 * gm + gm * (R2 - R1)
    i2 = int(np.argmin(rhs2 - lhs2))
    records.append(_gate("chain/block_variation", label,
                         float(lhs2[i2]), float(rhs2[i2]),
                         witness=i2 + 1, scale=scale * float(R2.max())))

    # predicted constant for the group-variation check
    rho = float((R2 / R1).max())
    grep = check_group_bv(plain, (1,))[0]
    ok_hold = grep.verdict == HOLDS
    measured = float(grep.constant) if ok_hold else math.inf
    rec = _gate("chain/predicted_constant", label, measured,
                (M2 + 1.0) * rho - 1.0, witness=grep.witness,
                detail=f"M={M2:.6g} rho={rho:.6g}")
    rec.passed = rec.passed and ok_hold
    records.append(rec)
    return _judged(claim, records, {})


def _corpus_outcome(claim: str, seed_start: int,
                    outcomes: list) -> VerificationOutcome:
    """Aggregate per-member chain outcomes: keep every failed record and
    every record that is no premise (named premise/...); the worst slack
    is the smallest finite one.  A member whose premises are not met is no
    violation: the run is violated when a member is, else premises_not_met
    when no member is ok, else ok; the headline counts the chains of the
    members whose premises hold and names the others."""
    if not outcomes:
        raise SequenceError("a corpus run needs at least one member")
    statuses = [out.status for out in outcomes]
    passed = statuses.count(STATUS_OK)
    unmet = statuses.count(STATUS_PREMISES)
    records = [r for out in outcomes for r in out.records
               if not r.passed or not r.name.startswith("premise/")]
    worst = min((r.slack for out in outcomes for r in out.records
                 if math.isfinite(r.slack)), default=math.inf)
    size = len(outcomes)
    if STATUS_VIOLATED in statuses:
        status = STATUS_VIOLATED
    else:
        status = STATUS_OK if passed else STATUS_PREMISES
    headline = f"{passed}/{size - unmet} chains hold"
    if unmet:
        headline += f", {unmet} member(s) with premises not met"
    return VerificationOutcome(
        claim, status, records,
        {"members": size, "passed": passed, "seed_start": seed_start,
         "worst_slack": worst, "headline": headline})


def _corpus_seeds(first: int, size: int, step: int) -> range:
    """The seeds first, first + step, ... of a run of ``size`` members.

    Every seed the run draws, its last one included, must lie in
    [0, 2^64), as unit_noise's must; checked up front, so that the message
    names the run's seed range."""
    seeds = range(first, first + step * size, step)
    if seeds and not (seeds[0] >= 0 and seeds[-1] < 1 << 64):
        raise SequenceError(f"every corpus seed must be an integer in "
                            f"[0, 2^64); this run draws seeds "
                            f"{excerpt_int(seeds[0])} to "
                            f"{excerpt_int(seeds[-1])}")
    return seeds


def run_weighted_implication_corpus(seed_start: int,
                                    size: int) -> VerificationOutcome:
    """The implication chain over the randomized corpus, aggregated."""
    outcomes = [_chain(*corpus_member(seed)[:2])
                for seed in _corpus_seeds(seed_start, size, 1)]
    return _corpus_outcome(CLAIM_WEIGHTED, seed_start, outcomes)


def run_sector_implication_corpus(seed_start: int,
                                  size: int) -> VerificationOutcome:
    """The sector implication over the odd-seed (sector) corpus members."""
    outcomes = [_chain(*corpus_member(seed))
                for seed in _corpus_seeds(seed_start | 1, size, 2)]
    return _corpus_outcome(CLAIM_SECTOR, seed_start, outcomes)


# ---------------------------------------------------------------------------
# lacunary counterexample
# ---------------------------------------------------------------------------

def verify_lacunary_counterexample(alpha: float) -> VerificationOutcome:
    """The sparse family b supported on n = 2^k with b_n = 2^{-alpha k}.

    Records three findings: (i) the dyadic block maxima of n^alpha b_n are
    exactly 1 -- verified in exponent space, where each stored value is
    exactly 2^{-alpha k}, with the direct float product checked to a few
    ulp; (ii) the group-variation check fails for every window
    length in n0_list with a zero-right-side witness; (iii) the tail
    sup-norm estimates stay below the absolute tail bound
    2^{-alpha K}/(1 - 2^{-alpha}), K = floor(log2 n) + 1, the bound
    strictly decreases, and it drops below sup_threshold by threshold_n.
    """
    horizon, n0_list = 1 << 20, DEFAULT_WINDOWS
    sup_threshold, threshold_n = 1e-3, 1 << 15
    # 2^-alpha < 1 keeps the absolute tail bound finite, and 2^(-20 alpha)
    # normal keeps every support value nonzero and 2^(alpha k) finite
    if not (0.0 < alpha and alpha * math.log2(horizon) <= 1022
            and 2.0 ** -alpha < 1.0):
        raise SequenceError(f"lacunary alpha must satisfy 2^-alpha < 1 and "
                            f"20 alpha <= 1022; got {alpha!r}")
    b = sequence_from_text(f"lacunary({float(alpha)!r})")
    label = b.label
    records: list[InequalityRecord] = []

    # (i) block maxima in exponent space.  The prefix is zero off its
    # support, 2^1..2^kmax, so the stored values and the nonzero count of
    # the prefix are those of the support
    kmax = int(math.floor(math.log2(horizon)))
    k = np.arange(1, kmax + 1, dtype=float)
    stored = b.values_at(b.support(0, horizon))
    exponents_match = bool(np.all(stored == np.exp2(-alpha * k)))
    prod = np.exp2(alpha * k) * stored
    ulp_dev = float(np.abs(prod - 1.0).max()) / np.finfo(float).eps
    support_ok = int(np.count_nonzero(stored)) == kmax
    exact = exponents_match and support_ok and ulp_dev <= 4.0
    records.append(InequalityRecord(
        "maxima/exactly_one", label, exact, float(np.abs(prod - 1.0).max()),
        4.0 * np.finfo(float).eps, math.nan,
        detail=f"float product within {ulp_dev:g} ulp; "
               f"direct float product exact: {bool(np.all(prod == 1.0))}"))

    # (ii) group variation fails for every window
    reps = check_group_bv(PrefixView.of(b, horizon), n0_list)
    for n0, rep in zip(n0_list, reps):
        ok = rep.verdict == FAILS and rep.witness is not None
        records.append(InequalityRecord(
            f"group_bv/window_{n0}", label, ok, math.nan, math.nan, math.nan,
            witness=rep.witness, detail=f"verdict={rep.verdict}"))

    # (iii) tail estimates against the absolute bound
    ns = [1 << j for j in range(6, int(math.log2(threshold_n)) + 1)]
    # the rows of convergence_curve, without its truncation slack
    rows = _tail_rows(b, ns, horizon)[0]
    decay = 1.0 - 2.0 ** (-alpha)
    bounds = [2.0 ** (-alpha * (math.floor(math.log2(e.n)) + 1)) / decay
              for e in rows]
    ests = [e.sup_estimate for e in rows]
    dominated = all(est <= bound + 1e-12 for est, bound in zip(ests, bounds))
    # the record shows the ladder n where the bound is tightest
    i = min(range(len(ns)), key=lambda j: bounds[j] - ests[j])
    records.append(InequalityRecord(
        "tail/dominated_by_abs_bound", label, dominated, ests[i], bounds[i],
        bounds[i] - ests[i], witness=ns[i],
        detail=f"{len(ns)} dyadic n values"))
    decreasing = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    records.append(InequalityRecord(
        "tail/bound_decreasing", label, decreasing, math.nan, math.nan,
        math.nan))
    final_bound, final_est = bounds[-1], ests[-1]
    below = final_bound <= sup_threshold and final_est <= sup_threshold
    records.append(InequalityRecord(
        "tail/below_threshold", label, below,
        max(final_bound, final_est), sup_threshold,
        sup_threshold - max(final_bound, final_est),
        witness=threshold_n,
        detail=f"certified bound {final_bound:.3g}, estimate {final_est:.3g}"))

    return _judged(
        CLAIM_LACUNARY, records,
        {"alpha": alpha, "horizon": horizon, "n0_list": list(n0_list),
         "threshold": sup_threshold, "threshold_n": threshold_n})


# ---------------------------------------------------------------------------
# equivalence diagnostics
# ---------------------------------------------------------------------------

_EQUIV_CORPUS = ("harmonic(1.0)", "log_damped", "lacunary(1.0)")
_EQUIV_NS = tuple(1 << j for j in range(6, 13))
_EQUIV_NREF = 1 << 17


def verify_equivalence_diagnostics() -> VerificationOutcome:
    """Co-trending of n|c_n| and the tail sup-norm column per member of the
    fixed corpus: n = 2^6..2^12, N_ref = 2^17, 2^20-term prefixes.

    For members whose group-variation check holds, the two final-row
    diagnostics must sit on the same side of their thresholds (both vanish
    or both stay large); where the check fails the requirement is waived
    and the member recorded as such.  Thresholds were pinned from
    doubled-resolution runs of the same estimator before enforcement; the
    verdicts are numerical evidence about trends, not limit certificates.
    """
    records: list[InequalityRecord] = []
    for text in _EQUIV_CORPUS:
        seq = sequence_from_text(text)
        grep = check_group_bv(PrefixView.of(seq), (1,))[0]
        # the last row of convergence_curve, without its truncation slack
        last = _tail_rows(seq, _EQUIV_NS, _EQUIV_NREF)[0][-1]
        sup, max_k_ck = last.sup_estimate, last.max_k_ck
        ncn_small = max_k_ck <= EQUIV_NCN_TOL
        sup_small = sup <= EQUIV_SUP_TOL
        if grep.verdict != HOLDS:
            records.append(InequalityRecord(
                "equivalence/waived", text, True, max_k_ck, sup, math.nan,
                detail="group variation fails: equivalence not applicable"))
            continue
        consistent = ncn_small == sup_small
        side = "vanish" if ncn_small else "persist"
        records.append(InequalityRecord(
            "equivalence/co_trending", text, consistent, max_k_ck, sup,
            math.nan,
            detail=f"both {side}" if consistent else "columns disagree"))
    return _judged(
        CLAIM_EQUIV, records,
        {"members": len(_EQUIV_CORPUS), "n_list": list(_EQUIV_NS),
         "N_ref": _EQUIV_NREF, "sup_tol": EQUIV_SUP_TOL,
         "ncn_tol": EQUIV_NCN_TOL})


# ---------------------------------------------------------------------------
# probes for the boundary inequalities
# ---------------------------------------------------------------------------

def _pair_sector_instance(seed: int, length: int,
                          theta0: float) -> TwoSidedSequence:
    """Two-sided instance whose pair sums and differences sit in K(theta0):
    c_k accumulated backward from sector decrements, c_{-k} = tau_k c_k
    with tau_k in [0, 0.8)."""
    u = unit_noise(seed, np.arange(3 * length))
    pick = (u + 1.0) / 2.0
    n = np.arange(1, length + 1, dtype=float)
    mags = (0.25 + 0.75 * pick[:length]) * n ** (-1.7)
    phases = (2.0 * pick[length:2 * length] - 1.0) * theta0 * 0.98
    pos_vals = _suffix(mags * np.exp(1j * phases))
    tau = 0.8 * pick[2 * length:]
    neg_vals = tau * pos_vals
    pos = CoefficientSequence.explicit(pos_vals, label=f"pair@{seed}:pos")
    neg = CoefficientSequence.explicit(neg_vals, label=f"pair@{seed}:neg")
    return TwoSidedSequence(pos, neg, label=f"pair@{seed}")


def probe_necessity(instances: int, seed: int) -> VerificationOutcome:
    """The test-point machinery: the sine floor sin(k x0) >= sin(pi/8) on
    (n, 4n] at n = 10, 100 and 1000, then the three-term inequality at
    n = 256 on randomized instances in K(pi/6) with recorded slack.  A
    three-term record passes when its slack is at least -1e-9 max(1,
    |lhs|, norm_diff), the pair sums and differences lie in the sector on
    [1, 4n] (check_pair_sector) and the probe's sine floor holds."""
    n_probe, theta0 = 256, math.pi / 6.0
    records: list[InequalityRecord] = []
    floor = math.sin(math.pi / 8.0)
    for n in (10, 100, 1000):
        k = np.arange(n + 1, 4 * n + 1, dtype=float)
        smin = float(np.sin(k * math.pi / (8.0 * n)).min())
        records.append(_gate("testpoint/sine_floor", f"n={n}", floor, smin,
                             detail="min sin(k x0) over (n, 4n]"))
    sector = Sector(theta0)
    for i in range(instances):
        ts = _pair_sector_instance(seed + i, 4 * n_probe, theta0)
        premises_ok = check_pair_sector(ts, sector, 4 * n_probe).verdict == HOLDS
        pr = testpoint_block_probe(ts, n_probe)
        rec = _gate("testpoint/three_term", ts.label, pr.lhs,
                    pr.norm_diff + pr.pair_abs_sum,
                    detail=f"premises_ok={premises_ok}",
                    scale=max(1.0, abs(pr.lhs), pr.norm_diff))
        rec.passed = rec.passed and premises_ok and pr.sin_floor_ok
        records.append(rec)
    worst = min(r.slack for r in records)
    return _judged(
        CLAIM_NECESSITY, records,
        {"instances": instances, "seed": seed, "n_probe": n_probe,
         "theta0": theta0, "worst_slack": worst})


_SUFFICIENCY_FAMILIES = ("harmonic(1.0)", "harmonic(1.5)", "harmonic(2.0)",
                         "log_damped", "rbv_block(1.0)", "quasimono(0.5,2.0)")


def probe_sufficiency(seed: int) -> VerificationOutcome:
    """Summation-by-parts dominance on 100 randomized (family, N, x)
    triples at horizon 2^16: the (pi/x)-weighted variation bound must
    dominate the directly evaluated truncated tail on every case."""
    n_cases, horizon = 100, 1 << 16
    u = unit_noise(seed, np.arange(3 * n_cases))
    pick = (u + 1.0) / 2.0
    families = len(_SUFFICIENCY_FAMILIES)
    cases = [(int(pick[3 * i] * families) % families,
              1 + int(pick[3 * i + 1] * 1024),
              float(pick[3 * i + 2] * (math.pi - 1e-6) + 1e-6))
             for i in range(n_cases)]
    k = np.arange(1, horizon + 1, dtype=float)
    terms = np.empty(horizon)      # one case's terms at a time
    records: list[Optional[InequalityRecord]] = [None] * n_cases
    # one family at a time, so that one prefix is alive at a time
    for j, fam in enumerate(_SUFFICIENCY_FAMILIES):
        # by N: one call sums every case's sum_{k=N}^{H} |c_k - c_{k+1}|
        mine = sorted((i for i, case in enumerate(cases) if case[0] == j),
                      key=lambda i: cases[i][1])
        vals = sequence_from_text(fam).prefix(horizon + 1)
        var = variation_sums(vals, np.array([cases[i][1] - 1 for i in mine]),
                             np.full(len(mine), horizon)).tolist()
        for i, v in zip(mine, var):
            _, N, x = cases[i]
            bound = (math.pi / x) * (v + abs(complex(vals[N - 1])))
            t = terms[:horizon - N + 1]     # c_k sin kx for k = N..H
            np.multiply(k[N - 1:], x, out=t)
            np.sin(t, out=t)
            np.multiply(vals[N - 1:horizon], t, out=t)
            records[i] = _gate("abel/dominance", f"{fam} N={N} x={x:.4f}",
                               abs(exact_sum(t)), bound)
        del vals
    worst = min(r.slack for r in records)
    return _judged(
        CLAIM_SUFFICIENCY, records,
        {"cases": n_cases, "seed": seed, "horizon": horizon,
         "worst_slack": worst})
