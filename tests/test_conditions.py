import hashlib
import json
import math
import re
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigconv import conditions, summation
from trigconv.conditions import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    PrefixView,
    check_group_bv,
    check_orv_weight,
    check_orvqm,
    check_pair_sector,
    check_quasimonotone,
    check_rest_bv,
    check_weighted_rest_bv,
    classify,
)
from trigconv.harness import corpus_member
from trigconv.sequences import (
    REL_TOL,
    CoefficientSequence,
    Sector,
    SequenceError,
    WeightSequence,
    sequence_from_text,
    weight_from_text,
)
from trigconv.summation import suffix_sums

import _oracles as oracles


def _weight(text):
    return weight_from_text(text)


# --- monotone / quasimonotone ---------------------------------------------

def test_monotone_holds_for_harmonic():
    rep = check_quasimonotone(
        PrefixView.of(sequence_from_text("harmonic(1.0)"), 1 << 12))[0]
    assert rep.condition == "MONOTONE"
    assert rep.verdict == HOLDS


def test_monotone_fails_with_witness():
    seq = CoefficientSequence.explicit([1.0, 0.5, 0.75, 0.25])
    rep = check_quasimonotone(PrefixView.of(seq))[0]
    assert rep.condition == "MONOTONE"
    assert rep.verdict == FAILS
    assert rep.witness == 2          # first n with c_n < c_{n+1}
    assert rep.constant is None


def test_quasimonotone_alpha_rescues_blockwise_growth():
    # n^{-0.4} * 2^{-k}: grows inside dyadic blocks, but n^0.5 b_n decreasing
    seq = sequence_from_text("quasimono(0.4,1.0)")
    view = PrefixView.of(seq, 1 << 10)
    mono, rep, _ = check_quasimonotone(view)
    assert mono.verdict == FAILS
    assert rep.condition == "QUASIMONOTONE(alpha=0.5)"
    assert rep.verdict == HOLDS


def _report_bytes(rep):
    return json.dumps(rep.to_json_dict()) + rep.notes


# Plateaus at a few levels, each term jittered by a multiple of REL_TOL on
# either side of the slack, with exact ties, zeros and a subnormal.
_LEVELS = (0.0, 5e-324, 2.0 ** -30, 0.25, 1.0, 3.0)
_JITTER = (0.0, 0.0, 0.5, -0.5, 0.99, -0.99, 1.0, -1.0, 1.01, -1.01, 2.0,
           -2.0)
# span lengths of the early-exit scans: every pair its own span, short
# spans, and the real one
_SPANS = st.sampled_from([1, 2, 3, conditions._SPAN])


@st.composite
def _plateau_prefix(draw, signed):
    # two runs at least: a view needs 2 terms, and a level drawn twice is
    # one plateau
    vals = []
    for level in draw(st.lists(st.sampled_from(_LEVELS), min_size=2,
                               max_size=10)):
        for _ in range(draw(st.integers(1, 5))):
            v = level * (1.0 + draw(st.sampled_from(_JITTER)) * REL_TOL)
            vals.append(-v if signed and draw(st.booleans()) else v)
    return vals


@settings(max_examples=60, deadline=None)
@given(_plateau_prefix(signed=False), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       _SPANS)
def test_quasimonotone_scan_matches_full_array_oracle(vals, alpha, span):
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    with mock.patch.object(conditions, "_SPAN", span):
        rep = conditions._quasimonotone_scan(view, alpha)[0]
    expected = oracles.quasimonotone_report(view.g, alpha)
    assert _report_bytes(rep) == _report_bytes(expected)


@settings(max_examples=60, deadline=None)
@given(_plateau_prefix(signed=True), st.sampled_from([0.0, 0.3]), _SPANS)
def test_real_orvqm_scan_matches_full_array_oracle(vals, theta0, span):
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    g = view.g
    with mock.patch.object(conditions, "_SPAN", span):
        rep = check_orvqm(view, Sector(theta0))
        increase = conditions._first_flagged(
            view.N - 1,
            lambda lo, hi: conditions._first_increase(g[lo:hi + 1])[0])
    expected = oracles.orvqm_report(g, theta0)
    assert _report_bytes(rep) == _report_bytes(expected)
    assert increase == oracles.first_increase(g)


@pytest.mark.parametrize("N", [(1 << 16) - 1, (1 << 16) + 1, 1 << 17])
def test_scans_find_a_lone_violation_at_a_span_boundary(N):
    # pairs around 2^16, the largest span's length (the span ends are
    # tested below); c_{n+1} = 1.5 c_n is the only increase, an increase of
    # b_n / n**alpha too unless n**alpha grows by 1.5 or more
    base = 1.0 / np.arange(1, N + 1, dtype=float)
    for n in (None, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, N - 1):
        vals = base.copy()
        if n is not None:
            if n > N - 1:
                continue
            vals[n] = 1.5 * vals[n - 1]
        view = PrefixView.of(CoefficientSequence.explicit(vals))
        reports = [check_orvqm(view, Sector(0.0))] + [
            conditions._quasimonotone_scan(view, alpha)[0]
            for alpha in (0.0, 0.5, 1.0)]
        expected = [oracles.orvqm_report(vals, 0.0)] + [
            oracles.quasimonotone_report(vals, alpha)
            for alpha in (0.0, 0.5, 1.0)]
        assert [r.witness for r in reports[:2]] == [n, n]
        assert list(map(_report_bytes, reports)) == list(
            map(_report_bytes, expected))


_WITNESS_N = (1 << 17) + 8


def _span_ends(count):
    """The last n of each span of the early-exit scans over 1..count."""
    ends, span = [conditions._FIRST_SPAN], conditions._FIRST_SPAN
    while ends[-1] < count:
        span = min(2 * span, conditions._SPAN)
        ends.append(ends[-1] + span)
    return ends[:-1]


@pytest.mark.parametrize("n", sorted({
    1, (1 << 10) - 1, 1 << 10, (1 << 10) + 1, (1 << 11) + 5, (1 << 16) - 1,
    1 << 16, (1 << 16) + 1, _WITNESS_N - 1,
    *(n for end in _span_ends(_WITNESS_N - 1) for n in (end, end + 1))}) +
    [None])
def test_growing_spans_report_the_full_array_witness(n):
    # the spans grow from 2^10 to 2^16 indices: a first violation planted
    # inside the first span, on either side of any span's end, at 2^16 or
    # past the largest span is the one a full-array oracle finds
    N = _WITNESS_N
    base = 1.0 / np.arange(1, N + 1, dtype=float)
    vals = base.copy()
    if n is not None:
        vals[n] = 1.5 * vals[n - 1]   # the pair (n, n + 1) increases
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    reports = [check_quasimonotone(view)[0], check_orvqm(view, Sector(0.0))]
    expected = [oracles.quasimonotone_report(vals, 0.0),
                oracles.orvqm_report(vals, 0.0)]
    assert [r.witness for r in reports] == [n, n]
    assert list(map(_report_bytes, reports)) == list(
        map(_report_bytes, expected))
    # the GROUP_BV zero-right-side scan over m = 1..(N - 1)/2: c_m and
    # c_{m+1} are 0, so R_m = 0 for both windows while c_{m+2} != 0 lies
    # in the block; the last planted m is the scan's last
    m_max = (N - 1) // 2
    c = base.copy()
    m = None if n is None else min(n, m_max)
    if m is not None:
        c[m - 1:m + 1] = 0.0
    reps = check_group_bv(PrefixView.of(CoefficientSequence.explicit(c)),
                          (1, 2), m_max)
    for n0, rep in zip((1, 2), reps):
        assert rep.m_max == m_max
        want = oracles.first_zero_rhs_failure(c, n0, m_max)
        assert want == m
        assert rep.verdict == (HOLDS if want is None else FAILS)
        if want is not None:
            assert rep.witness == want


_QM_ALPHAS = (0.0, 0.5, 1.0)
# one scale per prefix, so that classify's ratios T_m / b_m stay finite;
# the levels under it reach values near, at and below 2^-1022, the
# smallest normal float, and 2^-1074, the smallest float
_LADDER_SCALES = (1.0, 2.0 ** -1000, 2.0 ** -1022, 2.0 ** -1030)
_LADDER_LEVELS = (1.0, 3.0, 1.0 + 2.0 ** -52, 2.0 ** -21, 2.0 ** -44)


@st.composite
def _ladder_prefix(draw):
    # runs that go on from the last value or restart at a drawn level:
    # flat or falling (exactly non-increasing), sqrt(n) times a falling
    # factor (rises whose alpha = 1/2 quotients fall), rises within the
    # 1e-12 tolerance, and zeros; a falling run from a tiny level passes
    # 2^-1022 on its way to subnormals and 0
    scale = draw(st.sampled_from(_LADDER_SCALES))
    vals, v = [], scale * draw(st.sampled_from(_LADDER_LEVELS))
    for kind, length, restart in draw(st.lists(
            st.tuples(st.sampled_from(["flat", "fall", "sqrt", "tol",
                                       "zero"]),
                      st.integers(1, 375), st.booleans()),
            min_size=1, max_size=8)):
        if restart:
            v = scale * draw(st.sampled_from(_LADDER_LEVELS))
        n = len(vals) + 1
        k = np.arange(1, length + 1, dtype=float)
        if kind == "flat":
            run = np.full(length, v)
        elif kind == "fall":
            run = v * np.cumprod(np.full(length, draw(st.sampled_from(
                [0.9, 0.99, 1.0 - 2.0 ** -52]))))
        elif kind == "sqrt":
            run = v * np.sqrt((n + k) / n) * 0.999 ** k
        elif kind == "tol":
            run = v * np.cumprod(np.full(length, 1.0 + draw(st.sampled_from(
                [0.3, 0.9])) * REL_TOL))
        else:
            run = np.zeros(length)
        vals.extend(run.tolist())
        v = vals[-1]
    return vals if len(vals) > 1 else vals * 2


@settings(max_examples=80, deadline=None)
@given(_ladder_prefix(), st.none(), st.none())
# one scan: harmonic is exactly non-increasing (lemma (a))
@example("harmonic(1.0)", 1 << 12, 1)
# two: quasimono fails at alpha = 0, and its exact alpha = 1/2 quotients
# decide alpha = 1 (lemma (b))
@example("quasimono(0.5,2.0)", 1 << 12, 2)
# three: the alpha = 1/2 quotients fall exactly but end below 2^-1022
@example([4.0, 5.0, 1e-310], None, 3)
def test_classify_quasimonotone_ladder_matches_every_scan(values, horizon,
                                                          scans):
    seq = (sequence_from_text(values) if isinstance(values, str)
           else CoefficientSequence.explicit(values))
    view = PrefixView.of(seq, horizon)
    alphas, scan = [], conditions._quasimonotone_scan
    with mock.patch.object(conditions, "_quasimonotone_scan",
                           lambda v, alpha: alphas.append(alpha)
                           or scan(v, alpha)):
        got = classify(seq, horizon=horizon)[:3]
    want = [scan(view, alpha)[0] for alpha in _QM_ALPHAS]
    assert [vars(r) for r in got] == [vars(r) for r in want]
    assert alphas == list(_QM_ALPHAS[:len(alphas)])
    if scans is not None:
        assert len(alphas) == scans


def test_numpy_powers_of_the_ladder_are_sqrt_and_the_identity():
    # the lemmas of check_quasimonotone read n**0.5 as the correctly
    # rounded sqrt n and n**1.0 as n itself, bit for bit
    n = np.arange(1, (1 << 20) + 1, dtype=float)
    assert np.array_equal((n ** 0.5).view(np.uint64),
                          np.sqrt(n).view(np.uint64))
    assert np.array_equal((n ** 1.0).view(np.uint64), n.view(np.uint64))


# --- weight doubling check -------------------------------------------------

@pytest.mark.parametrize("text", ["one", "const(3.5)", "power(0.5)",
                                  "power(1.0)", "log"])
def test_orv_weight_holds(text):
    assert check_orv_weight(_weight(text), 1 << 16).verdict == HOLDS


def test_orv_weight_log_constant():
    # oracle: direct max of log(2n+2)/log(n+2) over the scan, attained at
    # n = 2 with value log(6)/log(4); frozen from that computation
    rep = check_orv_weight(_weight("log"), 1 << 16)
    assert rep.verdict == HOLDS
    assert rep.constant == pytest.approx(1.292481250360578, rel=1e-12)
    assert rep.witness == 2


def test_orv_weight_finite_only_at_one_is_too_short():
    # R(2) = 2^2000 overflows, so no ratio R(2n)/R(n) is finite
    rep = check_orv_weight(_weight("power(2000)"), 1 << 16)
    assert rep.verdict == INCONCLUSIVE
    assert rep.notes == "range too short"
    assert rep.constant is None


def test_orv_weight_exp2_inconclusive():
    rep = check_orv_weight(_weight("exp2"), 1 << 16)
    assert rep.verdict == INCONCLUSIVE
    assert "overflow" in (rep.notes or "")


# --- rest bounded variation ------------------------------------------------

def test_rest_bv_monotone_telescopes_to_one():
    rep = check_rest_bv(PrefixView.of(sequence_from_text("harmonic(2.0)"),
                                      1 << 16))
    assert rep.verdict == HOLDS
    assert rep.constant == pytest.approx(1.0, abs=1e-9)
    assert rep.to_json_dict()["range"]["m_min"] == 1


def test_rest_bv_zero_sequence():
    # 0/0 windows count as ratio 0 rather than poisoning the sup
    rep = check_rest_bv(PrefixView.of(sequence_from_text("zero"), 1 << 8))
    assert rep.verdict == HOLDS
    assert rep.constant == 0.0


def test_rest_bv_zero_denominator_hard_fail():
    # c_m = 0 with variation left beyond m: no constant can work
    seq = CoefficientSequence.explicit([1.0, 0.0, 0.5, 0.25, 0.0, 0.0])
    rep = check_rest_bv(PrefixView.of(seq), m_max=4)
    assert rep.verdict == FAILS
    assert rep.witness == 2
    assert rep.constant is None


@pytest.mark.parametrize("text,horizon", [
    ("harmonic(1.0)", 1 << 12), ("rbv_block(1.0)", 1 << 12),
    ("quasimono(0.5,2.0)", 1 << 12),
    ("lacunary(1.0)", 1 << 12),                       # fails at a zero R_m
    ("explicit:[1,-0.5,0.25,-0.125,0.0625,0.5,0,0,1,0.5]", None),  # signed
])
def test_rest_bv_and_weighted_rest_bv_share_one_scan_of_a_view(text,
                                                               horizon):
    # with no weight, classify's WEIGHTED_REST_BV_REAL(one) reads the same
    # g as REST_BV: one scan gives both reports, each field for field as
    # its checker gives on a fresh view
    seq = sequence_from_text(text)
    scan = conditions._tail_variation_scan
    with mock.patch.object(conditions, "_tail_variation_scan",
                           side_effect=scan) as spy:
        got = {r.condition: r for r in classify(seq, horizon=horizon)}
    assert spy.call_count == 1
    want = [check_weighted_rest_bv(PrefixView.of(seq, horizon))]
    if "REST_BV" in got:
        want.append(check_rest_bv(PrefixView.of(seq, horizon)))
    for rep in want:
        assert vars(got[rep.condition]) == vars(rep)
    # another scan end on the same view is a scan of its own
    view = PrefixView.of(seq, horizon)
    check_weighted_rest_bv(view, 2)
    assert (vars(check_weighted_rest_bv(view))
            == vars(check_weighted_rest_bv(PrefixView.of(seq, horizon))))


# every public checker of a view, the range checkers at two scan ends
_VIEW_CHECKERS = (
    check_quasimonotone,
    check_rest_bv,
    lambda view: check_rest_bv(view, 2),
    check_weighted_rest_bv,
    lambda view: check_weighted_rest_bv(view, 2),
    lambda view: check_group_bv(view, (1, 2)),
    lambda view: check_orvqm(view, Sector(0.3)),
)


def _outcome(check, view):
    """The reports of one checker call, field for field, or its error."""
    try:
        got = check(view)
    except SequenceError as exc:
        return repr(exc)
    return [vars(r) for r in (got if isinstance(got, list) else [got])]


@st.composite
def _short_prefix(draw):
    # plateaus, falls, rises, rises within the tolerance and zeros; signed
    # or complex terms where drawn
    vals = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0,
                                          1.0 + 1e-13, 3.0]),
                         min_size=2, max_size=12))
    turn = draw(st.sampled_from([(1,), (1, -1), (1, 1j, 0.6 + 0.8j)]))
    return [v * draw(st.sampled_from(turn)) for v in vals]


@settings(max_examples=60, deadline=None)
@given(_short_prefix(), st.sampled_from([None, "log", "power(0.5)"]),
       st.permutations(range(len(_VIEW_CHECKERS))),
       st.permutations(range(len(_VIEW_CHECKERS))))
def test_checkers_of_one_view_do_not_depend_on_call_order(vals, weight,
                                                          first, second):
    # each checker is a pure function of its view: run in any order on one
    # shared view, twice over, it gives what it gives on a fresh view
    seq = CoefficientSequence.explicit(vals)

    def view():
        return PrefixView.of(seq, None, _weight(weight) if weight else None)

    want = [_outcome(check, view()) for check in _VIEW_CHECKERS]
    shared = view()
    for order in (first, second):
        for i in order:
            assert _outcome(_VIEW_CHECKERS[i], shared) == want[i]


@pytest.mark.parametrize("weight", [None, "log"])
def test_weighted_rest_bv_scratch_is_bounded_by_the_scan(weight):
    # past g and its tail sums, the right side, its zero mask and the
    # ratios cover m = 1..N/4 alone (1.31 x 8N when |g| was formed over
    # the whole prefix)
    N = 1 << 18
    view = PrefixView.of(sequence_from_text("harmonic(1.0)"), N,
                         _weight(weight) if weight else None)
    view.tail
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = check_weighted_rest_bv(view)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verdict != FAILS
    assert peak <= 0.75 * 8 * N


def test_tail_variation_scan_past_the_horizon_is_an_input_error():
    # the fit rule of the window scans: no verdict over an empty range
    view = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5, 0.25,
                                                       0.125, 0.0625]))
    for m_max in (0, -3):
        for check in (check_rest_bv, check_weighted_rest_bv):
            with pytest.raises(SequenceError, match=rf"bad index range "
                                                    rf"\[1, {m_max}\]"):
                check(view, m_max)
    with pytest.raises(SequenceError, match="bad index range"):
        check_group_bv(view, (1,), 0)
    with pytest.raises(SequenceError, match="horizon 1 leaves the checkers "
                                            "an empty scan range"):
        PrefixView.of(CoefficientSequence.explicit([1.0]))
    # an m_max past the horizon is cut at the last m that fits
    rep = check_rest_bv(view, 20)
    assert (rep.m_max, rep.horizon) == (4, 5)
    rep, = check_group_bv(view, (1,), 20)
    assert rep.m_max == 2


def test_a_view_needs_two_terms():
    # every checker scans at least one pair (n, n+1): a shorter view would
    # give a verdict over zero pairs, so it is an input error, weighted or
    # not
    one, gen = (sequence_from_text("explicit:[1]"),
                sequence_from_text("harmonic(1.0)"))
    for seq, horizon, N in ((one, None, 1), (gen, 1, 1), (gen, 0, 0),
                            (gen, -5, -5)):
        for weight in (None, _weight("log")):
            with pytest.raises(SequenceError, match=re.escape(
                    f"horizon {N} leaves the checkers an empty scan range; "
                    "at least 2 terms are needed")):
                PrefixView.of(seq, horizon, weight)
    assert PrefixView.of(sequence_from_text("explicit:[1,0.5]")).N == 2


def test_pair_sector_needs_an_index():
    pair = sequence_from_text("harmonic(2.0)"), sequence_from_text("zero")
    for N in (0, -3):
        with pytest.raises(SequenceError, match=rf"bad index range \[1, {N}\]"):
            check_pair_sector(*pair, Sector(0.0), N)
    assert check_pair_sector(*pair, Sector(0.0), 1).verdict == HOLDS


def test_weighted_rest_bv_real_label():
    rep = check_weighted_rest_bv(PrefixView.of(
        sequence_from_text("harmonic(1.0)"), 1 << 12, _weight("one")))
    assert rep.condition == "WEIGHTED_REST_BV_REAL(one)"
    assert rep.verdict == HOLDS


def test_weighted_rest_bv_complex_label():
    vals = np.zeros(64, dtype=complex)
    vals[:16] = np.exp(1j * 0.1) * 2.0 ** -np.arange(16)
    rep = check_weighted_rest_bv(PrefixView.of(
        CoefficientSequence.explicit(vals), weight=_weight("one")))
    assert rep.condition == "WEIGHTED_REST_BV(one)"
    assert rep.verdict == HOLDS


# --- group bounded variation ----------------------------------------------

def test_group_bv_harmonic_constant():
    # sum_{k=m}^{2m} |dc_k| / max window |c| peaks at m = 1 with 2/3
    rep, = check_group_bv(
        PrefixView.of(sequence_from_text("harmonic(1.0)"), 1 << 16), (1,))
    assert rep.verdict == HOLDS
    assert rep.constant == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.witness == 1
    assert rep.stabilization == 0.0


def test_group_bv_brute_force_small():
    # independent per-m loop oracle on a short explicit array
    rng = np.random.default_rng(17)
    vals = np.sort(rng.random(64))[::-1].copy()
    seq = CoefficientSequence.explicit(vals)
    rep, = check_group_bv(PrefixView.of(seq), (1,))
    absdiff = np.abs(np.diff(vals))
    best, best_m = -1.0, None
    for m in range(1, rep.m_max + 1):
        lhs = absdiff[m - 1:min(2 * m, 63)].sum()
        rhs = vals[m - 1:2 * m + 1].max()
        ratio = lhs / rhs
        if ratio > best + 1e-15:
            best, best_m = ratio, m
    assert rep.constant == pytest.approx(best, rel=1e-12)
    assert rep.witness == best_m


@pytest.mark.parametrize("n0,witness", [(1, 1), (2, 5), (4, 9), (8, 17),
                                        (16, 33)])
def test_group_bv_lacunary_fails_each_window(n0, witness):
    rep, = check_group_bv(
        PrefixView.of(sequence_from_text("lacunary(1.0)"), 1 << 16), (n0,))
    assert rep.verdict == FAILS
    assert rep.witness == witness    # first all-zero window with mass left
    assert rep.constant is None


def test_group_bv_never_inconclusive():
    for text in ["harmonic(1.0)", "lacunary(0.5)", "zero", "log_damped"]:
        rep, = check_group_bv(
            PrefixView.of(sequence_from_text(text), 1 << 12), (1,))
        assert rep.verdict in (HOLDS, FAILS)



_TIED = st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0, 1.0, 1 / 3]),
                 min_size=4, max_size=160)
_M_MAXES = st.sampled_from([None, 2, 9, 40])


def _group_bv_fits(N, n0, m_max=None):
    """Whether the GROUP_BV(n0) scan of a prefix of N terms leaves an m."""
    return conditions._scan_end(N, m_max, min((N - 1) // 2, N - n0 + 1)) > 0


def _group_bv_input(vals, shape):
    vals = np.asarray(vals)
    if shape == "plateaus":
        return np.sort(vals)[::-1]
    if shape == "tail_zeros":
        return np.where(np.arange(len(vals)) < len(vals) // 2, vals, 0.0)
    if shape == "geometric":
        # ratios 1 - 2^-(m+1) tie at 1.0 for every m past ~53
        return 2.0 ** -np.arange(240 + len(vals))
    if shape == "rbv":
        # blockwise constant 2^-k with notches: exact ties across scales
        return sequence_from_text("rbv_block(1.0)").prefix(4 * len(vals))
    if shape == "tiny":
        # every |c_n - c_{n+1}| below 2^-900, the level table's range
        return vals * 2.0 ** -1000
    if shape == "flat_drop":
        # each block sums to 0, while the tail sums carry the last step
        return np.append(np.ones(len(vals)), 0.5)
    return vals


@settings(max_examples=150, deadline=None)
@given(_TIED, st.sampled_from(["raw", "plateaus", "tail_zeros", "geometric",
                               "rbv", "tiny", "flat_drop"]), _M_MAXES)
def test_group_bv_is_the_exact_maximum_over_every_m(vals, shape, m_max):
    # both exact routes: one exact_sum per block, and the level table; a
    # short span makes the zero-right-side scan cross span boundaries
    c = _group_bv_input(vals, shape)
    view = PrefixView.of(CoefficientSequence.explicit(c))
    windows = [n0 for n0 in (1, 2, 3, 4, 8, 16)
               if _group_bv_fits(view.N, n0, m_max)]
    expected = [oracles.group_bv_report(c, n0, m_max) for n0 in windows]
    for table_from in (0, math.inf):
        for span in (1, 3, conditions._SPAN):
            with mock.patch.object(summation, "_TABLE_FROM", table_from), \
                    mock.patch.object(conditions, "_SPAN", span):
                _same_reports(check_group_bv(view, windows, m_max), expected)


@pytest.mark.parametrize("scale", [1.0, 1e-300])
@pytest.mark.parametrize("slope", [0.0, 2.0 ** -40])
def test_group_bv_work_stays_linear_on_a_near_flat_prefix(monkeypatch, scale,
                                                          slope):
    # the tail sums carry the last step, so the bound keeps most m of the
    # near-flat part; their blocks must not cost one exact sum each, also
    # where every |c_n - c_{n+1}| lies below 2^-900 or is 0
    N = 1 << 14
    c = scale * (2.0 - slope * np.arange(1, N + 1))
    c[-1] = 0.0
    terms = []
    exact_sum = summation.exact_sum
    monkeypatch.setattr(summation, "exact_sum",
                        lambda values: terms.append(len(values))
                        or exact_sum(values))
    rep, = check_group_bv(PrefixView.of(CoefficientSequence.explicit(c)),
                          (1,))
    assert rep.verdict == HOLDS
    assert rep.witness == (1 if slope == 0.0 else N // 4)
    assert sum(terms) <= N


def test_group_bv_bracket_covers_the_suffix_sum_error():
    # the pruning proof of check_group_bv, in exact arithmetic: with
    # g = gamma of the suffix-sum chunk and u = 2^-53, |L^_m - L~_m| <=
    # (2g + 2u + 2gu) T_a and T_a <= t_a / (1 - g) must stay below
    # _BOUND * t_a (half of it at 4096; a chunk of 8192 would break it)
    u, k = Fraction(1, 2 ** 53), summation._CHUNK
    g = k * u / (1 - k * u)
    assert (2 * g + 2 * u + 2 * g * u) / (1 - g) < Fraction(conditions._BOUND)


@pytest.mark.parametrize("c,verdict,constant,witness", [
    # L^_2 carries the round-off of the 1e10 steps behind it, so m = 2 is
    # not among the 8 largest rounded ratios
    ([1, 1e-30, 1e-6, 1e-6, 1e-6] + [1e10, 2e10] * 29 + [1e10], HOLDS,
     9.999999999999998e+23, 2),
    # L^_2 = tail[1] - tail[4] rounds to 0 while L_2 = 2e-10 and R_2 = 0
    ([1, 0, 1e-10, 1e-10, 1e-10, 1e10, 0, 1e10, 0, 1e10, 0, 1e10, 0, 1e10,
      0, 1e10], FAILS, None, 2),
])
def test_group_bv_sees_a_block_that_rounds_away(c, verdict, constant,
                                                witness):
    rep, = check_group_bv(PrefixView.of(CoefficientSequence.explicit(c)),
                          (1,))
    assert (rep.verdict, rep.constant, rep.witness) == \
        (verdict, constant, witness)
    assert rep == oracles.group_bv_report(np.asarray(c, dtype=float), 1)


def _same_reports(got, expected):
    def bits(x):
        return None if x is None else struct.pack("<d", x)

    assert got == expected        # every field but notes
    assert [bits(r.constant) for r in got] == \
        [bits(r.constant) for r in expected]


@pytest.mark.parametrize("text", ["harmonic(1.0)", "rbv_block(1.0)",
                                  "lacunary(1.0)", "quasimono(0.5,2.0)",
                                  "zero"])
def test_group_bv_windows_match_one_window_calls(text):
    # unsorted and repeated windows: one report per entry, in order, each
    # equal to a one-window call on a fresh view
    seq = sequence_from_text(text)
    windows = (4, 1, 4, 16)
    got = check_group_bv(PrefixView.of(seq, 1 << 12), windows)
    assert [r.condition for r in got] == \
        [f"GROUP_BV(N0={n0})" for n0 in windows]
    _same_reports(got, [check_group_bv(PrefixView.of(seq, 1 << 12), (n0,))[0]
                        for n0 in windows])


@pytest.mark.parametrize("text", ["rbv_block(1.0)", "quasimono(0.5,2.0)",
                                  "perturbed(11,harmonic(2.0),0.05)"])
def test_group_bv_memo_sums_each_block_once(monkeypatch, text):
    # repeated, unordered windows read one memo of exactly rounded L_m:
    # each report equals a one-window call, and no block is summed twice
    seq = sequence_from_text(text)
    windows = (16, 1, 1, 4)
    expected = [check_group_bv(PrefixView.of(seq, 1 << 14), (n0,))[0]
                for n0 in windows]
    summed = []
    variation_sums = conditions.variation_sums
    monkeypatch.setattr(conditions, "variation_sums",
                        lambda c, starts, stops: summed.append(starts.copy())
                        or variation_sums(c, starts, stops))
    _same_reports(check_group_bv(PrefixView.of(seq, 1 << 14), windows),
                  expected)
    every = np.concatenate(summed)
    assert every.size and np.unique(every).size == every.size


def test_group_bv_scratch_is_bounded_beyond_the_prefix_and_its_tail():
    # rbv_block keeps about an eighth of the scan at every window: past c
    # and its tail sums, GROUP_BV holds |c| and two arrays over the scan,
    # the memo's mask and one range-sum call at a time, each level of it
    # in blocks (4.16 x 8N when every window's kept m and R were held to
    # the end and _extract's scratch was the whole array)
    N = 1 << 18
    view = PrefixView.of(sequence_from_text("rbv_block(1.0)"), N)
    view.tail
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_group_bv(view, conditions.DEFAULT_WINDOWS)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * N


# runs of equal values, zeros among them: a zero run fails GROUP_BV where
# a later term is nonzero within its blocks, and never where c stays zero
_ZERO_RUNS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0,
                                                 1 / 3]),
                                st.integers(1, 40)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(_ZERO_RUNS, st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]),
                            min_size=1, max_size=6), _M_MAXES)
def test_group_bv_right_side_by_spans_matches_the_eager_one(runs, windows,
                                                           m_max):
    # R_m formed span by span until a window passes, against R formed over
    # the whole scan first: the same verdicts, constant bits and witnesses,
    # with spans short enough that a zero run fails in a later span
    c = np.concatenate([np.full(n, v) for v, n in runs] + [[0.0, 0.0]])
    seq = CoefficientSequence.explicit(c)
    for span in (1, 3, conditions._SPAN):
        with mock.patch.object(conditions, "_SPAN", span):
            try:
                expected = oracles.group_bv_reports_eager(
                    PrefixView.of(seq), windows, m_max)
            except SequenceError:
                with pytest.raises(SequenceError):
                    check_group_bv(PrefixView.of(seq), windows, m_max)
                continue
            _same_reports(check_group_bv(PrefixView.of(seq), windows, m_max),
                          expected)


@settings(max_examples=150, deadline=None)
@given(_ZERO_RUNS, _M_MAXES)
@example([(1.0, 1), (0.0, 2), (1.0, 1), (0.0, 3), (1.0, 3), (0.0, 4),
          (1.0, 18)], None)     # N0 = 1 and 2 fail, 4, 8 and 16 hold
def test_group_bv_failing_windows_are_a_prefix_of_the_ascending_windows(
        runs, m_max):
    # the lemma of check_group_bv, on the brute-force oracle: a window that
    # fails makes every shorter window fail
    c = np.concatenate([np.full(n, v) for v, n in runs] + [[0.0, 0.0]])
    windows = [n0 for n0 in (1, 2, 3, 4, 8, 16)
               if _group_bv_fits(c.shape[0], n0, m_max)]
    fails = [oracles.group_bv_report(c, n0, m_max).verdict == FAILS
             for n0 in windows]
    assert fails == sorted(fails, reverse=True)


_MIXED_WINDOWS = np.array([1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0]
                          + [1] * 18, dtype=float)


@pytest.mark.parametrize("c, scanned", [
    pytest.param(1.0 / np.arange(1, 257), [1], id="every-window-passes"),
    pytest.param(_MIXED_WINDOWS, [1, 2, 4], id="n0-1-and-2-fail"),
])
def test_group_bv_zero_rhs_scan_runs_until_a_window_passes(monkeypatch, c,
                                                           scanned):
    # by the lemma every window after the first that passes passes too, so
    # the zero-right-side scan runs on the failing windows and that one
    calls = []
    real = conditions._first_zero_rhs_failure

    def counting(c, N0, *rest):
        calls.append(N0)
        return real(c, N0, *rest)

    monkeypatch.setattr(conditions, "_first_zero_rhs_failure", counting)
    reps = check_group_bv(PrefixView.of(CoefficientSequence.explicit(c)),
                          conditions.DEFAULT_WINDOWS)
    assert calls == scanned
    assert [r.verdict for r in reps] == \
        [FAILS] * (len(scanned) - 1) + [HOLDS] * (6 - len(scanned))


def _late_zero_run():
    # zeros from n = 5001 and one more nonzero term at n = 10001: every
    # window fails at m = 5001, past the first spans
    c = np.zeros(1 << 14)
    c[:5000] = 1.0 / np.arange(1, 5001)
    c[10000] = 1e-3
    return c


@pytest.mark.parametrize("c", [
    pytest.param(_late_zero_run(), id="fails-late"),
    pytest.param(np.where(np.arange(1 << 14) < 3000,
                          1.0 / np.arange(1, (1 << 14) + 1), 0.0),
                 id="zero-tail-never-fails"),
    pytest.param(sequence_from_text("lacunary(1.0)").prefix(1 << 14),
                 id="lacunary"),
    pytest.param(sequence_from_text("rbv_block(1.0)").prefix(1 << 14),
                 id="rbv_block"),
])
def test_group_bv_right_side_by_spans_matches_the_eager_one_at_scale(c):
    windows = (16, 1, 3, 4, 1, 8, 2)
    seq = CoefficientSequence.explicit(c)
    _same_reports(check_group_bv(PrefixView.of(seq), windows),
                  oracles.group_bv_reports_eager(PrefixView.of(seq), windows))


def test_group_bv_of_a_sparse_prefix_that_fails_early_holds_no_scan_array():
    # lacunary(1.0) at 2^20 fails every window within the first span: no
    # right side over the 2^18-m scan (2 MiB) is formed, and the support's
    # prefix lives in an anonymous mapping, which tracemalloc does not see
    # (8 MiB from np.zeros); 0.04 MiB measured
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reps = check_group_bv(
            PrefixView.of(sequence_from_text("lacunary(1.0)"), 1 << 20),
            conditions.DEFAULT_WINDOWS)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [r.verdict for r in reps] == [FAILS] * 5
    assert peak <= 1 << 18


@settings(max_examples=100, deadline=None)
@given(_TIED, st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]), max_size=6),
       _M_MAXES)
def test_group_bv_window_lists_match_one_window_calls(vals, windows, m_max):
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    try:
        expected = [check_group_bv(PrefixView.of(view.seq), (n0,), m_max)[0]
                    for n0 in windows]
    except SequenceError:
        with pytest.raises(SequenceError):
            check_group_bv(view, windows, m_max)
        return
    _same_reports(check_group_bv(view, windows, m_max), expected)


def test_group_bv_window_fit():
    view = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5, 0.25,
                                                       0.125, 0.0625]))
    assert check_group_bv(view, []) == []
    assert [n0 for n0 in (1, 2, 4, 5, 6, 8, 16)
            if _group_bv_fits(view.N, n0)] == [1, 2, 4, 5]
    with pytest.raises(SequenceError, match="too small"):
        check_group_bv(view, (1, 6))
    with pytest.raises(SequenceError, match="N0 must be >= 1"):
        check_group_bv(view, (1, 0))
    two = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5]))
    assert not _group_bv_fits(two.N, 1)


def test_classify_scans_group_bv_once_per_view(monkeypatch):
    calls = []

    def counting(view, n0_list=(1,), m_max=None):
        calls.append(list(n0_list))
        return check_group_bv(view, n0_list, m_max)

    monkeypatch.setattr(conditions, "check_group_bv", counting)
    classify(sequence_from_text("harmonic(1.0)"), horizon=1 << 12,
             weight=_weight("log"))
    classify(CoefficientSequence.explicit([1.0, 0.5, 0.25, 0.125, 0.0625]),
             n0_list=(16, 4, 1, 4))
    classify(CoefficientSequence.explicit([1.0, 0.5]))
    assert calls == [[1, 2, 4, 8, 16], [4, 1, 4], []]


# --- sector conditions -----------------------------------------------------

def _sector_sequence(theta0, factor, n=512):
    k = np.arange(1, n + 1, dtype=float)
    phases = np.where(k.astype(int) % 2 == 0, 1.0, -1.0) * theta0 * factor
    d = k ** -2.0 * np.exp(1j * phases)
    g = (suffix_sums(d.real) + 1j * suffix_sums(d.imag))
    return CoefficientSequence.explicit(g)


def test_orvqm_holds_inside_sector():
    theta0 = math.pi / 6
    seq = _sector_sequence(theta0, 0.98)
    rep = check_orvqm(PrefixView.of(seq, weight=_weight("one")),
                      Sector(theta0))
    assert rep.verdict == HOLDS
    assert rep.constant <= theta0 + 1e-12
    assert rep.constant == pytest.approx(0.98 * theta0, rel=1e-6)


def test_orvqm_fails_outside_sector():
    theta0 = math.pi / 8
    seq = _sector_sequence(theta0, 1.5)
    rep = check_orvqm(PrefixView.of(seq, weight=_weight("one")),
                      Sector(theta0))
    assert rep.verdict == FAILS
    assert rep.witness is not None


def test_pair_sector_real_nonneg_trivial():
    rep = check_pair_sector(sequence_from_text("harmonic(1.0)"),
                            sequence_from_text("zero"), Sector(0.0), 1 << 10)
    assert rep.verdict == HOLDS


def test_pair_sector_detects_violation():
    pos = CoefficientSequence.explicit([1.0 + 0.9j, 0.5])
    neg = CoefficientSequence.explicit([0.0, 0.0])
    rep = check_pair_sector(pos, neg, Sector(math.pi / 8), 2)
    assert rep.verdict == FAILS
    assert rep.witness == 1


def test_pair_sector_derived_check_fires_past_a_right_angle():
    # theta0 + ANGLE_TOL passes pi/2, so the band the pair sums and pair
    # differences pass is not convex: -5e-13 + i and -5e-13 - i both lie in
    # it, and their sum 2 c_1 = -1e-12 has arg pi
    rep = check_pair_sector(CoefficientSequence.explicit([-5e-13]),
                            CoefficientSequence.explicit([1j]),
                            Sector(math.nextafter(math.pi / 2, 0)), 1)
    assert (rep.verdict, rep.witness) == (FAILS, 1)
    assert rep.notes == "derived membership of 2c_n failed"


def test_pair_sector_label_names_one_sector():
    # pi/8 reads back from no six-digit form, so the label prints its repr
    pair = sequence_from_text("harmonic(1.0)"), sequence_from_text("zero")
    labels = [check_pair_sector(*pair, Sector(theta0), 4).condition
              for theta0 in (0.25, math.pi / 8)]
    assert labels == ["PAIR_SECTOR(theta0=0.25)",
                      f"PAIR_SECTOR(theta0={math.pi / 8!r})"]


# --- aggregate classifier --------------------------------------------------

def test_classify_explicit_frozen():
    seq = CoefficientSequence.explicit([1.0, 0.5, 0.25, 0.125, 0.0625])
    reports = {r.condition: r for r in classify(seq)}
    assert reports["MONOTONE"].verdict == HOLDS
    # short data: rest-variation cannot stabilize, but the group check is
    # exact at any length
    assert reports["REST_BV"].verdict == INCONCLUSIVE
    assert reports["REST_BV"].constant == pytest.approx(0.9375, rel=1e-12)
    assert reports["GROUP_BV(N0=1)"].verdict == HOLDS
    assert reports["GROUP_BV(N0=1)"].constant == pytest.approx(0.75, rel=1e-12)


def test_classify_skips_infeasible_windows():
    seq = CoefficientSequence.explicit([1.0, 0.5, 0.25, 0.125, 0.0625])
    conditions = [r.condition for r in classify(seq)]
    assert "GROUP_BV(N0=16)" not in conditions


def test_classify_report_json_shape():
    rep, = check_group_bv(
        PrefixView.of(sequence_from_text("harmonic(1.0)"), 1 << 10), (1,))
    d = rep.to_json_dict()
    assert sorted(d) == ["condition", "constant", "range", "stabilization",
                        "verdict", "witness"]
    assert sorted(d["range"]) == ["horizon", "m_max", "m_min"]


# sha256 of classify's JSON at horizon 2^18, taken from the full-array
# scans before the span-by-span ones replaced them; a speedup must keep
# every byte
_CLASSIFY_DIGESTS = {
    "harmonic(1.0)":
        "5c68490b8abca5fadeaa33eee48e338513c3668d35f925125ffae11f293bbcd9",
    "log_damped":
        "310efee9ec827a51a6728e214fab07c52b43ec9ef996346a29015c34fec996ec",
    "rbv_block(1.0)":
        "b72673e604bf8f271cc0efe6f6559993ee3fbf75c7205b2de69d1a734c4aad12",
    "quasimono(0.5,2.0)":
        "79ba9d09419db261452d45be6fe0761834afa2d692a616cced7c959981441e77",
    "lacunary(1.0)":
        "538640a91d64014a63b4b8366da11fcdafb811b63b8a40ef3968d00f7505c8e4",
    "perturbed(1,harmonic(2.0),0.05)":
        "009285ef25c2cc448e45dd74ec5c850ea9bdecb663d0c5d32cf3c3d769179e30",
}


# the same at the benchmark's horizon 2^20, taken before the certified
# GROUP_BV refinement: rbv_block ties exactly on 131,087 m per window, and
# perturbed(11, ...) keeps a different block of up to 2^18 terms per window
_CLASSIFY_DIGESTS_2_20 = {
    # frozen before the tail sums were built on first read and a
    # support-listing prefix was written on its support
    "lacunary(1.0)":
        "dfc9d9e5b184b8c72da1bd804d02e7720cbf37b9665bf38891fe50c9e74b8229",
    "rbv_block(1.0)":
        "94e98eb99ce1dc06ae096b2ad1059673edad5ae8a8ce97e77e74452ccdaf647e",
    "perturbed(11,harmonic(2.0),0.05)":
        "a01360a845fbc02f3d3ef1b7b10df04e5f4ee11969aab89a7c97a612033530a1",
}


def _classify_digest(text, horizon):
    reports = classify(sequence_from_text(text), horizon=horizon)
    payload = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("text", list(_CLASSIFY_DIGESTS))
def test_classify_output_digest(text):
    assert _classify_digest(text, 1 << 18) == _CLASSIFY_DIGESTS[text]


@pytest.mark.parametrize("text", list(_CLASSIFY_DIGESTS_2_20))
def test_classify_output_digest_at_the_bench_horizon(text):
    assert _classify_digest(text, 1 << 20) == _CLASSIFY_DIGESTS_2_20[text]


# --- properties ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_rest_bv_telescoping_identity(seed):
    # non-increasing, null (exact zero tail): the rest-variation ratio is
    # exactly 1 at every scan point, and the group constant stays <= 1
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 64))
    vals = np.zeros(4 * m)
    vals[:m] = np.sort(rng.random(m))[::-1]
    seq = CoefficientSequence.explicit(vals)
    rep = check_rest_bv(PrefixView.of(seq))
    assert rep.verdict == HOLDS
    assert abs(rep.constant - 1.0) <= 1e-12
    grep, = check_group_bv(PrefixView.of(seq), (1,))
    assert grep.verdict == HOLDS
    assert grep.constant <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.floats(1e-6, 1e6))
def test_verdicts_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal(128)) + 1e-3
    vals[96:] = 0.0
    a, = check_group_bv(PrefixView.of(CoefficientSequence.explicit(vals)),
                        (1,))
    b, = check_group_bv(
        PrefixView.of(CoefficientSequence.explicit(vals * scale)), (1,))
    assert a.verdict == b.verdict
    assert a.witness == b.witness
    if a.constant is not None:
        assert b.constant == pytest.approx(a.constant, rel=1e-9)


# --- shared prefix view ----------------------------------------------------

_VIEW_CASES = [
    ("harmonic(1.0)", 4096, None),
    ("explicit:[1,0.5i,0.25,0.1+0.1i,0.05]", None, None),
    ("rbv_block(1.0)", 4096, "log"),
    ("harmonic(1.0)", 2048, "exp2"),   # R overflows past n = 1023
]


def test_weighted_view_needs_two_finite_terms():
    # power(1e308) is infinite from n = 2 on
    with pytest.raises(SequenceError, match="at least 2"):
        PrefixView.of(sequence_from_text("harmonic(1.0)"), 64,
                      _weight("power(1e308)"))


@pytest.mark.parametrize("c", [
    [1.0, 0.5, 0.25, 0.125],
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 0.5j, 0.25, 0.125],
])
def test_weighted_view_rejects_an_overflowing_quotient(c):
    # R = 1e-310 is finite and positive, and 1/R is past the float range:
    # the view is an input error, not a checker's witness
    seq = CoefficientSequence.explicit(np.array(c))
    with pytest.raises(SequenceError) as err:
        PrefixView.of(seq, weight=_weight("const(1e-310)"))
    assert str(err.value) == "c_n/R(n) overflows the float range"


# real c and a positive non-decreasing R of one length in 2..200, bounded
# so that no quotient overflows; subnormal quotients stay in
_QUOTIENT_CASES = st.integers(2, 200).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n),
    st.lists(st.floats(1e-150, 1e300), min_size=n, max_size=n).map(sorted)))


@settings(max_examples=100, deadline=None)
@given(_QUOTIENT_CASES)
# real corpus members, c >= 0: the chain's gates read |c|/R as the view's g
@example(2)
@example(42)
def test_weighted_view_divides_in_the_dtype_of_c(case):
    if isinstance(case, int):
        seq, weight, _ = corpus_member(case)
        c = seq.prefix(seq.length)
        R = weight.validated_prefix(c.shape[0])[0]
    else:
        c, R = (np.array(v) for v in case)
        seq = CoefficientSequence.explicit(c)
        weight = WeightSequence("w", lambda n: R[n - 1])
    g = PrefixView.of(seq, weight=weight).g
    assert g.dtype == np.float64
    # float of a Fraction is the correctly rounded quotient
    assert g.tolist() == [float(Fraction(a) / Fraction(r))
                          for a, r in zip(c.tolist(), R.tolist())]
    # |c_n|/R(n) = |c_n/R(n)|, so one rounding: bit for bit g where c >= 0
    assert np.abs(g).tobytes() == (np.abs(c) / R).tobytes()
    complex_c = CoefficientSequence.explicit(c + 1j)
    assert PrefixView.of(complex_c, weight=weight).g.dtype == np.complex128


@pytest.mark.parametrize("spec,horizon,weight", _VIEW_CASES)
def test_classify_matches_checkers_on_fresh_views(spec, horizon, weight):
    seq = sequence_from_text(spec)
    w = _weight(weight) if weight else None
    got = {r.condition: r for r in classify(seq, horizon=horizon, weight=w)}
    N = horizon or seq.length
    weighted = PrefixView.of(seq, N, w)
    expected = [check_weighted_rest_bv(weighted),
                check_orvqm(weighted, Sector(0.0))]
    expected += [check_group_bv(PrefixView.of(seq, N), (n0,))[0]
                 for n0 in (1, 2, 4, 8, 16)
                 if _group_bv_fits(N, n0)]
    if seq.is_real:
        expected.append(check_rest_bv(PrefixView.of(seq, N)))
    if weight == "exp2":
        assert weighted.N == 1023 < N
    for rep in expected:
        assert got[rep.condition].to_json_dict() == rep.to_json_dict()
        assert got[rep.condition].notes == rep.notes


def _count_suffix_sums(monkeypatch):
    import trigconv.conditions as conditions
    calls = []

    def counting(values):
        calls.append(len(values))
        return suffix_sums(values)

    monkeypatch.setattr(conditions, "suffix_sums", counting)
    return calls


@pytest.mark.parametrize("weight,count", [(None, 1), ("log", 2)])
def test_classify_builds_tail_sums_once_per_view(monkeypatch, weight,
                                                 count):
    calls = _count_suffix_sums(monkeypatch)
    w = _weight(weight) if weight else None
    classify(sequence_from_text("harmonic(1.0)"), horizon=1 << 12, weight=w)
    assert calls == [1 << 12] * count


def test_group_bv_failing_every_window_builds_no_tail_sums(monkeypatch):
    # every window fails at a zero right side, decided with no sum
    calls = _count_suffix_sums(monkeypatch)
    reports = check_group_bv(
        PrefixView.of(sequence_from_text("lacunary(1.0)"), 1 << 16),
        (1, 2, 4, 8, 16))
    assert [r.verdict for r in reports] == [FAILS] * 5
    assert calls == []


def test_classify_of_a_lacunary_sequence_builds_no_tail_sums(monkeypatch):
    # REST_BV and WEIGHTED_REST_BV fail at m = 1 (c_1 = 0 while c changes
    # later), GROUP_BV fails every window: no check reads the tail sums
    calls = _count_suffix_sums(monkeypatch)
    reports = classify(sequence_from_text("lacunary(1.0)"), horizon=1 << 16)
    rest = [r for r in reports if "REST_BV" in r.condition]
    assert len(rest) == 2
    assert [(r.verdict, r.witness) for r in rest] == [(FAILS, 1)] * 2
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]), min_size=2,
                max_size=24),
       st.booleans(), st.integers(1, 24))
def test_tail_variation_scans_match_the_tail_sum_rule(values, weighted,
                                                      m_max):
    # the witness read from where g stops changing is the first m with a
    # zero right side and a positive tail sum
    seq = CoefficientSequence.explicit(np.array(values))
    m_max = min(m_max, len(values) - 1)
    if weighted:
        view = PrefixView.of(seq, weight=_weight("log"))
        got = check_weighted_rest_bv(view, m_max)
        rhs = np.abs(view.g)
    else:
        view = PrefixView.of(seq)
        got = check_rest_bv(view, m_max)
        rhs = view.g
    want = oracles.tail_variation_report(
        PrefixView.of(seq, weight=view.weight), rhs, m_max, got.condition)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("values, witness", [
    ([0.0, 1e308, 0.0, 1e308, 0.0], None),   # T_1 = 4e308
    ([0.0, 1e308, 1e308, 1e308], 1),         # T_1 = 1e308, 12e308 bounds it
])
def test_rest_bv_with_a_huge_variation_bound_reads_the_tail(values,
                                                            witness):
    view = PrefixView.of(CoefficientSequence.explicit(np.array(values)))
    if witness is None:
        with pytest.raises(SequenceError,
                           match="variation sum of c_n/R\\(n\\) overflows"):
            check_rest_bv(view)
    else:
        rep = check_rest_bv(view)
        assert (rep.verdict, rep.witness) == (FAILS, witness)
        assert "tail" in view.__dict__


@pytest.mark.parametrize("values, witness", [
    ([0.0, -1e308, 0.0, -1e308, 0.0], None),   # T_1 = 4e308
    ([0.0, -1e308, -1e308, -1e308], 1),        # T_1 = 1e308
])
def test_weighted_rest_bv_of_a_negative_real_g_bounds_it_by_max_abs(
        values, witness):
    # the guard reads max|g|, not max g: here max g = 0, and only |min g|
    # puts 4(N-1) max|g| past the float range
    view = PrefixView.of(CoefficientSequence.explicit(np.array(values)))
    if witness is None:
        with pytest.raises(SequenceError,
                           match="variation sum of c_n/R\\(n\\) overflows"):
            check_weighted_rest_bv(view)
    else:
        rep = check_weighted_rest_bv(view)
        assert (rep.verdict, rep.witness) == (FAILS, witness)
        assert "tail" in view.__dict__


def test_view_reports_an_overflowing_variation_at_the_first_read():
    view = PrefixView.of(sequence_from_text("explicit:[1e308,-1e308]"))
    assert view.N == 2
    for _ in range(2):   # a failed read keeps nothing
        with pytest.raises(SequenceError,
                           match="variation sum of c_n/R\\(n\\) overflows"):
            view.tail


def test_view_tail_and_block_sums_match_direct_sums():
    vals = np.array([1.0, 0.25, 0.5, 0.125, 0.0, 0.0625, 0.0])
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    d = np.abs(np.diff(vals))
    assert np.shares_memory(view.g, vals)   # no copy
    assert list(view.tail) == [d[m - 1:].sum() for m in range(1, 7)] + [0.0]
    # the block sums of the weighted chain, as differences of tail sums
    m = np.arange(1, 4)
    np.testing.assert_allclose(
        view.tail[m - 1] - view.tail[2 * m],
        [d[k - 1:2 * k].sum() for k in m], rtol=0, atol=1e-15)


def test_unweighted_checkers_reject_a_weighted_view():
    view = PrefixView.of(sequence_from_text("harmonic(1.0)"), 64,
                         _weight("log"))
    with pytest.raises(ValueError):
        check_group_bv(view, (1,))
    with pytest.raises(ValueError):
        check_rest_bv(view)
