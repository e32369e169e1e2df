import hashlib
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigconv import conditions
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
    dyadic_block_maxima,
)
from trigconv.sequences import (
    REL_TOL,
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    parse_family_spec,
    sequence_from_text,
    weight_from_spec,
)
from trigconv.summation import suffix_sums

import _oracles as oracles


def _weight(text):
    return weight_from_spec(parse_family_spec(text))


# --- monotone / quasimonotone ---------------------------------------------

def test_monotone_holds_for_harmonic():
    rep = check_quasimonotone(
        PrefixView.of(sequence_from_text("harmonic(1.0)"), 1 << 12))
    assert rep.condition == "MONOTONE"
    assert rep.verdict == HOLDS


def test_monotone_fails_with_witness():
    seq = CoefficientSequence.explicit([1.0, 0.5, 0.75, 0.25])
    rep = check_quasimonotone(PrefixView.of(seq))
    assert rep.condition == "MONOTONE"
    assert rep.verdict == FAILS
    assert rep.witness == 2          # first n with c_n < c_{n+1}
    assert rep.constant is None


def test_quasimonotone_alpha_rescues_blockwise_growth():
    # n^{-0.4} * 2^{-k}: grows inside dyadic blocks, but n^0.5 b_n decreasing
    seq = sequence_from_text("quasimono(0.4,1.0)")
    view = PrefixView.of(seq, 1 << 10)
    assert check_quasimonotone(view, alpha=0.0).verdict == FAILS
    rep = check_quasimonotone(view, alpha=0.5)
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
    vals = []
    for level in draw(st.lists(st.sampled_from(_LEVELS), min_size=1,
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
        rep = check_quasimonotone(view, alpha)
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
            view.N - 1, lambda lo, hi: conditions._first_increase(g[lo:hi + 1]))
    expected = oracles.orvqm_report(g, theta0)
    assert _report_bytes(rep) == _report_bytes(expected)
    assert increase == oracles.first_increase(g)


@pytest.mark.parametrize("N", [(1 << 16) - 1, (1 << 16) + 1, 1 << 17])
def test_scans_find_a_lone_violation_at_a_span_boundary(N):
    # pairs 2^16 and 2^16 + 1 are the last of the first span and the first
    # of the second; c_{n+1} = 1.5 c_n is the only increase, an increase of
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
            check_quasimonotone(view, alpha) for alpha in (0.0, 0.5, 1.0)]
        expected = [oracles.orvqm_report(vals, 0.0)] + [
            oracles.quasimonotone_report(vals, alpha)
            for alpha in (0.0, 0.5, 1.0)]
        assert [r.witness for r in reports[:2]] == [n, n]
        assert list(map(_report_bytes, reports)) == list(
            map(_report_bytes, expected))


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
    assert rep.m_min == 1


def test_rest_bv_zero_sequence():
    # 0/0 windows count as ratio 0 rather than poisoning the sup
    rep = check_rest_bv(PrefixView.of(sequence_from_text("zero"), 1 << 8))
    assert rep.verdict == HOLDS
    assert rep.constant == 0.0


def test_rest_bv_zero_denominator_hard_fail():
    # c_m = 0 with variation left beyond m: no constant can work
    seq = CoefficientSequence.explicit([1.0, 0.0, 0.5, 0.25, 0.0, 0.0])
    rep = check_rest_bv(PrefixView.of(seq), m_range=(1, 4))
    assert rep.verdict == FAILS
    assert rep.witness == 2
    assert rep.constant is None


def test_tail_variation_scan_past_the_horizon_is_an_input_error():
    # the fit rule of the window scans: no verdict over an empty range
    view = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5, 0.25,
                                                       0.125, 0.0625]))
    for m_range in ((10, 20), (5, 20)):
        for check in (check_rest_bv, check_weighted_rest_bv):
            with pytest.raises(SequenceError, match="too small"):
                check(view, m_range)
    rep = check_rest_bv(view, (4, 20))
    assert (rep.m_min, rep.m_max) == (4, 4)


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



def _scan(view, n0):
    """m, the suffix-sum block sums L and the window maxima R of the
    GROUP_BV scan over the default range."""
    N = view.N
    m = np.array(conditions._group_bv_range(N, n0, None))
    cabs = np.abs(view.g)
    R = cabs[m - 1].copy()
    for k in range(1, n0):
        R = np.maximum(R, cabs[m - 1 + k])
    return m, view.block_sums(m), R


def _reference_candidates(view, n0):
    """The 8 refinement candidates from a stable argsort of every ratio."""
    m, L, R = _scan(view, n0)
    ratios = np.zeros(m.shape[0])
    pos = R != 0.0
    ratios[pos] = L[pos] / R[pos]
    return m, R, np.argsort(-ratios, kind="stable")[:8]


def _reference_group_bv(view, n0):
    """(verdict, constant, witness) of GROUP_BV refined as a stable argsort
    of every ratio, its top 8, and math.fsum over a list per block."""
    c, N = view.g, view.N

    def exact_L(mm):
        hi = min(2 * mm, N - 1)
        return math.fsum(np.abs(c[mm - 1:hi] - c[mm:hi + 1]).tolist())

    m, L, R = _scan(view, n0)
    for idx in np.flatnonzero(R == 0.0):
        if L[idx] != 0.0 and exact_L(int(m[idx])) > 0.0:
            return FAILS, None, int(m[idx])
    m, R, order = _reference_candidates(view, n0)
    best_val, best_m = -1.0, int(m[int(order[0])])
    for idx in order:
        mm = int(m[int(idx)])
        if R[idx] == 0.0:
            continue
        r = exact_L(mm) / float(R[idx])
        if r > best_val or (r == best_val and mm < best_m):
            best_val, best_m = r, mm
    return HOLDS, max(best_val, 0.0), best_m


_TIED = st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0, 1.0, 1 / 3]),
                 min_size=4, max_size=160)


@settings(max_examples=150, deadline=None)
@given(_TIED, st.sampled_from(["raw", "plateaus", "tail_zeros", "geometric"]))
def test_group_bv_refinement_matches_full_argsort(vals, shape):
    vals = np.asarray(vals)
    if shape == "plateaus":
        vals = np.sort(vals)[::-1]
    elif shape == "tail_zeros":
        vals[len(vals) // 2:] = 0.0
    elif shape == "geometric":
        # ratios 1 - 2^-(m+1) tie at 1.0 for every m past ~53, so more
        # than 8 ratios share the top value
        vals = 2.0 ** -np.arange(240 + len(vals))
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    windows = [n0 for n0 in (1, 2, 4, 8, 16)
               if conditions._group_bv_range(view.N, n0, None)]
    for n0, rep in zip(windows, check_group_bv(view, windows)):
        verdict, constant, witness = _reference_group_bv(view, n0)
        assert (rep.verdict, rep.witness) == (verdict, witness)
        if constant is None:
            assert rep.constant is None
        else:
            assert struct.pack("<d", rep.constant) == \
                struct.pack("<d", constant)


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


@settings(max_examples=100, deadline=None)
@given(_TIED, st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]), max_size=6),
       st.sampled_from([None, (1, 2), (2, 9), (3, 40)]))
def test_group_bv_window_lists_match_one_window_calls(vals, windows,
                                                      m_range):
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    try:
        expected = [check_group_bv(PrefixView.of(view.seq), (n0,), m_range)[0]
                    for n0 in windows]
    except SequenceError:
        with pytest.raises(SequenceError):
            check_group_bv(view, windows, m_range)
        return
    _same_reports(check_group_bv(view, windows, m_range), expected)


def test_group_bv_window_fit():
    view = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5, 0.25,
                                                       0.125, 0.0625]))
    assert check_group_bv(view, []) == []
    assert [n0 for n0 in (1, 2, 4, 5, 6, 8, 16)
            if conditions._group_bv_range(view.N, n0, None)] == [1, 2, 4, 5]
    with pytest.raises(SequenceError, match="too small"):
        check_group_bv(view, (1, 6))
    with pytest.raises(SequenceError, match="N0 must be >= 1"):
        check_group_bv(view, (1, 0))
    two = PrefixView.of(CoefficientSequence.explicit([1.0, 0.5]))
    assert not conditions._group_bv_range(two.N, 1, None)


def test_classify_scans_group_bv_once_per_view(monkeypatch):
    calls = []

    def counting(view, n0_list=(1,), m_range=None):
        calls.append(list(n0_list))
        return check_group_bv(view, n0_list, m_range)

    monkeypatch.setattr(conditions, "check_group_bv", counting)
    classify(sequence_from_text("harmonic(1.0)"), horizon=1 << 12,
             weight=_weight("log"))
    classify(CoefficientSequence.explicit([1.0, 0.5, 0.25, 0.125, 0.0625]),
             n0_list=(16, 4, 1, 4))
    classify(CoefficientSequence.explicit([1.0, 0.5]))
    assert calls == [[1, 2, 4, 8, 16], [4, 1, 4], []]


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf, math.nan]),
                max_size=40))
def test_top_ratios_is_the_head_of_a_stable_argsort(ratios):
    ratios = np.asarray(ratios, dtype=float)
    expected = np.argsort(-ratios, kind="stable")[:8]
    assert np.array_equal(conditions._top_ratios(ratios, 8), expected)


def test_classify_sums_each_refinement_block_once(monkeypatch):
    # the top-8 candidates of the five windows overlap, and L_m does not
    # depend on N0: each distinct block is summed exactly once
    seq = sequence_from_text("quasimono(0.5,2.0)")
    view = PrefixView.of(seq, 1 << 14)
    per_window = [{int(m[i]) for i in order} for m, _, order in
                  (_reference_candidates(view, n0) for n0 in (1, 2, 4, 8, 16))]
    distinct = set().union(*per_window)
    assert len(distinct) < sum(len(c) for c in per_window)
    calls = []
    exact_sum = conditions.exact_sum

    def counting(values):
        calls.append(len(values))
        return exact_sum(values)

    monkeypatch.setattr(conditions, "exact_sum", counting)
    classify(seq, horizon=1 << 14)
    assert len(calls) == len(distinct)


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
    ts = TwoSidedSequence(0.0, sequence_from_text("harmonic(1.0)"),
                          sequence_from_text("zero"))
    rep = check_pair_sector(ts, Sector(0.0), 1 << 10)
    assert rep.verdict == HOLDS


def test_pair_sector_detects_violation():
    pos = CoefficientSequence.explicit([1.0 + 0.9j, 0.5])
    neg = CoefficientSequence.explicit([0.0, 0.0])
    rep = check_pair_sector(TwoSidedSequence(0.0, pos, neg),
                            Sector(math.pi / 8), 2)
    assert rep.verdict == FAILS
    assert rep.witness == 1


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


@pytest.mark.parametrize("text", list(_CLASSIFY_DIGESTS))
def test_classify_output_digest(text):
    reports = classify(sequence_from_text(text), horizon=1 << 18)
    payload = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        _CLASSIFY_DIGESTS[text]


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
                 if conditions._group_bv_range(N, n0, None)]
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


def test_view_tail_and_block_sums_match_direct_sums():
    vals = np.array([1.0, 0.25, 0.5, 0.125, 0.0, 0.0625, 0.0])
    view = PrefixView.of(CoefficientSequence.explicit(vals))
    d = np.abs(np.diff(vals))
    assert np.shares_memory(view.g, view.seq.values)   # no copy
    assert list(view.tail) == [d[m - 1:].sum() for m in range(1, 7)] + [0.0]
    m = np.arange(1, 4)
    np.testing.assert_allclose(
        view.block_sums(m), [d[k - 1:min(2 * k, 6)].sum() for k in m],
        rtol=0, atol=1e-15)


def test_unweighted_checkers_reject_a_weighted_view():
    view = PrefixView.of(sequence_from_text("harmonic(1.0)"), 64,
                         _weight("log"))
    with pytest.raises(ValueError):
        check_group_bv(view, (1,))
    with pytest.raises(ValueError):
        check_rest_bv(view)


def test_dyadic_block_maxima_matches_block_loop():
    # blocks [2^j, 2^(j+1)) cut at N; a cut last block shorter than the
    # block before it joins that block
    rng = np.random.default_rng(5)
    for N in range(1, 70):
        vals = rng.random(N)
        blocks, j = [], 0
        while (1 << j) <= N:
            blocks.append(vals[(1 << j) - 1:min((1 << (j + 1)) - 1, N)])
            j += 1
        if len(blocks) > 1 and len(blocks[-1]) < len(blocks[-2]):
            blocks[-2:] = [np.concatenate(blocks[-2:])]
        assert dyadic_block_maxima(vals) == [float(b.max()) for b in blocks]
