import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from trigconv import cli
from trigconv.conditions import PrefixView, check_group_bv
from trigconv.harness import (
    CLAIM_SECTOR,
    CLAIM_WEIGHTED,
    InequalityRecord,
    STATUS_OK,
    STATUS_PREMISES,
    STATUS_VIOLATED,
    VerificationOutcome,
    _SUFFICIENCY_FAMILIES,
    _chain,
    _corpus_outcome,
    _null_premise,
    _suffix,
    corpus_member,
    probe_necessity,
    probe_sufficiency,
    run_weighted_implication_corpus,
    verify_equivalence_diagnostics,
    verify_lacunary_counterexample,
)
from trigconv.sequences import (
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    WeightSequence,
    sequence_from_text,
    unit_noise,
    weight_from_text,
)

from _oracles import abel_tail_bound


def _one():
    return weight_from_text("one")


def _lacunary_prefix():
    seq = sequence_from_text("lacunary(1.0)")
    return CoefficientSequence.explicit(seq.prefix(1 << 12), label=seq.label)


# --- corpus ----------------------------------------------------------------

_SEEDED = {
    "corpus_member(-1)": lambda: corpus_member(-1),
    "corpus_member(2^64)": lambda: corpus_member(2 ** 64),
    "probe_necessity(seed=-1)": lambda: probe_necessity(instances=1, seed=-1),
    "probe_sufficiency(seed=-1)": lambda: probe_sufficiency(seed=-1),
}


@pytest.mark.parametrize("call", list(_SEEDED))
def test_seeds_outside_64_bits_raise(call):
    # a seed read mod 2^64 would draw one member or case under two labels
    with pytest.raises(SequenceError, match=r"integer in \[0, 2\^64\)"):
        _SEEDED[call]()


def _splitmix_noise(seed, n):
    """unit_noise(seed, [n]) in Python integers: SplitMix64 of the stream
    position seed + (n + 1) gamma, its top 53 bits mapped to [-1, 1)."""
    mask = (1 << 64) - 1
    z = (seed + (n + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return 2.0 * ((z ^ (z >> 31)) >> 11) * 2.0 ** -53 - 1.0


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_seeds_at_the_ends_of_64_bits_keep_their_noise(seed):
    idx = [0, 1, 2, 1000, 2 ** 40]
    got = unit_noise(seed, np.array(idx))
    assert got.tolist() == [_splitmix_noise(seed, n) for n in idx]
    corpus_member(seed)     # draws without error


def test_corpus_member_deterministic():
    s1, w1, sec1 = corpus_member(9)
    s2, w2, sec2 = corpus_member(9)
    assert s1.label == s2.label
    assert np.array_equal(s1.prefix(4096), s2.prefix(4096))
    assert (sec1 is None) == (sec2 is None)


def test_corpus_member_parity_convention():
    # odd seeds carry a sector (complex members), even seeds are real
    _, _, sec_odd = corpus_member(3)
    seq_even, _, sec_even = corpus_member(4)
    assert sec_odd is not None
    assert sec_even is None
    assert seq_even.is_real


def test_corpus_member_has_exact_zero_tail():
    seq, _, _ = corpus_member(5)
    vals = np.asarray(seq.prefix(4096))
    assert np.all(vals[2048:] == 0)
    assert np.all(vals[:1536] != 0)


# --- null premise ----------------------------------------------------------

def test_null_premise_is_decided_by_the_data():
    # every corpus member is zero past n = 1536, its last nonzero index
    for seed in (1, 2, 252, 929):
        rec = _null_premise(PrefixView.of(corpus_member(seed)[0]))
        assert rec.name == "premise/null"
        assert rec.passed and rec.witness == 1536
    closed = CoefficientSequence.explicit([1.0, 0.5, 0.0, 0.25, 0.0, 0.0])
    assert _null_premise(PrefixView.of(closed)).witness == 4
    assert _null_premise(PrefixView.of(closed)).passed
    zeros = _null_premise(PrefixView.of(CoefficientSequence.explicit([0.0] * 4)))
    assert zeros.passed and zeros.witness == 0
    # data whose last value is not 0 fails, with that index as the witness
    open_end = CoefficientSequence.explicit(1.0 / np.arange(1, 65) ** 2)
    rec = _null_premise(PrefixView.of(open_end))
    assert not rec.passed and rec.witness == 64
    # data read in part, and a generator, decide nothing past the prefix,
    # even where the prefix ends in 0 (c_6 = 0 off the powers of two)
    part = _null_premise(PrefixView.of(closed, 3))
    assert not part.passed and part.witness == 2
    lacunary = _null_premise(PrefixView.of(sequence_from_text("lacunary(1.0)"), 6))
    assert not lacunary.passed and lacunary.witness == 4


# --- single-instance implication chain -------------------------------------

def test_weighted_chain_on_corpus_member():
    seq, weight, _ = corpus_member(1)
    out = _chain(seq, weight)
    assert out.status == STATUS_OK
    names = [r.name for r in out.records]
    assert "chain/dominated_tail" in names
    assert "chain/block_variation" in names
    assert "chain/predicted_constant" in names
    for r in out.records:
        assert r.passed
    predicted = {r.name: r for r in out.records}["chain/predicted_constant"]
    assert predicted.lhs <= predicted.rhs


def test_weighted_chain_premises_not_met_for_lacunary():
    out = _chain(_lacunary_prefix(), _one())
    assert out.status == STATUS_PREMISES


def test_weight_doubling_premise_carries_the_weight_notes():
    # 2^n overflows beyond n = 1023, so the doubling check stays
    # inconclusive and says why
    seq = sequence_from_text("harmonic(2.0)")
    data = CoefficientSequence.explicit(seq.prefix(4096), label=seq.label)
    out = _chain(data, weight_from_text("exp2"))
    assert out.status == STATUS_PREMISES
    rec = {r.name: r for r in out.records}["premise/weight_doubling"]
    assert not rec.passed
    assert rec.detail == "verdict=inconclusive; overflow beyond n=1023"


@pytest.mark.parametrize("sector", [None, Sector(0.0)])
def test_chain_of_an_overflowing_quotient_is_an_input_error(sector):
    # with a sector, the premise must not read the quotients as a failure
    seq = CoefficientSequence.explicit(np.array([1, 0.5, 0.25, 0.125, 0]))
    with pytest.raises(SequenceError, match="overflows the float range"):
        _chain(seq, weight_from_text("const(1e-310)"),
               sector)


def test_corpus_run_aggregates():
    out = run_weighted_implication_corpus(1, 6)
    assert out.status == STATUS_OK
    assert out.summary["headline"] == "6/6 chains hold"
    assert out.claim == CLAIM_WEIGHTED


def test_corpus_run_keeps_unmet_premises_apart_from_violations(monkeypatch):
    # member 252 is a checked chain; with its last value made nonzero it
    # fails the null premise, and no chain gate fails
    from trigconv import harness

    assert run_weighted_implication_corpus(252, 1).summary["headline"] == \
        "1/1 chains hold"
    real = harness.corpus_member

    def member(seed):
        seq, weight, sector = real(seed)
        if seed != 252:
            return seq, weight, sector
        vals = np.array(seq.prefix(4096))
        vals[-1] = vals[1535]
        return CoefficientSequence.explicit(vals, label="open@252"), weight, sector

    monkeypatch.setattr(harness, "corpus_member", member)
    out = run_weighted_implication_corpus(251, 3)
    assert out.status == STATUS_OK
    assert out.summary["passed"] == 2 and out.summary["members"] == 3
    assert out.summary["headline"] == \
        "2/2 chains hold, 1 member(s) with premises not met"
    failed = [r for r in out.records if not r.passed]
    assert [(r.name, r.instance, r.witness) for r in failed] == \
        [("premise/null", "open@252", 4096)]
    only = run_weighted_implication_corpus(252, 1)
    assert only.status == STATUS_PREMISES
    assert only.summary["headline"] == \
        "0/0 chains hold, 1 member(s) with premises not met"


def test_corpus_outcome_status_rule():
    def member(status):
        premise = InequalityRecord("premise/x", status,
                                   status != STATUS_PREMISES, 0.0, 1.0, 1.0)
        rec = InequalityRecord("chain/x", status, status == STATUS_OK,
                               0.0, 1.0, 1.0)
        return VerificationOutcome(CLAIM_WEIGHTED, status, [premise, rec], {})

    def run(*statuses):
        return _corpus_outcome(CLAIM_WEIGHTED, 1,
                               [member(s) for s in statuses])

    assert run(STATUS_OK, STATUS_PREMISES).status == STATUS_OK
    assert run(STATUS_PREMISES, STATUS_PREMISES).status == STATUS_PREMISES
    assert run(STATUS_VIOLATED).status == STATUS_VIOLATED
    assert run(STATUS_PREMISES, STATUS_VIOLATED).status == STATUS_VIOLATED
    mixed = run(STATUS_OK, STATUS_PREMISES, STATUS_VIOLATED)
    assert mixed.status == STATUS_VIOLATED
    assert mixed.summary["headline"] == \
        "1/2 chains hold, 1 member(s) with premises not met"
    # kept: every failed record and every record that is no premise
    assert [(r.name, r.instance) for r in mixed.records] == [
        ("chain/x", STATUS_OK), ("premise/x", STATUS_PREMISES),
        ("chain/x", STATUS_PREMISES), ("chain/x", STATUS_VIOLATED)]
    assert run(STATUS_OK, STATUS_VIOLATED).summary["headline"] == \
        "1/2 chains hold"


# --- sector implication ----------------------------------------------------

def _boundary_sequence(theta0):
    """Alternating phases just inside +/- theta0, zero past n = 2048."""
    k = np.arange(1, 2049, dtype=float)
    phases = np.where(k.astype(int) % 2 == 0, 1.0, -1.0) * theta0 * (1 - 1e-6)
    d = k ** -2.0 * np.exp(1j * phases)
    g = np.zeros(4096, dtype=complex)
    g[:2048] = _suffix(d)
    return CoefficientSequence.explicit(g, label="boundary")


def test_sector_chain_boundary_angle_constant():
    # the measured weighted constant approaches 1/cos(theta0) = 2/sqrt(3)
    # from below
    theta0 = math.pi / 6
    out = _chain(_boundary_sequence(theta0), _one(), Sector(theta0))
    assert out.status == STATUS_OK
    constant = {r.name: r for r in out.records}["sector/variation_constant"].lhs
    assert constant <= 2.0 / math.sqrt(3.0) * (1 + 1e-9)
    assert constant > 1.15


def test_sector_chain_rejects_lacunary():
    out = _chain(_lacunary_prefix(), _one(), Sector(math.pi / 6))
    assert out.status == STATUS_PREMISES
    assert out.claim == CLAIM_SECTOR


def test_sector_chain_is_premises_not_met_when_its_inner_chain_is():
    # the sector premise holds, but 2^n overflows beyond n = 1023, so the
    # inner chain's weight-doubling premise is inconclusive: no gate is
    # judged, and the outcome is no violation
    theta0 = math.pi / 6
    out = _chain(
        _boundary_sequence(theta0),
        weight_from_text("exp2"), Sector(theta0))
    assert out.status == STATUS_PREMISES and out.claim == CLAIM_SECTOR
    assert all(r.name.startswith("premise/") for r in out.records)
    failed = [r.name for r in out.records if not r.passed]
    assert failed == ["premise/weight_doubling"]


def test_sector_chain_on_odd_corpus_member():
    seq, weight, sector = corpus_member(7)
    out = _chain(seq, weight, sector)
    assert out.status == STATUS_OK
    telescoping = [r for r in out.records if r.name == "sector/telescoping"]
    assert telescoping and telescoping[0].passed


def _fields(record):
    return (record.name, record.instance, record.passed, repr(record.lhs),
            repr(record.rhs), repr(record.slack), record.witness,
            record.detail)


@pytest.mark.parametrize("seed", [1, 3, 7, 153, 361, 929])
def test_sector_chain_contains_the_weighted_chain(seed):
    # after its sector premise and two sector gates, the sector chain is
    # the weighted chain of the same member, bit for bit
    seq, weight, sector = corpus_member(seed)
    out = _chain(seq, weight, sector)
    assert [r.name for r in out.records[:3]] == [
        "premise/sector_differences", "sector/telescoping",
        "sector/variation_constant"]
    assert [_fields(r) for r in out.records[3:]] == \
        [_fields(r) for r in _chain(seq, weight).records]


# --- lacunary counterexample -----------------------------------------------

def test_lacunary_outcome_alpha_one():
    out = verify_lacunary_counterexample(1.0)
    assert out.status == STATUS_OK
    by_name = {r.name: r for r in out.records}
    assert by_name["maxima/exactly_one"].passed
    assert by_name["group_bv/window_1"].witness == 1
    assert by_name["group_bv/window_16"].witness == 33
    assert by_name["tail/below_threshold"].passed


def test_lacunary_scans_group_bv_once(monkeypatch):
    from trigconv import harness

    calls = []

    def counting(view, n0_list=(1,), m_max=None):
        calls.append(list(n0_list))
        return check_group_bv(view, n0_list, m_max)

    monkeypatch.setattr(harness, "check_group_bv", counting)
    out = verify_lacunary_counterexample(1.0)
    assert calls == [[1, 2, 4, 8, 16]]
    witnesses = [r.witness for r in out.records
                 if r.name.startswith("group_bv/")]
    assert witnesses == [1, 5, 9, 17, 33]


def test_lacunary_tail_record_is_the_tightest_ladder_point():
    # lhs and rhs are the estimate and the bound at one n, the one with the
    # smallest slack, not maxima taken at different n
    out = verify_lacunary_counterexample(1.0)
    rec = {r.name: r for r in out.records}["tail/dominated_by_abs_bound"]
    assert rec.passed and rec.witness == 1 << 15
    assert rec.rhs == 2.0 ** -16 / 0.5
    assert rec.slack == rec.rhs - rec.lhs
    assert rec.slack == pytest.approx(1.07e-5, rel=5e-3)


def test_lacunary_outcome_alpha_half_fails_only_threshold():
    # alpha = 1/2 decays too slowly for the 1e-3 cutoff at n = 2^15: the
    # certified bound is ~1.3e-2 there, so only that record can fail
    out = verify_lacunary_counterexample(0.5)
    assert out.status == STATUS_VIOLATED
    for r in out.records:
        if r.name == "tail/below_threshold":
            assert not r.passed
        else:
            assert r.passed, r.name


def _traced_peak(run) -> float:
    """The peak of the memory tracemalloc sees during run(), in MiB above
    what was traced before it: numpy's arrays, not anonymous mappings."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_lacunary_counterexample_keeps_only_what_it_reads():
    # finding (i) reads the support, GROUP_BV fails every window within its
    # first span, and the rows keep one running row of bins: 1.96 MiB
    # measured, against 11.5 MiB with a np.zeros prefix indexed whole and
    # the GROUP_BV right side over the whole scan
    assert _traced_peak(lambda: verify_lacunary_counterexample(1.0)) <= 3.0


def test_probe_sufficiency_keeps_one_prefix_at_a_time():
    # one family's prefix of 2^16 + 1 values and one case buffer at a time:
    # 2.52 MiB measured, against 4.55 MiB with every family's prefix alive
    assert _traced_peak(lambda: probe_sufficiency(11)) <= 3.25


def test_lacunary_rejects_nonpositive_alpha():
    with pytest.raises(Exception):
        verify_lacunary_counterexample(0.0)


# --- equivalence diagnostics -----------------------------------------------

@pytest.fixture(scope="module")
def equivalence():
    """One run of the fixed equivalence profile for the tests below."""
    return verify_equivalence_diagnostics()


def test_equivalence_small_profile(equivalence):
    # lacunary is waived because its group-variation check fails
    assert equivalence.status == STATUS_OK
    by_instance = {r.instance: r for r in equivalence.records}
    assert by_instance["harmonic(1.0)"].name == "equivalence/co_trending"
    assert by_instance["lacunary(1.0)"].name == "equivalence/waived"
    # harmonic: both diagnostics persist above their thresholds
    assert by_instance["harmonic(1.0)"].lhs > 0.15
    assert by_instance["harmonic(1.0)"].rhs > 0.15


# --- probes ----------------------------------------------------------------

def test_probe_necessity_small():
    out = probe_necessity(instances=4, seed=7)
    assert out.status == STATUS_OK
    floors = [r for r in out.records if r.name == "testpoint/sine_floor"]
    assert [r.instance for r in floors] == ["n=10", "n=100", "n=1000"]
    probes = [r for r in out.records if r.name == "testpoint/three_term"]
    assert len(probes) == 4
    for r in probes:
        assert r.slack >= -1e-9


def test_violated_testpoint_instance_keeps_its_measured_sides(monkeypatch):
    # c_-k = -c_k: the pair sums vanish and the sector premises hold, so
    # with the grid rows flattened to zero the right side is 0 < lhs
    from trigconv import harness, series

    def odd_instance(seed, length, theta0):
        pos = CoefficientSequence.explicit(
            1.0 / np.arange(1, length + 1), label=f"odd@{seed}:pos")
        neg = CoefficientSequence.explicit(-pos.prefix(length), label="neg")
        return TwoSidedSequence(pos, neg, label=f"odd@{seed}")

    rows = series._cos_sin_rows

    def flat_rows(k, a, b, grid, ends):
        C, S = rows(k, a, b, grid, ends)
        return np.zeros_like(C), np.zeros_like(S)

    monkeypatch.setattr(harness, "_pair_sector_instance", odd_instance)
    monkeypatch.setattr(series, "_cos_sin_rows", flat_rows)
    out = probe_necessity(instances=2, seed=7)
    assert out.status == STATUS_VIOLATED
    probes = [r for r in out.records if r.name == "testpoint/three_term"]
    assert len(probes) == 2
    for r in probes:
        assert not r.passed and r.detail == "premises_ok=True"
        assert r.lhs > 0.0 and r.rhs == 0.0 and r.slack == -r.lhs
        assert all(map(math.isfinite, (r.lhs, r.rhs, r.slack)))
    assert out.summary["worst_slack"] == min(r.slack for r in probes)


def test_probe_sufficiency_small():
    # a seed other than criterion 6's draws a different set of cases
    out = probe_sufficiency(seed=3)
    assert out.status == STATUS_OK
    assert len(out.records) == 100
    assert out.summary["seed"] == 3
    assert out.summary["worst_slack"] >= 0.0


# --- serialization ---------------------------------------------------------

def test_outcome_json_round_trip_strict():
    out = run_weighted_implication_corpus(2, 3)
    text = json.dumps(out.to_json_dict(), sort_keys=True, allow_nan=False)
    back = json.loads(text)
    assert back["claim"] == CLAIM_WEIGHTED
    assert back["status"] == "ok"
    assert all(isinstance(r["passed"], bool) for r in back["records"])


def test_outcome_json_nonfinite_goes_null():
    out = _chain(_lacunary_prefix(), _one())
    d = out.to_json_dict()
    text = json.dumps(d, allow_nan=False)   # must not raise
    assert "Infinity" not in text


def test_outcome_table_format():
    out = run_weighted_implication_corpus(1, 2)
    table = out.table()
    assert table.splitlines()[0].startswith("claim: weighted_bv_implies")
    assert "[pass]" in table


# --- shared views and placeholder fields -----------------------------------

def test_sector_chain_measures_weighted_variation_once(monkeypatch):
    import trigconv.harness as harness
    calls = []
    real = harness.check_weighted_rest_bv

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "check_weighted_rest_bv", counting)
    seq, weight, sector = corpus_member(7)
    assert _chain(seq, weight, sector).status == STATUS_OK
    assert calls == [1]


def test_corpus_run_validates_each_weight_text_once(monkeypatch):
    import trigconv.harness as harness
    built, validated = [], []
    real_build = harness.weight_from_text
    real_validate = WeightSequence.validated_prefix

    def build(text):
        built.append(text)
        return real_build(text)

    def validate(self, N):
        # a call past the longest length validated so far runs the checks
        cached = self._cache.get("valid")
        if cached is None or N > cached[0].shape[0]:
            validated.append(self.label)
        return real_validate(self, N)

    monkeypatch.setattr(harness, "weight_from_text", build)
    monkeypatch.setattr(WeightSequence, "validated_prefix", validate)
    harness._corpus_weight.cache_clear()
    try:
        assert run_weighted_implication_corpus(1, 25).status == STATUS_OK
    finally:
        harness._corpus_weight.cache_clear()
    assert len(set(built)) == len(built) > 1
    assert sorted(validated) == sorted(built)


def test_corpus_run_checks_each_weight_premise_once(monkeypatch):
    # the weight-doubling premise is a pure function of the weight and the
    # horizon, which a corpus run's members share
    import trigconv.harness as harness
    built, checked = [], []
    real_build = harness.weight_from_text
    real_check = harness.check_orv_weight

    def build(text):
        built.append(text)
        return real_build(text)

    def check(weight, horizon):
        checked.append(weight.label)
        return real_check(weight, horizon)

    monkeypatch.setattr(harness, "weight_from_text", build)
    monkeypatch.setattr(harness, "check_orv_weight", check)
    harness._corpus_weight.cache_clear()
    harness._weight_premise.cache_clear()
    try:
        assert run_weighted_implication_corpus(1, 25).status == STATUS_OK
    finally:
        harness._corpus_weight.cache_clear()
        harness._weight_premise.cache_clear()
    assert len(set(built)) == len(built) > 1
    assert sorted(checked) == sorted(built)


def _null_fields(record):
    return [record[k] for k in ("lhs", "rhs", "slack")]


def test_placeholder_fields_serialize_null(equivalence):
    # records that gate a yes/no finding carry no measured inequality
    lac = verify_lacunary_counterexample(1.0).to_json_dict()["records"]
    by_name = {r["name"]: r for r in lac}
    for n0 in (1, 2, 4, 8, 16):
        assert _null_fields(by_name[f"group_bv/window_{n0}"]) == [None] * 3
    assert _null_fields(by_name["tail/bound_decreasing"]) == [None] * 3
    assert by_name["maxima/exactly_one"]["slack"] is None
    assert by_name["maxima/exactly_one"]["lhs"] is not None
    # a lacunary prefix ends in c_4096 != 0 and fails the null premise
    out = _chain(_lacunary_prefix(), _one())
    null = [r for r in out.to_json_dict()["records"]
            if r["name"] == "premise/null"]
    assert null and _null_fields(null[0]) == [None] * 3
    assert null[0]["passed"] is False and null[0]["witness"] == 4096
    eq = equivalence.to_json_dict()
    assert [r["slack"] for r in eq["records"]] == [None] * 3


# --- golden digests ----------------------------------------------------------
#
# sha256 of the JSON the CLI prints (and of one probe's JSON), frozen before
# suffix_sums stopped summing its first chunk and the corpus members began to
# share one weight per text; a speedup must keep every byte.  The seed-251
# run was frozen again when a member with unmet premises stopped counting
# as a violation (its status, headline and exit code changed, its records
# did not), and again when the null premise was decided from the data:
# member 252 became a checked chain.  Both t3 runs were frozen again when
# a weighted view of real c began to divide in real arithmetic: the real
# quotients c_n/R(n) moved by up to one ulp, and no status, verdict,
# witness or exit code moved.

_VERIFY_DIGESTS = [
    (("t3", "--seed", "1", "--corpus-size", "25"), 0,
     "3fd0751473219fa3cdcc00018e4284e0b48366e552faf92b096b48ec01f33ae0"),
    # member 252 included: 25/25 chains hold
    (("t3", "--seed", "251", "--corpus-size", "25"), 0,
     "d1f1ad693bbcc9329100c9d411d77c873bca64e2a881df4fc9a531f03129a335"),
    (("corollary", "--seed", "1", "--corpus-size", "12"), 0,
     "b9d230211d3651a792ea1bf334b66c7c5410750e7c5e1bf3050a8885d93fcf0d"),
    # frozen before the tail sums were built on first read, a lacunary
    # prefix was written on its support and the early-exit spans grew
    (("lacunary", "--alpha", "1.0"), 0,
     "b33a80fe11b40543191a896a22d76918d5dea14df90cbab878505a442bc0619f"),
    (("lacunary", "--alpha", "0.5"), 1,
     "63848750dda81b49854c5e47424ca061d4c6f7466d54128020047ac82d4a91bf"),
    (("equivalence",), 0,
     "8ef95e0cd828731b546f50875e29b69025c6e23b7b8f410915646ba9148d76e7"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, code, digest", _VERIFY_DIGESTS)
def test_verify_output_digest(capsys, args, code, digest):
    assert cli.main(["verify", *args]) == code
    assert _sha256(capsys.readouterr().out) == digest


def test_probe_sufficiency_digest():
    payload = json.dumps(probe_sufficiency(seed=11).to_json_dict(),
                         sort_keys=True)
    assert _sha256(payload) == \
        "5e32e8bea06f0bb0f0e344b26cc371b45fc8895c2a3a42d93366db409d375b9c"


# frozen before TwoSidedSequence lost c_0 and the three-term record lost its
# second tolerance rule; seed 1 x 5 is the benchmark's probe op
@pytest.mark.parametrize("instances, seed, digest", [
    (20, 7, "fd129f4d32a915eaf07522ee2d5ed3d4cc72d84f85d51af38ee0b4566656501b"),
    (5, 1, "06aaf5c7ec58f42a6d67a2f93d6d5e5ac3cb5907679d2117f0da0bb70e730b53"),
])
def test_probe_necessity_digest(instances, seed, digest):
    payload = json.dumps(probe_necessity(instances, seed).to_json_dict(),
                         sort_keys=True)
    assert _sha256(payload) == digest


def test_probe_sufficiency_bounds_equal_the_oracle_bit_for_bit():
    # the probe writes the bound inline from one range-sum call per family;
    # the oracle sums each case's variation with exact_sum.  Both round the
    # exact sum once, so every rhs must keep its bits
    horizon, n_cases = 1 << 16, 100
    pick = (unit_noise(11, np.arange(3 * n_cases)) + 1.0) / 2.0
    fams = _SUFFICIENCY_FAMILIES
    records = probe_sufficiency(seed=11).records
    assert len(records) == n_cases
    for i, rec in enumerate(records):
        fam = fams[int(pick[3 * i] * len(fams)) % len(fams)]
        N = 1 + int(pick[3 * i + 1] * 1024)
        x = float(pick[3 * i + 2] * (math.pi - 1e-6) + 1e-6)
        assert rec.instance == f"{fam} N={N} x={x:.4f}"
        want = abel_tail_bound(sequence_from_text(fam), N, x, horizon)
        assert rec.name == "abel/dominance" and rec.rhs == want
