"""Acceptance gate: one test per advertised guarantee, one printed line each.

Each test owns a single criterion and prints a [PASS]/[FAIL] line through the
``acceptance_line`` fixture so a plain pytest run doubles as the checklist.
Numeric thresholds are pinned: analytic values carry tight tolerances, and
empirically pinned ones state where the pin came from.
"""

import json
import math

import numpy as np
import pytest

from trigconv.conditions import PrefixView, check_group_bv, check_rest_bv
from trigconv.harness import (
    STATUS_OK,
    STATUS_VIOLATED,
    corpus_member,
    probe_necessity,
    probe_sufficiency,
    run_weighted_implication_corpus,
    verify_lacunary_counterexample,
)
from trigconv.sequences import CoefficientSequence, sequence_from_text
from trigconv.series import convergence_curve

from _oracles import dirichlet_sine


def _nonincreasing_null_families():
    """Ten non-increasing null sequences whose mass beyond the default
    evaluation horizon is below the 1e-9 telescoping budget."""
    fams = [sequence_from_text(t) for t in (
        "harmonic(2.0)", "harmonic(2.5)", "harmonic(3.0)", "harmonic(4.0)",
        "quasimono(0,3)", "quasimono(0,4)")]
    rng = np.random.default_rng(23)
    for i in range(4):
        vals = np.zeros(4096)
        vals[:1024] = np.sort(rng.random(1024))[::-1]
        fams.append(CoefficientSequence.explicit(vals, label=f"sorted-rand-{i}"))
    return fams


def test_criterion_1_telescoping_constants(acceptance_line):
    ok = True
    for seq in _nonincreasing_null_families():
        view = PrefixView.of(seq)
        rest = check_rest_bv(view)
        group, = check_group_bv(view, (1,))
        ok = ok and rest.verdict == "holds" and group.verdict == "holds"
        ok = ok and abs(rest.constant - 1.0) <= 1e-9
        ok = ok and group.constant <= 1.0 + 1e-12
    acceptance_line(
        "criterion 1: tail-variation constant = 1 +/- 1e-9 and width-1 block "
        "constant <= 1 + 1e-12 on 10 non-increasing null families", ok)


def test_criterion_2_harmonic_block_constant(acceptance_line):
    # Oracle first: brute-force every block ratio for m <= 1e4 straight from
    # the definition (slice sums of |c_n - c_{n+1}|, width-1 window), then
    # require the checker to agree.
    c = 1.0 / np.arange(1, (1 << 16) + 3, dtype=float)
    d = np.abs(c[:-1] - c[1:])
    best, arg = -1.0, None
    for m in range(1, 10**4 + 1):
        ratio = d[m - 1:2 * m].sum() / c[m - 1]
        if ratio > best:
            best, arg = ratio, m
    ok = abs(best - 2.0 / 3.0) <= 1e-9 and arg == 1

    report, = check_group_bv(
        PrefixView.of(sequence_from_text("harmonic(1.0)")), (1,),
        m_max=10**4)
    ok = ok and report.verdict == "holds"
    ok = ok and abs(report.constant - 2.0 / 3.0) <= 1e-9
    ok = ok and report.witness == 1
    acceptance_line(
        "criterion 2: harmonic width-1 block constant = 2/3 +/- 1e-9 at "
        "m = 1, against a brute-force oracle over m <= 1e4", ok)


def test_criterion_3_weighted_chain_corpus(acceptance_line):
    out = run_weighted_implication_corpus(1, 50)
    ok = out.status == STATUS_OK
    ok = ok and out.summary["headline"] == "50/50 chains hold"
    ok = ok and all(r.passed for r in out.records)
    acceptance_line(
        "criterion 3: 50 seeded premise-satisfying families pass every "
        "intermediate inequality with nonnegative slack", ok)


def test_criterion_4_lacunary_triad(acceptance_line):
    # The attainable part of the triad: exponent-space maxima and explicit
    # block-variation failures hold for every alpha, and the tail estimate
    # drops below 1e-3 by n = 2^15 for alpha in {1, 2}.  The alpha = 1/2
    # threshold is covered by the companion xfail test below.
    expected_witness = {1: 1, 2: 5, 4: 9, 8: 17, 16: 33}
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        out = verify_lacunary_counterexample(alpha)
        by_name = {r.name: r for r in out.records}
        ok = ok and by_name["maxima/exactly_one"].passed
        for n0, wit in expected_witness.items():
            rec = by_name[f"group_bv/window_{n0}"]
            ok = ok and rec.passed and rec.witness == wit
        ok = ok and by_name["tail/dominated_by_abs_bound"].passed
        ok = ok and by_name["tail/bound_decreasing"].passed
        if alpha >= 1.0:
            ok = ok and by_name["tail/below_threshold"].passed
            ok = ok and out.status == STATUS_OK
    acceptance_line(
        "criterion 4: lacunary triad -- exact scaled block maxima, width "
        "<= 16 failures with witnesses, dominated decreasing tail; "
        "sub-1e-3 tail for alpha in {1, 2}", ok)


@pytest.mark.xfail(strict=True, reason="slow-decay lacunary tail: the "
                   "certified bound at n = 2^15 is ~1.3e-2 and the true sup "
                   "stays above 2^-8, so the 1e-3 threshold is unreachable")
def test_criterion_4_lacunary_slow_decay_threshold(acceptance_line):
    out = verify_lacunary_counterexample(0.5)
    acceptance_line(
        "criterion 4 (slow-decay tail): alpha = 1/2 estimate below 1e-3 by "
        "n = 2^15", out.status == STATUS_OK)


def test_criterion_5_dirichlet_machinery(acceptance_line):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 3000))
        x = float(rng.uniform(1e-6, math.pi))
        closed = dirichlet_sine(n, x)
        direct = float(np.sin(np.arange(1, n + 1) * x).sum())
        ok = ok and abs(closed - direct) <= 1e-9
        ok = ok and abs(closed) <= math.pi / x * (1 + 1e-12)
    acceptance_line(
        "criterion 5: closed-form kernel matches direct sums to 1e-9 over "
        "1e3 random cases and respects the pi/x envelope", ok)


def test_criterion_6_abel_dominance(acceptance_line):
    out = probe_sufficiency(11)
    ok = out.status == STATUS_OK
    ok = ok and len(out.records) == 100
    ok = ok and all(r.passed for r in out.records)
    ok = ok and out.summary["worst_slack"] >= 0.0
    acceptance_line(
        "criterion 6: summation-by-parts tail bound dominates the actual "
        "truncated tail on 100 random (family, N, x) triples", ok)


def test_criterion_7_testpoint_probe(acceptance_line):
    out = probe_necessity(20, 7)
    floors = [r for r in out.records if r.name == "testpoint/sine_floor"]
    probes = [r for r in out.records if r.name == "testpoint/three_term"]
    ok = out.status == STATUS_OK
    ok = ok and len(floors) == 3 and all(r.passed for r in floors)
    ok = ok and len(probes) == 20
    ok = ok and all(r.passed and r.slack is not None and r.slack >= -1e-9
                    for r in probes)
    # second route for the sine floor, straight from the angles
    for n in (10, 100, 1000):
        k = np.arange(n + 1, 4 * n + 1)
        ok = ok and np.all(np.sin(k * (math.pi / (8 * n)))
                           >= math.sin(math.pi / 8) - 1e-12)
    acceptance_line(
        "criterion 7: sine floor sin(pi/8) on (n, 4n] at n in {10, 1e2, 1e3} "
        "and the three-term testpoint inequality on 20 two-sided instances",
        ok)


def test_criterion_8_convergence_dichotomy(acceptance_line):
    harmonic = convergence_curve(sequence_from_text("harmonic(1.0)"),
                                 [64, 256, 1024])
    ok = all(e.sup_estimate >= 0.2 for e in harmonic.entries)

    damped = convergence_curve(sequence_from_text("log_damped"),
                               [64 << j for j in range(7)])
    sups = [e.sup_estimate for e in damped.entries]
    ok = ok and all(a > b for a, b in zip(sups, sups[1:]))
    # 0.15 pinned from a doubled-resolution grid run before enforcement
    # (observed final value 0.1263 at n = 4096)
    ok = ok and sups[-1] <= 0.15
    acceptance_line(
        "criterion 8: harmonic tail sup stays >= 0.2 while the log-damped "
        "tail sup decreases through dyadic n to <= 0.15 at n = 4096", ok)


def test_criterion_9_determinism(acceptance_line):
    a = run_weighted_implication_corpus(3, 4)
    b = run_weighted_implication_corpus(3, 4)
    ok = (json.dumps(a.to_json_dict(), sort_keys=True)
          == json.dumps(b.to_json_dict(), sort_keys=True))

    s1, _, _ = corpus_member(11)
    s2, _, _ = corpus_member(11)
    ok = ok and np.array_equal(s1.prefix(4096), s2.prefix(4096))

    c1 = convergence_curve(sequence_from_text("harmonic(2.0)"), [16, 64],
                           N_ref=1 << 10)
    c2 = convergence_curve(sequence_from_text("harmonic(2.0)"), [16, 64],
                           N_ref=1 << 10)
    ok = ok and c1.to_csv() == c2.to_csv()
    acceptance_line(
        "criterion 9: repeated seeded runs produce byte-identical JSON and "
        "CSV", ok)
