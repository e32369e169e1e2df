"""Tests of the benchmark itself: its checker, its metric names and its
seeded inputs.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

PACKAGE_DIR = os.path.join(ROOT, "src", "trigconv")
CURVE = Op("curve log_damped", ("curve", "log_damped", "--n", "64..128:dyadic"))
MANIFEST = json.dumps({"command": [], "defaults": {}, "seed": None,
                       "version": "0.1.0", "input_digests": {}})


@pytest.fixture
def checker():
    return checks.Checker(PACKAGE_DIR, checks.load_reference())


def _verify_payload(status, records, summary):
    return json.dumps({
        "manifest": json.loads(MANIFEST),
        "outcome": {"claim": "weighted_bv_implies_group_bv", "status": status,
                    "summary": summary, "records": records}})


def _record(name, passed, instance="corpus@1"):
    return {"name": name, "instance": instance, "passed": passed, "lhs": 0.0,
            "rhs": 1.0, "slack": 1.0, "witness": None, "detail": ""}


def test_good_curve_passes(checker):
    csv = "n,sup_estimate,truncation_slack,max_k_ck\n64,0.3,0.1,0.2\n128,0.25,0.1,0.2\n"
    assert checker.check_op(CURVE, 0, csv, MANIFEST) is None


@pytest.mark.parametrize("row", ["128,nan,0.1,0.2", "128,inf,0.1,0.2",
                                 "128,-0.5,0.1,0.2", "128,0.2,x,0.2"])
def test_checker_flags_bad_curve_values(checker, row):
    csv = f"n,sup_estimate,truncation_slack,max_k_ck\n64,0.3,0.1,0.2\n{row}\n"
    reason, known = checker.check_op(CURVE, 0, csv, MANIFEST)
    assert known is None and "128" in reason


def test_checker_flags_missing_n_and_broken_dichotomy(checker):
    only_64 = "n,sup_estimate,truncation_slack,max_k_ck\n64,0.3,0.1,0.2\n"
    assert checker.check_op(CURVE, 0, only_64, MANIFEST)[1] is None
    checker.seen.clear()
    rising = "n,sup_estimate,truncation_slack,max_k_ck\n64,0.3,0.1,0.2\n128,0.31,0.1,0.2\n"
    assert "decrease" in checker.check_op(CURVE, 0, rising, MANIFEST)[0]


def test_checker_flags_changed_verdict(checker):
    op = Op("classify harmonic(1.0)", ("classify", "harmonic(1.0)"))
    reports = [{"condition": c, "verdict": v, "constant": None, "witness": None,
                "range": {"m_min": 1, "m_max": 1, "horizon": 1},
                "stabilization": None}
               for c, v in checker.reference[op.key]]
    payload = {"manifest": json.loads(MANIFEST), "reports": reports}
    assert checker.check_op(op, 0, json.dumps(payload), "") is None
    reports[3]["verdict"] = "inconclusive"
    checker.seen.clear()
    reason, known = checker.check_op(op, 0, json.dumps(payload), "")
    assert known is None and "reference" in reason


def test_checker_flags_exit_1(checker):
    op = Op("verify t3 1", ("verify", "t3", "--seed", "1"))
    chain_failure = _verify_payload(
        "violated", [_record("chain/block_variation", False)],
        {"members": 2, "passed": 1})
    reason, known = checker.check_op(op, 1, chain_failure, "")
    assert known is None and reason.startswith("exit 1")
    curve_exit_1 = checker.check_op(CURVE, 1, "", "error: boom\n")
    assert curve_exit_1[1] is None


def test_checker_names_the_known_baseline_failures(checker):
    premise = _verify_payload(
        "violated", [_record("premise/null_trend", False, "corpus@252")],
        {"members": 2, "passed": 1})
    op = Op("verify t3 251", ("verify", "t3", "--seed", "251"))
    assert checker.check_op(op, 1, premise, "")[1] == "corpus_premise"
    pert = Op("curve perturbed", ("curve", "perturbed(3,log_damped,0.05)", "--n", "64"))
    assert checker.check_op(pert, 2, "", checks.PERTURBED_PREFIX_ERROR)[1] == "perturbed_prefix"


def test_checker_flags_nondeterministic_output(checker):
    csv = "n,sup_estimate,truncation_slack,max_k_ck\n64,0.3,0.1,0.2\n128,0.25,0.1,0.2\n"
    assert checker.check_op(CURVE, 0, csv, MANIFEST) is None
    changed = csv.replace("0.25", "0.2500000000000001")
    assert "differs" in checker.check_op(CURVE, 0, changed, MANIFEST)[0]


def test_checker_flags_non_finite_probe_outcome(checker):
    op = Op("probe_sufficiency", probe="probe_sufficiency")
    outcome = {"claim": "sufficiency_bounds", "status": "ok",
               "summary": {"worst_slack": float("nan")}, "records": []}
    reason, known = checker.check_op(op, 0, "", "", outcome)
    assert known is None and "non-finite" in reason


def test_tail_percentile_keeps_ten_samples_beyond():
    import run

    assert run.tail_percentile([float(i) for i in range(40)]) == (75.0, 29.0)
    assert run.tail_percentile([float(i) for i in range(39)])[0] == 50.0
    assert run.tail_percentile([float(i) for i in range(400)]) == (95.0, 379.0)


def test_pass_count_depends_on_the_arguments_alone(tmp_path):
    import run

    # the attempted and failed op counts repeat exactly when the number of
    # passes does not depend on how fast the host runs
    for name, pass_s in run.PASS_SECONDS.items():
        ops = len(workloads.build(name, 1, str(tmp_path)))
        n = run.pass_count(name, 30.0, ops, False)
        assert n * ops >= run.MIN_OP_SAMPLES
        assert n == max(round(30.0 / pass_s), -(-run.MIN_OP_SAMPLES // ops))
    assert run.pass_count("verify_corpus", 1.0, 30, True) == 2


def test_same_seed_same_inputs_and_other_seed_differs(tmp_path):
    def inputs(seed, sub):
        outdir = str(tmp_path / sub)
        ops = {w: workloads.build(w, seed, outdir) for w in workloads.WORKLOADS}
        with open(workloads.file_path(outdir, seed), "rb") as fh:
            data = fh.read()
        # the file op names its own directory; compare everything else
        return ({w: [(op.argv[:-1] if op.key == "classify file" else op.argv,
                      op.kwargs) for op in o] for w, o in ops.items()}, data)

    a, b, c = inputs(5, "a"), inputs(5, "b"), inputs(6, "c")
    assert a == b
    assert a[1] != c[1]
    for w in workloads.WORKLOADS:
        assert a[0][w] != c[0][w], w


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_corpus",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
