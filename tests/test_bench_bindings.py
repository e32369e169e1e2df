"""The names and parameters of trigconv that the benchmark binds.

``bench/spans.py`` finds the functions it times by name and reads some of
their arguments by parameter name; ``bench/workloads.py`` calls the probes
with keywords.  A rename there fails no other Tier-1 test: the benchmark
either stops or quietly reads 0.  These tests load both files and check
each binding against the package.
"""

import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

import trigconv
import trigconv.cli  # noqa: F401  (the tracer wraps the cli layer too)
from trigconv import conditions, harness, sequences, series, summation

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_row_passes_bind_the_parameters_the_tracer_reads():
    # the tracer binds each row pass's arguments and reads n_list and N_ref
    # of a curve and n of the probe, then counts GridSpec(n_ref=...)
    # .points() per pass
    seq = sequences.sequence_from_text("harmonic(1.0)")
    zero = sequences.sequence_from_text("zero")
    count = spans.kernel_points_counter(series)
    for name, args, read in [
            ("convergence_curve", (seq, [64, 128]), {"n_list", "N_ref"}),
            ("testpoint_block_probe", (seq, zero, 16), {"n"})]:
        assert name in spans.ROW_PASSES
        fn = getattr(series, name)
        assert read <= set(_params(fn)), name
        bound = inspect.signature(fn).bind(*args).arguments
        assert count(spans._row_pass_args(name, bound)) > 0, name
    assert series.GridSpec(n_ref=16).points().size > 0


def test_checker_span_names_are_public_checkers():
    assert len(spans.CHECKERS) == 5
    for name in spans.CHECKERS:
        assert name in conditions.__all__
        assert callable(getattr(conditions, name))


def test_argument_summaries_read_existing_parameters():
    # exact_sum and suffix_sums are summarised by the length of their
    # first argument, values; CoefficientSequence.prefix by its N
    assert _params(summation.exact_sum)[0] == "values"
    assert _params(summation.suffix_sums)[0] == "values"
    assert _params(sequences.CoefficientSequence.prefix)[:2] == ["self", "N"]
    values = np.ones(7)
    for (layer, name), summary in spans._ARG_SUMMARY.items():
        owner = getattr(trigconv, layer)
        for part in name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
        assert summary((), {"values": values, "N": 7}) == 7, name


def test_every_span_the_metrics_read_is_wrapped():
    # the tracer wraps public functions and methods by name; each span
    # that a pass metric or the CI's traced step reads must be among them
    wrapped = {f"{layer}.{name}"
               for layer, name, *_ in spans.Tracer(trigconv)._targets()}
    read = {"harness.corpus_member", "summation.exact_sum",
            "summation.suffix_sums", "sequences.CoefficientSequence.prefix",
            "series.convergence_curve", "series.testpoint_block_probe",
            "series.truncation_slack"}
    read |= {f"conditions.{name}" for name in spans.CHECKERS}
    assert read <= wrapped, read - wrapped


@pytest.mark.parametrize("workload", ["tail_curves", "verify_corpus"])
def test_workload_probe_keywords_bind(workload, tmp_path):
    # the probes take instances and seed as keywords; neither workload
    # writes an input file
    probes = [op for op in workloads.build(workload, 1, str(tmp_path))
              if op.probe]
    assert probes
    for op in probes:
        fn = getattr(harness, op.probe)
        inspect.signature(fn).bind(**op.kwargs)
