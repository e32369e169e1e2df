"""trigconv benchmark: three workloads through the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from the repository root.  One run builds the workload's seeded inputs,
then repeats the workload's fixed, ordered op list (one pass) a fixed number
of times, checking every op's output.  The number of passes is
``--seconds`` divided by the workload's nominal pass time, and at least
enough for 40 op samples, so it does not depend on how fast the host runs
and two runs with the same arguments attempt the same ops.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A traced run alternates
untraced and traced passes, so the tracing overhead is measured in the same
process.  Without ``--workload`` every workload runs in its own process
and a table of the end-to-end metrics is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread.  On a 2-core host the default two OpenBLAS threads gave a
# dense curve no wall-time gain (4.00 s against 3.97 s a pass) but twice the
# CPU, and a second thread waiting on a core that another process holds made
# whole runs 25% slower.  Set before numpy is imported; the setup
# interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("bench", "out")      # relative to ROOT, the working directory

# setup_s is the median of this many fresh-interpreter samples, taken
# before the first pass and between passes so that they span the run
SETUP_SAMPLES = 7
# op_tail_s reports the highest of these percentiles that leaves at least
# TAIL_BEYOND samples above it; a fixed ladder keeps the percentile the
# same from run to run while the sample count stays within one band
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# an untraced run takes at least enough passes for this many op samples, so
# that op_tail_s is never below p75
MIN_OP_SAMPLES = 40
# nominal seconds per untraced pass on a 2-core Xeon; a run makes
# --seconds / PASS_SECONDS passes whatever the host's speed
PASS_SECONDS = {"tail_curves": 4.75, "classify_large": 5.8, "verify_corpus": 3.0}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"kernel_terms_points": "count", "kernel_rate": "1/s",
                   "output_bytes": "bytes"}


def per_layer_unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    if leaf in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[leaf]
    return "s" if leaf.endswith("_s") else "count"


def tail_percentile(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile, by nearest rank,
    with at least TAIL_BEYOND samples above it (the median if none has)."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def machine_info(np) -> dict:
    """Host facts that decide the numbers, the BLAS thread cap included."""
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    blas, threads = {}, None
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = int(getattr(lib, sym)())
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def pass_count(workload: str, seconds: float, ops: int, traced: bool) -> int:
    """Passes in one run: a function of the arguments alone, so that the
    attempted and failed op counts repeat exactly from run to run."""
    n = max(1, round(seconds / PASS_SECONDS[workload]))
    return max(n, 2) if traced else max(n, -(-MIN_OP_SAMPLES // ops))


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports trigconv and builds
    the workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
         os.path.join(OUT, "setup")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: setup failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def run_op(program, op, tracer, op_id: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    root = tracer.open_op(op_id, op.key) if tracer else None
    outcome = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.probe:
                outcome = getattr(program.harness, op.probe)(**op.kwargs)
                rc = 0
            else:
                rc = program.cli.main(list(op.argv))
    except SystemExit as exc:   # argparse rejects a command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    out_s, err_s = out.getvalue(), err.getvalue()
    if tracer:
        nbytes = 0 if op.probe else len(out_s.encode()) + len(err_s.encode())
        tracer.close_op(root, t0, t1, nbytes)
    return {"wall": t1 - t0, "cpu": cpu, "rc": rc, "out": out_s, "err": err_s,
            "outcome": outcome.to_json_dict() if outcome is not None else None}


def run_workload(args) -> int:
    program = workloads.import_program(ROOT)
    import numpy as np

    import checks

    setup = [setup_sample(args.workload, args.seed)]
    ops = workloads.build(args.workload, args.seed, os.path.join(OUT, "inputs"))
    checker = checks.Checker(os.path.dirname(program.__file__), checks.load_reference())
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(program)
        kernel_points = spans.kernel_points_counter(program.series)

    # a traced run alternates plain and traced passes, plain first
    passes = []       # {"kind", "wall", "cpu", "ops": [latency...], "layers"}
    failures = {}     # label -> count
    known_ids = set()
    unexpected = 0
    attempted = failed = 0
    n_passes = pass_count(args.workload, args.seconds, len(ops), bool(tracer))
    while len(passes) < n_passes:
        kind = "traced" if tracer and len(passes) % 2 == 1 else "plain"
        traced = kind == "traced"
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        p0 = time.perf_counter()
        lat, cpu = [], 0.0
        try:
            for i, op in enumerate(ops):
                res = run_op(program, op, tracer if traced else None,
                             len(passes) * len(ops) + i)
                lat.append(res["wall"])
                cpu += res["cpu"]
                problem = checker.check_op(op, res["rc"], res["out"], res["err"],
                                           res["outcome"])
                attempted += 1
                if problem:
                    failed += 1
                    reason, known = problem
                    label = f"[{known}] {op.key}" if known else f"[unexpected] {op.key}: {reason}"
                    failures[label] = failures.get(label, 0) + 1
                    unexpected += known is None
                    known_ids.add(known)
        finally:
            if traced:
                tracer.uninstall()
        record = {"kind": kind, "wall": sum(lat), "cpu": cpu, "ops": lat,
                  "elapsed": time.perf_counter() - p0}
        if traced:
            record["layers"] = tracer.pass_metrics(first_span, kernel_points)
        passes.append(record)
        if len(passes) < n_passes and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed))

    plain = [p for p in passes if p["kind"] == "plain"]
    latencies = [x for p in plain for x in p["ops"]]
    tail_p, tail_v = tail_percentile(latencies)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_v,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = machine_info(np)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(ops)} ops, {len(plain)} timed untraced")
    for name, value in e2e.items():
        print(f"  {name:14s} {value:.6g} {END_TO_END[name]}")
    print(f"  op_tail_s is p{tail_p:g} of {len(latencies)} op samples")
    print(f"  fail_ratio     {failed / attempted:.6g} ({failed}/{attempted} ops failed)")
    for label, count in sorted(failures.items()):
        print(f"    {count} x {label}")
    for known in sorted(known_ids - {None}):
        print(f"    [{known}] is a known baseline failure: {checks.KNOWN_FAILURES[known]}")

    result = {"workload": args.workload, "seed": args.seed, "machine": info,
              "end_to_end": e2e, "op_tail_percentile": tail_p,
              "op_samples": len(latencies), "attempted": attempted,
              "failed": failed, "failures": failures,
              "setup_samples": setup,
              "pass_walls": [[p["kind"], p["wall"]] for p in passes]}
    if tracer:
        traced_passes = [p["layers"] for p in passes if p["kind"] == "traced"]
        layers = spans.median_metrics(traced_passes)
        layers["trace.overhead_s"] = (
            layers["trace.wall_s"] - e2e["wall_s"])
        result["per_layer"] = layers
        attributed = statistics.median(
            sum(p[f"{layer}.self_s"] for layer in spans.LAYERS) for p in traced_passes)
        print(f"  per traced pass the layer self times sum to {attributed:.6g} s of "
              f"{layers['trace.wall_s']:.6g} s traced wall; the rest is the "
              f"benchmark's op span (bench.self_s); tracing overhead "
              f"{layers['trace.overhead_s']:.6g} s")
        for name in sorted(layers):
            print(f"  {name:36s} {layers[name]:.6g} {per_layer_unit(name)}")
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz"),
                    {len(ops) * j + i: op.key for j in range(len(passes))
                     for i, op in enumerate(ops)})
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{int(args.trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        ratio = res["failed"] / res["attempted"]
        cells = "  ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:15s} correct={res['correct']} fail_ratio={ratio:.3g}  {cells}")
    print(json.dumps({name: res for name, res in rows}))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
