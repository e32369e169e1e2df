"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads tail_curves,classify_large \\
        --seeds 1,2,3,4,5 --seconds 30 [--trace 0|1] [--out FILE]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, which the metric's bound in BENCHMARK.json has to cover.
Runs are sequential, one workload at a time.  ``--out`` writes every run's
result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = int(seed)
            result["run_s"] = time.perf_counter() - t0
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} {result['run_s']:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in summary.items():
            bound = bounds.get(name)
            note = f" bound {bound}" if bound is not None and args.trace == "0" else ""
            print(f"  {workload:15s} {name:36s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}{note}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
