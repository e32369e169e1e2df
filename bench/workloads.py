"""The benchmark's workloads: seeded inputs and the fixed, ordered op list.

An op is either a ``trigconv`` command line, run in-process through
``trigconv.cli.main(argv)``, or a call to one of the two public probe
functions in ``trigconv.harness``.  Every input is a pure function of the
workload seed, so the same seed gives the same ops and the same input files.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED OUTDIR``) it
imports ``trigconv`` and builds the workload's inputs, then exits: the
benchmark times that in a fresh interpreter to measure ``setup_s``.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field

WORKLOADS = ("tail_curves", "classify_large", "verify_corpus")

# Dense curves run with N_ref = 2^13 on the default 4096-point grid: the same
# dense sine-row path as the default N_ref = 2^16, at an eighth of the cost,
# so that a run holds enough passes for a steady median.  log_damped runs at
# 2^14, twice the cost, so that the op latencies fall into groups that put
# op_p50_s mid-way through the harmonic and perturbed curves and the p75 of
# op_tail_s mid-way through probe_necessity, not on the edge between two
# groups: sparse curves (2 ops), 2^13 dense curves (2), probe (1), 2^14 (1).
DENSE_CURVE = ("--n", "64..512:dyadic", "--nref", "8192")
LOG_DAMPED_CURVE = ("--n", "64..512:dyadic", "--nref", "16384")
# The sparse curves run with N_ref = 2^18: still the sparse path, with a
# quarter of the truncation-slack scan of N_ref = 2^20.
LACUNARY_CURVE = ("--n", "64..1024:dyadic", "--nref", "262144")
CLASSIFY_FAMILIES = ("harmonic(1.0)", "log_damped", "rbv_block(1.0)",
                     "quasimono(0.5,2.0)", "lacunary(1.0)")
FILE_VALUES = 1 << 18
NECESSITY_INSTANCES = 5
# verify_corpus: 28 short corpus chunks and two long ops per pass.  The
# counts put op_p50_s inside the t3 chunks and the p95 of op_tail_s inside
# the lacunary verify, away from the edge of either group of latencies.
T3_CHUNK, T3_CHUNKS = 25, 15
COROLLARY_CHUNK, COROLLARY_CHUNKS = 12, 13
# The corpus window is fixed at members 1..375, so that every seed meets the
# same three chunks that fail the corpus premise (members 252, 292 and 334)
# and the failed-op count does not depend on the seed.  The seed orders the
# chunks and seeds probe_sufficiency.
CORPUS_START = 1


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``key`` names it within the workload; an op
    with the same key must give byte-identical output every time it runs."""

    key: str
    argv: tuple = ()
    probe: str = ""
    kwargs: dict = field(default_factory=dict)


def input_seed(seed: int) -> int:
    """The nonnegative seed handed to the program's seeded families."""
    return seed % (1 << 31)


def file_path(outdir: str, seed: int) -> str:
    return os.path.join(outdir, f"coeffs-{input_seed(seed)}.txt")


def write_coefficient_file(path: str, seed: int) -> None:
    """2^18 values c_n = n^-2 (1 + 0.05 u_n), u_n uniform on [-1, 1) from
    numpy's PCG64 stream for the seed: one ``repr`` float per line."""
    import numpy as np

    n = np.arange(1, FILE_VALUES + 1, dtype=float)
    u = np.random.default_rng(input_seed(seed)).uniform(-1.0, 1.0, n.size)
    values = n ** -2.0 * (1.0 + 0.05 * u)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in values.tolist()))


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    """Write the workload's input files under outdir and return its ops."""
    s = input_seed(seed)
    if workload == "tail_curves":
        return [
            Op("curve log_damped", ("curve", "log_damped") + LOG_DAMPED_CURVE),
            Op("curve harmonic(1.0)", ("curve", "harmonic(1.0)") + DENSE_CURVE),
            Op("curve lacunary(1.0)", ("curve", "lacunary(1.0)") + LACUNARY_CURVE),
            Op("curve lacunary(0.5)", ("curve", "lacunary(0.5)") + LACUNARY_CURVE),
            Op("curve perturbed", ("curve", f"perturbed({s},log_damped,0.05)")
               + DENSE_CURVE),
            Op("probe_necessity", probe="probe_necessity",
               kwargs={"seed": s, "instances": NECESSITY_INSTANCES}),
        ]
    if workload == "classify_large":
        path = file_path(outdir, seed)
        write_coefficient_file(path, seed)
        ops = [Op(f"classify {fam}", ("classify", fam))
               for fam in CLASSIFY_FAMILIES]
        ops.append(Op("classify perturbed",
                      ("classify", f"perturbed({s},harmonic(2.0),0.05)")))
        ops.append(Op("classify file", ("classify", f"file:{path}")))
        return ops
    if workload == "verify_corpus":
        start = CORPUS_START
        ops = [Op(f"verify t3 {start + T3_CHUNK * i}",
                  ("verify", "t3", "--seed", str(start + T3_CHUNK * i),
                   "--corpus-size", str(T3_CHUNK)))
               for i in range(T3_CHUNKS)]
        # a corollary chunk of 25 draws the odd seeds of 50 consecutive ones
        ops += [Op(f"verify corollary {start + 2 * COROLLARY_CHUNK * i}",
                   ("verify", "corollary", "--seed",
                    str(start + 2 * COROLLARY_CHUNK * i),
                    "--corpus-size", str(COROLLARY_CHUNK)))
                for i in range(COROLLARY_CHUNKS)]
        random.Random(seed).shuffle(ops)
        ops.append(Op("verify lacunary", ("verify", "lacunary", "--alpha", "1.0")))
        ops.append(Op("probe_sufficiency", probe="probe_sufficiency",
                      kwargs={"seed": s}))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def import_program(root: str):
    """Import trigconv from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trigconv", "__init__.py")):
        raise SystemExit(f"bench: no trigconv sources under {src}")
    sys.path.insert(0, src)
    import trigconv
    import trigconv.cli

    origin = os.path.realpath(trigconv.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bench: trigconv imported from {origin}, not {src}")
    return trigconv


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import_program(os.getcwd())
    build(workload, seed, outdir)
