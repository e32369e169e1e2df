"""Command-line front end: classify, curve, verify.

Every command emits machine-readable output carrying a reproducibility
manifest (see manifest.py).  JSON goes to stdout (or --out), curves go
to CSV with a manifest sidecar, and verification additionally prints a
human-readable table to stderr.  Exit status: 0 on success (including
``premises_not_met`` verification outcomes), 1 when a verification run
reports a violated inequality, 2 on usage or input errors.  Each
``verify`` claim has a sub-parser with only the options it reads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .conditions import (
    DEFAULT_HORIZON,
    DEFAULT_WINDOWS,
    STABILIZATION_THRESHOLD,
    classify,
    resolve_horizon,
)
from .harness import (
    EQUIV_NCN_TOL,
    EQUIV_SUP_TOL,
    STATUS_VIOLATED,
    run_sector_implication_corpus,
    run_weighted_implication_corpus,
    verify_equivalence_diagnostics,
    verify_lacunary_counterexample,
)
from .manifest import build_manifest
from .sequences import (
    ANGLE_TOL,
    REL_TOL,
    CoefficientSequence,
    Sector,
    SequenceError,
    excerpt,
    sequence_from_text,
    weight_from_text,
)
from .series import convergence_curve

__all__ = ["main"]


def _parse_int_list(text: str) -> tuple:
    try:
        vals = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise SequenceError(f"bad integer list {excerpt(text)}") from exc
    if not vals:
        raise SequenceError(f"bad integer list {excerpt(text)}")
    return vals


def _parse_n_list(text: str) -> list:
    """``64,256,1024`` or ``64..4096:dyadic`` (doubling ladder, inclusive)."""
    text = text.strip()
    if text.endswith(":dyadic"):
        body = text[:-len(":dyadic")]
        lo_s, sep, hi_s = body.partition("..")
        if not sep:
            raise SequenceError(f"bad n range {excerpt(text)}")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise SequenceError(f"bad n range {excerpt(text)}") from exc
        if lo < 1 or hi < lo:
            raise SequenceError(f"bad n range {excerpt(text)}")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    return list(_parse_int_list(text))


def _sequence_from_file(path: str) -> tuple[CoefficientSequence, str]:
    """One value per line, ``re`` or ``re,im``; blank lines and ``#``
    comments are skipped.  Returns the sequence and the sha256 hex digest
    of the bytes it was parsed from.

    The file is read once: its bytes are hashed, then decoded with
    universal newlines (CR and CRLF end a line, as LF does).  When every
    line is one real number, one ``map(float, ...)`` parses it; otherwise
    a per-line loop gives the same values and line-numbered errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SequenceError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                            f"{exc.start})") from None
    del data    # before the split, whose lines hold the peak
    if "\r" in text:   # a scan for "\r\n" costs more than this one
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    try:
        values = np.fromiter(map(float, lines), dtype=float, count=len(lines))
    except ValueError:
        values = _parse_lines(path, lines)
    if not values.size:
        raise SequenceError(f"{path}: no values")
    return CoefficientSequence.explicit(values, label=f"file:{path}"), digest


def _parse_lines(path: str, lines: list) -> np.ndarray:
    """The values of ``lines`` as a complex array, or a SequenceError that
    names the first bad line."""
    values = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) == 1:
                values.append(complex(float(parts[0]), 0.0))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError(line)
        except ValueError as exc:
            raise SequenceError(
                f"{path}:{lineno}: expected `re` or `re,im`, got "
                f"{excerpt(line)}") from exc
    return np.asarray(values, dtype=complex)


def _resolve_sequence(spec: str):
    """Returns (sequence, {input file path: sha256 hex digest})."""
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        seq, digest = _sequence_from_file(path)
        return seq, {path: digest}
    return sequence_from_text(spec), {}


_TOLERANCES = {"rel_tol": REL_TOL, "angle_tol": ANGLE_TOL,
               "stabilization_threshold": STABILIZATION_THRESHOLD}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    """The one JSON format of every payload and manifest the CLI writes."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def cmd_classify(args, argv: Sequence[str]) -> int:
    seq, inputs = _resolve_sequence(args.spec)
    weight = weight_from_text(args.weight) if args.weight else None
    n0_list = _parse_int_list(args.n0)
    reports = classify(seq, horizon=args.horizon, m_max=args.m_max,
                       n0_list=n0_list, theta0=args.theta0, weight=weight)
    defaults = {
        "spec": seq.label,
        "horizon": resolve_horizon(seq, args.horizon),
        "m_max": args.m_max,
        "n0_list": list(n0_list),
        "theta0": Sector(args.theta0).theta0,
        "weight": weight.label if weight else None,
        "tolerances": _TOLERANCES,
    }
    payload = {"manifest": build_manifest(argv, defaults, input_digests=inputs),
               "reports": [r.to_json_dict() for r in reports]}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_curve(args, argv: Sequence[str]) -> int:
    seq, inputs = _resolve_sequence(args.spec)
    ns = _parse_n_list(args.n)
    curve = convergence_curve(seq, ns, N_ref=args.nref)
    defaults = {
        "spec": seq.label,
        "n_list": ns,
        "n_ref": curve.n_ref,
        "reference_horizon": curve.reference_horizon,
        "grid": curve.grid,
        "slack_settled": curve.slack_settled,
    }
    manifest = _json_text(build_manifest(argv, defaults, input_digests=inputs))
    _emit(curve.to_csv(), args.out)
    if args.out:
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(manifest)
    else:
        sys.stderr.write(manifest)
    return 0


def cmd_verify(args, argv: Sequence[str]) -> int:
    if args.theorem in ("t3", "corollary"):
        run = (run_weighted_implication_corpus if args.theorem == "t3"
               else run_sector_implication_corpus)
        outcome = run(args.seed, args.corpus_size)
        defaults = {"seed_start": args.seed, "corpus_size": args.corpus_size}
    elif args.theorem == "lacunary":
        outcome = verify_lacunary_counterexample(args.alpha)
        defaults = {"alpha": args.alpha,
                    "horizon": outcome.summary["horizon"],
                    "n0_list": outcome.summary["n0_list"],
                    "sup_threshold": outcome.summary["threshold"]}
    else:
        outcome = verify_equivalence_diagnostics()
        defaults = {"N_ref": outcome.summary["N_ref"],
                    "n_list": outcome.summary["n_list"],
                    "sup_tol": EQUIV_SUP_TOL, "ncn_tol": EQUIV_NCN_TOL}
    defaults["tolerances"] = _TOLERANCES
    payload = {"manifest": build_manifest(argv, defaults, seed=args.seed),
               "outcome": outcome.to_json_dict()}
    _emit(_json_text(payload), args.out)
    sys.stderr.write(outcome.table() + "\n")
    return 1 if outcome.status == STATUS_VIOLATED else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, so every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="trigconv",
        description="Classify coefficient sequences, estimate tail "
                    "sup-norms, and verify the implication chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        help="run every applicable condition check on a sequence")
    p.add_argument("spec",
                   help="family spec like harmonic(1.0), explicit:[...], "
                        "or file:PATH (one `re` or `re,im` per line)")
    p.add_argument("--horizon", type=int, default=None,
                   help=f"prefix length (generators default to "
                        f"{DEFAULT_HORIZON})")
    p.add_argument("--m-max", type=int, default=None, dest="m_max",
                   help="upper end of the scan range (default horizon/4)")
    p.add_argument("--n0", default=",".join(map(str, DEFAULT_WINDOWS)),
                   help="window lengths for the group-variation check")
    p.add_argument("--theta0", type=float, default=0.0,
                   help="half-angle of the sector for complex checks")
    p.add_argument("--weight", default=None, metavar="R-SPEC",
                   help="weight spec (one, const(a), power(b), log, exp2) "
                        "for the weighted checks")
    p.add_argument("--out", default=None, help="write JSON here instead "
                                               "of stdout")
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser(
        "curve", help="tail sup-norm curve against the n*c_n diagnostic")
    p.add_argument("spec")
    p.add_argument("--n", required=True,
                   help="comma list `64,256,1024` or range `64..4096:dyadic`")
    p.add_argument("--nref", type=int, default=None,
                   help="reference partial-sum index (default: the "
                        "length of finite data, else max(2^16, 64*max n))")
    p.add_argument("--out", default=None,
                   help="write CSV here (plus a .manifest.json sidecar)")
    p.set_defaults(func=cmd_curve, parser=p)

    p = sub.add_parser(
        "verify", help="run a claim-verification harness")
    # lacunary and equivalence read no seed; their manifests record 1
    p.set_defaults(func=cmd_verify, seed=1)
    claims = p.add_subparsers(dest="theorem", required=True,
                              help="which claim to verify")
    for name, size in (("t3", 50), ("corollary", 25)):
        c = claims.add_parser(name)
        c.add_argument("--seed", type=int, default=1, help="first corpus seed")
        c.add_argument("--corpus-size", type=int, default=size,
                       help="number of corpus members (default %(default)s)")
    claims.add_parser("lacunary").add_argument(
        "--alpha", type=float, default=1.0,
        help="decay exponent for the lacunary counterexample")
    claims.add_parser("equivalence")
    for c in claims.choices.values():
        c.add_argument("--out", default=None,
                       help="write JSON here instead of stdout")
        c.set_defaults(parser=c)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:   # rejected with the usage of the command or claim they follow
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args, argv)
    except (SequenceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: "
                         f"{str(exc) or 'allocation failed'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
