"""The CLI run list, run in-process.

    python tests/_cli_runs.py OUTDIR

writes coeffs.txt into OUTDIR, then runs the seven commands of the
README's CLI block (readme1..readme7) and every line of tests/cli_runs.txt
through trigconv.cli.main with OUTDIR as the working directory.  Each
command's stdout, stderr and exit code go to NAME.out, NAME.err and NAME.rc
beside the files the commands write: the tree that the fresh-process loop
of the CI workflow writes for one hash seed.  The hash seed is the
caller's PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shlex
import sys

from trigconv.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
# c_k = 1/k^2 for k = 1..4096, the file:coeffs.txt of the commands
COEFFS = "".join(f"{1.0 / k ** 2!r}\n" for k in range(1, 4097))


def runs() -> list[tuple[str, int, str]]:
    """(name, expected exit code, command) of each README command, then of
    each line of the run list, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## CLI"):readme.index("## Tests")]
    commands = [line for line in section.splitlines()
                if line.startswith("trigconv ")]
    out = [(f"readme{i}", 0, line) for i, line in enumerate(commands, 1)]
    text = (ROOT / "tests" / "cli_runs.txt").read_text(encoding="utf-8")
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, want, command = line.split("|", 2)
            out.append((name, int(want), command))
    return out


def run_one(command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``trigconv ...`` command line."""
    argv = shlex.split(command)
    if argv[0] != "trigconv":
        raise ValueError(f"not a trigconv command: {command!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv[1:])
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_all(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    pathlib.Path("coeffs.txt").write_text(COEFFS, encoding="utf-8")
    for name, _, command in runs():
        code, out, err = run_one(command)
        for suffix, text in ((".out", out), (".err", err),
                             (".rc", f"{code}\n")):
            pathlib.Path(name + suffix).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    run_all(sys.argv[1])
