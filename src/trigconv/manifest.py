"""Reproducibility manifests for CLI runs.

A manifest is the JSON dict that pins everything a rerun needs: the
command line, the resolved defaults (horizons, scan ranges, grid,
tolerances), the seed, the package version, and content digests of any
file inputs.  No timestamps, hostnames, or other environment noise: two
runs with equal manifests must produce byte-identical output.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence


def file_digest(path: str) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: Sequence[str], defaults: dict,
                   seed: Optional[int] = None,
                   input_paths: Sequence[str] = ()) -> dict:
    """The manifest of one run, with keys command, defaults, seed, version
    and input_digests (input path -> sha256 hex digest)."""
    from . import __version__

    return {"command": list(command), "defaults": dict(defaults),
            "seed": seed, "version": __version__,
            "input_digests": {p: file_digest(p) for p in input_paths}}
