"""Reproducibility manifests for CLI runs.

A manifest is the JSON dict that pins everything a rerun needs: the
command line, the resolved defaults (horizons, scan ranges, grid,
tolerances), the seed, the package version, and content digests of any
file inputs.  No timestamps, hostnames, or other environment noise: two
runs with equal manifests must produce byte-identical output.
"""

from __future__ import annotations

from typing import Optional, Sequence


def build_manifest(command: Sequence[str], defaults: dict,
                   seed: Optional[int] = None,
                   input_digests: Optional[dict] = None) -> dict:
    """The manifest of one run, with keys command, defaults, seed, version
    and input_digests (input path -> sha256 hex digest of the bytes the
    run parsed)."""
    from . import __version__

    return {"command": list(command), "defaults": dict(defaults),
            "seed": seed, "version": __version__,
            "input_digests": dict(input_digests or {})}
