import os

import pytest
from hypothesis import settings

# CI runners vary in speed: derandomize the examples and drop the per-example
# deadline there, so that a slow runner cannot fail a property test at random
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def acceptance_line(capsys):
    """Print one [PASS]/[FAIL] line per acceptance criterion, bypassing
    capture, then assert."""

    def emit(criterion: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
        assert ok, criterion

    return emit
