"""The event counts ``tools/engine_micro.py`` asserts in the perf-smoke
job, as a tier-1 check: a substrate change that adds a dispatch, a park
or a commit per item fails here, before anybody reads seconds."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import engine_micro  # noqa: E402


@pytest.mark.parametrize("name", sorted(engine_micro.LOOPS))
def test_micro_loop_event_counts(name):
    assert engine_micro.count_loop(name) == engine_micro.EXPECTED[name]
