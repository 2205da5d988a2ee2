"""The event counts ``tools/engine_micro.py`` asserts in CI's
benchmark-check job, as a tier-1 check: a substrate change that adds a dispatch, a park
or a commit per item — or resumes a generator for a dispatch an
engine-side continuation answered (``resumes``: one per item for a
``park5`` arbiter, two per packet for the reduce root) — fails here,
before anybody reads seconds. So does a build that instantiates hardware
on ranks no declared flow reaches, and a replication train that
publishes per packet instead of once per FIFO a validated round touched
(``train``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import engine_micro  # noqa: E402


@pytest.mark.parametrize("name", sorted(engine_micro.LOOPS))
def test_micro_loop_event_counts(name):
    assert engine_micro.count_loop(name) == engine_micro.EXPECTED[name]


@pytest.mark.parametrize("name", sorted(engine_micro.BUILDS))
def test_build_loops_hold_only_the_reached_fabric(name):
    """The 1-hop ping-pong builds ranks 0 and 1 of the 8-rank bus, the
    1-hop torus stream ranks 0 and 1 of the torus — nothing else."""
    assert engine_micro.count_build(name) == engine_micro.EXPECTED[name]


def test_jump_land_touches_the_same_entries_at_any_span_length():
    """A time shift is O(state at the frontiers): landing 10 periods and
    landing 10 000 read and write the same list / deque entries."""
    counts = engine_micro.count_jump_land()
    assert counts == engine_micro.EXPECTED["jump_land"]
    assert len(set(counts.values())) == 1
