"""The per-flit plane pinned against literals from an earlier commit.

Every other equivalence check in this suite (and the benchmark's
verification pass) recomputes its reference from the tree under test,
so an event-substrate bug that shifts the per-flit and the planned
planes alike passes them all. ``tests/substrate_goldens.json`` holds
the end cycle, every FIFO's ``(pushes, pops, max_occupancy)`` and the
trace event counts of eight small per-flit programs as measured by
``tools/substrate_goldens.py`` on the parent of the substrate rewrite;
this test re-measures them on the working tree.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import substrate_goldens  # noqa: E402

PINS = json.loads(substrate_goldens.GOLDENS.read_text())


def test_every_program_is_pinned():
    assert sorted(PINS) == sorted(substrate_goldens.PROGRAMS)


@pytest.mark.parametrize("name", sorted(substrate_goldens.PROGRAMS))
def test_per_flit_plane_matches_pins(name):
    got = substrate_goldens.measure(name)
    want = PINS[name]
    assert got["cycles"] == want["cycles"]
    assert got["events"] == want["events"]
    assert got["fifos"] == want["fifos"]
    assert got["idle_fifos"] == want["idle_fifos"]
