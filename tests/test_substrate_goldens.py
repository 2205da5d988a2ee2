"""The per-flit and default planes pinned against literals from earlier
commits.

Every other equivalence check in this suite (and the benchmark's
verification pass) recomputes its reference from the tree under test,
so an event-substrate bug that shifts the per-flit and the planned
planes alike passes them all. ``tests/substrate_goldens.json`` holds
the end cycle, every FIFO's ``(pushes, pops, max_occupancy)`` and the
trace event counts of eight small per-flit programs as measured by
``tools/substrate_goldens.py`` on the parent of the substrate rewrite;
``tests/planner_goldens.json`` holds the same for the default plane —
plus every ``PlannerStats`` field and the ordered abort guards, the
planner's host-side behaviour — as measured on the parent of the
planner split. This test re-measures both on the working tree.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import substrate_goldens  # noqa: E402

PINS = {plane: json.loads(path.read_text())
        for plane, (_config, path, _kinds) in substrate_goldens.PLANES.items()}


def test_every_program_is_pinned():
    for plane, pins in PINS.items():
        assert sorted(pins) == sorted(substrate_goldens.programs(plane))


def _assert_matches_pins(plane, name):
    got = substrate_goldens.measure(name, plane)
    want = PINS[plane][name]
    for key in want:  # cycles, events, fifos, idle_fifos (+ planner, aborts)
        assert got[key] == want[key], key
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", sorted(substrate_goldens.programs("flit")))
def test_per_flit_plane_matches_pins(name):
    _assert_matches_pins("flit", name)


@pytest.mark.parametrize("name",
                         sorted(substrate_goldens.programs("default")))
def test_default_plane_matches_pins(name):
    _assert_matches_pins("default", name)
