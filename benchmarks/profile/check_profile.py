"""Self-checks of the profile benchmark. Run explicitly::

    python -m pytest benchmarks/profile/check_profile.py

The filename deliberately does not match ``test_*.py``: the tier-1
selection and ``tools/test_counts.json`` do not see these checks.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run_profile as rp  # noqa: E402  (also puts src/ on sys.path)
from calib import CALIB_CHECKSUM, calibrate  # noqa: E402
from layers import (LAYERS, REPRO_ROOT, SPAN_SITES,  # noqa: E402
                    layers_matching)
from workloads import (WORKLOADS, Workload, make_workload,  # noqa: E402
                       pingpong_op)

from repro import NOCTUA  # noqa: E402
from repro.trace.recorder import TraceRecorder  # noqa: E402

SPEC = rp.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_module_has_exactly_one_layer():
    files = sorted(p.relative_to(REPRO_ROOT).as_posix()
                   for p in REPRO_ROOT.rglob("*.py"))
    assert files
    for relpath in files:
        matched = layers_matching(relpath)
        assert len(matched) == 1, (
            f"{relpath} maps to {matched or 'no layer'}: give it exactly "
            "one glob in layers.BUCKETS")
        assert matched[0] in LAYERS


def test_calibration_loop_is_frozen():
    assert calibrate() == CALIB_CHECKSUM


def _tiny() -> Workload:
    return Workload("tiny", NOCTUA, [pingpong_op(1, 12345)])


def test_wrappers_are_removed_after_the_passes():
    originals = [owner.__dict__[attr] for owner, attr, _ in SPAN_SITES]
    emit = TraceRecorder.emit
    ledger = rp.Ledger(_tiny())
    traced = rp.traced_pass(ledger, seconds=0.0)
    counted = rp.counts_pass(ledger)
    for (owner, attr, _), original in zip(SPAN_SITES, originals):
        assert owner.__dict__[attr] is original
    assert TraceRecorder.emit is emit
    assert traced["rounds"] == rp.MIN_ROUNDS
    assert counted["counts"]["engine.dispatches"] > 0
    # Every span closed, inside its parent, and tied to an operation.
    spans = {rec["id"]: rec for rec in traced["spans"]}
    for rec in spans.values():
        assert rec["end"] >= rec["start"] and rec["op"] >= 0
        if rec["parent"] is not None:
            parent = spans[rec["parent"]]
            assert parent["start"] <= rec["start"]
            assert rec["end"] <= parent["end"]
    # The set-up closure is closed: the self times sum to the build-only
    # time, remainder included.
    build = traced["build"]
    assert sum(build["self"].values()) == pytest.approx(
        build["inclusive"]["op"], rel=1e-9)
    assert ledger.verify()["failures"] == []


def _only_on_timed_plane(op, corrupt):
    """``op`` with ``corrupt(result)`` applied off the reference plane."""
    def run(config, max_cycles=None):
        res, outputs = op.run(config, max_cycles)
        if config.burst_mode:
            corrupt(res)
        return res, outputs
    return dataclasses.replace(op, run=run)


def test_injected_faults_count_as_failed_operations():
    good = pingpong_op(1, 7)

    def wrong_store(res):
        res.stores[(0, "echo")] += 1

    def wrong_end_cycle(res):
        res.cycles += 1

    def raising(_res):
        raise RuntimeError("kernel blew up")

    ops = [good] + [_only_on_timed_plane(pingpong_op(1, 7), fault)
                    for fault in (wrong_store, wrong_end_cycle, raising)]
    ledger = rp.Ledger(Workload("faulty", NOCTUA, ops))
    ledger.round(NOCTUA)
    verdict = ledger.verify()
    assert verdict["attempted"] == 4
    assert len(verdict["failures"]) == 3, verdict["failures"]
    assert verdict["truth_errors"] == []
    text = "\n".join(verdict["failures"])
    assert "store:0:echo" in text and "cycles" in text and "raised" in text


def test_seed_changes_inputs_but_not_the_metric_set():
    a = make_workload("stream_flit", 0)
    b = make_workload("stream_flit", 1)
    again = make_workload("stream_flit", 0)
    assert [op.name for op in a.ops] == [op.name for op in b.ops]
    assert [op.elements for op in a.ops] != [op.elements for op in b.ops]
    assert all(x.inputs != y.inputs for x, y in zip(a.ops, b.ops))
    assert [op.inputs for op in a.ops] == [op.inputs for op in again.ops]
    for x, y in zip(a.ops, b.ops):
        assert abs(x.elements - y.elements) / x.elements < 0.016
        assert x.elements % 8 == 0


@pytest.mark.parametrize("trace", [False, True])
def test_output_matches_benchmark_json(trace):
    keys = []
    for seed in (0, 1):
        result = rp.run_workload("small_msgs", seed, seconds=0.0,
                                 trace=trace, rounds=1)
        units = rp.units_for(SPEC, trace, result["metrics"])  # raises if not
        line = json.loads(rp.driver_line(result, units))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        for reading in line["metrics"].values():
            assert isinstance(reading["value"], (int, float))
        keys.append(sorted(line["metrics"]))
    assert keys[0] == keys[1]


def _tracker_pids() -> set:
    """Every live ``multiprocessing`` resource tracker on the machine."""
    pids = set()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if b"resource_tracker" in cmdline.read_bytes():
                pids.add(cmdline.parent.name)
        except OSError:     # ended while we looked
            pass
    return pids


def test_nothing_outlives_the_command():
    # The process backend's shared memory starts a resource tracker that
    # outlives its interpreter; the command must have waited for it.
    before = _tracker_pids()
    done = rp.contained(["--workload", "shard_uniform", "--seed", "0",
                         "--seconds", "0", "--rounds", "1", "--trace", "0"],
                        stdout=subprocess.PIPE, text=True)
    assert _tracker_pids() <= before
    assert done.returncode == 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/profile"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for why in WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
