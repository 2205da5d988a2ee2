"""Tests for the benchmark harness: reporting, paper data, runners, CLI."""

import math

import pytest

from repro.core.config import NOCTUA, NOCTUA_DEEP
from repro.harness import (
    Comparison,
    SweepPoint,
    bandwidth_sweep,
    collective_sweep,
    format_table,
    host_bandwidth_sweep,
    host_collective_sweep,
    measure_injection_cycles,
    paperdata,
)
from repro.harness.cli import EXPERIMENTS, main as cli_main
from repro.network.topology import noctua_torus


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], [333, "x"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    # All data rows have the same width.
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1


def test_format_table_number_formatting():
    text = format_table(["v"], [[1234567.0], [0.123456], [12.3456], [0]])
    assert "1,234,567" in text
    assert "0.123" in text
    assert "12.3" in text


def test_comparison_ratios():
    cmp = Comparison("t", "us")
    cmp.add("a", 10.0, 20.0)
    cmp.add("b", 5.0, 5.0)
    cmp.add("c", "n/a", 1.0)
    rows = cmp.ratio_rows()
    assert rows[0][3] == "2.00x"
    assert rows[1][3] == "1.00x"
    assert rows[2][3] == "-"
    assert cmp.max_abs_log_ratio() == pytest.approx(1.0)  # log2(2)


def test_comparison_render_contains_units():
    cmp = Comparison("Latency", "us")
    cmp.add("x", 1.0, 1.1)
    text = cmp.render()
    assert "paper [us]" in text and "measured [us]" in text


def test_dispatch_summary_renders_the_engine_counters():
    from types import SimpleNamespace

    from repro.harness import dispatch_summary
    from repro.simulation import Engine

    assert dispatch_summary(Engine()) == \
        "engine: 0 of 0 dispatches resumed no generator"
    assert dispatch_summary(SimpleNamespace(steps=4002, elided_steps=2000)) \
        == "engine: 2,000 of 4,002 dispatches resumed no generator"


@pytest.mark.parametrize("peer, line", [
    (1, "built 2 of 8 ranks — 6 processes, 18 FIFOs; 6 ranks reached by "
        "no declared flow"),
    (None, "built 8 of 8 ranks — 28 processes, 70 FIFOs; 0 ranks reached "
           "by no declared flow"),
])
def test_fabric_summary_counts_the_reached_fabric(peer, line):
    """A 1-hop ping-pong on the 8-rank bus: with its peers declared it
    builds ranks 0 and 1 only; without, the whole bus — and the counts
    are the engine's own (the kernels add two processes, no FIFO)."""
    from repro import SMI_INT, OpDecl, SMIProgram, noctua_bus
    from repro.harness import fabric_summary

    def kernel(smi):
        return
        yield  # pragma: no cover

    prog = SMIProgram(noctua_bus())
    prog.add_kernel(kernel, rank=0, ops=[OpDecl("send", 0, SMI_INT, peer=peer),
                                         OpDecl("recv", 1, SMI_INT, peer=peer)])
    prog.add_kernel(kernel, rank=1, ops=[OpDecl("recv", 0, SMI_INT, peer=0),
                                         OpDecl("send", 1, SMI_INT, peer=0)])
    res = prog.run(max_cycles=0)
    assert fabric_summary(res.transport, prog.topology) == line
    assert line.startswith(f"built {len(res.transport.ranks)} of 8 ranks — "
                           f"{len(res.engine.processes) - 2} processes, "
                           f"{len(res.engine.fifos)} FIFOs")


def test_planner_summary_renders_replication_counters():
    from repro.harness import planner_summary
    from repro.simulation.stats import PlannerStats

    stats = PlannerStats(attempts=4, windows=3, window_cycles=300,
                         coplans=7, pattern_checks=5, replications=4,
                         replicated_rounds=10)
    line = planner_summary(stats)
    assert "hit 0.75" in line and "coplans 7" in line
    assert "replication: 4 trains x 2.50 rounds (hit 0.80)" in line
    assert "cruise" not in line


def test_planner_summary_renders_macro_segment():
    from repro.harness import planner_summary
    from repro.simulation.stats import PlannerStats

    stats = PlannerStats(ff_cycles=5000, ff_jumps=2, ff_chain_hops=16)
    line = planner_summary(stats)
    assert "macro: 2 jumps x 8.0 relay sessions over 5,000cy" in line
    # Runs that never fast-forwarded stay silent about macro.
    assert "macro" not in planner_summary(PlannerStats())


def test_planner_summary_explains_a_run_that_probed_without_arming():
    """The silent no-arm outcomes render as a verdict, not as nothing."""
    from repro.harness import planner_summary
    from repro.simulation.stats import PlannerStats

    line = planner_summary(PlannerStats(ff_misses=7,
                                        ff_miss_reason="no period"))
    assert "macro: probing, no period (7 trains)" in line
    line = planner_summary(PlannerStats(
        ff_misses=3, ff_miss_reason="unresolved — consumer not joined"))
    assert "macro: probing, unresolved — consumer not joined (3 trains)" \
        in line
    # Early misses of a run that armed later are not the story.
    armed = PlannerStats(ff_misses=3, ff_miss_reason="no period",
                         ff_cycles=1, ff_jumps=1, ff_chain_hops=2)
    assert "probing" not in planner_summary(armed)
    merged = PlannerStats(ff_misses=2, ff_miss_reason="no period").merge(
        PlannerStats(ff_misses=5, ff_miss_reason="unresolved — x"))
    assert (merged.ff_misses, merged.ff_miss_reason) == (7, "no period")


# ----------------------------------------------------------------------
# Paper data integrity
# ----------------------------------------------------------------------
def test_paperdata_table3_values():
    assert paperdata.TABLE3_LATENCY_US["SMI-1"] == 0.801
    assert paperdata.TABLE3_LATENCY_US["MPI+OpenCL"] == 36.61


def test_paperdata_fig15_consistency():
    # Speedups and times must be mutually consistent (t0 / t = speedup).
    base = paperdata.FIG15_STRONG_SCALING["1 bank/1 FPGA"]["time_ms"]
    for label, row in paperdata.FIG15_STRONG_SCALING.items():
        implied = base / row["time_ms"]
        assert implied == pytest.approx(row["speedup"], rel=0.15), label


def test_paperdata_fig9_peaks():
    assert paperdata.FIG9_PAYLOAD_PEAK_GBITS == pytest.approx(
        paperdata.FIG9_QSFP_PEAK_GBITS * 28 / 32
    )
    assert paperdata.FIG9_SMI_PLATEAU_GBITS == pytest.approx(31.85)


def test_paperdata_fig16_8ranks_faster():
    for size in paperdata.FIG16_GRID_SIZES:
        assert (paperdata.FIG16_NS_PER_POINT_8RANKS[size]
                < paperdata.FIG16_NS_PER_POINT_4RANKS[size])


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def test_bandwidth_sweep_marks_sources():
    """Every Fig. 9 point is simulated; a 16 MiB stream saturates near
    the 35 Gbit/s payload peak at any distance (§5.3.1)."""
    sizes = [1024, 16 << 20]
    one, seven = (bandwidth_sweep(sizes, hops=h) for h in (1, 7))
    assert all(p.source == "sim" for p in one + seven)
    peak = paperdata.FIG9_PAYLOAD_PEAK_GBITS
    assert 0.9 * peak < one[1].value <= peak
    assert one[0].value < one[1].value
    assert seven[1].value == pytest.approx(one[1].value, rel=0.01)


def test_injection_gap_r1_is_the_five_input_poll():
    """R = 1 at a CKS polling five inputs accepts one packet every
    (R + 4) / R = 5 cycles (Table 4)."""
    assert measure_injection_cycles(1) == pytest.approx(5.0, abs=0.01)


def test_host_bandwidth_sweep_monotone():
    points = host_bandwidth_sweep([2**k for k in range(10, 24, 4)])
    values = [p.value for p in points]
    assert values == sorted(values)
    assert all(p.source == "host-model" for p in points)


def test_collective_sweep_sim_and_model_continuity():
    """Sim and model points on either side of the threshold must line up
    (no discontinuity in the published curves)."""
    top = noctua_torus()
    sizes = [2048, 4096]
    sim_pts = collective_sweep("bcast", sizes, top, 8,
                               sim_limit_elements=1 << 20)
    model_pts = collective_sweep("bcast", sizes, top, 8,
                                 sim_limit_elements=0)
    for s, m in zip(sim_pts, model_pts):
        assert m.value == pytest.approx(s.value, rel=0.3), (s, m)


def test_collective_sweep_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown collective"):
        collective_sweep("alltoall", [4], noctua_torus(), 8)


def test_host_collective_sweep_kinds():
    b = host_collective_sweep("bcast", [1024], 8)[0].value
    r = host_collective_sweep("reduce", [1024], 8)[0].value
    assert r >= b  # reduce adds combine time


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lists_every_experiment():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4",
        "fig9", "fig10", "fig11", "fig13", "fig15", "fig16",
    }


def test_cli_runs_fast_experiments(capsys):
    assert cli_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert cli_main(["fig16"]) == 0
    out = capsys.readouterr().out
    assert "weak scaling" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli_main(["fig99"])


def _received_configs(monkeypatch, *argvs):
    """Run the CLI on each argv; returns what ``run_experiment`` received."""
    from repro.harness import cli

    calls = []
    monkeypatch.setattr(
        cli, "run_experiment",
        lambda name, config, full, trace_out:
        calls.append((name, config, full, trace_out)))
    for argv in argvs:
        assert cli_main(list(argv)) == 0
    return calls


def test_cli_macro_cruise_round_trip(monkeypatch):
    """Every flag lands on the one config object ``run_experiment`` gets."""
    ((name, cfg, full, trace_out),) = _received_configs(monkeypatch, (
        "fig9", "--preset", "noctua-deep", "--no-macro-cruise", "--full",
        "--backend", "process", "--shards", "4", "--trace", "t.json"))
    assert name == "fig9" and full and trace_out == "t.json"
    assert cfg == NOCTUA_DEEP.with_(macro_cruise=False, trace=True,
                                    backend="process", shards=4)
    ((_, cfg, full, trace_out),) = _received_configs(
        monkeypatch, ("fig9", "--backend", "sharded"))
    assert cfg == NOCTUA.with_(backend="sharded", shards=2)
    assert cfg.macro_cruise and not full and trace_out is None


def test_cli_macro_cruise_cleared_without_flag(monkeypatch):
    """Back-to-back in-process invocations share nothing: an earlier
    ``--no-macro-cruise --trace`` must not leak into a later plain run
    (which gets the fast-forward back, it being the default)."""
    (_, off, _, _), (_, cfg, _, trace_out) = _received_configs(
        monkeypatch, ("table3", "--no-macro-cruise", "--trace", "t.json"),
        ("table3",))
    assert not off.macro_cruise and off.trace
    assert cfg == NOCTUA and cfg.macro_cruise and trace_out is None


def test_cli_hands_config_down_without_touching_environ(tmp_path, capsys):
    """End to end: the table is printed on the requested plane, the
    trace file is written, and ``os.environ`` is exactly as it was."""
    import json
    import os

    out = tmp_path / "t.json"
    before = dict(os.environ)
    assert cli_main(["table3", "--preset", "noctua-deep",
                     "--trace", str(out)]) == 0
    assert "Table 3" in capsys.readouterr().out
    assert json.loads(out.read_text())["traceEvents"]
    assert dict(os.environ) == before
