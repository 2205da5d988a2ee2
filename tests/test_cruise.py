"""Cruise-mode induction: edge cases, counters, and backoff hygiene.

The cycle-exactness of cruise against the per-flit reference is pinned by
``tests/test_burst_equivalence.py`` and the fuzz sweep; this module
covers the induction's control surface — externalities ending a cruise,
the Δ-drift guard, deep-buffer park/wake races, the ``PlannerStats``
cruise counters, and the futility-backoff reset on plane (re)wiring.
"""

import numpy as np
import pytest

from repro import NOCTUA, NOCTUA_DEEP, NOCTUA_XDEEP, SMIProgram, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.datatypes import SMI_FLOAT
from repro.simulation.stats import PlannerStats, collect_planner_stats
from repro.transport import planner as planner_mod
from repro.transport.arbiter import PollingArbiter
from repro.transport.planner import SupplyPlanner


def _stream(config, n, hops, stall_at=None, stall_for=0):
    """One p2p stream; returns (end cycle, PlannerStats, transport)."""
    prog = SMIProgram(noctua_bus(), config=config)
    data = np.arange(n, dtype=np.float32)
    marks = {}

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        if stall_at is None:
            yield from ch.push_vec(data, width=8)
        else:
            yield from ch.push_vec(data[:stall_at], width=8)
            yield smi.wait(stall_for)
            yield from ch.push_vec(data[stall_at:], width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=8)
        marks["out"] = out
        marks["end"] = smi.cycle

    prog.add_kernel(snd, rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
    prog.add_kernel(rcv, rank=hops,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    np.testing.assert_array_equal(marks["out"], data)
    return marks["end"], collect_planner_stats(res.transport), res.transport


# ----------------------------------------------------------------------
# Externalities and the Δ-drift guard
# ----------------------------------------------------------------------
def test_externality_appears_mid_cruise():
    """A sender stall breaks the Δ-shift exactly where trains cruise:
    the bound scan must stop at the externality (drifted supply), fall
    back to validated replication / planning, and stay cycle-exact."""
    n = 8192
    stall = dict(stall_at=4096, stall_for=171)
    ref, _, _ = _stream(NOCTUA_DEEP.with_(burst_mode=False), n, 4, **stall)
    fast, stats, _ = _stream(NOCTUA_DEEP, n, 4, **stall)
    assert fast == ref
    assert stats.cruise_rounds > 0
    # Some scans were bounded to zero rounds (the failed inductions).
    assert stats.cruise_checks > stats.cruise_commits


def test_cruise_stop_records_externality():
    """The session diagnostics name the externality that ended each
    cruise scan (supply depth, slot budget, readiness, key drift)."""
    stops = []

    def dbg(order):
        for sess in order:
            if sess.cruise_stop is not None:
                stops.append(sess.cruise_stop[0])

    planner_mod._train_debug = dbg
    try:
        ref, _, _ = _stream(NOCTUA_DEEP.with_(burst_mode=False), 8192, 4)
        fast, stats, _ = _stream(NOCTUA_DEEP, 8192, 4)
    finally:
        planner_mod._train_debug = None
    assert fast == ref
    assert stats.cruise_checks > 0
    assert stops, "expected cruise scans to record their bounding externality"
    assert set(stops) <= {"supply", "slots", "ready", "early", "key"}


def test_delta_drift_guard_caps_cruise_bursts(monkeypatch):
    """With CRUISE_MAX_ROUNDS forced to 1, every cruise burst commits at
    most one round (each re-anchored by a validated round) and the cycle
    trajectory is unchanged."""
    ref, ref_stats, _ = _stream(NOCTUA_XDEEP, 1 << 14, 4)
    assert ref_stats.cruise_rounds > ref_stats.cruise_commits, \
        "precondition: unguarded cruise commits multi-round bursts"
    monkeypatch.setattr(planner_mod, "CRUISE_MAX_ROUNDS", 1)
    capped, stats, _ = _stream(NOCTUA_XDEEP, 1 << 14, 4)
    assert capped == ref
    assert stats.cruise_rounds == stats.cruise_commits > 0


def test_deep_buffer_park_wake_race():
    """Repeated sender stalls at deep depths park mid-pipeline CKs while
    inventories drain; the park/wake races replicate (and cruise) across
    the stall boundaries cycle-exactly."""
    n = 4096
    stall = dict(stall_at=1024, stall_for=613)
    ref, _, _ = _stream(NOCTUA_DEEP.with_(burst_mode=False), n, 4, **stall)
    fast, stats, _ = _stream(NOCTUA_DEEP, n, 4, **stall)
    assert fast == ref
    assert stats.replications > 0


# ----------------------------------------------------------------------
# PlannerStats cruise counters
# ----------------------------------------------------------------------
def test_cruise_counter_invariants_on_real_run():
    _, stats, _ = _stream(NOCTUA_XDEEP, 1 << 14, 4)
    assert stats.cruise_commits <= stats.cruise_checks
    assert stats.cruise_rounds >= stats.cruise_commits > 0
    # Every cruise round is a replicated round.
    assert stats.cruise_rounds <= stats.replicated_rounds
    assert 0.0 < stats.cruise_hit_rate <= 1.0


def test_planner_summary_renders_cruise_counters():
    from repro.harness import planner_summary

    stats = PlannerStats(attempts=4, windows=3, window_cycles=300,
                         coplans=7, pattern_checks=5, replications=4,
                         replicated_rounds=10, cruise_checks=4,
                         cruise_commits=2, cruise_rounds=6)
    line = planner_summary(stats)
    assert "cruise: 6 rounds in 2 bursts" in line
    assert "induction hit 0.50" in line
    assert "4 trains" in line


def test_cruise_counters_merge_and_properties():
    a = PlannerStats(cruise_checks=4, cruise_commits=2, cruise_rounds=10)
    b = PlannerStats(cruise_checks=1, cruise_commits=1, cruise_rounds=3)
    m = a.merge(b)
    assert (m.cruise_checks, m.cruise_commits, m.cruise_rounds) == (5, 3, 13)
    assert m.cruise_hit_rate == pytest.approx(3 / 5)
    assert PlannerStats().cruise_hit_rate == 0.0


# ----------------------------------------------------------------------
# Futility backoff reset on plane (re)wiring
# ----------------------------------------------------------------------
def test_arbiter_reset_backoff_restores_initial_state():
    from repro.simulation import Engine

    eng = Engine()
    f = eng.fifo("f", capacity=4)
    arb = PollingArbiter([f], read_burst=8)
    arb._plan_miss = 1
    arb._plan_skip = 100
    arb._plan_skip_len = 4096
    arb._rep_miss = 1
    arb._rep_skip = 99
    arb._rep_skip_len = 2048
    arb.reset_backoff()
    assert arb._plan_miss == 0 and arb._plan_skip == 0
    assert arb._plan_skip_len == PollingArbiter.PLAN_SKIP_POLLS
    assert arb._rep_miss == 0 and arb._rep_skip == 0
    assert arb._rep_skip_len == PollingArbiter.REP_SKIP_POLLS


def test_supply_planner_reset_backoff_covers_wired_cks():
    """A rebuilt plane must not inherit escalated skip lengths from an
    earlier run in the same process: ``SupplyPlanner.reset_backoff``
    (called by the builder after wiring) restores every wired arbiter."""
    _, _, transport = _stream(NOCTUA, 2048, 2)
    cks = [ck for rt in transport.ranks.values()
           for ck in list(rt.cks.values()) + list(rt.ckr.values())]
    sp = cks[0].supply_planner
    assert isinstance(sp, SupplyPlanner)
    # The run escalated backoff somewhere (idle CKs plan nothing).
    escalated = [ck for ck in cks
                 if ck.arbiter._plan_skip or ck.arbiter._rep_skip
                 or ck.arbiter._plan_skip_len
                 != PollingArbiter.PLAN_SKIP_POLLS
                 or ck.arbiter._rep_skip_len
                 != PollingArbiter.REP_SKIP_POLLS]
    assert escalated, "expected some arbiter to have escalated its backoff"
    sp.reset_backoff()
    for ck in cks:
        arb = ck.arbiter
        assert arb._plan_skip == 0 and arb._rep_skip == 0
        assert arb._plan_skip_len == PollingArbiter.PLAN_SKIP_POLLS
        assert arb._rep_skip_len == PollingArbiter.REP_SKIP_POLLS


def test_builder_resets_backoff_on_fresh_wiring():
    """Freshly built transports start from the initial backoff state
    even after other builds escalated theirs in the same process."""
    _stream(NOCTUA, 2048, 2)  # escalate somewhere, then rebuild:
    _, _, transport = _stream(NOCTUA, 64, 1)
    for rt in transport.ranks.values():
        for ck in list(rt.cks.values()) + list(rt.ckr.values()):
            # Short run: whatever state remains must be self-earned, and
            # skip lengths never exceed one escalation step per miss run.
            assert ck.arbiter._plan_skip_len <= PollingArbiter.PLAN_SKIP_MAX
