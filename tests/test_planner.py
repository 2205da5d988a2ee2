"""Unit tests for the supply-schedule planner subsystem.

Covers the contract primitives (producer registration, sleep horizons,
process floors, exact occupancy), the cascade behaviours (co-planning
across CK boundaries, planner statistics on real transports), trains
across sender stalls at deep buffers, the plan-miss backstop's state on a
fresh build and the structure contract. The cycle-exactness of everything
the planner commits is enforced separately by
``tests/test_burst_equivalence.py``.
"""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import NOCTUA, NOCTUA_DEEP, SMI_FLOAT, SMIProgram, bus, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.ops import SMI_ADD
from repro.simulation import Engine, TICK, WaitCycles
from repro.simulation.engine import FOREVER
from repro.simulation.stats import PlannerStats, collect_planner_stats
from repro.transport import ck as ck_mod
from repro.transport.arbiter import PollingArbiter
from repro.transport.planner import SupplyPlanner
from repro.transport.planner_window import plan_window


# ----------------------------------------------------------------------
# Supply horizons and process floors
# ----------------------------------------------------------------------
def test_supply_horizon_unregistered_is_handoff_latency():
    eng = Engine()
    f = eng.fifo("f", capacity=4, latency=3)
    assert f.supply_horizon() == eng.cycle + 3


def test_supply_horizon_flow_dead_is_forever():
    eng = Engine()
    f = eng.fifo("f", capacity=4)
    f.flow_dead = True
    assert f.supply_horizon() == FOREVER


def test_supply_horizon_sleeping_producer():
    """A producer sleeping on WaitCycles provably stages nothing before
    its wake, so the horizon is its wake cycle plus the FIFO latency."""
    eng = Engine()
    f = eng.fifo("f", capacity=4, latency=2)

    def producer():
        yield WaitCycles(100)
        f.stage("late")
        yield TICK

    proc = eng.spawn(producer(), "producer")
    f.register_producer(proc)

    horizons = {}

    def observer():
        yield TICK  # let the producer enter its sleep
        horizons["at1"] = f.supply_horizon()

    eng.spawn(observer(), "observer")
    eng.run()
    assert horizons["at1"] == 100 + 2


def test_supply_horizon_finished_producer_is_forever():
    eng = Engine()
    f = eng.fifo("f", capacity=4)

    def producer():
        f.stage("only")
        yield TICK

    proc = eng.spawn(producer(), "producer")
    f.register_producer(proc)
    marks = {}

    def consumer():
        v = yield from f.pop()
        marks["v"] = v
        yield WaitCycles(5)
        marks["horizon"] = f.supply_horizon()

    eng.spawn(consumer(), "consumer")
    eng.run()
    assert marks["v"] == "only"
    assert marks["horizon"] == FOREVER


def test_process_floor_recurses_through_parked_chain():
    """B parked on a FIFO fed only by sleeping A cannot run before A's
    wake propagates through the handoff, so a FIFO produced by B gets a
    transitive producer-sleep horizon."""
    eng = Engine()
    a2b = eng.fifo("a2b", capacity=4, latency=2)
    b2c = eng.fifo("b2c", capacity=4, latency=3)

    def proc_a():
        yield WaitCycles(50)
        a2b.stage("x")
        yield TICK

    def proc_b():
        v = yield from a2b.pop()
        while not b2c.writable:
            yield b2c.can_push
        b2c.stage(v)
        yield TICK

    pa = eng.spawn(proc_a(), "A")
    pb = eng.spawn(proc_b(), "B")
    a2b.register_producer(pa)
    b2c.register_producer(pb)
    marks = {}

    def observer():
        yield TICK  # A asleep, B parked on a2b.can_pop
        # B's floor: a2b readable no earlier than 50 + 2.
        marks["floor_b"] = eng.process_floor(pb)
        marks["horizon_b2c"] = b2c.supply_horizon()

    eng.spawn(observer(), "observer")
    eng.run()
    assert marks["floor_b"] == 52
    assert marks["horizon_b2c"] == 52 + 3


def test_foreign_producer_tripwire():
    """Once a producer set is registered, a stage from any other process
    must fail loudly instead of silently invalidating planner horizons."""
    from repro.core.errors import SimulationError

    eng = Engine()
    f = eng.fifo("f", capacity=4)

    def legit():
        f.stage("ok")
        yield TICK

    def rogue():
        yield TICK
        f.stage("bad")
        yield TICK

    proc = eng.spawn(legit(), "legit")
    f.register_producer(proc)
    eng.spawn(rogue(), "rogue")
    with pytest.raises(SimulationError, match="not in the registered"):
        eng.run()


# ----------------------------------------------------------------------
# Exact occupancy (time-indexed delta log)
# ----------------------------------------------------------------------
def test_max_occupancy_exact_with_future_events():
    """Burst commits dated in the future count only once the clock
    reaches them, and same-cycle stage/take events net out."""
    eng = Engine()
    f = eng.fifo("f", capacity=8, latency=1)
    marks = {}

    def producer():
        f.stage_burst(list(range(4)), [0, 1, 2, 3])
        marks["at_commit"] = f.max_occupancy  # only cycle-0 stage counts
        yield WaitCycles(10)
        marks["later"] = f.max_occupancy

    def consumer():
        yield WaitCycles(6)
        # Take two items in the same cycle-span the producer staged them:
        f.take_burst([6, 7])
        yield TICK

    eng.spawn(producer(), "p")
    eng.spawn(consumer(), "c")
    eng.run()
    assert marks["at_commit"] == 1
    assert marks["later"] == 4


def test_max_occupancy_same_cycle_netting():
    eng = Engine()
    f = eng.fifo("f", capacity=4, latency=1)

    def flow():
        f.stage("a")          # cycle 0: +1
        yield TICK
        f.stage("b")          # cycle 1: +1 (occ 2)
        yield TICK
        v = f.take()          # cycle 2: -1 ...
        assert v == "a"
        f.stage("c")          # ... and +1 in the same cycle: net 2
        yield TICK

    eng.spawn(flow(), "flow")
    eng.run()
    assert f.max_occupancy == 2


# ----------------------------------------------------------------------
# Cascade behaviour on real transports
# ----------------------------------------------------------------------
def _stream_program(hops, n, config, stall_at=None, stall_for=0):
    """One p2p stream, optionally with a sender stall mid-message."""
    prog = SMIProgram(noctua_bus(), config=config)
    data = np.arange(n, dtype=np.float32)

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
        np.testing.assert_array_equal(out, data)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT,
                                             peer=hops)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT,
                                                peer=0)])
    res = prog.run(max_cycles=10_000_000)
    assert res.completed, res.reason
    return res


def test_cascade_coplans_multihop_stream():
    """On a multi-hop stream the cascade must plan across CK boundaries:
    windows committed for parked/sleeping peer CKs from another CK's
    engine event. Measured without macro-cruise: there the endpoints'
    capacity backpressures the chain, so the origin's window is extended
    in-event once its consumers free slots. With it, the app lanes keep
    both end CKs' windows from ending on an endpoint, and this program
    extends no window."""
    res = _stream_program(4, 4096, NOCTUA.with_(macro_cruise=False))
    stats = collect_planner_stats(res.transport)
    assert stats.windows > 0
    assert stats.coplans > 0, "no cross-CK co-planning happened"
    assert stats.extensions > 0, "no window was ever extended in-event"
    assert stats.takes > 4096 // SMI_FLOAT.elements_per_packet
    assert stats.mean_window > 1.0


def test_equivalence_under_tiny_snapshot(monkeypatch):
    """Truncated snapshots must stay cycle-exact: with more items present
    beyond the cut, "drained" never means "unreadable", and no horizon
    (not even a producer-sleep one) may let a plan park past a
    physically present item. A snapshot depth of 2 forces truncation on
    every multi-item input."""
    import repro.transport.planner_window as planner_mod

    ref = _stream_program(3, 1024, NOCTUA.with_(burst_mode=False))
    monkeypatch.setattr(planner_mod, "PLAN_SNAPSHOT", 2)
    fast = _stream_program(3, 1024, NOCTUA.with_(burst_mode=True))
    assert fast.cycles == ref.cycles
    ref_occ = {n_: s["max_occupancy"]
               for n_, s in ref.engine.fifo_stats().items()}
    fast_occ = {n_: s["max_occupancy"]
                for n_, s in fast.engine.fifo_stats().items()}
    assert fast_occ == ref_occ


def test_planner_idle_without_burst_mode():
    res = _stream_program(2, 256, NOCTUA.with_(burst_mode=False))
    stats = collect_planner_stats(res.transport)
    assert stats.attempts == 0
    assert stats.windows == 0


def test_collective_workload_planner_hit_rate():
    """The planner's hit rate on a collective-only program is zero by
    construction since ISSUE 21: it declares no point-to-point route,
    so none of its CKs is built with a planner hook (planning collective
    traffic through producer-sleep horizons hit 0.04-0.08 and never
    paid; a routed CK beside collective traffic still plans, see
    ``tests/test_engagement.py::test_long_stream_beside_a_bcast``)."""
    n = 256
    num_ranks = 4
    prog = SMIProgram(noctua_bus(), config=NOCTUA.with_(burst_mode=True))

    def kernel(smi):
        comm = smi.comm_world.sub(list(range(num_ranks)))
        if not comm.contains(smi.rank):
            return
            yield  # pragma: no cover
        chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0, comm)
        for i in range(n):
            yield from chan.reduce(float(smi.rank + i))

    prog.add_kernel(kernel, ranks="all",
                    ops=[OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)])
    res = prog.run(max_cycles=10_000_000)
    assert res.completed, res.reason
    stats = collect_planner_stats(res.transport)
    assert stats.attempts == stats.coplans == stats.takes == 0
    assert stats.cks_off_route == stats.cks > 0


# ----------------------------------------------------------------------
# Trains across sender stalls at deep buffers
# ----------------------------------------------------------------------
def test_externality_appears_mid_train():
    """A sender stall breaks the Δ-shift exactly where deep-buffer
    trains run many rounds: validation must stop at the externality
    (drifted supply), fall back to planning, and stay cycle-exact."""
    n = 8192
    stall = dict(stall_at=4096, stall_for=171)
    ref = _stream_program(4, n, NOCTUA_DEEP.with_(burst_mode=False), **stall)
    fast = _stream_program(4, n, NOCTUA_DEEP, **stall)
    assert fast.cycles == ref.cycles
    assert collect_planner_stats(fast.transport).replications > 0


def test_deep_buffer_park_wake_race():
    """Repeated sender stalls at deep depths park mid-pipeline CKs while
    inventories drain; the park/wake races replicate across the stall
    boundaries cycle-exactly."""
    n = 4096
    stall = dict(stall_at=1024, stall_for=613)
    ref = _stream_program(4, n, NOCTUA_DEEP.with_(burst_mode=False), **stall)
    fast = _stream_program(4, n, NOCTUA_DEEP, **stall)
    assert fast.cycles == ref.cycles
    assert collect_planner_stats(fast.transport).replications > 0


# ----------------------------------------------------------------------
# Plan-miss backstop state on a fresh build
# ----------------------------------------------------------------------
def test_builder_resets_backoff_on_fresh_wiring():
    """Freshly built transports start from the initial backoff state
    even after other builds escalated theirs in the same process."""
    _stream_program(2, 2048, NOCTUA)  # escalate somewhere, then rebuild:
    transport = _stream_program(1, 64, NOCTUA).transport
    for rt in transport.ranks.values():
        for ck in list(rt.cks.values()) + list(rt.ckr.values()):
            # Short run: whatever state remains must be self-earned, and
            # skip lengths never exceed one escalation step per miss run.
            assert ck.arbiter._plan_skip_len <= PollingArbiter.PLAN_SKIP_MAX


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def test_planner_stats_merge_and_rates():
    a = PlannerStats(attempts=4, windows=2, window_cycles=60, takes=20)
    b = PlannerStats(attempts=1, windows=1, window_cycles=40, takes=12,
                     extensions=1, coplans=2)
    m = a.merge(b)
    assert m.attempts == 5 and m.windows == 3
    assert m.hit_rate == pytest.approx(3 / 5)
    # 3 windows + 1 extension + 2 coplans committed 100 cycles total.
    assert m.mean_window == pytest.approx(100 / 6)
    assert PlannerStats().hit_rate == 0.0
    assert PlannerStats().mean_window == 0.0


def _primes():
    n = 1
    while True:
        n += 1
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            yield n


def test_planner_stats_merge_is_fieldwise():
    """Every field folds under its own name: with a distinct prime in
    every field of both operands, a shifted or dropped argument cannot
    produce the field-wise sum. The reason string folds
    first-non-empty-wins. Like ``trace.metrics.merge_snapshots`` (whose
    docstring leans on this), ``merge`` is a pure fold with the empty
    instance as identity."""
    from repro.trace.metrics import merge_snapshots

    names = [f.name for f in dataclasses.fields(PlannerStats)]
    counters = [n for n in names if not n.endswith("_reason")]
    reasons = [n for n in names if n.endswith("_reason")]
    assert len(reasons) == 1 and len(counters) == len(names) - 1
    gen = _primes()
    a = PlannerStats(**{n: next(gen) for n in counters},
                     **{n: "" for n in reasons})
    b = PlannerStats(**{n: next(gen) for n in counters},
                     **{n: f"b's {n}" for n in reasons})
    before = (dataclasses.asdict(a), dataclasses.asdict(b))
    m = a.merge(b)
    for n in counters:
        assert getattr(m, n) == getattr(a, n) + getattr(b, n), n
    for n in reasons:
        assert getattr(m, n) == f"b's {n}", n
        assert getattr(b.merge(a), n) == f"b's {n}", n
        assert getattr(b.merge(dataclasses.replace(a, **{n: "late"})), n) \
            == f"b's {n}", n
    assert (dataclasses.asdict(a), dataclasses.asdict(b)) == before
    assert PlannerStats().merge(a) == a == a.merge(PlannerStats())
    snap = {"occ": [(0, 1.0), (4096, 2.0)]}
    assert merge_snapshots({}, snap) == snap == merge_snapshots(snap, {})
    # benchmarks/profile/run_profile.py still reads the deleted cruise
    # tier's two rows: constant zero, not fields, not writable.
    assert (m.cruise_rounds, m.cruise_hit_rate) == (0, 0.0)
    assert not {"cruise_rounds", "cruise_hit_rate"} & set(names)
    with pytest.raises(AttributeError):
        m.cruise_rounds = 1


def test_planner_stats_replication_counters():
    a = PlannerStats(pattern_checks=4, replications=2, replicated_rounds=10)
    b = PlannerStats(pattern_checks=1, replications=1, replicated_rounds=1,
                     windows=1, attempts=1, window_cycles=32)
    m = a.merge(b)
    assert m.pattern_checks == 5
    assert m.replications == 3
    assert m.replicated_rounds == 11
    assert m.replication_hit_rate == pytest.approx(3 / 5)
    assert m.mean_train_rounds == pytest.approx(11 / 3)
    # Replicated trains count as committed windows for mean_window.
    assert m.mean_window == pytest.approx(32 / 4)
    assert PlannerStats().replication_hit_rate == 0.0
    assert PlannerStats().mean_train_rounds == 0.0


# ----------------------------------------------------------------------
# Structure: the closure nest cannot grow back, and the names the
# profile benchmark attributes planner time by stay where it looks
# ----------------------------------------------------------------------
def test_planner_structure_contract():
    """``benchmarks/profile/layers.py`` splits planner time by the
    innermost frame named ``plan_window`` / ``replicate_train`` /
    ``ff_*`` *within the innermost planner frame's own file*: so each
    entry name has one definition, ``replicate_train`` shares a file with
    the train methods it calls, and every ``ff_`` / ``_ff_`` name lives
    in ``planner_ff.py``. And the train is an object: no closure nest
    under ``replicate_train``, no ``nonlocal``, no 1 000-line function.
    Since ISSUE 23 also what is *not* there: no replication backoff
    (``REP_`` / ``_rep_``), no untraced window, no mid-run write to the
    planner's plane, and one routing step behind both ``_route`` methods
    and the builder's single route walk.
    Checked on the AST, then on the frames a jumping stream enters."""
    import repro.transport

    defs: dict = {}       # function name -> [(file, node)]
    ff_homes = set()      # files defining an ff_/_ff_ name
    for path in sorted(Path(repro.transport.__file__).parent
                       .glob("planner*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Nonlocal), path.name
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((path.name, node))
                assert node.end_lineno - node.lineno < 350, \
                    (path.name, node.name)
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            if any(n.startswith(("ff_", "_ff_")) for n in names):
                ff_homes.add(path.name)
    for name in ("plan_window", "replicate_train", "validate_round"):
        assert len(defs[name]) == 1, (name, defs.get(name))
    (train_file, train), = defs["replicate_train"]
    assert defs["validate_round"][0][0] == train_file
    nested = [n.name for n in ast.walk(train) if n is not train
              and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert not nested, nested
    assert ff_homes == {"planner_ff.py"}, ff_homes

    # ISSUE 23: engagement is the only when-to-plan policy, and the
    # routing decision has one definition.
    stores: dict = {}     # attribute name -> {(file, function) storing it}
    calls: dict = {}      # callee name -> {(file, function) calling it}
    for path in sorted(Path(repro.transport.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for field in ("id", "attr", "name", "arg"):
                name = getattr(node, field, None)
                assert not (isinstance(name, str)
                            and name.startswith(("REP_", "_rep_"))), \
                    (path.name, name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    stores.setdefault(node.attr, set()).add(
                        (path.name, func.name))
                elif isinstance(node, ast.Call):
                    callee = getattr(node.func, "id",
                                     getattr(node.func, "attr", None))
                    calls.setdefault(callee, set()).add(
                        (path.name, func.name))
    (_file, window), = defs["plan_window"]
    assert "trace" not in [a.arg for a in window.args.args
                           + window.args.kwonlyargs]
    assert "trace" not in inspect.signature(plan_window).parameters
    # The plane is chosen at construction: nothing flips it mid-run.
    assert stores["macro"] == {("planner.py", "__init__")}
    assert "macro" in inspect.signature(SupplyPlanner).parameters
    # One routing step, followed by the CKs' shared ``_route`` and by the
    # builder's one walk (the only builder function that hops a link).
    assert calls["route_step"] == {("ck.py", "_route"),
                                   ("builder.py", "_walk_routes")}
    assert calls["_target"] == calls["route_step"]
    assert {fn for file, fn in calls["peer"] if file == "builder.py"} \
        == {"_walk_routes"}
    ck_tree = ast.parse(Path(ck_mod.__file__).read_text(encoding="utf-8"))
    route_methods = {cls.name: fn for cls in ck_tree.body
                     if isinstance(cls, ast.ClassDef) for fn in cls.body
                     if isinstance(fn, ast.FunctionDef)
                     and fn.name == "_route"}
    assert set(route_methods) == {"_CommKernel"}
    assert ck_mod.CKS._route is ck_mod.CKR._route
    for fn in route_methods.values():
        assert any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "route_step"
                   for node in ast.walk(fn)), fn.lineno

    # At runtime: a stream that jumps enters every frame the profile
    # attributes by, each from the planner file that defines it.
    wanted = {"plan_window", "replicate_train", "validate_round", "ff_apply"}
    seen: dict = {}

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name in wanted:
            seen.setdefault(frame.f_code.co_name, set()).add(
                frame.f_code.co_filename)

    sys.setprofile(profiler)
    try:
        res = _stream_program(4, 1 << 15, NOCTUA)
    finally:
        sys.setprofile(None)
    assert collect_planner_stats(res.transport).ff_jumps >= 1
    assert set(seen) == wanted, seen
    for name, files in seen.items():
        (home, _node), = defs[name]
        assert all(f.endswith(f"/transport/{home}") for f in files), \
            (name, files)  # ``home`` matched transport/planner*.py above
