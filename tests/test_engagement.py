"""Planner engagement: who is asked to plan, and when (ISSUE 21).

A CK consults the supply planner only while a declared point-to-point
lane can still pay: off every declared route it has no planner hook at
all (static), on a route it attempts a plan only while a long vector
lane is registered (``SupplyPlanner.live``), and windows that never
become trains back it off (``PollingArbiter.PLAN_MISS_LIMIT``). Every
check here is a count, never a timing; the programs are the repo
benchmark's own ``small_msgs`` / ``collectives`` shapes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (NOCTUA, NOCTUA_DEEP, SMI_FLOAT, OpDecl, SMIProgram,
                   noctua_bus, noctua_torus)
from repro.harness import planner_summary
from repro.simulation.stats import collect_planner_stats
from repro.transport.arbiter import PollingArbiter
from repro.transport.planner import (LANE_LIVE_MIN, PATTERN_MAX_PERIOD,
                                     SupplyPlanner)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "profile"))
sys.path.insert(0, str(ROOT / "tools"))

import workloads  # noqa: E402
from substrate_goldens import counted_emits  # noqa: E402

SMALL = workloads.make_workload("small_msgs", 0)
SMALL_OPS = {op.name: op for op in SMALL.ops}     # the 11 program shapes
COLLECTIVES = workloads.make_workload("collectives", 0)
STAY_OUT = ["pingpong_1hop", "pingpong_4hop", "pingpong_7hop",
            "bcast_64", "reduce_64"]


def _planes(preset):
    return {"flit": preset.with_(burst_mode=False),
            "burst": preset.with_(macro_cruise=False),
            "default": preset}


def test_the_allowance_is_the_detector_s():
    assert PollingArbiter.PLAN_WINDOW_ALLOWANCE == 2 * PATTERN_MAX_PERIOD


@pytest.mark.parametrize("name", STAY_OUT)
def test_default_plane_stays_out_of_small_programs(name):
    res, _ = SMALL_OPS[name].run(SMALL.config, None)
    stats = collect_planner_stats(res.transport)
    assert stats.attempts == stats.windows == stats.coplans == 0
    assert stats.live_spans == 0


def test_a_zero_attempt_run_explains_itself():
    res, _ = SMALL_OPS["bcast_64"].run(SMALL.config, None)
    line = planner_summary(collect_planner_stats(res.transport))
    assert ("planner stayed out: 64 of 64 CKs off-route, "
            "live for 0 lane spans") in line
    res, _ = SMALL_OPS["injection_R8"].run(SMALL.config, None)
    assert "stayed out" not in planner_summary(
        collect_planner_stats(res.transport))


@pytest.mark.parametrize("op", COLLECTIVES.ops, ids=lambda op: op.name)
def test_default_plane_stays_out_of_collectives(op):
    """Every CK of a collective program is off every declared
    point-to-point route: none is built with a planner hook."""
    res, _ = op.run(COLLECTIVES.config, None)
    stats = collect_planner_stats(res.transport)
    assert stats.attempts == 0
    assert stats.cks_off_route == stats.cks == 64
    assert all(ck.supply_planner is None
               for rt in res.transport.ranks.values()
               for ck in (*rt.cks.values(), *rt.ckr.values()))


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_build_only_run_never_calls_the_planner(name, monkeypatch):
    calls = []
    original = SupplyPlanner.plan
    monkeypatch.setattr(
        SupplyPlanner, "plan",
        lambda self, *args: calls.append(args) or original(self, *args))
    SMALL_OPS[name].run(SMALL.config, 0)
    assert not calls


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_default_plane_dispatches_no_more_than_the_specification(name):
    counts = {}
    for plane in ("default", "flit"):
        config = _planes(SMALL.config)[plane].with_(trace=True)
        with counted_emits() as (kinds, _aborts):
            SMALL_OPS[name].run(config, None)
        counts[plane] = kinds["dispatch"]
    assert 0 < counts["default"] <= counts["flit"]


def _stream(config, n, hops, topology=noctua_bus, repeats=1, extra=None):
    """``repeats`` ``n``-element vector bursts on one channel, the
    sender pausing between them until the receiver has drained."""
    data = np.arange(n * repeats, dtype=np.float32)
    prog = SMIProgram(topology(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(n * repeats, SMI_FLOAT, hops, 0)
        for lo in range(0, n * repeats, n):
            yield from ch.push_vec(data[lo:lo + n], width=8)
            yield smi.wait(2000)

    def rcv(smi):
        ch = smi.open_recv_channel(n * repeats, SMI_FLOAT, 0, 0)
        got = []
        for _ in range(repeats):
            got.append((yield from ch.pop_vec(n, width=8)))
        smi.store("data", np.concatenate(got))
        smi.store("end", smi.cycle)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
    prog.add_kernel(rcv, rank=hops,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    if extra is not None:
        extra(prog)
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    assert np.array_equal(res.store(hops, "data"), data)
    return res


@pytest.mark.parametrize("preset", [NOCTUA, NOCTUA_DEEP],
                         ids=["noctua", "deep"])
@pytest.mark.parametrize("hops", [1, 4])
def test_gate_boundary(preset, hops):
    """One chunk below the constant nobody plans; at it the route's CKs
    do — and all three planes agree on both sides."""
    for n, engaged in ((LANE_LIVE_MIN - 8, False), (LANE_LIVE_MIN, True)):
        runs = {plane: _stream(config, n, hops)
                for plane, config in _planes(preset).items()}
        ends = {plane: (res.cycles, res.store(hops, "end"))
                for plane, res in runs.items()}
        assert ends["default"] == ends["burst"] == ends["flit"], (n, ends)
        stats = collect_planner_stats(runs["default"].transport)
        assert stats.live_spans == int(engaged)
        assert (stats.attempts > 0) == engaged
        assert (stats.windows > 0) == engaged


@pytest.mark.parametrize("preset,n", [(NOCTUA, 8 * LANE_LIVE_MIN),
                                      (NOCTUA_DEEP, 4 * LANE_LIVE_MIN)],
                         ids=["noctua", "deep"])
def test_the_shortest_jumping_stream_still_jumps(preset, n):
    """The shortest 1-hop streams the constant's sweep saw jump (the
    backstop must not cut the road to the first train short)."""
    res = _stream(preset, n, 1)
    assert collect_planner_stats(res.transport).ff_jumps == 1


def test_live_state_follows_the_long_lanes():
    """Two long bursts on one channel (whole packets each, so the first
    drains before the second starts): live rises twice and is down
    whenever no long lane is registered."""
    n = 56 * (4 * LANE_LIVE_MIN // 56)
    res = _stream(NOCTUA.with_(trace=True), n, 1, repeats=2)
    planner = res.transport.planner
    stats = collect_planner_stats(res.transport)
    assert stats.live_spans == 2 and not planner.live
    assert not planner._long_lanes
    spans = [e for e in res.engine.trace.events()
             if e[2] == "span" and e[4] == "live"]
    assert len(spans) == 2
    assert spans[0][0] + spans[0][5] <= spans[1][0]   # disjoint, in order


def test_short_lanes_never_raise_the_live_state():
    res = _stream(NOCTUA, LANE_LIVE_MIN // 2, 1, repeats=4)
    stats = collect_planner_stats(res.transport)
    assert stats.live_spans == 0 and stats.attempts == 0


@pytest.mark.parametrize("hops,want", [
    (1, {"cycles": 3503, "attempts": 9, "windows": 4, "coplans": 8,
         "takes": 1758, "replications": 210}),
    (4, {"cycles": 4169, "attempts": 27, "windows": 4, "coplans": 44,
         "takes": 7032, "replications": 840}),
])
def test_going_live_over_settle_parked_kernels(hops, want, monkeypatch):
    """A short message moves through the route's CKs with the planner
    not live, so each ends parked by its settle continuation — no
    generator resumed to park it. The long burst that follows raises
    the live state over them: their wake-scan continuation stands aside
    (or a co-planner's preempt drops it) and the generator fuses the
    scan into a plan, is co-planned and woken exactly as the loop that
    parked itself was — every planner count and the end cycle as
    measured on the commit before continuations (the planner counts
    re-measured since windows extend the app lanes: same cycles and
    takes, fewer windows), and the specification plane's cycle."""
    short, long_ = 64, 4096
    a = np.arange(short, dtype=np.float32)
    b = np.arange(long_, dtype=np.float32) + 7
    seen = []
    register = SupplyPlanner.register_lane

    def probe(self, fifo, lane, length):
        if length >= LANE_LIVE_MIN and not self.live:
            # (The planner's first plan is yet to come: the route's CKs
            # are still in its declared-but-unapplied wiring.)
            cks = {id(ck): ck for _fifo, *ends in self.unwired
                   for ck in ends if ck is not None}
            seen.append([(ck.arbiter._resume_state,
                          ck.proc._waiting_on is ck.arbiter._wait_any,
                          ck.proc.continuation is not None)
                         for ck in cks.values()])
            seen.append(fifo.engine.elided_steps)
        register(self, fifo, lane, length)

    monkeypatch.setattr(SupplyPlanner, "register_lane", probe)

    def run(config):
        prog = SMIProgram(noctua_bus(), config=config)

        def snd(smi):
            ch = smi.open_send_channel(short, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(a, width=8)
            yield smi.wait(2000)
            ch = smi.open_send_channel(long_, SMI_FLOAT, hops, 1)
            yield from ch.push_vec(b, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(short, SMI_FLOAT, 0, 0)
            x = yield from ch.pop_vec(short, width=8)
            ch = smi.open_recv_channel(long_, SMI_FLOAT, 0, 1)
            y = yield from ch.pop_vec(long_, width=8)
            smi.store("data", np.concatenate([x, y]))

        prog.add_kernel(snd, rank=0, ops=[
            OpDecl("send", port, SMI_FLOAT, peer=hops) for port in (0, 1)])
        prog.add_kernel(rcv, rank=hops, ops=[
            OpDecl("recv", port, SMI_FLOAT, peer=0) for port in (0, 1)])
        res = prog.run(max_cycles=1_000_000)
        assert res.completed, res.reason
        assert np.array_equal(res.store(hops, "data"), np.concatenate([a, b]))
        return res

    res = run(NOCTUA)
    states, elided_before = seen
    stats = collect_planner_stats(res.transport)
    assert len(states) == stats.cks - stats.cks_off_route > hops
    assert set(states) == {("parked", True, True)}
    assert elided_before > 0
    assert stats.live_spans == 1
    assert {"cycles": res.cycles,
            **{k: getattr(stats, k) for k in want if k != "cycles"}} == want
    assert run(NOCTUA.with_(burst_mode=False)).cycles == res.cycles


def test_long_stream_beside_a_bcast():
    """Mixed program: the planes agree cycle for cycle and FIFO for
    FIFO, the collective's CKs off the stream's route make no attempt
    and are never co-planned, and the route's own CKs back off — any
    collective declaration keeps every transit FIFO flow-live, so
    windows stay horizon-short and no train forms (before the backstop:
    2 144 attempts for 997 windows and no jump on this very program)."""
    n_bcast = 64

    def add_bcast(prog):
        def kernel(smi):
            chan = smi.open_bcast_channel(n_bcast, SMI_FLOAT, 1, 0)
            for i in range(n_bcast):
                v = yield from chan.bcast(float(i) if smi.rank == 0 else None)
                assert float(v) == float(i)
        prog.add_kernel(kernel, ranks="all", name="bcast",
                        ops=[OpDecl("bcast", 1, SMI_FLOAT)])

    runs = {plane: _stream(config, 1 << 15, 1, topology=noctua_torus,
                           extra=add_bcast)
            for plane, config in _planes(NOCTUA).items()}
    assert runs["default"].cycles == runs["burst"].cycles \
        == runs["flit"].cycles
    ref = runs["flit"].engine.fifo_stats()
    for plane in ("burst", "default"):
        fifos = runs[plane].engine.fifo_stats()
        assert fifos.keys() == ref.keys(), plane
        for name, row in ref.items():
            for key in ("pushes", "pops"):
                assert fifos[name][key] == row[key], (plane, name, key)
    transport = runs["default"].transport
    stats = collect_planner_stats(transport)
    assert stats.live_spans == 1 and 0 < stats.attempts < 200
    assert stats.cks - stats.cks_off_route == 4
    for rt in transport.ranks.values():
        for ck in (*rt.cks.values(), *rt.ckr.values()):
            if ck.supply_planner is None:
                assert ck.arbiter._plan_until == 0


# ----------------------------------------------------------------------
# Sharded builds: the same route walk, restricted to what is local
# ----------------------------------------------------------------------
def _all_cks(transport):
    return [ck for rt in transport.ranks.values()
            for ck in (*rt.cks.values(), *rt.ckr.values())]


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_route_mark_is_the_sequential_one(shards):
    """``bus(16)`` uniform stream (the repo benchmark's ``shard_uniform``
    shape): every shard marks exactly the CKs the sequential build marks
    on its ranks — the off-route ones run the specification loop there
    too — at the sequential end cycle and per-FIFO counts."""
    data = np.arange(16 * 2048, dtype=np.float32).reshape(16, 2048)
    op = workloads.uniform_stream_op(data)
    seq, _ = op.run(NOCTUA, None)
    res, _ = op.run(NOCTUA.with_(backend="sharded", shards=shards), None)
    assert op.truth(res, {}) is None
    assert workloads.first_difference(workloads.signature(res, {}),
                                      workloads.signature(seq, {})) is None
    seq_stats = collect_planner_stats(seq.transport)
    stats = collect_planner_stats(res.transport)   # summed over shards
    assert stats.cks == seq_stats.cks == 60    # the end ranks have one pair
    assert stats.cks_off_route == seq_stats.cks_off_route > 0
    on_route = {ck.name for ck in _all_cks(seq.transport)
                if ck.supply_planner is not None}
    cks = _all_cks(res.transport)
    assert {ck.name for ck in cks
            if ck.supply_planner is not None} == on_route
    for ck in cks:
        if ck.supply_planner is None:
            assert ck.arbiter._plan_until == 0


def test_only_a_route_with_an_endpoint_outside_pins_a_shard():
    """The planner of a shard is pinned live only for a route that
    crosses one of its CKs with the source or destination rank in
    another shard (that flow's lanes register there). A flow wholly
    inside another shard, or wholly inside this one, pins nothing: the
    local lanes raise the live state themselves."""
    from repro import bus
    from repro.codegen.metadata import ProgramPlan
    from repro.network.routing import compute_routes
    from repro.simulation import Engine
    from repro.transport.builder import build_transport

    routes = compute_routes(bus(6))

    def planned(flows, local=None):
        """``(planner, names of the CKs it hooks, name -> flow_dead of
        every FIFO)`` of one build."""
        plan = ProgramPlan(6)
        for src, dst in flows:
            plan.add(src, OpDecl("send", 0, SMI_FLOAT, peer=dst))
            if dst is not None:
                plan.add(dst, OpDecl("recv", 0, SMI_FLOAT, peer=src))
        engine = Engine()
        transport = build_transport(
            engine, plan, routes, NOCTUA,
            shard_ranks=None if local is None else frozenset(local))
        assert all(ck.supply_planner in (None, transport.planner)
                   for ck in _all_cks(transport))
        return (transport.planner,
                {ck.name for ck in _all_cks(transport)
                 if ck.supply_planner is not None},
                {f.name: f.flow_dead for f in engine.fifos})

    def local_part(names, local):
        return {name for name in names
                if int(name[4:name.index(".")]) in local}

    cases = [
        # One flow inside each shard: nothing is pinned anywhere.
        ([(0, 1), (4, 5)], (0, 1, 2), False),
        ([(0, 1), (4, 5)], (3, 4, 5), False),
        # A flow across the cut pins both sides.
        ([(2, 3)], (0, 1, 2), True),
        ([(2, 3)], (3, 4, 5), True),
        # A flow that only transits the shard pins it as well.
        ([(1, 4)], (2, 3), True),
        # ... and one that never touches it does not.
        ([(0, 1)], (2, 3), False),
        # An undeclared peer may be anywhere: its routes leave the shard.
        ([(0, None)], (0, 1, 2), True),
    ]
    for flows, local, pinned in cases:
        seq_planner, seq_hooked, seq_dead = planned(flows)
        assert not seq_planner.pinned and not seq_planner.live
        planner, hooked, dead = planned(flows, local)
        assert planner.pinned is pinned and planner.live is pinned, \
            (flows, local)
        assert hooked == local_part(seq_hooked, local), (flows, local)
        # Same liveness marks on every FIFO the shard holds.
        assert dead == {name: seq_dead[name] for name in dead}, \
            (flows, local)
    # The transit case hooks CKs although neither endpoint is local.
    assert len(planned([(1, 4)], (2, 3))[1]) == 6
