"""The reached fabric: a program builds only the ranks its declared flows
can reach (``transport/builder.py``, :func:`reached_ranks`), and every FIFO
it builds keeps the trajectory it has in the full fabric.

The oracle runs one program twice on one plane: as declared, and over the
full fabric — :func:`reached_ranks` answering every rank, which is what a
program whose sends declare no peer builds. Everything else (the ops, the
peers the channels check at open, the route walk) is the same, so the two
runs may differ only in the ranks a build leaves out, and those could only
ever take their cycle-0 step and park. Asserted per case: identical end
cycle and stores; every FIFO of the reached build has its full-build
namesake's ``(pushes, pops, max_occupancy)``; every FIFO only the full
build has is idle; and the unbuilt processes are exactly the missing
``dispatch`` and ``park`` events. Fixed cases pin the rank sets of the
repo benchmark's programs, and a dead end — traffic past a declared peer —
fails loudly on both planes.
"""

import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (NOCTUA, SMI_FLOAT, SMI_INT, OpDecl, SMIProgram, bus,
                   noctua_bus, noctua_torus, ring)
from repro.core.channel import SendChannel
from repro.core.errors import SimulationError
from repro.core.ops import SMI_ADD
from repro.network.routing import compute_routes
from repro.transport import builder

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "profile"))
sys.path.insert(0, str(ROOT / "tools"))

import workloads  # noqa: E402
from substrate_goldens import captured_run, counted_emits  # noqa: E402

TOPOLOGIES = {
    "noctua_bus": noctua_bus,
    "noctua_torus": noctua_torus,
    "ring5": lambda: ring(5),
    "bus2": lambda: bus(2),
}
KINDS = ("push_vec", "push", "credited", "bcast", "reduce", "mixed")
PLANES = {
    "flit": dict(burst_mode=False),
    "default": dict(),
    "sharded": dict(backend="sharded", shards=2),
}


@contextmanager
def _full_fabric():
    """Build every rank, whatever the program declares."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "reached_ranks",
                   lambda plan, routes, kernel_ranks=():
                   frozenset(range(plan.num_ranks)))
        yield


def _program(case: dict, config) -> SMIProgram:
    """The case's program; every point-to-point op declares its peer."""
    kind, src, dst, n = case["kind"], case["src"], case["dst"], case["n"]
    partition = case.get("cut") if config.backend != "sequential" else None
    prog = SMIProgram(TOPOLOGIES[case["topology"]](), config=config,
                      partition=partition)
    if kind in ("push_vec", "push", "mixed"):
        dtype = SMI_INT if kind == "push" else SMI_FLOAT
        data = np.arange(n, dtype=dtype.np_dtype)

        def snd(smi):
            ch = smi.open_send_channel(n, dtype, dst, 1)
            if kind == "push":
                for value in data:
                    yield from smi.push(ch, value)
            else:
                yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, dtype, src, 1)
            if kind == "push":
                got = []
                for _ in range(n):
                    got.append(int((yield from smi.pop(ch))))
            else:
                got = [float(v) for v in (yield from ch.pop_vec(n, width=8))]
            smi.store("out", got)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=src,
                        ops=[OpDecl("send", 1, dtype, peer=dst)])
        prog.add_kernel(rcv, rank=dst,
                        ops=[OpDecl("recv", 1, dtype, peer=src)])
    if kind == "credited":
        def sender(smi):
            ch = smi.open_credited_send_channel(n, SMI_INT, dst, 1,
                                                window_packets=2)
            for i in range(n):
                yield from smi.push(ch, i)

        def receiver(smi):
            ch = smi.open_credited_recv_channel(n, SMI_INT, src, 1,
                                                window_packets=2)
            got = []
            for _ in range(n):
                got.append(int((yield from smi.pop(ch))))
            smi.store("out", got)
            smi.store("end", smi.cycle)

        prog.add_kernel(sender, rank=src,
                        ops=[OpDecl("send", 1, SMI_INT, peer=dst),
                             OpDecl("recv", 1, SMI_INT, peer=dst)])
        prog.add_kernel(receiver, rank=dst,
                        ops=[OpDecl("recv", 1, SMI_INT, peer=src),
                             OpDecl("send", 1, SMI_INT, peer=src)])
    if kind in ("bcast", "reduce", "mixed"):
        # A 64-element bcast over every rank beside the stream, or the
        # case's collective over a sub-communicator hosted by its members.
        members = (list(range(prog.topology.num_ranks)) if kind == "mixed"
                   else case["members"])
        count = 64 if kind == "mixed" else n
        op = (OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)
              if kind == "reduce" else OpDecl("bcast", 0, SMI_FLOAT))

        def coll(smi):
            # The root is comm rank 0, i.e. members[0].
            comm = smi.comm_world.sub(members)
            out = []
            if kind == "reduce":
                chan = smi.open_reduce_channel(count, SMI_FLOAT, SMI_ADD, 0,
                                               0, comm)
                for i in range(count):
                    v = yield from chan.reduce(float(smi.rank + i))
                    if smi.rank == members[0]:
                        out.append(float(v))
            else:
                chan = smi.open_bcast_channel(count, SMI_FLOAT, 0, 0, comm)
                for i in range(count):
                    v = yield from chan.bcast(
                        float(i) if smi.rank == members[0] else None)
                    out.append(float(v))
            smi.store("coll", out)
            smi.store("coll_end", smi.cycle)

        prog.add_kernel(coll, ranks=members, ops=[op])
    return prog


def _processes(transport) -> int:
    return sum(len(rt.cks) + len(rt.ckr) + len(rt.support_kernels)
               for rt in transport.ranks.values())


def _run(case: dict, config, full: bool):
    """``(cycles, stores, fifo triples, transport processes, dispatches,
    parks, built ranks)`` of one traced run."""
    with _full_fabric() if full else nullcontext():
        with counted_emits() as (kinds, _aborts):
            res = _program(case, config.with_(trace=True)).run(
                max_cycles=5_000_000)
    assert res.completed, res.reason
    fifos = {name: (s["pushes"], s["pops"], s["max_occupancy"])
             for name, s in res.engine.fifo_stats().items()}
    return (res.cycles, res.stores, fifos, _processes(res.transport),
            kinds["dispatch"], kinds["park"], set(res.transport.ranks))


def _assert_reached_matches_full(case: dict, plane: str) -> set:
    config = NOCTUA.with_(**PLANES[plane])
    cycles, stores, fifos, procs, disp, parks, built = _run(
        case, config, full=False)
    f_cycles, f_stores, f_fifos, f_procs, f_disp, f_parks, f_built = _run(
        case, config, full=True)
    assert (cycles, stores) == (f_cycles, f_stores), case
    assert f_built == set(range(len(f_built)))
    assert set(fifos) <= set(f_fifos)
    for name, counts in fifos.items():
        assert counts == f_fifos[name], (name, case)
    for name in set(f_fifos) - set(fifos):
        assert f_fifos[name] == (0, 0, 0), (name, case)
    unbuilt = f_procs - procs
    assert f_disp - disp == unbuilt == f_parks - parks, case
    return built


@st.composite
def cases(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    ranks = TOPOLOGIES[topology]().num_ranks
    src = draw(st.integers(0, ranks - 1))
    dst = draw(st.integers(0, ranks - 1).filter(lambda r: r != src))
    first = draw(st.sets(st.integers(0, ranks - 1), min_size=1,
                         max_size=ranks - 1))
    return {
        "topology": topology,
        "kind": draw(st.sampled_from(KINDS)),
        "src": src,
        "dst": dst,
        "n": draw(st.sampled_from([8, 24, 72])),
        "members": sorted(draw(st.sets(st.integers(0, ranks - 1),
                                       min_size=2, max_size=4))),
        "cut": [sorted(first), sorted(set(range(ranks)) - first)],
    }


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=cases(), plane=st.sampled_from(sorted(PLANES)))
def test_reached_build_matches_the_full_fabric(case, plane):
    _assert_reached_matches_full(case, plane)


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_a_shard_of_unreached_ranks_builds_nothing(plane):
    """A 1-hop stream cut so that the second shard holds only ranks no
    flow reaches: that shard builds no hardware at all, and the run still
    matches the full fabric FIFO for FIFO."""
    case = {"topology": "noctua_bus", "kind": "push_vec", "src": 0,
            "dst": 1, "n": 72, "cut": [[0, 1, 2, 3], [4, 5, 6, 7]]}
    assert _assert_reached_matches_full(case, plane) == {0, 1}


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_seven_hops_and_a_sub_communicator(plane):
    long = {"topology": "noctua_bus", "kind": "push", "src": 7, "dst": 0,
            "n": 8, "cut": [[0, 5], [1, 2, 3, 4, 6, 7]]}
    assert _assert_reached_matches_full(long, plane) == set(range(8))
    sub = {"topology": "noctua_bus", "kind": "reduce", "src": 0, "dst": 1,
           "n": 24, "members": [2, 4], "cut": [[0, 1, 2, 3], [4, 5, 6, 7]]}
    assert _assert_reached_matches_full(sub, plane) == {2, 3, 4}


# ----------------------------------------------------------------------
# The rank sets of the repo benchmark's programs
# ----------------------------------------------------------------------
SMALL = {op.name: op for op in workloads.make_workload("small_msgs", 0).ops}


@pytest.mark.parametrize("name, ranks", [
    ("pingpong_1hop", {0, 1}),
    ("pingpong_4hop", {0, 1, 2, 3, 4}),
    ("injection_R1", {0, 1}),
    ("injection_R16", {0, 1}),
    ("bcast_64", set(range(8))),
    ("stencil_256x8", set(range(4))),
    ("gesummv_512", {0, 1}),
])
def test_small_programs_build_what_they_reach(name, ranks):
    res, _ = SMALL[name].run(NOCTUA, 0)
    assert set(res.transport.ranks) == ranks


def test_shard_uniform_reaches_every_rank():
    op = workloads.make_workload("shard_uniform", 0).ops[0]
    res, _ = op.run(NOCTUA, 0)
    assert set(res.transport.ranks) == set(range(16))


def test_a_kernel_rank_without_ops_is_built():
    """Single-FPGA GESUMMV declares ``ops=[]`` on rank 0 of a 2-rank
    bus: its kernel still gets its rank's hardware, the idle rank none."""
    from repro.apps import gesummv

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 8, 8)).astype(np.float32)
    x = rng.standard_normal(8).astype(np.float32)
    with captured_run() as got:
        gesummv.run_single_sim(1.0, 1.0, A, B, x)
    assert set(got[0].transport.ranks) == {0}


def test_reached_ranks_rule():
    """The rule on the plan alone: kernel ranks, op ranks, send routes
    (one peer, or every rank) and collective member pairs."""
    from repro.codegen.metadata import ProgramPlan

    routes = compute_routes(noctua_bus())
    plan = ProgramPlan(8)
    plan.add(2, OpDecl("send", 0, SMI_INT, peer=5))
    plan.add(5, OpDecl("recv", 0, SMI_INT))
    assert builder.reached_ranks(plan, routes) == {2, 3, 4, 5}
    assert builder.reached_ranks(plan, routes, [7]) == {2, 3, 4, 5, 7}
    plan.add(0, OpDecl("bcast", 1, SMI_FLOAT))
    plan.add(1, OpDecl("bcast", 1, SMI_FLOAT))
    assert builder.reached_ranks(plan, routes) == {0, 1, 2, 3, 4, 5}
    plan.add(6, OpDecl("send", 2, SMI_INT))
    assert builder.reached_ranks(plan, routes) == set(range(8))


# ----------------------------------------------------------------------
# Dead ends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("collective", [False, True],
                         ids=["p2p", "with_collective"])
@pytest.mark.parametrize("burst_mode", [False, True], ids=["flit", "default"])
def test_traffic_past_a_declared_peer_fails_at_the_dead_end(burst_mode,
                                                            collective):
    """Rank 0 declares ``peer=1`` but streams to the receiver on rank 3
    (through a channel the declaration cannot see); rank 2 hosts nothing.
    The first stage into link 1 -> 2 trips the dead end's tripwire on
    either plane instead of running off the built fabric — also where a
    collective declaration switches the burst plane's own flow-liveness
    marks off. With those marks on, the stage into rank 1's through-path
    (off the declared route) trips one hop earlier."""
    prog = SMIProgram(noctua_bus(), config=NOCTUA.with_(burst_mode=burst_mode))

    def snd(smi):
        ch = SendChannel(4, SMI_INT, 0, 3, 0, smi.comm_world,
                         endpoint=smi._transport.send_endpoint(0),
                         burst_mode=burst_mode)
        for i in range(4):
            yield from smi.push(ch, i)

    def rcv(smi):
        ch = smi.open_recv_channel(4, SMI_INT, 0, 0)
        for _ in range(4):
            yield from smi.pop(ch)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT, peer=1)]
                    + [OpDecl("bcast", 1, SMI_FLOAT)] * collective)
    prog.add_kernel(rcv, rank=3, ops=[OpDecl("recv", 0, SMI_INT)])
    with pytest.raises(SimulationError) as err:
        prog.run(max_cycles=100_000)
    msg = str(err.value)
    assert "flow-dead" in msg and "OpDecl.peer" in msg
    if burst_mode and not collective:
        assert "rank1.ckr0->cks0" in msg
    else:
        assert "link.1:1->2:0" in msg and "dead end: rank 2" in msg


def test_dead_ends_are_never_shard_boundaries():
    """A 1-hop stream on rank 3 -> 4 of a bus cut 0-3 | 4-7 crosses the
    cut; the links towards ranks 2 and 5 are dead ends of one shard each,
    not boundaries of both (per-flit, where only dead ends are marked)."""
    case = {"topology": "noctua_bus", "kind": "push_vec", "src": 3,
            "dst": 4, "n": 72, "cut": [[0, 1, 2, 3], [4, 5, 6, 7]]}
    config = NOCTUA.with_(burst_mode=False, **PLANES["sharded"])
    captured = []
    original = builder.build_transport

    def build(*args, **kwargs):
        transport = original(*args, **kwargs)
        captured.append(transport)
        return transport

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.shard.backend.build_transport", build)
        assert _program(case, config).run(max_cycles=10**6).completed
    boundaries = [sorted((link.src, link.dst) for link, _ in t.boundaries)
                  for t in captured]
    assert boundaries == [[((3, 1), (4, 0)), ((4, 0), (3, 1))]] * 2
    dead = [sorted(link.name for link in t.fabric.links()
                   if link.flow_dead) for t in captured]
    assert dead[0] == ["link.2:1->3:0", "link.3:0->2:1"]
    assert dead[1] == ["link.4:1->5:0", "link.5:0->4:1"]
