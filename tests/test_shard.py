"""Sharded parallel backend: partitioning, epoch sync, cycle-exactness.

The acceptance bar for ``HardwareConfig.backend`` in ``{"sharded",
"process"}`` is the same as for every other data-plane flag: *nothing*
observable changes. Sharded runs must produce identical
``ProgramResult.cycles``, identical per-rank stores, and identical
per-FIFO push/pop counts and occupancy peaks versus the sequential
single-engine reference — the 3-way (per-flit / burst / sharded-burst)
equality the burst equivalence suite pins, extended across the fabric
cut. ``tests/test_burst_fuzz.py`` additionally sweeps random cuts.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NOCTUA,
    NOCTUA_DEEP,
    SMI_FLOAT,
    SMI_INT,
    DeadlockError,
    SMIProgram,
    bus,
    noctua_bus,
    ring,
    torus2d,
)
from repro.codegen.metadata import OpDecl
from repro.core.errors import (
    ConfigurationError,
    ShardWorkerError,
    SimulationError,
    TopologyError,
)
from repro.core.ops import SMI_ADD
from repro.shard import Partition, partition_topology, validate_cut
from repro.simulation import Engine
from repro.simulation.conditions import WaitCycles

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="needs fork start method")
BOTH_BACKENDS = ["sharded", pytest.param("process", marks=needs_fork)]


def _assert_sharded_equal(build, shard_configs):
    """``build(config)`` under sequential flit/burst vs each shard config."""
    flit = build(NOCTUA.with_(burst_mode=False))
    ref = build(NOCTUA)
    assert ref.cycles == flit.cycles
    ref_counts = ref.engine.fifo_stats()
    assert ref_counts == flit.engine.fifo_stats()
    assert {tuple(row) for row in ref_counts.values()} == {
        ("pushes", "pops", "max_occupancy", "capacity", "latency")}
    for config in shard_configs:
        fast = build(config)
        assert fast.cycles == ref.cycles, config.backend
        assert fast.engine.fifo_stats() == ref_counts, config.backend
    return ref


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
def test_partition_bus_contiguous_min_cut():
    part = partition_topology(noctua_bus(), 2)
    assert part.num_shards == 2
    assert sorted(len(s) for s in part.shards) == [4, 4]
    # A balanced bisection of a bus cuts exactly one cable.
    assert len(part.cut) == 1
    shard_of = part.shard_of()
    assert sorted(shard_of) == list(range(8))
    (conn,) = part.cut
    assert shard_of[conn.a[0]] != shard_of[conn.b[0]]


def test_partition_torus_balanced():
    topo = torus2d(2, 4)
    for k in (2, 4):
        part = partition_topology(topo, k)
        sizes = [len(s) for s in part.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 8
        # Strictly fewer cut cables than total cables.
        assert 0 < len(part.cut) < len(topo.connections)


def test_partition_swap_refinement_beats_bfs_split():
    """At exact balance only pair swaps can improve the cut: on a ladder
    the BFS split cuts 4 cables, the refined bisection cuts 2."""
    from repro.network.topology import Connection, Topology

    ladder = Topology(
        8,
        [Connection((i, 1), (i + 1, 0)) for i in range(3)]        # rail A
        + [Connection((i, 1), (i + 1, 0)) for i in range(4, 7)]   # rail B
        + [Connection((i, 2), (i + 4, 2)) for i in range(4)],     # rungs
        name="ladder",
    )
    part = partition_topology(ladder, 2)
    assert sorted(len(s) for s in part.shards) == [4, 4]
    assert len(part.cut) == 2  # {0,1,4,5} | {2,3,6,7}: one cut per rail


def test_partition_rank_lists():
    topo = noctua_bus()
    part = partition_topology(topo, 2, rank_lists=[[0, 1, 2], [3, 4, 5, 6, 7]])
    assert part.shards == ((0, 1, 2), (3, 4, 5, 6, 7))
    assert part.shard_of()[3] == 1
    validate_cut(part, topo, NOCTUA)


def test_partition_validation_errors():
    topo = bus(4)
    with pytest.raises(TopologyError, match="1 <= k"):
        partition_topology(topo, 5)
    with pytest.raises(TopologyError, match="not assigned"):
        partition_topology(topo, 2, rank_lists=[[0], [1, 2]])
    with pytest.raises(TopologyError, match="assigned to shards"):
        partition_topology(topo, 2, rank_lists=[[0, 1], [1, 2, 3]])
    with pytest.raises(TopologyError, match="empty"):
        partition_topology(topo, 2, rank_lists=[[], [0, 1, 2, 3]])
    with pytest.raises(TopologyError, match="out of range"):
        partition_topology(topo, 2, rank_lists=[[0, 9], [1, 2, 3]])
    with pytest.raises(ConfigurationError, match="not a connection"):
        bad = Partition(shards=((0, 1), (2, 3)),
                        cut=(topo.connections[0].__class__((0, 3), (3, 3)),))
        validate_cut(bad, topo, NOCTUA)


def test_explicit_partition_must_match_config_shards():
    """The config's shard count wins: a cut of another size is refused."""
    prog = SMIProgram(noctua_bus(),
                      config=NOCTUA.with_(backend="sharded", shards=2),
                      partition=[[0, 1], [2, 3], [4, 5, 6, 7]])

    def snd(smi):
        ch = smi.open_send_channel(8, SMI_FLOAT, 5, 0)
        yield from ch.push_vec(np.zeros(8, dtype=np.float32), width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(8, SMI_FLOAT, 0, 0)
        yield from ch.pop_vec(8, width=8)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=5, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    with pytest.raises(ConfigurationError, match="3 shards.*shards=2"):
        prog.run(max_cycles=1_000)
    prog.partition = partition_topology(noctua_bus(), 4)
    with pytest.raises(ConfigurationError, match="4 shards.*shards=2"):
        prog.run(max_cycles=1_000)


def test_backend_config_validation():
    with pytest.raises(ConfigurationError, match="unknown backend"):
        NOCTUA.with_(backend="threads")
    with pytest.raises(ConfigurationError, match="shards"):
        NOCTUA.with_(shards=0)
    with pytest.raises(ConfigurationError, match="requires backend"):
        NOCTUA.with_(shards=2)
    cfg = NOCTUA.with_(backend="sharded", shards=2)
    assert cfg.shards == 2


# ----------------------------------------------------------------------
# Engine.run_until (incremental resume)
# ----------------------------------------------------------------------
def test_run_until_bound_and_resume():
    eng = Engine()
    trace = []

    def worker():
        for i in range(5):
            trace.append((i, eng.cycle))
            yield WaitCycles(10)

    eng.spawn(worker(), "w")
    reason, executed = eng.run_until(25)
    assert reason == "bound"
    assert trace == [(0, 0), (1, 10), (2, 20)]
    assert executed == 3
    reason, executed = eng.run_until(25)
    assert (reason, executed) == ("bound", 0)  # nothing below the bound
    reason, _ = eng.run_until(1_000)
    assert reason == "idle"  # worker finished; calendar empty
    assert trace[-1] == (4, 40)
    assert eng.live_workers == 0
    assert eng.last_worker_finish == 50


def test_run_until_serves_daemons_without_workers():
    eng = Engine()
    f = eng.fifo("f", capacity=4)
    seen = []

    def daemon():
        while True:
            while not f.readable:
                yield f.can_pop
            seen.append(f.take())
            yield from ()

    eng.spawn(daemon(), "d", daemon=True)
    reason, _ = eng.run_until(100)
    assert reason == "idle"  # parked daemon, no workers: idle, not deadlock
    f.inject_staged(["x"], [eng.cycle + 5])
    reason, executed = eng.run_until(100)
    assert reason == "idle"
    assert seen == ["x"] and executed > 0


def test_inject_staged_guards():
    eng = Engine()
    f = eng.fifo("f", capacity=4, latency=3)
    f.pin_horizon(10)
    with pytest.raises(Exception, match="pinned horizon"):
        f.inject_staged(["a"], [5])
    f.inject_staged(["a", "b"], [10, 11])
    assert f.pushes == 2
    assert f.supply_horizon() == 10  # pin overrides the latency bound
    f.pin_horizon(8)  # pins never regress
    assert f.supply_horizon() == 10
    with pytest.raises(Exception, match="not monotone"):
        f.inject_staged(["c", "d"], [20, 15])


def test_past_dated_ack_raises():
    """A producer shard never runs past ``ack_floor + 1``, so an ack is
    never older than its clock; one that is would have missed a
    slot-release wake, and ``BoundaryTx.apply`` refuses it."""
    from repro.network.link import Link
    from repro.shard.proxy import AckBatch, BoundaryTx

    eng = Engine()
    link = Link(eng, (0, 0), (1, 0), latency_cycles=4)
    tx = BoundaryTx((0, 0), link)
    link.stage_burst(["a", "b"], [0, 1])
    tx.collect(eng, 0, {})  # ships both rows: acks take shipped rows only
    eng.cycle = 10
    with pytest.raises(SimulationError, match="in the past"):
        tx.apply(AckBatch((0, 0), (9,), floor=9))
    tx.apply(AckBatch((0, 0), (10, 12), floor=12))  # at or after the clock
    assert link.pops == 2


@settings(deadline=None, max_examples=200)
@given(ops=st.lists(st.tuples(st.sampled_from("sbact"), st.integers(1, 6)),
                    max_size=40),
       latency=st.integers(1, 6), pace=st.integers(1, 3))
def test_boundary_tx_ships_every_stage_once_in_order(ops, latency, pace):
    """The transmitting half ships the link's own rows past its cursor.

    Per-flit stages (``s``), future-dated bursts (``b``), acks of a
    prefix of the shipped rows (``a``), collects (``c``) and clock
    steps (``t``), interleaved: the concatenated ships list every stage
    once, in order, with the cycle it turns visible at the far end. An
    ack that did not move the cursor back would skip the rows staged
    after it."""
    from repro.network.link import Link
    from repro.shard.proxy import AckBatch, BoundaryTx

    eng = Engine()
    link = Link(eng, (0, 0), (1, 0), latency_cycles=latency,
                cycles_per_packet=pace)
    tx = BoundaryTx((0, 0), link)
    staged, visible, items, cycles = [], [], [], []
    last_take = 0
    for op, k in ops:
        now = eng.cycle
        if op == "s":
            if link.writable:
                link.stage(len(staged))
                staged.append(len(staged))
                visible.append(now + latency)
        elif op == "b":
            k = min(k, link.slot_plan(now)[0])
            start = max(now, link.next_free) + k
            run = [start + i * pace for i in range(k)]
            link.stage_burst(list(range(len(staged), len(staged) + k)), run)
            staged.extend(range(len(staged), len(staged) + k))
            visible.extend(c + latency for c in run)
        elif op == "a":
            takes = []
            t = max(now, last_take)
            for ready in link.present_schedule(now)[1][:min(k, tx.shipped)]:
                t = max(t, ready)
                takes.append(t)
            tx.apply(AckBatch((0, 0), tuple(takes), floor=t))
            last_take = t
        elif op == "c":
            ship = tx.collect(eng, now, {})
            items.extend(ship.items)
            cycles.extend(ship.cycles)
        else:
            eng.cycle += k
    ship = tx.collect(eng, eng.cycle, {})
    items.extend(ship.items)
    cycles.extend(ship.cycles)
    assert items == staged
    assert cycles == visible
    assert tx.shipped == link.present_count


# ----------------------------------------------------------------------
# Sharded-vs-sequential 3-way equality
# ----------------------------------------------------------------------
def _shard_configs(*shard_counts, base=NOCTUA):
    return [base.with_(backend="sharded", shards=k) for k in shard_counts]


@pytest.mark.parametrize("hops", [1, 4, 6])
def test_p2p_stream_sharded_equivalence(hops):
    n = 512
    data = np.arange(n, dtype=np.float32)

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            out = yield from ch.pop_vec(n, width=8)
            smi.store("out", [float(v) for v in out])
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref = _assert_sharded_equal(build, _shard_configs(2, 4))
    sharded = build(NOCTUA.with_(backend="sharded", shards=2))
    assert sharded.store(hops, "end") == ref.store(hops, "end")
    assert sharded.store(hops, "out") == [float(v) for v in data]


def test_p2p_deep_buffers_sharded_equivalence():
    """Deep buffers: multi-round replication trains cross epochs."""
    n = 2048
    hops = 4

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        data = np.arange(n, dtype=np.float32)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            yield from ch.pop_vec(n, width=8)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0,
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
        prog.add_kernel(rcv, rank=hops,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    flit = build(NOCTUA_DEEP.with_(burst_mode=False))
    ref = build(NOCTUA_DEEP)
    sharded = build(NOCTUA_DEEP.with_(backend="sharded", shards=2))
    assert flit.cycles == ref.cycles == sharded.cycles
    assert sharded.engine.fifo_stats() == ref.engine.fifo_stats()


def _collective_build(kind, n=64, num_ranks=4):
    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        op = (OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)
              if kind == "reduce" else OpDecl(kind, 0, SMI_FLOAT))

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            out = []
            if kind == "bcast":
                chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0, comm)
                for i in range(n):
                    v = yield from chan.bcast(
                        float(i) if smi.rank == 0 else None)
                    out.append(float(v))
            elif kind == "reduce":
                chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD,
                                               0, 0, comm)
                for i in range(n):
                    v = yield from chan.reduce(float(smi.rank + i))
                    if smi.rank == 0:
                        out.append(float(v))
            else:  # scatter
                chan = smi.open_scatter_channel(n, SMI_FLOAT, 0, 0, comm)
                if smi.rank == 0:
                    vals = [float(i) for i in range(n * num_ranks)]
                    out = yield from chan.stream_root(vals)
                else:
                    for _ in range(n):
                        out.append(float((yield from chan.pop())))
            smi.store("out", [float(v) for v in out])
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    return build, num_ranks


@pytest.mark.parametrize("kind", ["bcast", "reduce", "scatter"])
def test_collective_sharded_equivalence(kind):
    build, num_ranks = _collective_build(kind)
    ref = _assert_sharded_equal(build, _shard_configs(2, 4))
    sharded = build(NOCTUA.with_(backend="sharded", shards=2))
    for rank in range(num_ranks):
        assert sharded.store(rank, "end") == ref.store(rank, "end")
        assert sharded.store(rank, "out") == ref.store(rank, "out")


def test_mixed_workload_sharded_equivalence():
    """p2p halo ring + bcast sharing the fabric, across a cut."""
    n_halo, n_bcast, num_ranks = 96, 32, 3

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            right = (smi.rank + 1) % num_ranks
            left = (smi.rank - 1) % num_ranks
            data = np.full(n_halo, float(smi.rank), dtype=np.float32)

            def exchange():
                snd = smi.open_send_channel(n_halo, SMI_FLOAT, right, 1)
                yield from snd.push_vec(data, width=8)
                rcv = smi.open_recv_channel(n_halo, SMI_FLOAT, left, 1)
                halo = yield from rcv.pop_vec(n_halo, width=8)
                smi.store("halo", [float(v) for v in halo])

            smi.engine.spawn(exchange(), f"halo{smi.rank}")
            chan = smi.open_bcast_channel(n_bcast, SMI_FLOAT, 0, 0, comm)
            got = []
            for i in range(n_bcast):
                v = yield from chan.bcast(float(i) if smi.rank == 0 else None)
                got.append(float(v))
            smi.store("bcast", got)
            smi.store("end", smi.cycle)

        prog.add_kernel(
            kernel, ranks=list(range(num_ranks)),
            ops=[OpDecl("bcast", 0, SMI_FLOAT),
                 OpDecl("send", 1, SMI_FLOAT),
                 OpDecl("recv", 1, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref = _assert_sharded_equal(build, _shard_configs(2, 3))
    sharded = build(NOCTUA.with_(backend="sharded", shards=3))
    for rank in range(num_ranks):
        assert sharded.store(rank, "end") == ref.store(rank, "end")
        assert sharded.store(rank, "halo") == ref.store(rank, "halo")


def test_credited_p2p_sharded_equivalence():
    n, window, hops = 120, 2, 3

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        ops = [OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)]

        def sender(smi):
            ch = smi.open_credited_send_channel(n, SMI_INT, hops, 0,
                                                window_packets=window)
            for i in range(n):
                yield from smi.push(ch, i)

        def receiver(smi):
            ch = smi.open_credited_recv_channel(n, SMI_INT, 0, 0,
                                                window_packets=window)
            yield smi.wait(150)
            out = []
            for _ in range(n):
                out.append(int((yield from smi.pop(ch))))
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(sender, rank=0, ops=ops)
        prog.add_kernel(receiver, rank=hops, ops=ops)
        res = prog.run(max_cycles=10_000_000)
        assert res.completed, res.reason
        return res

    ref = _assert_sharded_equal(build, _shard_configs(2, 4))
    sharded = build(NOCTUA.with_(backend="sharded", shards=2))
    assert sharded.store(hops, "out") == list(range(n))
    assert sharded.store(hops, "end") == ref.store(hops, "end")


def test_explicit_partition_and_unbalanced_cut():
    """A deliberately lopsided explicit cut stays cycle-exact."""
    n, hops = 256, 5

    def build(config, partition=None):
        prog = SMIProgram(noctua_bus(), config=config, partition=partition)
        data = np.arange(n, dtype=np.float32)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            yield from ch.pop_vec(n, width=8)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref = build(NOCTUA)
    for lists in ([[0], [1, 2, 3, 4, 5, 6, 7]],
                  [[0, 2, 4, 6], [1, 3, 5, 7]],   # worst cut: every link
                  [[0, 1], [2, 3], [4, 5], [6, 7]]):
        cfg = NOCTUA.with_(backend="sharded", shards=len(lists))
        fast = build(cfg, partition=lists)
        assert fast.cycles == ref.cycles, lists
        assert fast.engine.fifo_stats() == ref.engine.fifo_stats(), lists


# ----------------------------------------------------------------------
# One exchange protocol, run in-process or by forked workers
# ----------------------------------------------------------------------
def _stream_build(n, hops=4):
    """``build(config)`` for an ``n``-float stream over ``hops`` bus hops."""
    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        data = np.arange(n, dtype=np.float32)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            out = yield from ch.pop_vec(n, width=8)
            smi.store("sum", float(np.sum(out)))
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    return build


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
def test_both_backends_run_the_ring_exchange(backend, monkeypatch):
    """``sharded`` and ``process`` reach the same ``_ShardLinks.publish``."""
    from repro.shard.backend import _ShardLinks

    published = []
    real_publish = _ShardLinks.publish

    def spy(self, runtime, bound):
        published.append(self.index)
        return real_publish(self, runtime, bound)

    monkeypatch.setattr(_ShardLinks, "publish", spy)
    build = _stream_build(256)
    ref = build(NOCTUA)
    fast = build(NOCTUA.with_(backend=backend, shards=2))
    assert fast.cycles == ref.cycles
    assert all(t["inner_rounds"] > 0 for t in fast.transport.shard_timing)
    if backend == "sharded":  # forked workers' spies die with them
        assert set(published) == {0, 1}


@needs_fork
def test_process_backend_equivalence():
    hops = 4
    build = _stream_build(1024, hops)
    ref = build(NOCTUA_DEEP)
    fast = build(NOCTUA_DEEP.with_(backend="process", shards=2))
    assert fast.cycles == ref.cycles
    assert fast.store(hops, "end") == ref.store(hops, "end")
    assert fast.store(hops, "sum") == ref.store(hops, "sum")
    assert fast.engine.fifo_stats() == ref.engine.fifo_stats()
    # Every worker reported its wall-clock phase breakdown.
    timing = fast.transport.shard_timing
    assert len(timing) == 2
    for t in timing:
        assert set(t) == {"compute_s", "serialize_s", "ipc_wait_s",
                          "inner_rounds", "outer_rounds"}
        assert t["outer_rounds"] > 0


@needs_fork
def test_process_backend_collective():
    build, num_ranks = _collective_build("reduce", n=48)
    ref = build(NOCTUA)
    fast = build(NOCTUA.with_(backend="process", shards=2))
    assert fast.cycles == ref.cycles
    for rank in range(num_ranks):
        assert fast.store(rank, "end") == ref.store(rank, "end")
    assert fast.engine.fifo_stats() == ref.engine.fifo_stats()


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
def test_large_batch_crosses_the_cut_whole(backend, monkeypatch):
    """A deep cut link ships an epoch's whole backlog as one batch.

    With a 4 000-cycle link latency the first exchange after the sender
    starts carries well over a thousand packets; the batch reaches the
    peer in one piece on both backends and the run stays cycle-exact.
    """
    from repro.shard.proxy import BoundaryTx

    n, src, dst = 20_000, 3, 4
    data = np.arange(n, dtype=np.float32)

    def build(config, partition=None):
        prog = SMIProgram(noctua_bus(), config=config, partition=partition)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, dst, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, src, 0)
            out = yield from ch.pop_vec(n, width=8)
            smi.store("data", out)

        prog.add_kernel(snd, rank=src,
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=dst)])
        prog.add_kernel(rcv, rank=dst,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=src)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    deep = NOCTUA.with_(link_latency_cycles=4000)
    ref = build(deep)
    assert ref.cycles == 9_747
    batches = []
    real_collect = BoundaryTx.collect

    def spy(self, engine, bound, memo):
        batch = real_collect(self, engine, bound, memo)
        batches.append(len(batch.items))
        return batch

    monkeypatch.setattr(BoundaryTx, "collect", spy)
    fast = build(deep.with_(backend=backend, shards=2),
                 partition=[[0, 1, 2, 3], [4, 5, 6, 7]])
    assert fast.cycles == ref.cycles
    assert fast.engine.fifo_stats() == ref.engine.fifo_stats()
    assert np.array_equal(fast.store(dst, "data"), data)
    if backend == "sharded":  # forked workers' spies die with them
        assert max(batches) >= 1_000


# ----------------------------------------------------------------------
# Worker lifecycle: no forked process may outlive its run
# ----------------------------------------------------------------------
def _assert_no_live_workers():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        alive = [p for p in multiprocessing.active_children()
                 if p.name.startswith("smi-shard-")]
        if not alive:
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked shard workers: {alive}")


@needs_fork
def test_no_worker_leak_on_kernel_exception():
    """A kernel raising mid-run must not leave forked workers behind."""
    n, hops = 256, 4

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(np.zeros(n, dtype=np.float32), width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        yield from ch.pop_vec(64, width=8)
        raise RuntimeError("injected mid-run failure")

    prog = SMIProgram(noctua_bus(),
                      config=NOCTUA.with_(backend="process", shards=2))
    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    with pytest.raises(RuntimeError, match="injected mid-run failure"):
        prog.run(max_cycles=50_000_000)
    _assert_no_live_workers()


@needs_fork
def test_no_worker_leak_on_partial_construction(monkeypatch):
    """A handle failing to start must tear down the already-forked ones.

    Regression: handle construction used to run in a list comprehension
    *outside* the try/finally, so shard 0's forked worker leaked if
    shard 1's fork failed. Handles now enter an ExitStack one by one.
    """
    from repro.shard import backend as backend_mod

    real_init = backend_mod.ProcessHandle.__init__
    started = []

    def failing_init(self, runtime, ctx, mail):
        if runtime.index == 1:
            raise OSError("injected fork failure")
        real_init(self, runtime, ctx, mail)
        started.append(self)

    monkeypatch.setattr(backend_mod.ProcessHandle, "__init__", failing_init)
    n, hops = 64, 4
    prog = SMIProgram(noctua_bus(),
                      config=NOCTUA.with_(backend="process", shards=2))

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(np.zeros(n, dtype=np.float32), width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        yield from ch.pop_vec(n, width=8)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    with pytest.raises(OSError, match="injected fork failure"):
        prog.run(max_cycles=50_000_000)
    assert started, "shard 0's handle never started — test is vacuous"
    _assert_no_live_workers()


@needs_fork
def test_process_backend_killed_worker_fails_typed():
    """SIGKILL one worker mid-run: a typed error naming the shard, soon."""
    victim = 1

    def kill_when_running():
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            for child in multiprocessing.active_children():
                if child.name == f"smi-shard-{victim}":
                    time.sleep(0.2)  # let it get into its rounds
                    os.kill(child.pid, signal.SIGKILL)
                    return
            time.sleep(0.005)

    killer = threading.Thread(target=kill_when_running)
    build = _stream_build(1 << 18)
    t0 = time.monotonic()
    killer.start()
    try:
        with pytest.raises(ShardWorkerError, match="SIGKILL") as exc:
            build(NOCTUA_DEEP.with_(backend="process", shards=2))
    finally:
        killer.join()
    assert time.monotonic() - t0 < 5.0
    assert exc.value.shard == victim
    assert exc.value.exitcode == -signal.SIGKILL
    assert isinstance(exc.value, SimulationError)
    _assert_no_live_workers()


@needs_fork
def test_process_backend_deadlock_detected():
    with pytest.raises(DeadlockError, match="Blocked processes"):
        _deadlocking_program(
            NOCTUA.with_(backend="process", shards=2)
        ).run(max_cycles=1_000_000)
    _assert_no_live_workers()


# ----------------------------------------------------------------------
# Termination semantics: deadlocks and max_cycles
# ----------------------------------------------------------------------
def _deadlocking_program(config):
    """Both ranks pop before pushing: the §3.3 cyclic dependency."""
    prog = SMIProgram(bus(2), config=config)
    ops = [OpDecl("send", 0, SMI_INT), OpDecl("recv", 1, SMI_INT)]

    def kernel(smi):
        peer = 1 - smi.rank
        r = smi.open_recv_channel(1, SMI_INT, peer, 1)
        s = smi.open_send_channel(1, SMI_INT, peer, 0)
        v = yield from smi.pop(r)     # blocks forever: nobody pushed yet
        yield from smi.push(s, v)

    prog.add_kernel(kernel, ranks="all", ops=ops)
    return prog


def test_sharded_deadlock_detected_like_sequential():
    with pytest.raises(DeadlockError, match="§3.3"):
        _deadlocking_program(NOCTUA).run(max_cycles=1_000_000)
    with pytest.raises(DeadlockError, match="Blocked processes"):
        _deadlocking_program(
            NOCTUA.with_(backend="sharded", shards=2)
        ).run(max_cycles=1_000_000)


def _run_truncated(config):
    """An 8-element stream whose sender then sleeps past the cycle cap."""
    prog = SMIProgram(bus(2), config=config)

    def snd(smi):
        ch = smi.open_send_channel(8, SMI_INT, 1, 0)
        for i in range(8):
            yield from smi.push(ch, i)
        yield smi.wait(10_000_000)  # outlives the cap

    def rcv(smi):
        ch = smi.open_recv_channel(8, SMI_INT, 0, 0)
        for _ in range(8):
            yield from smi.pop(ch)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    return prog.run(max_cycles=5_000)


def test_sharded_max_cycles():
    ref = _run_truncated(NOCTUA)
    fast = _run_truncated(NOCTUA.with_(backend="sharded", shards=2))
    # Truncated runs pin cycles and reason. Per-FIFO counters are NOT an
    # invariant at an arbitrary cap (they tally committed events, and
    # the planes commit different distances past it — sequential burst
    # vs per-flit already differ there); see docs/ARCHITECTURE.md.
    assert ref.reason == fast.reason == "max_cycles"
    assert ref.cycles == fast.cycles == 5_000


@needs_fork
def test_process_backend_max_cycles():
    ref = _run_truncated(NOCTUA)
    fast = _run_truncated(NOCTUA.with_(backend="process", shards=2))
    assert ref.reason == fast.reason == "max_cycles"
    assert ref.cycles == fast.cycles == 5_000
    _assert_no_live_workers()


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
def test_rank_transports_are_inspectable_only_in_process(backend):
    """The sharded backend hands out every built rank's transport; the
    process backend's stay inside its workers, and asking for one says
    so instead of raising a bare ``KeyError``."""
    n = 64
    prog = SMIProgram(bus(4), config=NOCTUA.with_(backend=backend,
                                                  shards=2))

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_INT, 3, 0)
        for i in range(n):
            yield from ch.push(i)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_INT, 0, 0)
        for _ in range(n):
            yield from ch.pop()

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(rcv, rank=3, ops=[OpDecl("recv", 0, SMI_INT)])
    res = prog.run(max_cycles=1_000_000)
    assert res.completed, res.reason
    if backend == "sharded":
        assert res.transport.rank(1).rank == 1
    else:
        with pytest.raises(SimulationError,
                           match="stay inside the workers.*backend='sharded'"):
            res.transport.rank(1)


def test_sharded_planner_stats_populated():
    """The merged transport facade reports cluster-wide planner counters."""
    from repro.simulation.stats import collect_planner_stats

    res = _stream_build(1024)(NOCTUA.with_(backend="sharded", shards=2))
    stats = collect_planner_stats(res.transport)
    assert stats.windows > 0 and stats.takes > 0


def _uniform_stream(config, n=4096, ranks=16):
    """Every rank of a ``ranks``-bus streams ``n`` floats to its right
    neighbour while receiving from its left (concurrent kernels)."""
    prog = SMIProgram(bus(ranks), config=config)
    data = np.arange(n, dtype=np.float32)

    def sender(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
        yield from ch.push_vec(data, width=8)

    def receiver(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
        yield from ch.pop_vec(n, width=8)

    for rank in range(ranks - 1):
        prog.add_kernel(sender, rank=rank, name="tx",
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
        prog.add_kernel(receiver, rank=rank + 1, name="rx",
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    return res


@pytest.mark.parametrize("shards", [2, 4])
def test_uniform_stream_shards_do_the_sequential_work(shards, monkeypatch):
    """Cut links bound a shard by horizons and ``ack_floor + 1`` only,
    so planner windows are not chopped at per-round bounds: a sharded
    run dispatches at most twice the sequential run's processes and
    grants no more packets per flit."""
    from collections import Counter

    from repro.trace.recorder import TraceRecorder

    kinds = Counter()
    original = TraceRecorder.emit

    def emit(recorder, cycle, kind, *args, **kwargs):
        kinds[kind] += 1
        return original(recorder, cycle, kind, *args, **kwargs)

    monkeypatch.setattr(TraceRecorder, "emit", emit)
    runs = []
    for backend, k in (("sequential", 1), ("sharded", shards)):
        kinds.clear()
        config = NOCTUA_DEEP.with_(backend=backend, shards=k, trace=True)
        cycles = _uniform_stream(config).cycles
        runs.append((cycles, kinds["dispatch"], kinds["grant"]))
    (seq_cycles, seq_dispatch, seq_grant), (cycles, dispatch, grant) = runs
    assert cycles == seq_cycles
    assert 0 < dispatch <= 2 * seq_dispatch, runs
    assert grant <= seq_grant, runs


@pytest.mark.parametrize("shards", [2, 4])
def test_a_cut_costs_only_the_stream_that_crosses_it(shards):
    """Each cut link costs the fast-forward one stream, the one crossing
    it: sequentially 14 of the 15 streams jump, in-process 2 and 4
    shards 13 and 11. The stream left of a cut shares its train with
    the cut stream's CKS sessions, which are outside its chain and
    refuse nothing of it."""
    from repro.simulation.stats import collect_planner_stats

    def jumps(config):
        res = _uniform_stream(config)
        return collect_planner_stats(res.transport).ff_jumps

    sequential = jumps(NOCTUA_DEEP)
    assert sequential == 14
    assert jumps(NOCTUA_DEEP.with_(backend="sharded", shards=shards)) \
        == sequential - (shards - 1)


def test_jump_inside_a_shard_is_exact_at_the_global_end():
    """A time shift folds a chain FIFO's log ahead of the clock — and,
    in a shard, past the ``stats_fold_limit`` watermark (0 when the jump
    lands). It may: every shifted event precedes the receiving kernel's
    last pop, hence the global end the watermark stands for. Two
    intra-shard streams of unequal length each land a jump; the merged
    stats — ``counts_at`` / ``max_occupancy_at`` at the global end, which
    only the longer stream's shard reaches by its own clock — equal the
    sequential run's on every FIFO."""
    from repro.simulation.stats import collect_planner_stats

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        for src, n in ((0, 1 << 15), (4, 1 << 14)):
            data = np.arange(n, dtype=np.float32) % 1024

            def snd(smi, n=n, data=data, dst=src + 1):
                ch = smi.open_send_channel(n, SMI_FLOAT, dst, 0)
                yield from ch.push_vec(data, width=8)

            def rcv(smi, n=n, data=data, src=src):
                ch = smi.open_recv_channel(n, SMI_FLOAT, src, 0)
                out = yield from ch.pop_vec(n, width=8)
                smi.store("ok", bool(np.array_equal(out, data)))

            prog.add_kernel(snd, rank=src,
                            ops=[OpDecl("send", 0, SMI_FLOAT, peer=src + 1)])
            prog.add_kernel(rcv, rank=src + 1,
                            ops=[OpDecl("recv", 0, SMI_FLOAT, peer=src)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        assert res.store(1, "ok") and res.store(5, "ok")
        return res

    ref = _assert_sharded_equal(build, _shard_configs(2))
    assert collect_planner_stats(ref.transport).ff_jumps == 2
    sharded = build(NOCTUA.with_(backend="sharded", shards=2))
    assert collect_planner_stats(sharded.transport).ff_jumps == 2


def test_sharded_on_ring_topology():
    """A ring cut into 2 shards has two boundary cables (4 directed)."""
    n = 128
    topo = ring(6)

    def build(config):
        prog = SMIProgram(topo, config=config)
        data = np.arange(n, dtype=np.float32)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, 3, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            yield from ch.pop_vec(n, width=8)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=3, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    part = partition_topology(topo, 2)
    assert len(part.cut) == 2
    ref = build(NOCTUA)
    fast = build(NOCTUA.with_(backend="sharded", shards=2))
    assert fast.cycles == ref.cycles
    assert fast.engine.fifo_stats() == ref.engine.fifo_stats()
