"""Burst fast path vs per-flit reference: cycle-exact equivalence.

The acceptance bar for ``HardwareConfig.burst_mode`` (the batched data
plane through FIFO -> arbiter -> CKS/CKR -> link) is that it changes
*nothing* observable: every workload must produce identical results,
identical ``RunResult.cycles``, and identical per-FIFO push/pop counts
and occupancy peaks with the flag on or off. Only wall-clock simulation
speed may differ.
"""

import numpy as np
import pytest

from repro import NOCTUA, SMI_FLOAT, SMI_INT, SMIProgram, bus, noctua_bus
from repro.apps.gesummv import run_distributed_sim as gesummv_sim
from repro.apps.stencil import jacobi_reference
from repro.apps.stencil import run_distributed_sim as stencil_sim
from repro.codegen.metadata import OpDecl
from repro.core.ops import SMI_ADD
from repro.network.topology import torus2d


def _cfg(burst):
    return NOCTUA.with_(burst_mode=burst)


def _run_both(build):
    """Run ``build(config)`` with burst off/on; assert cycle/stat equality.

    ``build`` returns a :class:`repro.core.program.ProgramResult`; the
    per-flit interpretation (burst off) is the reference. Every
    ``fifo_stats()`` field is burst-invariant; ``max_occupancy`` is
    computed from a time-indexed delta log of exact per-item cycles in
    both modes, so comparing it does double duty: it proves the
    statistic itself and — because any per-item cycle skew would shift
    the log — that every individual stage and take landed on the
    per-flit reference cycle.
    """
    ref = build(_cfg(False))
    fast = build(_cfg(True))
    assert fast.cycles == ref.cycles
    assert fast.engine.fifo_stats() == ref.engine.fifo_stats()
    return ref, fast


# ----------------------------------------------------------------------
# Point-to-point streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hops", [1, 4, 6])
@pytest.mark.parametrize("n,width", [(40, 4), (1024, 8), (515, 8)])
def test_p2p_stream_equivalence(hops, n, width):
    data = np.arange(n, dtype=np.float32)

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=width)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            out = yield from ch.pop_vec(n, width=width)
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    assert ref.store(hops, "end") == fast.store(hops, "end")
    np.testing.assert_array_equal(fast.store(hops, "out"), data)


def test_p2p_bidirectional_same_port_equivalence():
    """Two opposing streams share the fabric (live inputs on both sides)."""
    n = 200

    def build(config):
        prog = SMIProgram(bus(3), config=config)

        # rank0 sends on port 0, receives on port 1; rank2 mirrors.
        def k0(smi):
            s = smi.open_send_channel(n, SMI_INT, 2, 0)
            for i in range(n):
                yield from smi.push(s, i)
            r = smi.open_recv_channel(n, SMI_INT, 2, 1)
            got = []
            for _ in range(n):
                got.append(int((yield from smi.pop(r))))
            smi.store("got", got)

        def k2(smi):
            s = smi.open_send_channel(n, SMI_INT, 0, 1)
            for i in range(n):
                yield from smi.push(s, 100000 + i)
            r = smi.open_recv_channel(n, SMI_INT, 0, 0)
            got = []
            for _ in range(n):
                got.append(int((yield from smi.pop(r))))
            smi.store("got", got)

        prog.add_kernel(k0, rank=0, ops=[OpDecl("send", 0, SMI_INT),
                                         OpDecl("recv", 1, SMI_INT)])
        prog.add_kernel(k2, rank=2, ops=[OpDecl("send", 1, SMI_INT),
                                         OpDecl("recv", 0, SMI_INT)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    assert fast.store(0, "got") == [100000 + i for i in range(n)]
    assert fast.store(2, "got") == list(range(n))


# ----------------------------------------------------------------------
# Credit-based flow control
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window,stall", [(4, 0), (2, 300)])
def test_credited_p2p_equivalence(window, stall):
    n = 150
    ops = [OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)]

    def build(config):
        prog = SMIProgram(bus(2), config=config)

        def sender(smi):
            ch = smi.open_credited_send_channel(n, SMI_INT, 1, 0,
                                                window_packets=window)
            for i in range(n):
                yield from smi.push(ch, i)

        def receiver(smi):
            ch = smi.open_credited_recv_channel(n, SMI_INT, 0, 0,
                                                window_packets=window)
            if stall:
                yield smi.wait(stall)
            out = []
            for _ in range(n):
                out.append(int((yield from smi.pop(ch))))
            smi.store("out", out)

        prog.add_kernel(sender, rank=0, ops=ops)
        prog.add_kernel(receiver, rank=1, ops=ops)
        res = prog.run(max_cycles=10_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    assert fast.store(1, "out") == list(range(n))


# ----------------------------------------------------------------------
# Collectives (support kernels keep every transit FIFO flow-live)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["bcast", "reduce"])
def test_collective_equivalence(kind):
    n = 64
    num_ranks = 4

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        op = (OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)
              if kind == "reduce" else OpDecl("bcast", 0, SMI_FLOAT))

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
            else:
                chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0,
                                               comm)
                for i in range(n):
                    v = yield from chan.reduce(float(smi.rank + i))
                    if smi.rank == 0:
                        out.append(float(v))
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    for rank in range(num_ranks):
        assert ref.store(rank, "end") == fast.store(rank, "end")
    if kind == "bcast":
        assert fast.store(3, "out") == [float(i) for i in range(n)]
    else:
        expect = [float(sum(r + i for r in range(num_ranks)))
                  for i in range(n)]
        assert fast.store(0, "out") == expect


#: (count, endpoint depth) for the roots' feed/drain interleave: count
#: below, at and far above the collective FIFOs' capacity (7 elements per
#: endpoint slot) at the smallest depth ``HardwareConfig`` accepts and at
#: the paper's — count >> depth is §3.3's no-reliance-on-buffering case.
_INTERLEAVE_CASES = [(c, d) for d in (1, 8) for c in (1, 7, 64, 200)]


@pytest.mark.parametrize("kind,count,depth", [
    pytest.param("scatter", 40, 8, id="scatter"),
    pytest.param("gather", 40, 8, id="gather"),
    *(pytest.param(k, c, d, id=f"{k}-n{c}-d{d}")
      for k in ("scatter", "gather") for c, d in _INTERLEAVE_CASES),
])
def test_scatter_gather_equivalence(kind, count, depth):
    """Streaming scatter/gather: the root's interleaved feed/drain loop
    returns the right elements, never deadlocks on the finite
    support-kernel buffers, and ends on the same cycle on both planes."""
    num_ranks = 4

    def build(config):
        prog = SMIProgram(noctua_bus(),
                          config=config.with_(endpoint_fifo_depth=depth))
        op = OpDecl(kind, 0, SMI_FLOAT)

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            if kind == "scatter":
                chan = smi.open_scatter_channel(count, SMI_FLOAT, 0, 0, comm)
                if smi.rank == 0:
                    values = [float(i) for i in range(count * num_ranks)]
                    mine = yield from chan.stream_root(values)
                else:
                    mine = []
                    for _ in range(count):
                        v = yield from chan.pop()
                        mine.append(float(v))
                smi.store("mine", [float(v) for v in mine])
            else:
                chan = smi.open_gather_channel(count, SMI_FLOAT, 0, 0, comm)
                mine = [float(smi.rank * 1000 + i) for i in range(count)]
                if smi.rank == 0:
                    got = yield from chan.collect_root(mine)
                    smi.store("got", [float(v) for v in got])
                else:
                    for v in mine:
                        yield from chan.push(v)
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    for rank in range(num_ranks):
        assert ref.store(rank, "end") == fast.store(rank, "end")
    if kind == "scatter":
        for rank in range(num_ranks):
            expect = [float(rank * count + i) for i in range(count)]
            assert fast.store(rank, "mine") == expect
    else:
        expect = [float(r * 1000 + i)
                  for r in range(num_ranks) for i in range(count)]
        assert fast.store(0, "got") == expect


@pytest.mark.parametrize("kind", ["bcast", "scatter"])
def test_collective_tiny_buffers_equivalence(kind):
    """Starved endpoint buffers keep the support kernels blocked on a
    full ``send_ep`` most of the run: the CK planner, working against
    one-slot endpoints and two-slot transit FIFOs, must keep cycles
    exact."""
    n = 48
    num_ranks = 3

    def build(config):
        prog = SMIProgram(
            noctua_bus(),
            config=config.with_(endpoint_fifo_depth=1,
                                endpoint_latency_cycles=1,
                                inter_ck_fifo_depth=2),
        )
        op = OpDecl(kind, 0, SMI_FLOAT)

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            if kind == "bcast":
                chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0, comm)
                out = []
                for i in range(n):
                    v = yield from chan.bcast(
                        float(i) if smi.rank == 0 else None)
                    out.append(float(v))
                smi.store("out", out)
            else:
                chan = smi.open_scatter_channel(n, SMI_FLOAT, 0, 0, comm)
                if smi.rank == 0:
                    vals = [float(i) for i in range(n * num_ranks)]
                    mine = yield from chan.stream_root(vals)
                else:
                    mine = []
                    for _ in range(n):
                        mine.append(float((yield from chan.pop())))
                smi.store("out", [float(v) for v in mine])
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    for rank in range(num_ranks):
        assert ref.store(rank, "end") == fast.store(rank, "end")
    if kind == "bcast":
        assert fast.store(2, "out") == [float(i) for i in range(n)]
    else:
        assert fast.store(1, "out") == [float(n + i) for i in range(n)]


def test_mixed_stencil_collective_equivalence():
    """A p2p halo exchange and a broadcast share the fabric in one run:
    cascaded plans must stay exact with live collective traffic in
    flight (no static flow-liveness help — every transit FIFO is live)."""
    n_halo = 96
    n_bcast = 32
    num_ranks = 3

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
                smi.store("halo", halo)

            smi.engine.spawn(exchange(), f"halo{smi.rank}")
            chan = smi.open_bcast_channel(n_bcast, SMI_FLOAT, 0, 0, comm)
            got = []
            for i in range(n_bcast):
                v = yield from chan.bcast(
                    float(i) if smi.rank == 0 else None)
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

    ref, fast = _run_both(build)
    for rank in range(num_ranks):
        assert ref.store(rank, "end") == fast.store(rank, "end")
        assert fast.store(rank, "bcast") == [float(i) for i in range(n_bcast)]
        np.testing.assert_array_equal(
            fast.store(rank, "halo"),
            np.full(n_halo, float((rank - 1) % num_ranks), dtype=np.float32))


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------
def test_gesummv_equivalence():
    rng = np.random.default_rng(7)
    n = 24
    A = rng.standard_normal((n, n)).astype(np.float32)
    B = rng.standard_normal((n, n)).astype(np.float32)
    x = rng.standard_normal(n).astype(np.float32)
    y_ref, us_ref = gesummv_sim(0.5, 2.0, A, B, x, config=_cfg(False))
    y_fast, us_fast = gesummv_sim(0.5, 2.0, A, B, x, config=_cfg(True))
    assert us_fast == us_ref
    np.testing.assert_array_equal(y_fast, y_ref)


def test_stencil_equivalence():
    rng = np.random.default_rng(11)
    grid = rng.standard_normal((12, 12)).astype(np.float32)
    topo = torus2d(2, 2)
    out_ref, us_ref = stencil_sim(grid, 3, (2, 2), topology=topo,
                                  config=_cfg(False))
    out_fast, us_fast = stencil_sim(grid, 3, (2, 2), topology=topo,
                                    config=_cfg(True))
    assert us_fast == us_ref
    np.testing.assert_array_equal(out_fast, out_ref)
    np.testing.assert_allclose(
        out_fast, jacobi_reference(grid, 3).astype(np.float32), atol=1e-4)


def test_two_senders_error_cycle_equivalence():
    """A stream violation (two senders on one port) must raise at the same
    simulated cycle with the same FIFO state in both modes — the burst
    planner stops before the offending packet and lets the per-flit path
    consume it."""
    from repro.core.errors import ChannelError

    def build(config):
        prog = SMIProgram(bus(3), config=config)
        n = 32
        caught = {}

        def s0(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, 2, 0)
            yield from ch.push_vec(np.zeros(n, dtype=np.float32), width=8)

        def s1(smi):
            yield smi.wait(40)
            ch = smi.open_send_channel(n, SMI_FLOAT, 2, 0)
            yield from ch.push_vec(np.ones(n, dtype=np.float32), width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(2 * n, SMI_FLOAT, 0, 0)
            try:
                yield from ch.pop_vec(2 * n, width=8)
            except ChannelError:
                caught["cycle"] = smi.cycle
                caught["received"] = ch.elements_received
            smi.store("caught", dict(caught))

        prog.add_kernel(s0, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(s1, rank=1, ops=[OpDecl("send", 0, SMI_FLOAT)])
        prog.add_kernel(rcv, rank=2, ops=[OpDecl("recv", 0, SMI_FLOAT)])
        res = prog.run(max_cycles=1_000_000)
        assert res.completed, res.reason
        return res

    ref = build(_cfg(False))
    fast = build(_cfg(True))
    assert ref.store(2, "caught")["cycle"] > 0
    assert fast.store(2, "caught") == ref.store(2, "caught")


@pytest.mark.parametrize("n,depth", [(96, 8), *_INTERLEAVE_CASES])
def test_reduce_stream_equivalence(n, depth):
    """``ReduceChannel.reduce_stream``: the streamed contribution (and
    the root's interleaved drain) returns the NumPy reduction, never
    deadlocks on the finite support-kernel buffers, and ends on the same
    cycle on both planes."""
    num_ranks = 4

    def build(config):
        prog = SMIProgram(noctua_bus(),
                          config=config.with_(endpoint_fifo_depth=depth))
        op = OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0, comm)
            mine = [float(smi.rank + i) for i in range(n)]
            out = yield from chan.reduce_stream(mine)
            if smi.rank == 0:
                smi.store("out", [float(v) for v in out])
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref, fast = _run_both(build)
    for rank in range(num_ranks):
        assert ref.store(rank, "end") == fast.store(rank, "end")
    expect = np.add.reduce([[np.float32(r + i) for i in range(n)]
                            for r in range(num_ranks)])
    np.testing.assert_array_equal(fast.store(0, "out"), expect)


# ----------------------------------------------------------------------
# Steady-state pattern replication
# ----------------------------------------------------------------------
def _stream_cycles(config, n, hops, stall_at=None, stall_for=0):
    """One p2p stream run; returns (cycles, aggregate PlannerStats)."""
    from repro.simulation.stats import collect_planner_stats

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

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT,
                                             peer=hops)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT,
                                                peer=0)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    np.testing.assert_array_equal(marks["out"], data)
    return marks["end"], collect_planner_stats(res.transport)


@pytest.mark.slow
def test_replication_delta_drift_mid_train():
    """A mid-stream sender stall breaks the steady-state Δ-shift exactly
    where a train would be replicating: the pattern must fail validation
    at the drift (k < K rounds), fall back to the window planner, and
    stay cycle-exact end to end."""
    n = 4096
    stall = dict(stall_at=2048, stall_for=137)
    ref, _ = _stream_cycles(_cfg(False), n, 4, **stall)
    fast, stats = _stream_cycles(_cfg(True), n, 4, **stall)
    assert fast == ref
    # The long steady phases on either side of the drift do replicate.
    assert stats.replications > 0


@pytest.mark.slow
def test_replication_across_parked_ck():
    """Steady-state replication on a long multi-hop stream (mid-pipeline
    CKs park between link-paced packets; their park races replicate as
    pattern observations). Cycle-exact, with committed trains."""
    n = 4096
    ref, _ = _stream_cycles(_cfg(False), n, 4)
    fast, stats = _stream_cycles(_cfg(True), n, 4)
    assert fast == ref
    assert stats.replications > 0
    assert stats.replicated_rounds >= stats.replications


# ----------------------------------------------------------------------
# Deep-buffer regime (trains of many rounds)
# ----------------------------------------------------------------------
def test_deep_buffer_equivalence():
    """At deep buffer depths (where trains exceed one round) the burst
    plane must agree with the per-flit specification on every cycle —
    and trains must actually have committed rounds."""
    from repro import NOCTUA_DEEP

    n = 2048
    flit, _ = _stream_cycles(NOCTUA_DEEP.with_(burst_mode=False), n, 4)
    burst, stats = _stream_cycles(NOCTUA_DEEP, n, 4)
    assert flit == burst
    assert stats.replicated_rounds > 0
    assert stats.replications > 0


@pytest.mark.slow
@pytest.mark.parametrize("hops", [1, 4, 6])
def test_deep_buffer_equivalence_sweep(hops):
    """Full-size deep-buffer sweep of the same equality (nightly job)."""
    from repro import NOCTUA_XDEEP

    n = 8192
    flit, _ = _stream_cycles(NOCTUA_XDEEP.with_(burst_mode=False), n, hops)
    burst, stats = _stream_cycles(NOCTUA_XDEEP, n, hops)
    assert flit == burst
    if hops > 1:
        assert stats.replicated_rounds > 0


# ----------------------------------------------------------------------
# Flow-liveness analysis
# ----------------------------------------------------------------------
def test_flow_dead_marking_and_tripwire():
    """With one declared flow, off-route transit FIFOs are provably dead;
    staging into one trips the guard instead of silently diverging."""
    from repro.core.errors import SimulationError

    prog = SMIProgram(noctua_bus(), config=_cfg(True))
    seen = {}

    def snd(smi):
        ch = smi.open_send_channel(8, SMI_FLOAT, 2, 0)
        yield from ch.push_vec(np.zeros(8, dtype=np.float32), width=8)
        seen["fifos"] = {
            f.name: f.flow_dead for f in smi.engine.fifos
        }

    def rcv(smi):
        ch = smi.open_recv_channel(8, SMI_FLOAT, 0, 0)
        yield from ch.pop_vec(8, width=8)
        # The tripwire: a flow-dead FIFO refuses stage().
        dead = [f for f in smi.engine.fifos if f.flow_dead]
        assert dead, "expected some flow-dead transit FIFOs"
        with pytest.raises(SimulationError, match="flow-dead"):
            dead[0].stage(object())

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=2, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=1_000_000)
    assert res.completed, res.reason
    # The backward direction of the bus carries no declared flow.
    dead_names = [name for name, d in seen["fifos"].items() if d]
    assert any("ckr" in name and "cks" in name for name in dead_names)


def test_wrong_peer_rejected_at_channel_open():
    """A channel contradicting a declared static peer fails fast with an
    actionable error instead of tripping the flow-dead guard mid-run."""
    from repro.core.errors import ChannelError

    prog = SMIProgram(bus(3), config=_cfg(True))
    caught = {}

    def snd(smi):
        try:
            smi.open_send_channel(8, SMI_FLOAT, 1, 0)
        except ChannelError as e:
            caught["msg"] = str(e)
        return
        yield  # pragma: no cover

    def rcv(smi):
        return
        yield  # pragma: no cover

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT, peer=2)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=1000)
    assert res.completed
    assert "peer=2" in caught["msg"]


def test_out_of_topology_peer_rejected_at_build():
    from repro.core.errors import CodegenError

    prog = SMIProgram(bus(2), config=_cfg(True))

    def kernel(smi):
        return
        yield  # pragma: no cover

    prog.add_kernel(kernel, rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=200)])
    with pytest.raises(CodegenError, match="peer 200 does not exist"):
        prog.run(max_cycles=1000)


def test_flow_liveness_disabled_without_burst_mode():
    prog = SMIProgram(bus(2), config=_cfg(False))

    def snd(smi):
        ch = smi.open_send_channel(4, SMI_INT, 1, 0)
        for i in range(4):
            yield from smi.push(ch, i)

    def rcv(smi):
        ch = smi.open_recv_channel(4, SMI_INT, 0, 0)
        for _ in range(4):
            yield from smi.pop(ch)
        assert not any(f.flow_dead for f in smi.engine.fifos)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    res = prog.run(max_cycles=1_000_000)
    assert res.completed, res.reason
