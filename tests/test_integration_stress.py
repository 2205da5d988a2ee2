"""Stress and property tests across the full stack: many concurrent
channels, random traffic patterns, protocol mixing, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NOCTUA, SMI_ADD, SMI_FLOAT, SMI_INT, SMIProgram, noctua_torus
from repro.codegen.metadata import OpDecl
from repro.network.topology import torus2d


def test_all_to_one_convergecast_p2p():
    """Seven ranks stream to rank 0 simultaneously on distinct ports:
    exercises CKR fan-in, inter-CK forwarding and polling fairness."""
    prog = SMIProgram(noctua_torus())
    n = 40

    def make_sender(rank):
        def sender(smi):
            ch = smi.open_send_channel(n, SMI_INT, 0, rank)
            for i in range(n):
                yield from smi.push(ch, rank * 100 + i)

        return sender

    def sink(smi):
        chans = {r: smi.open_recv_channel(n, SMI_INT, r, r)
                 for r in range(1, 8)}
        outs = {r: [] for r in chans}
        remaining = {r: n for r in chans}
        # Drain all channels concurrently via spawned processes.
        done = []

        def drain(r, ch):
            for _ in range(n):
                v = yield from ch.pop()
                outs[r].append(int(v))
            done.append(r)

        for r, ch in list(chans.items())[1:]:
            smi.engine.spawn(drain(r, ch), f"drain{r}")
        first_r, first_ch = next(iter(chans.items()))
        yield from drain(first_r, first_ch)
        while len(done) < 7:
            yield smi.wait(32)
        smi.store("outs", outs)

    for r in range(1, 8):
        prog.add_kernel(make_sender(r), rank=r, name=f"tx{r}",
                        ops=[OpDecl("send", r, SMI_INT)])
    prog.add_kernel(sink, rank=0,
                    ops=[OpDecl("recv", p, SMI_INT) for p in range(1, 8)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    outs = res.store(0, "outs")
    for r in range(1, 8):
        assert outs[r] == [r * 100 + i for i in range(n)]


def test_all_pairs_simultaneous_exchange():
    """Every rank sends to every other rank at once (8x7 = 56 concurrent
    transient channels through shared links)."""
    prog = SMIProgram(noctua_torus())
    n = 10
    P = 8

    def kernel(smi):
        me = smi.rank
        sends = {}
        recvs = {}
        for other in range(P):
            if other == me:
                continue
            # Port = sender rank: unique (send, recv) pairing per pair.
            sends[other] = smi.open_send_channel(n, SMI_INT, other, me)
            recvs[other] = smi.open_recv_channel(n, SMI_INT, other, other)
        done = []

        def tx(other, ch):
            for i in range(n):
                yield from ch.push(me * 1000 + other * 10 + i % 10)
            done.append(("t", other))

        def rx(other, ch):
            got = []
            for _ in range(n):
                v = yield from ch.pop()
                got.append(int(v))
            smi.store(f"from{other}", got)
            done.append(("r", other))

        for other, ch in sends.items():
            smi.engine.spawn(tx(other, ch), f"tx{me}->{other}")
        for other, ch in recvs.items():
            smi.engine.spawn(rx(other, ch), f"rx{me}<-{other}")
        while len(done) < 2 * (P - 1):
            yield smi.wait(64)

    ops = []
    for p in range(P):
        ops.append(OpDecl("send", p, SMI_INT))
        ops.append(OpDecl("recv", p, SMI_INT))
    # Each rank sends on its own port and receives on all others' ports;
    # declare the union (send+recv per port is legal).
    prog.add_kernel(kernel, ranks="all", ops=ops)
    res = prog.run(max_cycles=100_000_000)
    assert res.completed, res.reason
    for me in range(P):
        for other in range(P):
            if other == me:
                continue
            got = res.store(me, f"from{other}")
            expect = [other * 1000 + me * 10 + i % 10 for i in range(n)]
            assert got == expect, (me, other)


def test_determinism_of_full_program():
    """The same program produces bit-identical timing across runs."""

    def run():
        prog = SMIProgram(torus2d(2, 2))

        def kernel(smi):
            chan = smi.open_reduce_channel(64, SMI_FLOAT, SMI_ADD, 0, 0)
            for i in range(64):
                yield from chan.reduce(float(smi.rank * 3 + i))
            smi.store("end", smi.cycle)

        prog.add_kernel(
            kernel, ranks="all",
            ops=[OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)],
        )
        res = prog.run(max_cycles=10_000_000)
        assert res.completed
        return res.cycles, tuple(
            res.store(r, "end") for r in range(4)
        )

    assert run() == run()


@settings(deadline=None, max_examples=6)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    port_base=st.integers(0, 200),
)
def test_property_random_pipeline_chain(seed, n, port_base):
    """A random 4-stage MPMD pipeline (rank i transforms and forwards to
    rank i+1) preserves data through arbitrary ports and sizes."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-1000, 1000, size=n).astype(np.int32)
    prog = SMIProgram(torus2d(2, 2))

    def make_stage(rank):
        def stage(smi):
            if rank > 0:
                rcv = smi.open_recv_channel(n, SMI_INT, rank - 1,
                                            port_base + rank - 1)
            if rank < 3:
                snd = smi.open_send_channel(n, SMI_INT, rank + 1,
                                            port_base + rank)
            for i in range(n):
                if rank == 0:
                    value = int(data[i])
                else:
                    value = yield from smi.pop(rcv)
                value = int(value) + 1  # each stage increments
                if rank < 3:
                    yield from smi.push(snd, value)
                else:
                    smi.store(f"out{i}", value)

        return stage

    for rank in range(4):
        ops = []
        if rank > 0:
            ops.append(OpDecl("recv", port_base + rank - 1, SMI_INT))
        if rank < 3:
            ops.append(OpDecl("send", port_base + rank, SMI_INT))
        prog.add_kernel(make_stage(rank), rank=rank, name=f"stage{rank}",
                        ops=ops)
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    for i in range(n):
        assert res.store(3, f"out{i}") == int(data[i]) + 4


def test_mixed_p2p_and_collective_traffic():
    """Point-to-point streams and a collective share the fabric."""
    prog = SMIProgram(torus2d(2, 2))
    n = 30

    def p2p_app(smi):
        if smi.rank == 0:
            ch = smi.open_send_channel(n, SMI_INT, 3, 5)
            for i in range(n):
                yield from smi.push(ch, i)
        elif smi.rank == 3:
            ch = smi.open_recv_channel(n, SMI_INT, 0, 5)
            out = []
            for _ in range(n):
                v = yield from smi.pop(ch)
                out.append(int(v))
            smi.store("p2p", out)
        else:
            return
            yield  # pragma: no cover

    def coll_app(smi):
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 1)
        out = []
        for i in range(n):
            v = yield from chan.bcast(float(i) if smi.rank == 1 else None)
            out.append(float(v))
        smi.store("bcast", out)

    prog.add_kernel(p2p_app, ranks=[0, 3], ops=[
        OpDecl("send", 5, SMI_INT), OpDecl("recv", 5, SMI_INT)
    ])
    prog.add_kernel(coll_app, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed
    assert res.store(3, "p2p") == list(range(n))
    for r in range(4):
        assert res.store(r, "bcast") == [float(i) for i in range(n)]


def test_fabric_conservation_no_packet_loss():
    """Every DATA packet staged onto the fabric is delivered: link counters
    sum to what endpoint FIFOs consumed (lossless transport)."""
    prog = SMIProgram(torus2d(2, 2))
    n = 77  # 11 packets

    def sender(smi):
        ch = smi.open_send_channel(n, SMI_INT, 3, 0)
        for i in range(n):
            yield from smi.push(ch, i)

    def receiver(smi):
        ch = smi.open_recv_channel(n, SMI_INT, 0, 0)
        for _ in range(n):
            yield from smi.pop(ch)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(receiver, rank=3, ops=[OpDecl("recv", 0, SMI_INT)])
    res = prog.run(max_cycles=10_000_000)
    assert res.completed
    fabric = res.transport.fabric
    hops = res.routes.hops(0, 3)
    expected_packets = SMI_INT.packets_for(n)
    assert sum(link.pushes for link in fabric.links()) \
        == expected_packets * hops
