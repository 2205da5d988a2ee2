"""Integration tests: point-to-point transient channels end to end (§3.1).

These run full programs on the cycle simulator: application kernels,
endpoint FIFOs, CKS/CKR communication kernels, routing tables and links.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NOCTUA,
    SMI_CHAR,
    SMI_DOUBLE,
    SMI_FLOAT,
    SMI_INT,
    ChannelError,
    MessageOverrunError,
    SMIProgram,
    TypeMismatchError,
    bus,
    noctua_bus,
    noctua_torus,
    torus2d,
)
from repro.codegen.metadata import OpDecl
from repro.core.errors import DeadlockError
from repro.transport.arbiter import PollingArbiter


def _pipe(topology, n, src, dst, dtype=SMI_INT, port=0, payload=None,
          config=NOCTUA, max_cycles=2_000_000):
    """Build and run a src->dst stream of n elements; return (result, data)."""
    prog = SMIProgram(topology, config=config)
    data = payload if payload is not None else list(range(n))

    def sender(smi):
        ch = smi.open_send_channel(n, dtype, dst, port)
        for v in data:
            yield from smi.push(ch, v)

    def receiver(smi):
        ch = smi.open_recv_channel(n, dtype, src, port)
        out = []
        for _ in range(n):
            v = yield from smi.pop(ch)
            out.append(v)
        smi.store("out", out)

    prog.add_kernel(sender, rank=src,
                    ops=[OpDecl("send", port, dtype)])
    prog.add_kernel(receiver, rank=dst,
                    ops=[OpDecl("recv", port, dtype)])
    res = prog.run(max_cycles=max_cycles)
    assert res.completed, res.reason
    return res, res.store(dst, "out")


def test_one_hop_delivery_in_order():
    res, out = _pipe(bus(2), 40, 0, 1)
    assert [int(v) for v in out] == list(range(40))


def test_multi_hop_delivery_bus():
    # 0 -> 4 over the linear bus: 4 hops of store-and-forward CK routing.
    res, out = _pipe(bus(8), 25, 0, 4)
    assert [int(v) for v in out] == list(range(25))
    assert res.routes.hops(0, 4) == 4


def test_seven_hop_delivery():
    res, out = _pipe(bus(8), 10, 0, 7)
    assert [int(v) for v in out] == list(range(10))
    assert res.routes.hops(0, 7) == 7


def test_torus_delivery():
    res, out = _pipe(noctua_torus(), 30, 1, 6)
    assert [int(v) for v in out] == list(range(30))


def test_reverse_direction():
    res, out = _pipe(bus(4), 15, 3, 0)
    assert [int(v) for v in out] == list(range(15))


def test_float_payload():
    data = [0.5 * i for i in range(21)]
    _, out = _pipe(bus(2), 21, 0, 1, dtype=SMI_FLOAT, payload=data)
    np.testing.assert_allclose(out, data)


def test_double_payload_fewer_elements_per_packet():
    data = [1e-3 * i for i in range(10)]
    _, out = _pipe(bus(2), 10, 0, 1, dtype=SMI_DOUBLE, payload=data)
    np.testing.assert_allclose(out, data)


def test_non_multiple_of_packet_size():
    # 7 int32 per packet: 20 elements = 2 full + 1 partial packet.
    _, out = _pipe(bus(2), 20, 0, 1)
    assert [int(v) for v in out] == list(range(20))


def test_single_element_message():
    _, out = _pipe(bus(2), 1, 0, 1)
    assert [int(v) for v in out] == [0]


def test_self_send_loopback():
    """A rank can stream to itself using matching ports (§3.1.1)."""
    prog = SMIProgram(bus(2))
    n = 12

    def kernel(smi):
        chs = smi.open_send_channel(n, SMI_INT, 0, 0)
        chr_ = smi.open_recv_channel(n, SMI_INT, 0, 0)
        for i in range(n):
            yield from smi.push(chs, i)
        out = []
        for _ in range(n):
            v = yield from smi.pop(chr_)
            out.append(int(v))
        smi.store("out", out)

    prog.add_kernel(kernel, rank=0, ops=[
        OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)
    ])
    res = prog.run(max_cycles=200_000)
    assert res.completed
    assert res.store(0, "out") == list(range(n))


def test_two_parallel_channels_distinct_ports():
    """Ports operate fully in parallel (§2.2)."""
    prog = SMIProgram(bus(3))
    n = 30

    def sender(smi):
        a = smi.open_send_channel(n, SMI_INT, 1, 0)
        b = smi.open_send_channel(n, SMI_INT, 2, 1)
        for i in range(n):
            yield from smi.push(a, i)
            yield from smi.push(b, 100 + i)

    def make_receiver(port, src):
        def receiver(smi):
            ch = smi.open_recv_channel(n, SMI_INT, src, port)
            out = []
            for _ in range(n):
                v = yield from smi.pop(ch)
                out.append(int(v))
            smi.store("out", out)

        return receiver

    prog.add_kernel(sender, rank=0, ops=[
        OpDecl("send", 0, SMI_INT), OpDecl("send", 1, SMI_INT)
    ])
    prog.add_kernel(make_receiver(0, 0), rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    prog.add_kernel(make_receiver(1, 0), rank=2, ops=[OpDecl("recv", 1, SMI_INT)])
    res = prog.run(max_cycles=500_000)
    assert res.completed
    assert res.store(1, "out") == list(range(n))
    assert res.store(2, "out") == [100 + i for i in range(n)]


def test_bidirectional_exchange_same_port():
    """Two ranks exchange messages on the same port simultaneously, like
    the stencil's halo exchange (Listing 3)."""
    prog = SMIProgram(bus(2))
    n = 20

    def make_kernel(me, other):
        def kernel(smi):
            chs = smi.open_send_channel(n, SMI_INT, other, 0)
            chr_ = smi.open_recv_channel(n, SMI_INT, other, 0)
            out = []
            for i in range(n):
                yield from smi.push(chs, me * 1000 + i)
            for _ in range(n):
                v = yield from smi.pop(chr_)
                out.append(int(v))
            smi.store("out", out)

        return kernel

    for me, other in ((0, 1), (1, 0)):
        prog.add_kernel(make_kernel(me, other), rank=me, name=f"k{me}", ops=[
            OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)
        ])
    res = prog.run(max_cycles=500_000)
    assert res.completed
    assert res.store(0, "out") == [1000 + i for i in range(n)]
    assert res.store(1, "out") == [0 + i for i in range(n)]


def test_push_beyond_count_raises():
    prog = SMIProgram(bus(2))

    def sender(smi):
        ch = smi.open_send_channel(2, SMI_INT, 1, 0)
        for i in range(3):
            yield from smi.push(ch, i)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    with pytest.raises(MessageOverrunError):
        prog.run(max_cycles=10_000)


def test_pop_beyond_count_raises():
    prog = SMIProgram(bus(2))

    def sender(smi):
        ch = smi.open_send_channel(2, SMI_INT, 1, 0)
        for i in range(2):
            yield from smi.push(ch, i)

    def receiver(smi):
        ch = smi.open_recv_channel(2, SMI_INT, 0, 0)
        for _ in range(3):
            yield from smi.pop(ch)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(receiver, rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    with pytest.raises(MessageOverrunError):
        prog.run(max_cycles=100_000)


def test_type_mismatch_detected_at_receiver():
    prog = SMIProgram(bus(2))

    def sender(smi):
        ch = smi.open_send_channel(7, SMI_FLOAT, 1, 0)
        for i in range(7):
            yield from smi.push(ch, float(i))

    def receiver(smi):
        ch = smi.open_recv_channel(7, SMI_INT, 0, 0)  # wrong type
        yield from smi.pop(ch)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(receiver, rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    with pytest.raises(TypeMismatchError):
        prog.run(max_cycles=100_000)


def test_vector_push_pop_roundtrip():
    prog = SMIProgram(bus(2))
    n = 64
    data = np.arange(n, dtype=np.int32) * 3

    def sender(smi):
        ch = smi.open_send_channel(n, SMI_INT, 1, 0)
        yield from ch.push_vec(data, width=8)

    def receiver(smi):
        ch = smi.open_recv_channel(n, SMI_INT, 0, 0)
        out = yield from ch.pop_vec(n, width=8)
        smi.store("out", out)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(receiver, rank=1, ops=[OpDecl("recv", 0, SMI_INT)])
    res = prog.run(max_cycles=200_000)
    assert res.completed
    np.testing.assert_array_equal(res.store(1, "out"), data)


def test_undeclared_port_raises():
    prog = SMIProgram(bus(2))

    def sender(smi):
        ch = smi.open_send_channel(1, SMI_INT, 1, 9)  # port 9 undeclared
        yield from smi.push(ch, 1)

    prog.add_kernel(sender, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    with pytest.raises(Exception, match="port 9"):
        prog.run(max_cycles=10_000)


@settings(deadline=None, max_examples=15)
@given(
    n=st.integers(min_value=1, max_value=80),
    src=st.integers(min_value=0, max_value=7),
    dst=st.integers(min_value=0, max_value=7),
)
def test_property_any_pair_any_size_delivers_in_order(n, src, dst):
    """Property: every (src, dst, n) combination on the torus delivers the
    exact element sequence, including self-sends."""
    _, out = _pipe(torus2d(2, 4), n, src, dst) if src != dst else (None, None)
    if src == dst:
        return  # covered by the loopback test; sender/receiver share a rank
    assert [int(v) for v in out] == list(range(n))


# ----------------------------------------------------------------------
# Per-flit push_vec slices payloads; the element loop is its reference
# ----------------------------------------------------------------------
def _push_vec_element_loop(chan, values, width):
    """The per-flit ``push_vec`` as it was written before payloads were
    sliced out of the array: one ``packer.add`` per element."""
    from repro.simulation import TICK

    values = np.asarray(values, dtype=chan.dtype.np_dtype)
    chan._check_open(len(values))
    for start in range(0, len(values), width):
        for v in values[start:start + width]:
            pkt = chan._packer.add(v)
            chan._sent += 1
            if pkt is None and chan._sent == chan.count:
                pkt = chan._packer.flush()
            if pkt is not None:
                yield from chan._stage_packet(pkt)
        yield TICK


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from([SMI_FLOAT, SMI_DOUBLE, SMI_CHAR]),
    pieces=st.lists(
        st.tuples(st.sampled_from(["vec", "push"]), st.integers(1, 40),
                  st.integers(1, 16)),
        min_size=1, max_size=5),
    short=st.integers(0, 5),
    depth=st.integers(1, 8),
    pace=st.sampled_from([1, 2, 3, 4]),
)
def test_per_flit_push_vec_matches_the_element_loop(dtype, pieces, short,
                                                    depth, pace):
    """Mixed ``push_vec`` / ``push`` calls on one message — partial packets
    carried across calls, a final mid-packet flush, endpoints shallow
    enough to stall mid-chunk, a link paced at 1 to 4 cycles per packet —
    stage every packet in the same cycle with the same payload, and
    report the same ``elements_sent`` at every resumption, as the
    element-by-element loop."""
    total = sum(n for _, n, _ in pieces)
    count = total + short        # the message may be left open
    data = (np.arange(total) % 100).astype(dtype.np_dtype)
    config = NOCTUA.with_(burst_mode=False, endpoint_fifo_depth=depth,
                          link_cycles_per_packet=pace)
    ops = [OpDecl("send", 0, dtype), OpDecl("recv", 0, dtype)]

    def run(sliced):
        prog = SMIProgram(bus(2), config=config)
        seen = []

        def sender(smi):
            ch = smi.open_send_channel(count, dtype, 1, 0)
            at = 0
            for kind, n, width in pieces:
                chunk = data[at:at + n]
                at += n
                if kind == "push":
                    for v in chunk:
                        yield from ch.push(v)
                        seen.append((smi.cycle, ch.elements_sent))
                    continue
                gen = (ch.push_vec(chunk, width=width) if sliced
                       else _push_vec_element_loop(ch, chunk, width))
                for cond in gen:
                    seen.append((smi.cycle, ch.elements_sent))
                    yield cond
            seen.append((smi.cycle, ch.elements_sent, ch._packer.pending))

        def receiver(smi):
            ch = smi.open_recv_channel(count, dtype, 0, 0)
            got = total - total % dtype.elements_per_packet \
                if short else total
            smi.store("got", (yield from ch.pop_vec(got, width=3)))

        prog.add_kernel(sender, rank=0, ops=ops)
        prog.add_kernel(receiver, rank=1, ops=ops)
        res = prog.run(max_cycles=1_000_000)
        assert res.completed
        stats = {name: (st_["pushes"], st_["pops"], st_["max_occupancy"])
                 for name, st_ in res.engine.fifo_stats().items()}
        return res.cycles, seen, stats, res.store(1, "got").tobytes()

    assert run(sliced=True) == run(sliced=False)


# ----------------------------------------------------------------------
# ROADMAP "Exactness beyond the default link pace": the split push_vec
# table (8 000 SMI_INT, 1 hop, 3 cycles per packet, width 4)
# ----------------------------------------------------------------------
SPLIT_N = 8000
SPLIT_PACE = NOCTUA.with_(link_cycles_per_packet=3)
#: Per-flit end cycle for a first ``push_vec`` of ``s`` elements.
SPLIT_TABLE = {4000: 4122, 4001: 4123, 4002: 4123, 4003: 4123,
               4004: 4124, 4005: 4125, 4006: 4125, 4007: 4124}


def _split_stream(config, s, element_loop=False):
    """``push_vec(data[:s])``, a 500-cycle pause, ``push_vec(data[s:])``
    against one ``pop_vec`` of the whole message; the end cycle."""
    data = np.arange(SPLIT_N, dtype=np.int32)
    prog = SMIProgram(noctua_bus(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(SPLIT_N, SMI_INT, 1, 0)
        for part in (data[:s], None, data[s:]):
            if part is None:
                yield smi.wait(500)
            elif element_loop:
                yield from _push_vec_element_loop(ch, part, 4)
            else:
                yield from ch.push_vec(part, width=4)

    def rcv(smi):
        ch = smi.open_recv_channel(SPLIT_N, SMI_INT, 0, 0)
        smi.store("got", (yield from ch.pop_vec(SPLIT_N, width=4)))

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT, peer=1)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_INT, peer=0)])
    res = prog.run(max_cycles=1_000_000)
    assert res.completed, res.reason
    assert np.array_equal(res.store(1, "got"), data)
    return res.cycles


@pytest.mark.parametrize("s", sorted(SPLIT_TABLE))
def test_split_push_vec_specification_agrees_with_the_element_loop(s):
    """First step of the ROADMAP exactness item — which side lies? Not
    the specification: at 3 cycles per packet the per-flit ``push_vec``
    (sliced payloads, the trailing partial packet handed to the packer
    when the call ends) and the element-by-element loop end in the same
    cycle for every split point, mid-packet (4000–4003, 4005–4007) or on
    a packet boundary (4004 = 572 * 7)."""
    flit = SPLIT_PACE.with_(burst_mode=False)
    assert _split_stream(flit, s) == SPLIT_TABLE[s]
    assert _split_stream(flit, s, element_loop=True) == SPLIT_TABLE[s]


@pytest.mark.parametrize("s", [
    pytest.param(s, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Exactness beyond the default link pace': the "
               "default plane ends one cycle late when the sender's stall "
               "begins at elements 4000-4003 (link pace 3, width 4); the "
               "specification agrees with the element loop, so the fault "
               "is the burst plane's - not fixed here"))
    if s < 4004 else s
    for s in sorted(SPLIT_TABLE)])
def test_split_push_vec_default_plane_matches_the_specification(s):
    """The other side of the same table. The divergence survives a sender
    that runs the element loop (no send lane), and ``macro_cruise=False``
    is exact on all eight rows — both recorded here so the fix knows
    where not to look."""
    assert _split_stream(SPLIT_PACE.with_(macro_cruise=False), s) \
        == SPLIT_TABLE[s]
    assert _split_stream(SPLIT_PACE, s) == SPLIT_TABLE[s]


# ----------------------------------------------------------------------
# ROADMAP "Exactness beyond the default link pace", second lead: two
# p2p streams sent in sequence by one kernel, beside a third kernel's
# stream on the same path (1 hop, width 8, SMI_FLOAT)
# ----------------------------------------------------------------------
#: (n1, n2) -> the per-flit plane's deadlock cycle.
SEQUENTIAL_SENDS = {(2048, 4096): 1509, (1024, 1024): 909}


def _sequential_sends(config, n1, n2):
    """Rank 0: kernel A pushes ``n1`` floats on port 0, then ``n2`` on
    port 2; kernel B pushes ``n1`` on port 1. Rank 1: kernel C pops
    port 0, then port 2; kernel D pops port 1. Progress relies on
    channel buffering, which §3.3 forbids, so a deadlock is correct."""
    prog = SMIProgram(noctua_bus(), config=config)
    data = np.arange(max(n1, n2), dtype=np.float32)

    def sender(*legs):
        def kernel(smi):
            for port, n in legs:
                ch = smi.open_send_channel(n, SMI_FLOAT, 1, port)
                yield from ch.push_vec(data[:n], width=8)
        return kernel

    def receiver(*legs):
        def kernel(smi):
            for port, n in legs:
                ch = smi.open_recv_channel(n, SMI_FLOAT, 0, port)
                yield from ch.pop_vec(n, width=8)
        return kernel

    for rank, name, kernel, legs, op in (
            (0, "A", sender, ((0, n1), (2, n2)), "send"),
            (0, "B", sender, ((1, n1),), "send"),
            (1, "C", receiver, ((0, n1), (2, n2)), "recv"),
            (1, "D", receiver, ((1, n1),), "recv")):
        prog.add_kernel(kernel(*legs), rank=rank, name=name,
                        ops=[OpDecl(op, port, SMI_FLOAT, peer=1 - rank)
                             for port, _n in legs])
    return prog.run(max_cycles=1_000_000)


def _diverges(reason):
    return pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Exactness beyond the default link pace' (lead: "
               "sequential sends from one kernel): " + reason)


@pytest.mark.parametrize("n1,n2,plane", [
    (2048, 4096, "flit"),
    pytest.param(2048, 4096, "burst", marks=_diverges(
        "completes at cycle 2 767; first counts_at divergence at cycle "
        "1 151, rank0.send_ep2 1 pop per-flit against 0")),
    pytest.param(2048, 4096, "default", marks=_diverges(
        "completes at cycle 2 767, like macro_cruise=False")),
    (1024, 1024, "flit"),
    (1024, 1024, "burst"),
    pytest.param(1024, 1024, "default", marks=_diverges(
        "completes at cycle 1 178; first counts_at divergence at cycle "
        "557, rank0.send_ep2 1 pop per-flit against 0")),
])
def test_sequential_sends_deadlock_where_the_specification_does(n1, n2,
                                                                 plane):
    """Every plane must reproduce the per-flit plane's deadlock cycle."""
    config = {"flit": NOCTUA.with_(burst_mode=False),
              "burst": NOCTUA.with_(macro_cruise=False),
              "default": NOCTUA}[plane]
    cycle = SEQUENTIAL_SENDS[n1, n2]
    with pytest.raises(DeadlockError,
                       match=f"deadlocked at cycle {cycle}:"):
        _sequential_sends(config, n1, n2)


@_diverges(
    "with the plan-miss backoff disabled the burst plane completes at "
    "cycle 1 178 after 37 planner attempts, so the deadlock above holds "
    "only because planning backs off; the fault is in the window / train "
    "planning both burst planes share, not in the jump")
def test_sequential_sends_deadlock_without_the_plan_miss_backoff(
        monkeypatch):
    """The (1024, 1024) burst-plane case with the planner never backing
    off: it must still deadlock at the per-flit plane's cycle."""
    monkeypatch.setattr(PollingArbiter, "PLAN_MISS_LIMIT", 1 << 60)
    with pytest.raises(DeadlockError,
                       match=f"deadlocked at cycle "
                             f"{SEQUENTIAL_SENDS[1024, 1024]}:"):
        _sequential_sends(NOCTUA.with_(macro_cruise=False), 1024, 1024)
