"""Unit tests for transport internals: CK routing decisions, builder wiring,
link pacing, and misrouting diagnostics."""

import pytest

from repro import NOCTUA, SMI_ADD, SMI_FLOAT, SMI_INT, bus, noctua_torus
from repro.codegen.metadata import OpDecl, ProgramPlan
from repro.core.errors import RoutingError, SimulationError
from repro.network.fabric import Fabric
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.routing import compute_routes
from repro.simulation import TICK, Engine, WaitCycles
from repro.transport.builder import build_transport


# ----------------------------------------------------------------------
# Link pacing
# ----------------------------------------------------------------------
def test_link_enforces_cycles_per_packet():
    eng = Engine()
    link = Link(eng, (0, 0), (1, 0), latency_cycles=10, cycles_per_packet=2)
    times = []

    def producer():
        for i in range(10):
            while not link.writable:
                yield link.wait_writable()
            link.stage(Packet(src=0, dst=1, port=0))
            times.append(eng.cycle)
            yield TICK

    def consumer():
        for _ in range(10):
            while not link.fifo.readable:
                yield link.fifo.can_pop
            link.fifo.take()
            yield TICK

    eng.spawn(producer, "p")
    eng.spawn(consumer, "c")
    eng.run()
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 2 for g in gaps), gaps


def test_link_stage_while_busy_raises():
    eng = Engine()
    link = Link(eng, (0, 0), (1, 0), latency_cycles=5, cycles_per_packet=2)

    def proc():
        link.stage(Packet(src=0, dst=1, port=0))
        with pytest.raises(SimulationError, match="busy or full"):
            link.stage(Packet(src=0, dst=1, port=0))
        yield TICK

    eng.spawn(proc, "p")
    eng.run()


def test_link_raw_rate_matches_config():
    # 1 packet / 2 cycles at 312.5 MHz == 40 Gbit/s raw.
    assert NOCTUA.link_raw_bandwidth_bps == pytest.approx(40e9)
    assert NOCTUA.link_payload_bandwidth_bps == pytest.approx(35e9)


def test_link_utilization_counts_slots():
    eng = Engine()
    link = Link(eng, (0, 0), (1, 0), latency_cycles=2, cycles_per_packet=2)

    def producer():
        for _ in range(5):
            while not link.writable:
                yield link.wait_writable()
            link.stage(Packet(src=0, dst=1, port=0))
            yield TICK

    def consumer():
        for _ in range(5):
            while not link.fifo.readable:
                yield link.fifo.can_pop
            link.fifo.take()
            yield TICK

    eng.spawn(producer, "p")
    eng.spawn(consumer, "c")
    eng.run()
    assert link.fifo.pushes == 5
    assert 0 < link.utilization(eng.cycle) <= 1.0


# ----------------------------------------------------------------------
# Fabric wiring
# ----------------------------------------------------------------------
def test_fabric_creates_two_directed_links_per_cable():
    eng = Engine()
    fabric = Fabric(eng, bus(3), NOCTUA)
    assert len(fabric.links()) == 4  # 2 cables x 2 directions
    out01 = fabric.outgoing(0, 1)
    in10 = fabric.incoming(1, 0)
    assert out01 is in10  # same directed link object
    assert fabric.outgoing(0, 0) is None  # unwired port


def test_fabric_rejects_topology_wider_than_platform():
    eng = Engine()
    cfg = NOCTUA.with_(num_interfaces=2)
    with pytest.raises(Exception, match="interfaces"):
        Fabric(eng, noctua_torus(), cfg)


# ----------------------------------------------------------------------
# Builder wiring
# ----------------------------------------------------------------------
def _build(topology, plan, config=NOCTUA):
    eng = Engine()
    routes = compute_routes(topology)
    transport = build_transport(eng, plan, routes, config)
    return eng, transport


def test_builder_instantiates_pairs_for_wired_interfaces_only():
    plan = ProgramPlan(8)
    plan.add(0, OpDecl("send", 0, SMI_INT))
    # Bus endpoints have 1 wired interface, interior ranks 2, torus 4.
    eng, transport = _build(bus(8), plan)
    assert len(transport.rank(0).cks) == 1
    assert len(transport.rank(3).cks) == 2
    eng, transport = _build(noctua_torus(), plan)
    assert len(transport.rank(0).cks) == 4
    assert len(transport.rank(0).ckr) == 4


def test_builder_round_robin_port_assignment():
    plan = ProgramPlan(8)
    for port in range(8):
        plan.add(0, OpDecl("send", port, SMI_INT))
    eng, transport = _build(noctua_torus(), plan)
    rt = transport.rank(0)
    # 8 ports over 4 interfaces: 2 each, deterministic round robin.
    by_iface: dict[int, int] = {}
    for port, iface in rt.iface_of_port.items():
        by_iface[iface] = by_iface.get(iface, 0) + 1
    assert all(count == 2 for count in by_iface.values())


def test_builder_endpoint_depth_override():
    plan = ProgramPlan(2)
    plan.add(0, OpDecl("send", 0, SMI_INT, buffer_depth=32))
    plan.add(0, OpDecl("send", 1, SMI_INT))
    eng, transport = _build(bus(2), plan)
    rt = transport.rank(0)
    lat = NOCTUA.endpoint_latency_cycles
    assert rt.send_endpoints[0].capacity == 32 + lat
    assert rt.send_endpoints[1].capacity == NOCTUA.endpoint_fifo_depth + lat


def test_builder_rejects_plan_larger_than_topology():
    plan = ProgramPlan(4)
    plan.add(3, OpDecl("send", 0, SMI_INT))
    eng = Engine()
    routes = compute_routes(bus(2))
    with pytest.raises(Exception, match="topology"):
        build_transport(eng, plan, routes, NOCTUA)


def test_builder_rejects_port_beyond_platform_ports():
    """The 256-port limit lives with the 1-byte header: a wider port
    cannot be declared, so no plan carrying one reaches the builder."""
    with pytest.raises(Exception, match="1-byte header"):
        OpDecl("send", 256, SMI_INT)


def test_builder_collective_gets_both_endpoints_and_kernel():
    plan = ProgramPlan(4)
    for rank in range(4):
        plan.add(rank, OpDecl("reduce", 3, SMI_FLOAT, reduce_op=SMI_ADD))
    from repro.network.topology import torus2d

    eng, transport = _build(torus2d(2, 2), plan)
    rt = transport.rank(2)
    assert 3 in rt.send_endpoints
    assert 3 in rt.recv_endpoints
    assert rt.support_kernels[3].kind == "reduce"
    assert 3 in rt.coll_app_in and 3 in rt.coll_app_out


def test_undeclared_endpoint_lookup_raises():
    plan = ProgramPlan(2)
    plan.add(0, OpDecl("send", 0, SMI_INT))
    eng, transport = _build(bus(2), plan)
    with pytest.raises(Exception, match="port 5"):
        transport.rank(0).send_endpoint(5)
    with pytest.raises(Exception, match="receive endpoint"):
        transport.rank(0).recv_endpoint(0)


# ----------------------------------------------------------------------
# Misrouting diagnostics (CKR rejects unknown ports)
# ----------------------------------------------------------------------
def test_packet_for_undeclared_port_raises_routing_error():
    plan = ProgramPlan(2)
    plan.add(0, OpDecl("send", 0, SMI_INT))
    plan.add(1, OpDecl("recv", 0, SMI_INT))
    eng = Engine()
    routes = compute_routes(bus(2))
    transport = build_transport(eng, plan, routes, NOCTUA)

    def rogue_sender():
        # Inject a packet for port 9, which rank 1 never declared.
        ep = transport.rank(0).send_endpoints[0]
        pkt = Packet(src=0, dst=1, port=9)
        while not ep.writable:
            yield ep.can_push
        ep.stage(pkt)
        yield TICK
        yield WaitCycles(2000)

    eng.spawn(rogue_sender, "rogue")
    with pytest.raises(RoutingError, match="unknown port 9"):
        eng.run()


def test_intermediate_hop_forwards_foreign_packets():
    """A rank with no declared ops still forwards through-traffic (§4.3:
    'a rank is reachable from all others')."""
    plan = ProgramPlan(3)
    plan.add(0, OpDecl("send", 0, SMI_INT))
    plan.add(2, OpDecl("recv", 0, SMI_INT))
    # Rank 1 has no ops at all, yet sits on the only path 0 -> 2.
    eng = Engine()
    routes = compute_routes(bus(3))
    transport = build_transport(eng, plan, routes, NOCTUA)
    from repro.core.comm import SMIComm
    from repro.core.context import SMIContext

    stores: dict = {}
    ctx0 = SMIContext(0, transport.rank(0), NOCTUA, eng, SMIComm.world(3), stores)
    ctx2 = SMIContext(2, transport.rank(2), NOCTUA, eng, SMIComm.world(3), stores)

    def sender(smi):
        ch = smi.open_send_channel(8, SMI_INT, 2, 0)
        for i in range(8):
            yield from smi.push(ch, i)

    def receiver(smi):
        ch = smi.open_recv_channel(8, SMI_INT, 0, 0)
        out = []
        for _ in range(8):
            v = yield from smi.pop(ch)
            out.append(int(v))
        smi.store("out", out)

    eng.spawn(sender(ctx0), "s")
    eng.spawn(receiver(ctx2), "r")
    assert eng.run(max_cycles=100_000).completed
    assert stores[(2, "out")] == list(range(8))


def test_isolated_rank_gets_loopback_pair():
    """A rank with no wired interfaces still gets one CKS/CKR pair so
    self-sends work."""
    from repro.network.topology import Topology, Connection

    top = Topology(3, [Connection((0, 0), (1, 0))])  # rank 2 unwired
    plan = ProgramPlan(3)
    plan.add(2, OpDecl("send", 0, SMI_INT))
    plan.add(2, OpDecl("recv", 0, SMI_INT))
    eng = Engine()
    # Routing would fail all-pairs; build tables only for ranks 0/1 via a
    # connected subtopology, then check rank 2's loopback transport.
    routes = compute_routes(Topology(3, [Connection((0, 0), (1, 0)),
                                         Connection((1, 1), (2, 0))]))
    transport = build_transport(eng, plan, routes, NOCTUA)
    rt = transport.rank(2)
    assert list(rt.cks) == [0]

    from repro.core.comm import SMIComm
    from repro.core.context import SMIContext

    stores: dict = {}
    ctx = SMIContext(2, rt, NOCTUA, eng, SMIComm.world(3), stores)

    def kernel(smi):
        s = smi.open_send_channel(5, SMI_INT, 2, 0)
        r = smi.open_recv_channel(5, SMI_INT, 2, 0)
        for i in range(5):
            yield from smi.push(s, i * 7)
        out = []
        for _ in range(5):
            v = yield from smi.pop(r)
            out.append(int(v))
        smi.store("loop", out)

    eng.spawn(kernel(ctx), "k")
    assert eng.run(max_cycles=100_000).completed
    assert stores[(2, "loop")] == [0, 7, 14, 21, 28]
