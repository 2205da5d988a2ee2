"""Transport construction: from program metadata to running hardware.

This is the simulator-side equivalent of the paper's code generator output
(Fig. 8): given the per-rank operation metadata, the topology and the routing
tables, instantiate every CKS/CKR pair, endpoint FIFO, inter-CK connection
and collective support kernel, and spawn them as daemon processes.

Per rank, one CKS/CKR pair is created for every *used* network interface
(the wired ones, or a single loopback pair for an isolated rank) — matching
Table 1's configurations, where a 1-QSFP build instantiates one pair and a
4-QSFP build four pairs plus the quadratically growing interconnect.

Ports are assigned to interfaces round-robin in ascending port order, so the
load of multiple endpoints spreads across the CKS/CKR pairs; the assignment
is deterministic and derivable by every rank from the metadata alone
(:meth:`~repro.codegen.metadata.RankPlan.iface_of_port`).

Only the *reached fabric* is built (:func:`reached_ranks`; sharded builds
intersect their ranks with it): a rank outside it could only ever take
its cycle-0 step and park, so leaving it out changes no built FIFO's
trajectory. Links with one reached end are kept — every built CKR polls
its full input list — and a link towards an unbuilt rank is a *dead end*:
``flow_dead`` on both planes, never a shard boundary. The code
generator's inventory (:mod:`repro.codegen.generator`, the bitstream)
still lists every rank.

On the burst plane the builder also answers, once and statically, "which
CKs and FIFOs can a declared point-to-point flow cross": one table-driven
walk (:func:`_walk_routes`) follows :func:`repro.transport.ck.route_step`
from every send endpoint, for sequential and sharded builds alike. Its
answer marks the FIFOs no flow can reach ``flow_dead``, gives only the CKs
on a route a planner hook (the static rule of *engagement*,
``docs/ARCHITECTURE.md``) and says whether a shard's planner must be pinned
live for a flow whose lanes register elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..codegen.metadata import OpDecl, ProgramPlan, RankPlan
from ..core.config import HardwareConfig
from ..core.errors import CodegenError, RoutingError
from ..network.fabric import Fabric
from ..network.routing import Routes
from ..simulation.engine import Engine
from ..simulation.fifo import Fifo
from .ck import CKR, CKS, route_step
from .collectives import SupportKernel, kernel_class
from .planner import SupplyPlanner


@dataclass
class RankTransport:
    """Handles into one rank's transport hardware, used by the API layer."""

    rank: int
    active_ifaces: list[int]
    iface_of_port: dict[int, int]
    send_endpoints: dict[int, Fifo] = field(default_factory=dict)
    recv_endpoints: dict[int, Fifo] = field(default_factory=dict)
    coll_ctrl: dict[int, Fifo] = field(default_factory=dict)
    coll_app_in: dict[int, Fifo] = field(default_factory=dict)
    coll_app_out: dict[int, Fifo] = field(default_factory=dict)
    support_kernels: dict[int, SupportKernel] = field(default_factory=dict)
    cks: dict[int, CKS] = field(default_factory=dict)
    ckr: dict[int, CKR] = field(default_factory=dict)
    ops_by_port: dict[tuple[str, int], OpDecl] = field(default_factory=dict)

    def send_endpoint(self, port: int) -> Fifo:
        try:
            return self.send_endpoints[port]
        except KeyError:
            raise CodegenError(
                f"rank {self.rank}: no send endpoint declared on port {port} "
                "(all ports must be known at build time, §2.2)"
            ) from None

    def recv_endpoint(self, port: int) -> Fifo:
        try:
            return self.recv_endpoints[port]
        except KeyError:
            raise CodegenError(
                f"rank {self.rank}: no receive endpoint declared on port "
                f"{port} (all ports must be known at build time, §2.2)"
            ) from None


@dataclass
class Transport:
    """The whole cluster's transport: per-rank handles plus shared fabric.

    ``ranks`` holds the reached ranks only (:func:`reached_ranks`). A
    *sharded* build (``build_transport(..., shard_ranks=...)``) carries
    only the shard's own reached ranks and the links touching them; every
    directed link between one of them and a reached rank of another shard
    is listed in ``boundaries`` as ``(link, src_is_local)``, ready for the
    sharded backend to attach its :mod:`repro.shard.proxy` endpoints.
    """

    config: HardwareConfig
    routes: Routes
    fabric: Fabric
    ranks: dict[int, RankTransport]
    boundaries: list = field(default_factory=list)
    planner: SupplyPlanner | None = None  # burst plane only

    def rank(self, rank: int) -> RankTransport:
        return self.ranks[rank]


def _endpoint_depth(config: HardwareConfig, decl: OpDecl | None) -> int:
    if decl is not None and decl.buffer_depth is not None:
        return decl.buffer_depth
    return config.endpoint_fifo_depth


def reached_ranks(plan: ProgramPlan, routes: Routes,
                  kernel_ranks: Iterable[int] = ()) -> frozenset[int]:
    """The ranks a build instantiates: every kernel rank and every rank
    declaring an operation, every rank on :meth:`Routes.path` of a
    declared ``send`` (to its ``peer``, or to every rank when ``peer`` is
    ``None``) and between each pair of ranks declaring the same
    collective port. A table without a path for some declared pair
    reaches everything — the full fabric, as if nothing were known."""
    reached = set(kernel_ranks)
    members: dict[int, list[int]] = {}
    try:
        for rank, rank_plan in plan.rank_plans.items():
            reached.add(rank)
            for decl in rank_plan.ops:
                if decl.is_collective:
                    members.setdefault(decl.port, []).append(rank)
                elif decl.kind == "send":
                    for dst in ((decl.peer,) if decl.peer is not None
                                else range(plan.num_ranks)):
                        reached.update(routes.path(rank, dst))
        for ranks in members.values():
            for src in ranks:
                for dst in ranks:
                    reached.update(routes.path(src, dst))
    except RoutingError:
        return frozenset(range(plan.num_ranks))
    return frozenset(reached)


def _walk_routes(
    plan: ProgramPlan,
    routes: Routes,
    ranks: dict[int, RankTransport],
    fabric: Fabric,
) -> tuple[set[int], set[int], bool]:
    """Walk every declared point-to-point flow from its send endpoint,
    one :func:`~repro.transport.ck.route_step` at a time (one walk per
    possible destination; ``OpDecl.peer`` narrows that to one). Returns
    ``(visited, routed, pinned)``.

    The walk is driven by the tables alone — the routing tables, each
    rank's port table (derivable from the metadata by
    :meth:`RankPlan.iface_of_port`), the topology's wiring — so it crosses
    a rank this build holds no CKs for (another shard's) as readily as a
    local one, and serves sequential and sharded builds alike. Only where
    a rank is local does it touch hardware: the crossed CK maps the step
    to the FIFO it owns, and both are recorded.

    ``visited`` — ids of the FIFOs of this build some route crosses —
    feeds :func:`_mark_flow_dead`: on a program without collectives the
    point-to-point flows are all the flows there are. ``routed`` — ids of
    the local CKs some route crosses — is the static half of planner
    engagement: a CK on no point-to-point route is built without a planner
    hook. ``pinned`` says some route crosses a local CK with its source
    or destination rank outside the build: that flow's lanes register in
    another shard's planner, so nothing local can raise this planner's
    live state for it (never the case in a sequential build).
    """
    topology = routes.topology
    visited: set[int] = set()
    routed: set[int] = set()
    pinned = False
    # Every rank's port table: the local ones as built, the others by
    # the same rule from the metadata.
    port_table = {rank: rt.iface_of_port for rank, rt in ranks.items()}
    for rank in range(topology.num_ranks):
        if rank not in port_table:
            port_table[rank] = plan.rank_plans.get(
                rank, RankPlan(rank)).iface_of_port(
                    topology.interfaces_of(rank) or [0])
    # A route can cross at most every CK module once; anything longer is a
    # wiring loop and the guard below turns it into a loud failure.
    guard = 4 * topology.num_ranks * max(1, topology.num_interfaces) + 4
    num_ranks = plan.num_ranks
    for src, rank_plan in plan.rank_plans.items():
        for decl in rank_plan.ops:
            port = decl.port
            if decl.kind != "send" or port not in port_table[src]:
                continue
            dsts = [decl.peer] if decl.peer is not None else range(num_ranks)
            for dst in dsts:
                outside = src not in ranks or dst not in ranks
                kind, rank, iface = "cks", src, port_table[src][port]
                for _ in range(guard):
                    rt = ranks.get(rank)
                    try:
                        step, index = route_step(
                            kind, rank, iface, dst, port,
                            routes.next_iface[rank] if kind == "cks"
                            else port_table[rank])
                        if rt is not None:
                            ck = (rt.cks if kind == "cks" else rt.ckr)[iface]
                            out = ck._target(step, index)
                    except RoutingError:
                        break  # unreachable: no packet can take this path
                    if rt is not None:
                        routed.add(id(ck))
                        pinned = pinned or outside
                        if step != "net":
                            visited.add(id(out))
                    if step == "app":
                        break  # delivered to a receive endpoint
                    if step != "net":
                        kind, iface = step, index
                        continue
                    # A link exists in this build if either end is local.
                    link = fabric.outgoing(rank, iface)
                    if link is not None:
                        visited.add(id(link))
                    far = topology.peer(rank, iface)
                    if far is None:
                        break  # unwired egress: unroutable
                    kind, (rank, iface) = "ckr", far
                else:
                    raise CodegenError(
                        f"flow-liveness walk {src}->{dst} port {port} did "
                        "not terminate — transport wiring loop?"
                    )
    return visited, routed, pinned


def _mark_flow_dead(plan: ProgramPlan, transit: list[Fifo],
                    visited: set[int]) -> None:
    """Statically mark transport FIFOs no declared flow can ever traverse.

    Transit FIFOs not in ``visited`` (no declared flow's route crosses
    them) are marked ``flow_dead``: the burst planner may then treat
    them as provably empty at any future cycle, which is what lets it
    plan whole multi-round polling windows in a single engine event.
    Collective support kernels generate traffic patterns that depend on
    runtime communicators, so any collective declaration keeps every
    transit FIFO live (the analysis only ever errs towards "live").
    """
    if any(p.collective_ops() for p in plan.rank_plans.values()):
        return
    for f in transit:
        if id(f) not in visited:
            f.flow_dead = True


def build_transport(
    engine: Engine,
    plan: ProgramPlan,
    routes: Routes,
    config: HardwareConfig,
    shard_ranks: frozenset[int] | set[int] | None = None,
    kernel_ranks: Iterable[int] = (),
) -> Transport:
    """Instantiate and spawn the transport of ``plan``'s reached fabric
    (:func:`reached_ranks`; ``kernel_ranks`` are the ranks hosting a
    kernel, which are built whether or not they declare an operation).

    With ``shard_ranks`` the build is one shard's *plane* of a
    partitioned fabric: only those of its ranks that are reached get CK
    pairs, endpoints and support kernels, the fabric keeps only links
    touching them, and cut links to reached ranks are reported in
    ``Transport.boundaries``. Static flow-liveness and the route mark
    come from the same table-driven walk as a sequential build's
    (:func:`_walk_routes`), restricted to the FIFOs and CKs that exist
    here. The supply planner is wired per-shard, so planning cascades
    stop at the cut — the boundary proxies' committed supply schedules
    and pinned horizons are all a shard ever learns about its
    neighbours.
    """
    plan.validate()
    # Peer declarations must name ranks that exist, regardless of whether
    # the flow-liveness analysis (which consumes them) will run.
    for rank, rank_plan in plan.rank_plans.items():
        for decl in rank_plan.ops:
            if decl.peer is not None and decl.peer >= plan.num_ranks:
                raise CodegenError(
                    f"rank {rank} port {decl.port}: declared peer "
                    f"{decl.peer} does not exist (program has "
                    f"{plan.num_ranks} ranks)"
                )
    topology = routes.topology
    if plan.num_ranks > topology.num_ranks:
        raise CodegenError(
            f"program uses {plan.num_ranks} ranks but topology "
            f"{topology.name!r} has only {topology.num_ranks}"
        )
    reached = reached_ranks(plan, routes, kernel_ranks)
    local = reached if shard_ranks is None else reached & set(shard_ranks)
    fabric = Fabric(engine, topology, config,
                    local_ranks=local, reached=reached)
    ranks: dict[int, RankTransport] = {}
    transit: list[Fifo] = fabric.links()

    for rank in sorted(local):
        rank_plan = plan.rank_plans.get(rank, RankPlan(rank))
        active = topology.interfaces_of(rank) or [0]
        iface_of_port = rank_plan.iface_of_port(active)
        rt = RankTransport(rank=rank, active_ifaces=active,
                           iface_of_port=iface_of_port)
        ranks[rank] = rt

        send_decls = rank_plan.send_ports()
        recv_decls = rank_plan.recv_ports()
        for kind_map, kind in ((send_decls, "send"), (recv_decls, "recv")):
            for port, decl in kind_map.items():
                rt.ops_by_port[(kind, port)] = decl

        # --- endpoint FIFOs ------------------------------------------------
        # Endpoint FIFOs carry the HLS interface pipeline latency; their
        # capacity covers depth + latency so pipelining never throttles
        # the declared buffer depth (asynchronicity degree, §3.3).
        ep_lat = config.endpoint_latency_cycles
        for port, decl in send_decls.items():
            depth = _endpoint_depth(config, decl)
            rt.send_endpoints[port] = engine.fifo(
                f"rank{rank}.send_ep{port}",
                capacity=depth + ep_lat, latency=ep_lat,
            )
        for port, decl in recv_decls.items():
            depth = _endpoint_depth(config, decl)
            rt.recv_endpoints[port] = engine.fifo(
                f"rank{rank}.recv_ep{port}",
                capacity=depth + ep_lat, latency=ep_lat,
            )

        # --- inter-CK FIFOs -------------------------------------------------
        depth = config.inter_ck_fifo_depth
        cks2cks = {
            (i, j): engine.fifo(f"rank{rank}.cks{i}->cks{j}", depth)
            for i in active for j in active if i != j
        }
        ckr2ckr = {
            (i, j): engine.fifo(f"rank{rank}.ckr{i}->ckr{j}", depth)
            for i in active for j in active if i != j
        }
        ckr2cks = {i: engine.fifo(f"rank{rank}.ckr{i}->cks{i}", depth)
                   for i in active}
        cks2ckr = {i: engine.fifo(f"rank{rank}.cks{i}->ckr{i}", depth)
                   for i in active}
        transit.extend(cks2cks.values())
        transit.extend(ckr2ckr.values())
        transit.extend(ckr2cks.values())
        transit.extend(cks2ckr.values())

        # --- communication kernels ------------------------------------------
        egress = routes.next_iface[rank]
        port_home = dict(iface_of_port)
        for i in active:
            send_inputs = [
                rt.send_endpoints[p]
                for p in sorted(rt.send_endpoints)
                if iface_of_port[p] == i
            ]
            cks_inputs = (
                send_inputs
                + [ckr2cks[i]]
                + [cks2cks[(j, i)] for j in active if j != i]
            )
            cks = CKS(
                rank=rank, iface=i, inputs=cks_inputs,
                net_link=fabric.outgoing(rank, i),
                to_paired_ckr=cks2ckr[i],
                to_other_cks={j: cks2cks[(i, j)] for j in active if j != i},
                egress_iface=egress,
                read_burst=config.read_burst,
            )
            rt.cks[i] = cks
            cks.proc = engine.spawn(cks.process(engine), cks.name,
                                    daemon=True)

            net_in = fabric.incoming(rank, i)
            ckr_inputs = (
                ([net_in] if net_in is not None else [])
                + [ckr2ckr[(j, i)] for j in active if j != i]
                + [cks2ckr[i]]
            )
            ckr = CKR(
                rank=rank, iface=i, inputs=ckr_inputs,
                to_paired_cks=ckr2cks[i],
                to_other_ckr={j: ckr2ckr[(i, j)] for j in active if j != i},
                port_home_iface=port_home,
                recv_endpoints={
                    p: f for p, f in rt.recv_endpoints.items()
                    if iface_of_port[p] == i
                },
                read_burst=config.read_burst,
            )
            rt.ckr[i] = ckr
            ckr.proc = engine.spawn(ckr.process(engine), ckr.name,
                                    daemon=True)

        # --- collective support kernels --------------------------------------
        for decl in rank_plan.collective_ops():
            port = decl.port
            elem_capacity = config.endpoint_fifo_depth * decl.dtype.elements_per_packet
            ctrl = engine.fifo(f"rank{rank}.coll_ctrl{port}", capacity=4)
            app_in = engine.fifo(f"rank{rank}.coll_in{port}", capacity=elem_capacity)
            app_out = engine.fifo(f"rank{rank}.coll_out{port}", capacity=elem_capacity)
            rt.coll_ctrl[port] = ctrl
            rt.coll_app_in[port] = app_in
            rt.coll_app_out[port] = app_out
            kernel_cls = kernel_class(decl.kind, decl.scheme)
            kernel = kernel_cls(
                rank=rank, port=port, dtype=decl.dtype, config=config,
                ctrl=ctrl, app_in=app_in, app_out=app_out,
                send_ep=rt.send_endpoints[port],
                recv_ep=rt.recv_endpoints[port],
            )
            rt.support_kernels[port] = kernel
            kernel.proc = engine.spawn(kernel.process(engine), kernel.name,
                                       daemon=True)

    boundaries = fabric.boundary_links()
    planner = None
    if config.burst_mode:
        # Only the burst planner consumes liveness and supply contracts;
        # the per-flit reference interpretation stays free of the analysis
        # (and its tripwires, the dead ends' below excepted).
        visited, routed, pinned = _walk_routes(plan, routes, ranks, fabric)
        _mark_flow_dead(plan, transit, visited)
        planner = _wire_supply_planner(ranks, config, routed, pinned)
    # Nothing is built behind a dead end: on either plane a stage into
    # one is a flow past what the program declared, and fails there.
    for link, unbuilt in fabric.dead_ends():
        link.flow_dead = (
            f"dead end: rank {unbuilt} is reached by no declared flow, so "
            "it was not built (OpDecl.peer bounds the built fabric; "
            "declare the peer this traffic goes to, or none)")

    return Transport(config=config, routes=routes, fabric=fabric,
                     ranks=ranks, boundaries=boundaries, planner=planner)


def _wire_supply_planner(ranks: dict[int, RankTransport],
                         config: HardwareConfig, routed: set[int],
                         pinned: bool):
    """Publish the transport's supply-schedule contracts (burst mode only).

    Three facts the planner consumes are static properties of the wiring,
    so the builder declares them once:

    * every transit FIFO and link has exactly one *producer* CK process —
      registering it (``Fifo.register_producer``) enables producer-sleep
      horizons, transitively through parked CK chains and across links;
    * receive endpoints are written only by their home CKR, and a
      collective port's send endpoint and element stream only by its
      support kernel — registering those closes the loops the horizon
      recursion walks through app-facing layers;
    * every transit FIFO and link with a planning CK at either end joins
      a single cluster-wide :class:`SupplyPlanner` with those CKs, which
      is what lets one engine event plan windows across CK boundaries.

    Only the CKs in ``routed`` (on a declared point-to-point route, see
    :func:`_walk_routes`) plan: the others get ``supply_planner = None``
    — the specification loop — and never enter the planner's maps, so no
    cascade co-plans them. The producer registrations are tripwires and
    cover every CK regardless.

    App-written endpoints (p2p send endpoints, collective ``app_in`` /
    ``ctrl``) stay unregistered: kernels may push from helper processes
    the metadata cannot see, so their producer sets are not closed.

    ``config.macro_cruise`` additionally marks every app-facing stream
    endpoint (p2p send and receive endpoints) with the planner as its
    ``macro_host``, so sleeping ``push_vec``/``pop_vec`` bursts register
    extendable lanes there. Support kernels need no registration of
    their own: the fast-forward proves each stream's chain alone, and a
    support kernel's ``send_ep`` producer registration above is what
    bounds a chain hop observing its traffic.
    """
    sp = SupplyPlanner(macro=config.macro_cruise, pinned=pinned)
    cks = [ck for rt in ranks.values()
           for ck in (*rt.cks.values(), *rt.ckr.values())]
    for ck in cks:
        ck.supply_planner = sp if id(ck) in routed else None
    sp.stats.cks = len(cks)
    sp.stats.cks_off_route = len(cks) - len(routed)

    def wire(fifo, producer, consumer) -> None:
        # Declared now, applied by the planner's first plan: a program
        # that never engages it never pays for the maps.
        if producer.supply_planner is None:
            producer = None
        if consumer.supply_planner is None:
            consumer = None
        if producer is not None or consumer is not None:
            sp.unwired.append((fifo, producer, consumer))

    for rt in ranks.values():
        for i, cks in rt.cks.items():
            cks.to_paired_ckr.register_producer(cks.proc)
            wire(cks.to_paired_ckr, cks, rt.ckr[i])
            for j, fifo in cks.to_other_cks.items():
                fifo.register_producer(cks.proc)
                wire(fifo, cks, rt.cks[j])
            link = cks.net_link
            if link is not None:
                link.register_producer(cks.proc)
                dst_rank, dst_iface = link.dst
                # In a sharded build the far end may live in another
                # shard: the cascade then stops at the link — just another
                # committed supply schedule to the peer.
                dst_rt = ranks.get(dst_rank)
                if dst_rt is not None:
                    wire(link, cks, dst_rt.ckr[dst_iface])
        for i, ckr in rt.ckr.items():
            ckr.to_paired_cks.register_producer(ckr.proc)
            wire(ckr.to_paired_cks, ckr, rt.cks[i])
            for j, fifo in ckr.to_other_ckr.items():
                fifo.register_producer(ckr.proc)
                wire(fifo, ckr, rt.ckr[j])
            for fifo in ckr.recv_endpoints.values():
                fifo.register_producer(ckr.proc)
        for kernel in rt.support_kernels.values():
            kernel.send_ep.register_producer(kernel.proc)
            kernel.app_out.register_producer(kernel.proc)
        if sp.macro:
            for fifo in rt.send_endpoints.values():
                fifo.macro_host = sp
            for fifo in rt.recv_endpoints.values():
                fifo.macro_host = sp
    return sp
