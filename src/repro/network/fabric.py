"""Cluster fabric: instantiate the physical network inside a simulation.

Given a :class:`~repro.network.topology.Topology` and a
:class:`~repro.core.config.HardwareConfig`, build the directed
:func:`~repro.network.link.Link` pair for every cable, indexed so the
transport layer can fetch "the link behind my interface i".

A build need not hold every rank. ``local_ranks`` are the ranks this
build instantiates (a shard's, the ranks a program's declared flows
reach, or both), ``reached`` the ranks *any* build of the program
instantiates; ``None`` means every rank. A link is kept when at least
one end is local, so every built CKR keeps its full input list. A kept
link whose far end is reached but not local is a shard *boundary*; one
whose far end is not reached at all is a *dead end* — nothing is ever
built behind it, and the transport builder marks it ``flow_dead``.
"""

from __future__ import annotations

from ..core.config import HardwareConfig
from ..core.errors import TopologyError
from ..simulation.fifo import Fifo
from .link import Link
from .topology import Topology


class Fabric:
    """The physical links a build holds, plus endpoint lookups."""

    def __init__(
        self,
        engine,
        topology: Topology,
        config: HardwareConfig,
        local_ranks: frozenset[int] | set[int] | None = None,
        reached: frozenset[int] | set[int] | None = None,
    ) -> None:
        if topology.num_interfaces > config.num_interfaces:
            raise TopologyError(
                f"topology {topology.name!r} needs {topology.num_interfaces} "
                f"interfaces but the platform has {config.num_interfaces}"
            )
        self.engine = engine
        self.topology = topology
        self.config = config
        self.local_ranks = local_ranks
        self.reached = reached
        # Directed links keyed by transmitting endpoint (rank, iface).
        self.tx_link: dict[tuple[int, int], Fifo] = {}
        # Directed links keyed by receiving endpoint (rank, iface).
        self.rx_link: dict[tuple[int, int], Fifo] = {}
        for conn in topology.connections:
            for src, dst in ((conn.a, conn.b), (conn.b, conn.a)):
                if local_ranks is not None and src[0] not in local_ranks \
                        and dst[0] not in local_ranks:
                    continue  # a partial build only owns links it touches
                link = Link(
                    engine, src, dst,
                    latency_cycles=config.link_latency_cycles,
                    cycles_per_packet=config.link_cycles_per_packet,
                )
                self.tx_link[src] = link
                self.rx_link[dst] = link

    def outgoing(self, rank: int, iface: int) -> Fifo | None:
        """The link transmitting from ``rank:iface`` (None if unwired)."""
        return self.tx_link.get((rank, iface))

    def incoming(self, rank: int, iface: int) -> Fifo | None:
        """The link delivering into ``rank:iface`` (None if unwired)."""
        return self.rx_link.get((rank, iface))

    def links(self) -> list[Fifo]:
        """All directed links."""
        return list(self.tx_link.values())

    def dead_ends(self) -> list[tuple[Fifo, int]]:
        """``(link, unbuilt rank)`` for every kept link with an end no
        build instantiates."""
        reached = self.reached
        return [] if reached is None else [
            (link, rank) for link in self.tx_link.values()
            for rank in (link.src[0], link.dst[0]) if rank not in reached]

    def boundary_links(self) -> list[tuple[Fifo, bool]]:
        """Directed links crossing the shard cut (sharded builds only).

        Each entry is ``(link, src_is_local)``: ``True`` for the
        transmitting (producer) side of the cut, ``False`` for the
        receiving (consumer) side. Empty for unsharded builds. A dead end
        is never a boundary: no shard builds its far rank.
        """
        if self.local_ranks is None:
            return []
        out = []
        for link in self.tx_link.values():
            src_local = link.src[0] in self.local_ranks
            dst_local = link.dst[0] in self.local_ranks
            far = link.dst[0] if src_local else link.src[0]
            if src_local != dst_local and (self.reached is None
                                           or far in self.reached):
                out.append((link, src_local))
        return out
