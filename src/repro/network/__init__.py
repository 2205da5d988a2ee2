"""Inter-FPGA network substrate: packets, links, topologies, routing."""

from .fabric import Fabric
from .link import Link
from .packet import MAX_VALID_COUNT, OpType, Packet
from .routing import (
    Routes,
    channel_dependency_graph,
    compute_routes,
    is_deadlock_free,
)
from .topology import (
    Connection,
    Topology,
    bus,
    noctua_bus,
    noctua_torus,
    ring,
    torus2d,
)

__all__ = [
    "Fabric",
    "Link",
    "MAX_VALID_COUNT",
    "OpType",
    "Packet",
    "Routes",
    "channel_dependency_graph",
    "compute_routes",
    "is_deadlock_free",
    "Connection",
    "Topology",
    "bus",
    "noctua_bus",
    "noctua_torus",
    "ring",
    "torus2d",
]
