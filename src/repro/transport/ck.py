"""Communication kernels: CKS (send side) and CKR (receive side), §4.2–4.3.

Each FPGA network interface is managed by a dedicated CKS/CKR pair so no
single module serialises all packet transfers. The kernels poll their inputs
(R-burst round-robin, :mod:`repro.transport.arbiter`), consult a routing
table, and forward each packet in the same cycle it was accepted — a
kernel is its arbiter's loop plus a ``route(packet)`` lookup, and the loop
stages the packet where ``route`` points, stalling on that FIFO's
backpressure or that link's line-rate pacing (a 32-byte slot every
``link_cycles_per_packet`` kernel cycles):

* **CKS(i)** inputs: the application send endpoints assigned to interface
  *i*, the paired CKR (rerouted through-traffic), and every other local CKS.
  Routing by *destination rank*: local rank → paired CKR; otherwise, if the
  route's egress interface is *i*, onto the network link, else over to the
  CKS owning that interface.
* **CKR(i)** inputs: the network link of interface *i*, every other local
  CKR, and the paired CKS (loopback traffic). Routing: foreign destination →
  paired CKS (this rank is an intermediate hop); local destination → by
  *port*: deliver to the endpoint FIFO if the port lives on interface *i*,
  else over to the CKR owning the port's interface.

Both routing rules are pure table lookups, so they have one definition,
:func:`route_step`: a function of ``(rank, iface, dst, port)`` and the
module's table that names the *module* a packet reaches next. A kernel's
``_route`` maps that symbolic answer to the FIFO or link it owns
(``_target``); the transport builder's static route walk follows the same
answer through ranks it holds no kernel for (another shard's).

In burst mode the kernels delegate window planning to the supply-schedule
planner (:mod:`repro.transport.planner`): the transport builder wires the
CKs on a declared point-to-point route to one cluster-wide
:class:`~repro.transport.planner.SupplyPlanner` (so plans cascade across CK
boundaries and through links) and records each kernel's engine process
handle for co-planning. ``supply_planner`` is ``None`` — the specification
loop — until the builder assigns one, and stays ``None`` on a CK no such
route crosses.
"""

from __future__ import annotations

from typing import Generator

from ..core.errors import RoutingError
from ..simulation.fifo import Fifo
from .arbiter import PollingArbiter
from .planner import SupplyPlanner


def route_step(kind: str, rank: int, iface: int, dst: int, port: int,
               table: dict) -> tuple[str, int]:
    """The CKS / CKR routing decision (§4.3), symbolically.

    Module ``kind`` (``"cks"`` or ``"ckr"``) of interface ``iface`` on
    ``rank`` holds a packet for ``(dst, port)``; ``table`` is the one
    table that module indexes — a CKS the rank's routing table
    (destination rank -> egress interface), a CKR its port table (port ->
    the interface whose pair serves the endpoint). Returns ``(step,
    index)``: ``("cks", j)`` / ``("ckr", j)`` — the local CKS / CKR of
    interface ``j`` — ``("net", iface)`` — onto this interface's link,
    towards the CKR at its far end — or ``("app", port)``, delivery to
    the receive endpoint. Raises :class:`RoutingError` where the table
    has no answer.
    """
    if kind == "cks":
        if dst == rank:
            return "ckr", iface
        egress = table.get(dst)
        if egress is None:
            raise RoutingError(
                f"rank{rank}.cks{iface}: no route for destination rank {dst}"
            )
        return ("net", iface) if egress == iface else ("cks", egress)
    if dst != rank:
        # This rank is an intermediate hop: hand to the paired CKS,
        # whose rank table knows the onward egress interface.
        return "cks", iface
    home = table.get(port)
    if home is None:
        raise RoutingError(
            f"rank{rank}.ckr{iface}: packet for unknown port {port} — no "
            "endpoint was declared on this rank"
        )
    return ("app", port) if home == iface else ("ckr", home)


class CKS:
    """Send communication kernel for one network interface."""

    def __init__(
        self,
        rank: int,
        iface: int,
        inputs: list[Fifo],
        net_link,
        to_paired_ckr: Fifo,
        to_other_cks: dict[int, Fifo],
        egress_iface: dict[int, int | None],
        read_burst: int,
    ) -> None:
        self.rank = rank
        self.iface = iface
        self.net_link = net_link
        self.to_paired_ckr = to_paired_ckr
        self.to_other_cks = to_other_cks
        self.egress_iface = egress_iface
        self.arbiter = PollingArbiter(inputs, read_burst)
        # (dst << 8 | port) -> routing target: filled by ``_route``, read
        # by ``route`` and, inline, by the planners.
        self._route_memo: dict = {}
        self.supply_planner: SupplyPlanner | None = None  # builder-assigned
        self.proc = None  # engine Process handle, set by the builder
        self.name = f"rank{rank}.cks{iface}"

    def _target(self, step: str, index: int):
        """The FIFO or link behind one :func:`route_step` answer."""
        if step == "ckr":
            return self.to_paired_ckr
        if step == "net":
            if self.net_link is None:
                raise RoutingError(
                    f"{self.name}: routed to own interface but it is unwired"
                )
            return self.net_link
        try:
            return self.to_other_cks[index]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no CKS for egress interface {index}"
            ) from None

    def _route(self, pkt):
        out = self._route_memo[(pkt.dst << 8) | pkt.port] = self._target(
            *route_step("cks", self.rank, self.iface, pkt.dst, pkt.port,
                        self.egress_iface))
        return out

    def route(self, pkt):
        """Where ``pkt`` goes next: the FIFO or link the arbiter's loop
        stages it into (memoised per ``(dst, port)``)."""
        try:
            return self._route_memo[(pkt.dst << 8) | pkt.port]
        except KeyError:
            return self._route(pkt)

    def process(self, engine) -> Generator:
        """The kernel's forever-serving main loop (spawned as a daemon):
        the arbiter's, with this kernel's routing."""
        return self.arbiter.run(self.route, engine, self)


class CKR:
    """Receive communication kernel for one network interface."""

    def __init__(
        self,
        rank: int,
        iface: int,
        inputs: list[Fifo],
        to_paired_cks: Fifo,
        to_other_ckr: dict[int, Fifo],
        port_home_iface: dict[int, int],
        recv_endpoints: dict[int, Fifo],
        read_burst: int,
    ) -> None:
        self.rank = rank
        self.iface = iface
        self.to_paired_cks = to_paired_cks
        self.to_other_ckr = to_other_ckr
        self.port_home_iface = port_home_iface
        self.recv_endpoints = recv_endpoints
        self.arbiter = PollingArbiter(inputs, read_burst)
        # (dst << 8 | port) -> routing target: filled by ``_route``, read
        # by ``route`` and, inline, by the planners.
        self._route_memo: dict = {}
        self.supply_planner: SupplyPlanner | None = None  # builder-assigned
        self.proc = None  # engine Process handle, set by the builder
        self.name = f"rank{rank}.ckr{iface}"

    def _target(self, step: str, index: int):
        """The FIFO behind one :func:`route_step` answer."""
        if step == "cks":
            return self.to_paired_cks
        if step == "app":
            try:
                return self.recv_endpoints[index]
            except KeyError:
                raise RoutingError(
                    f"{self.name}: port {index} has no receive endpoint"
                ) from None
        try:
            return self.to_other_ckr[index]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no CKR for interface {index}"
            ) from None

    def _route(self, pkt):
        out = self._route_memo[(pkt.dst << 8) | pkt.port] = self._target(
            *route_step("ckr", self.rank, self.iface, pkt.dst, pkt.port,
                        self.port_home_iface))
        return out

    def route(self, pkt):
        """Where ``pkt`` goes next: the FIFO or link the arbiter's loop
        stages it into (memoised per ``(dst, port)``)."""
        try:
            return self._route_memo[(pkt.dst << 8) | pkt.port]
        except KeyError:
            return self._route(pkt)

    def process(self, engine) -> Generator:
        """The kernel's forever-serving main loop (spawned as a daemon):
        the arbiter's, with this kernel's routing."""
        return self.arbiter.run(self.route, engine, self)
