"""Communication kernels: CKS (send side) and CKR (receive side), §4.2–4.3.

Each FPGA network interface is managed by a dedicated CKS/CKR pair so no
single module serialises all packet transfers. The kernels poll their inputs
(R-burst round-robin, :mod:`repro.transport.arbiter`), consult a routing
table, and forward each packet in the same cycle it was accepted:

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

In burst mode the kernels delegate window planning to the supply-schedule
planner (:mod:`repro.transport.planner`): the transport builder wires the
CKs on a declared point-to-point route to one cluster-wide
:class:`~repro.transport.planner.SupplyPlanner` (so plans cascade across CK
boundaries and through links) and records each kernel's engine process
handle for co-planning; a CK on no such route gets ``supply_planner =
None`` and runs the specification loop; a standalone kernel falls back to
the solo planner with no cascade peers.
"""

from __future__ import annotations

from typing import Generator

from ..core.errors import RoutingError
from ..simulation.conditions import TICK
from ..simulation.fifo import Fifo
from .arbiter import PollingArbiter
from .planner import SOLO_PLANNER, SupplyPlanner


def _stage_with_backpressure(out, pkt) -> Generator:
    """Stage ``pkt`` into ``out`` (FIFO or link), stalling on backpressure.

    For links, the stall also covers line-rate pacing (a 32-byte slot every
    ``link_cycles_per_packet`` kernel cycles).
    """
    while not out.writable:
        yield out.wait_writable()
    out.stage(pkt)
    yield TICK


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
        burst_mode: bool = True,
        record_accepts: bool = False,
    ) -> None:
        self.rank = rank
        self.iface = iface
        self.net_link = net_link
        self.to_paired_ckr = to_paired_ckr
        self.to_other_cks = to_other_cks
        self.egress_iface = egress_iface
        self.burst_mode = burst_mode
        self.arbiter = PollingArbiter(inputs, read_burst, record_accepts)
        self._route_memo: dict = {}  # (dst, port) -> routing target
        self.supply_planner: SupplyPlanner | None = SOLO_PLANNER
        self.proc = None  # engine Process handle, set by the builder
        self.name = f"rank{rank}.cks{iface}"

    def _route(self, pkt):
        if pkt.dst == self.rank:
            return self.to_paired_ckr
        try:
            egress = self.egress_iface[pkt.dst]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no route for destination rank {pkt.dst}"
            ) from None
        if egress == self.iface:
            if self.net_link is None:
                raise RoutingError(
                    f"{self.name}: routed to own interface but it is unwired"
                )
            return self.net_link
        try:
            return self.to_other_cks[egress]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no CKS for egress interface {egress}"
            ) from None

    def _forward(self, pkt) -> Generator:
        yield from _stage_with_backpressure(self._route(pkt), pkt)

    def process(self, engine) -> Generator:
        """The kernel's forever-serving main loop (spawned as a daemon)."""
        yield from self.arbiter.run(self._forward, engine, self)


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
        burst_mode: bool = True,
        record_accepts: bool = False,
    ) -> None:
        self.rank = rank
        self.iface = iface
        self.to_paired_cks = to_paired_cks
        self.to_other_ckr = to_other_ckr
        self.port_home_iface = port_home_iface
        self.recv_endpoints = recv_endpoints
        self.burst_mode = burst_mode
        self.arbiter = PollingArbiter(inputs, read_burst, record_accepts)
        self._route_memo: dict = {}  # (dst, port) -> routing target
        self.supply_planner: SupplyPlanner | None = SOLO_PLANNER
        self.proc = None  # engine Process handle, set by the builder
        self.name = f"rank{rank}.ckr{iface}"

    def _route(self, pkt):
        if pkt.dst != self.rank:
            # This rank is an intermediate hop: hand to the paired CKS,
            # whose rank table knows the onward egress interface.
            return self.to_paired_cks
        try:
            home = self.port_home_iface[pkt.port]
        except KeyError:
            raise RoutingError(
                f"{self.name}: packet for unknown port {pkt.port} "
                f"({pkt!r}) — no endpoint was declared on this rank"
            ) from None
        if home == self.iface:
            try:
                return self.recv_endpoints[pkt.port]
            except KeyError:
                raise RoutingError(
                    f"{self.name}: port {pkt.port} has no receive endpoint"
                ) from None
        try:
            return self.to_other_ckr[home]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no CKR for interface {home}"
            ) from None

    def _forward(self, pkt) -> Generator:
        yield from _stage_with_backpressure(self._route(pkt), pkt)

    def process(self, engine) -> Generator:
        """The kernel's forever-serving main loop (spawned as a daemon)."""
        yield from self.arbiter.run(self._forward, engine, self)
