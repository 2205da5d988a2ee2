"""Inter-FPGA serial links.

A QSFP connection (§5.1) carries one 256-bit word — one network packet — per
*link slot* (``link_cycles_per_packet`` kernel cycles; 40 Gbit/s raw at the
defaults), with a fixed in-flight latency (SerDes + wire). The BSP
guarantees error correction, flow control and backpressure, so the link is
modelled as a lossless, in-order, bounded channel: a
:class:`~repro.simulation.fifo.Fifo` whose latency is the wire delay, whose
capacity covers the bandwidth-delay product (so latency never limits
throughput, as on the real hardware), and whose write port is paced to the
line rate.
"""

from __future__ import annotations

from ..core.errors import SimulationError
from ..simulation.conditions import WaitCycles
from ..simulation.fifo import Fifo
from .packet import Packet


class Link:
    """A directed inter-FPGA channel paced at one packet per link slot."""

    __slots__ = ("fifo", "src", "dst", "cycles_per_packet", "_next_free")

    def __init__(
        self,
        engine,
        src: tuple[int, int],
        dst: tuple[int, int],
        latency_cycles: int,
        cycles_per_packet: int = 1,
    ) -> None:
        self.src = src  # (rank, iface)
        self.dst = dst
        self.cycles_per_packet = max(1, cycles_per_packet)
        self._next_free = 0
        # Capacity >= in-flight packets at full rate, + handoff slack.
        latency = max(1, latency_cycles)
        capacity = latency // self.cycles_per_packet + 4
        self.fifo = Fifo(
            engine,
            name=f"link.{src[0]}:{src[1]}->{dst[0]}:{dst[1]}",
            capacity=capacity,
            latency=latency,
        )

    # The write port, paced to the line rate; the receiving CKR reads
    # ``fifo`` directly.
    @property
    def writable(self) -> bool:
        return self.fifo.writable and self.fifo.engine.cycle >= self._next_free

    def wait_writable(self):
        """Condition for a stalled producer: FIFO space or line pacing."""
        if not self.fifo.writable:
            return self.fifo.can_push
        gap = self._next_free - self.fifo.engine.cycle
        return WaitCycles(max(1, gap))

    # -- supply-schedule contract (delegated to the backing FIFO) --------
    def register_producer(self, proc) -> None:
        """Register the CKS that owns this link as the line's only writer.

        This is what lets a downstream CKR's planner derive producer-sleep
        horizons *through the wire*: with the sending CKS parked or asleep
        until cycle T, nothing new can be visible at the far end before
        ``T + latency`` — a horizon the full link latency makes very deep.
        """
        self.fifo.register_producer(proc)

    def stage(self, packet: Packet) -> None:
        """Transmit one packet (occupies one link slot)."""
        if not self.writable:
            raise SimulationError(
                f"link {self.fifo.name}: stage() while busy or full"
            )
        self.fifo.stage(packet)
        self._next_free = self.fifo.engine.cycle + self.cycles_per_packet
        trace = self.fifo.engine.trace
        if trace is not None:
            now = self.fifo.engine.cycle
            trace.emit(now, "xfer", self.fifo.name, "xfer",
                       dur=self.cycles_per_packet)
            trace.sample(
                f"link_util/{self.fifo.name}", now,
                self.utilization(max(now, 1)))

    def stage_burst(self, packets: list[Packet], cycles: list[int],
                    verify_occupancy: bool = True) -> None:
        """Transmit a run of packets as if staged one per ``cycles[i]``.

        The caller (a CKS burst drain) has already paced ``cycles`` at
        ``cycles_per_packet`` granularity starting no earlier than
        ``_next_free``, and checked the FIFO has space.
        """
        if not packets:
            return
        if cycles[0] < self._next_free:
            raise SimulationError(
                f"link {self.fifo.name}: burst starts at {cycles[0]} but the "
                f"line is busy until {self._next_free}"
            )
        self.fifo.stage_burst(packets, cycles, verify_occupancy)
        self._next_free = cycles[-1] + self.cycles_per_packet
        trace = self.fifo.engine.trace
        if trace is not None:
            trace.emit(cycles[0], "xfer", self.fifo.name, "xfer-burst",
                       dur=cycles[-1] - cycles[0] + self.cycles_per_packet,
                       args={"n": len(packets)})
            trace.sample(
                f"link_util/{self.fifo.name}", cycles[-1],
                self.utilization(max(cycles[-1], 1)))

    def shift(self, n: int, delta: int, period: int, floor: int,
              packets: list[Packet]) -> None:
        """Transmit ``n`` packets over ``delta`` cycles as a time shift
        (:meth:`Fifo.shift`): the line's pacing state moves with the
        FIFO's rows."""
        self.fifo.shift(n, delta, period, floor, packets)
        self._next_free += delta

    def utilization(self, cycles: int) -> float:
        """Fraction of link slots that carried a packet."""
        if cycles <= 0:
            return 0.0
        return self.fifo.pushes * self.cycles_per_packet / cycles

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Link({self.src} -> {self.dst}, {self.fifo.pushes} pkts)"
