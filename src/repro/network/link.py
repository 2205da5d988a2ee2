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

A link *is* that FIFO, one object per wire: :func:`Link` builds a plain
``Fifo`` with its ``pace`` (cycles per slot) and ``src`` / ``dst`` ends set,
and the FIFO's write port (``writable``, ``wait_writable``, ``stage``,
``stage_burst``, ``shift``) honours the pacing wherever ``pace`` is
non-zero. It is deliberately not a subclass: CPython's attribute caches
are per instruction and per type, so a second FIFO type flowing through
the same per-item code cost the per-flit ``stream_flit`` benchmark
workload +12 to +27 % ``wall_norm`` (three A/B batches on a 2-vCPU x86
VM, CPython 3.11).
"""

from __future__ import annotations

from ..simulation.fifo import Fifo


def Link(engine, src: tuple[int, int], dst: tuple[int, int],
         latency_cycles: int, cycles_per_packet: int = 1) -> Fifo:
    """A directed inter-FPGA channel from ``src`` to ``dst`` (each a
    ``(rank, iface)``), paced at one packet per link slot."""
    pace = max(1, cycles_per_packet)
    latency = max(1, latency_cycles)
    link = Fifo(
        engine,
        name=f"link.{src[0]}:{src[1]}->{dst[0]}:{dst[1]}",
        # In-flight packets at full rate, + handoff slack.
        capacity=latency // pace + 4,
        latency=latency,
    )
    link.pace = pace
    link.src = src
    link.dst = dst
    return link
