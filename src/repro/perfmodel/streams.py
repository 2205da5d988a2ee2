"""Closed-form timing model of SMI point-to-point streams.

The cycle simulator prices every Fig. 9 point itself. This model states
the same architecture in closed form, and the collective model
(:mod:`repro.perfmodel.collectives`) is built from its per-hop and
endpoint terms.

Structure of a stream of K packets over h hops:

    T = T_endpoint + T_path + T_fill + (K - 1) * G + T_drain

* ``T_endpoint``: traversing the endpoint stacks once at each end.
* ``T_path``: per-hop transit — link latency + the link's ingress/egress
  registers + CK handoff (CKR poll, inter-CK FIFO, CKS poll) for every
  intermediate rank. The per-packet link slot paces the steady-state
  gap, not the one-off transit.
* ``T_fill``: producing the first packet's elements at ``app_width``
  elements per cycle (the last element-cycle overlaps the departure).
* ``G``: the steady-state packet gap — the bottleneck of the application's
  packet production rate (epp/app_width cycles per packet), the CKS's
  polling-limited service rate ((R + n_idle) / R with one active input),
  and the link slot rate.
* ``T_drain``: delivering the last packet's elements to the application.

The formula is cycle-exact against the simulator on link-paced streams
(every shipped preset) for any size, hop count and app width — enforced
by ``tests/test_perfmodel_checked.py`` — and within a documented bound
in the polling-/fill-limited corner regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..core.config import HardwareConfig
from ..core.datatypes import SMIDatatype

#: Cycles for a CK to accept + route + stage one packet (take/stage path).
CK_FORWARD_CYCLES = 1
#: Inter-CK FIFO handoff latency within a rank (CKR -> CKS on a hop).
INTER_CK_HANDOFF_CYCLES = 2
#: Link ingress + egress pipeline registers, charged once per hop. The
#: per-packet link slot (``link_cycles_per_packet``) paces the gap, not
#: the transit.
LINK_TRANSIT_CYCLES = 2
#: Polling positions a CKS scans besides the active input when idle
#: (paired CKR + up to 3 sibling CKS; matches the 5-input Table 4 setup).
IDLE_POLL_POSITIONS = 4


@dataclass(frozen=True)
class StreamEstimate:
    """Model output for one stream."""

    cycles: float
    packets: int
    hops: int


def packet_gap_cycles(
    config: HardwareConfig, dtype: SMIDatatype, app_width: int = 1
) -> float:
    """Steady-state cycles between consecutive packets of one stream."""
    epp = dtype.elements_per_packet
    app_gap = epp / app_width
    R = config.read_burst
    cks_gap = (R + IDLE_POLL_POSITIONS) / R
    link_gap = config.link_cycles_per_packet
    return max(app_gap, cks_gap, link_gap)


def hop_cycles(config: HardwareConfig) -> float:
    """Transit cycles added by each physical hop."""
    return (
        config.link_latency_cycles
        + LINK_TRANSIT_CYCLES
        + CK_FORWARD_CYCLES
        + INTER_CK_HANDOFF_CYCLES
    )


def endpoint_cycles(config: HardwareConfig) -> float:
    """Endpoint-stack cycles charged once per stream (both ends).

    The endpoint FIFO's first and last stage overlap the neighbouring
    pack/unpack cycles, hence the ``- 1`` per end.
    """
    return 2 * (config.endpoint_latency_cycles - 1)


def p2p_stream(
    count: int,
    dtype: SMIDatatype,
    hops: int,
    config: HardwareConfig,
    app_width: int = 1,
) -> StreamEstimate:
    """Time to move ``count`` elements over ``hops`` physical hops."""
    if count <= 0:
        return StreamEstimate(0.0, 0, hops)
    packets = dtype.packets_for(count)
    gap = packet_gap_cycles(config, dtype, app_width)
    epp = dtype.elements_per_packet
    # First-packet fill: the app produces ``app_width`` elements per
    # cycle; the fill's last cycle overlaps the packet's departure.
    fill = ceil(min(count, epp) / app_width) - 1
    # Last-packet drain: delivering its (possibly partial) payload.
    drain = ceil((count - (packets - 1) * epp) / app_width)
    cycles = (
        endpoint_cycles(config)
        + hops * hop_cycles(config)
        + fill
        + (packets - 1) * gap
        + drain
    )
    return StreamEstimate(cycles, packets, hops)

