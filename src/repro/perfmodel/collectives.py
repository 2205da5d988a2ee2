"""Closed-form timing of SMI collectives (Figs. 10-11 model extension).

Derived from the support-kernel implementations in
:mod:`repro.transport.collectives`; validated against the cycle simulator
on small/medium sizes and used to extend the benchmark sweeps to sizes the
cycle simulation cannot reach in reasonable wall time.
"""

from __future__ import annotations

from math import ceil

from ..core.config import HardwareConfig
from ..core.datatypes import SMIDatatype
from .streams import endpoint_cycles, hop_cycles

#: Per-packet service at a relaying/combining support kernel: one cycle to
#: accept + relay, plus one cycle per payload element delivered/combined.
def _kernel_packet_service(dtype: SMIDatatype) -> float:
    return 1.0 + dtype.elements_per_packet


#: Per-packet turnaround at a support kernel beyond raw service: READY
#: handling, endpoint staging and the pop/push pair of the relay loop.
#: Calibrated against the simulator's 1-hop chain (the checked-prediction
#: suite asserts the resulting single-element latencies exactly).
RELAY_TURNAROUND_CYCLES = 20
#: Root-side setup of a chain collective beyond the endpoint stacks.
BCAST_SETUP_CYCLES = 5
#: Extra root stall when a credit tile is exhausted, beyond the per-rank
#: credit round trips (drain/refill handshake of the combine loop).
TILE_TURNAROUND_CYCLES = 53


def bcast_cycles(
    count: int,
    dtype: SMIDatatype,
    num_ranks: int,
    chain_hops: float,
    config: HardwareConfig,
) -> float:
    """Chain broadcast time (§4.4 linear scheme, pipelined relay).

    ``chain_hops`` is the mean hop distance between *consecutive* chain
    ranks — the linear scheme forwards along rank order, so each member
    beyond the root adds one READY/data round trip to its predecessor
    (2 x chain_hops link transits) plus the relay turnaround; the
    steady state is then paced by the slowest chain stage (a relaying
    support kernel: 1 + epp cycles per packet).
    """
    if count <= 0 or num_ranks <= 1:
        return float(count)
    packets = dtype.packets_for(count)
    epp = dtype.elements_per_packet
    per_member = (2 * chain_hops * hop_cycles(config)
                  + _kernel_packet_service(dtype) + RELAY_TURNAROUND_CYCLES)
    steady = (packets - 1) * _kernel_packet_service(dtype)
    drain = min(count, epp) - 1
    return (endpoint_cycles(config) + BCAST_SETUP_CYCLES
            + (num_ranks - 1) * per_member + steady + drain)


def reduce_cycles(
    count: int,
    dtype: SMIDatatype,
    num_ranks: int,
    chain_hops: float,
    config: HardwareConfig,
) -> float:
    """Credit-based linear reduction time (§4.4).

    Phases: a serialised per-rank rendezvous (the root grants credits to
    each contributing rank in turn, ``chain_hops`` apart), then the
    elementwise combine. Small communicators are paced by the combining
    kernel's per-packet turnaround; past ~5 ranks the root's combine of
    (P-1) network streams plus the local one takes over (§4.4's
    root-bound busy time, ~(P-1) * (1 + 1/epp) + 1 cycles per element).
    Every exhausted credit tile adds a latency-bound stall — per-rank
    credit round trips plus the drain/refill turnaround — the "latency
    sensitive" term that grows with network distance (§5.3.4).
    """
    if count <= 0:
        return 0.0
    if num_ranks <= 1:
        return float(2 * count)
    epp = dtype.elements_per_packet
    hop = hop_cycles(config)
    rendezvous = (num_ranks - 1) * (chain_hops * hop - 1)
    # The combining kernel services each contribution packet twice (pop
    # the contribution, push the combined/ack packet) plus turnaround.
    kernel_pace = (2 * _kernel_packet_service(dtype)
                   + RELAY_TURNAROUND_CYCLES) / epp
    root_pace = (num_ranks - 1) * (1.0 + 1.0 / epp) + 1.0
    busy = (count - 1) * max(kernel_pace, root_pace)
    tiles = ceil(count / config.reduce_credits)
    stall_per_tile = (
        2 * chain_hops * hop * (num_ranks - 1)  # credit out + data back
        + TILE_TURNAROUND_CYCLES
    )
    startup = endpoint_cycles(config) + _kernel_packet_service(dtype)
    return startup + rendezvous + busy + max(0, tiles - 1) * stall_per_tile

