"""Analytical performance models, validated against the cycle simulator."""

from .collectives import bcast_cycles, reduce_cycles
from .streams import (
    StreamEstimate,
    endpoint_cycles,
    hop_cycles,
    p2p_stream,
    packet_gap_cycles,
)
