"""SMI transport layer: communication kernels, packing, collectives, builder."""

from .arbiter import PollingArbiter
from .builder import RankTransport, Transport, build_transport
from .ck import CKR, CKS
from .collectives import (
    SUPPORT_KERNELS,
    BcastKernel,
    CollectiveDescriptor,
    GatherKernel,
    ReduceKernel,
    ScatterKernel,
    SupportKernel,
)
from .packing import PacketPacker
