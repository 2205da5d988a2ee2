"""Sharded parallel simulation backend.

Partitions the SMI fabric into shards (:mod:`.partitioner`), runs each
shard on its own engine behind boundary-link proxies (:mod:`.proxy`),
and lets the shards hand each other boundary batches through one queue
per cut link and direction, each advancing to conservative bounds
derived from SupplySchedule horizons between the barriers of
:mod:`.timesync`.
Backend selection and result merging live in :mod:`.backend`;
``HardwareConfig.backend`` chooses between the sequential reference,
the in-process sharded plane, and forked worker processes — the last
two run one exchange protocol. See ``docs/ARCHITECTURE.md`` ("Sharded
execution & time sync") for the protocol and the cycle-exactness
argument.
"""

from .backend import run_sharded
from .partitioner import Partition, partition_topology, validate_cut
from .proxy import AckBatch, BoundaryRx, BoundaryTx, ShipBatch
from .timesync import BoundaryChannel, EpochSynchronizer, SyncResult

__all__ = [
    "AckBatch",
    "BoundaryChannel",
    "BoundaryRx",
    "BoundaryTx",
    "EpochSynchronizer",
    "Partition",
    "ShipBatch",
    "SyncResult",
    "partition_topology",
    "run_sharded",
    "validate_cut",
]
