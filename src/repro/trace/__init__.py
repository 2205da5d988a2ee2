"""Cycle-domain tracing & metrics: flight recorder, Perfetto export,
cross-shard timeline merge.

Three pieces (see ``docs/ARCHITECTURE.md#observability--tracing``):

* :mod:`repro.trace.recorder` — the flight recorder: a bounded ring
  buffer of structured trace events (engine dispatch, FIFO stage/take,
  park/wake, arbiter grants, link transfers, planner phase spans with
  guard-abort reasons, shard epoch begin/drain/bound updates).
* :mod:`repro.trace.metrics` — stride-sampled time-series
  counters/gauges (FIFO occupancy, link utilization, planner hit
  rates) with snapshot/merge semantics that survive bulk
  macro-cruise clock jumps.
* :mod:`repro.trace.export` — Chrome/Perfetto trace-event JSON keyed
  on simulated cycle plus a compact JSONL form, and the cross-shard
  merge that puts per-worker segments (shipped over the existing
  control-pipe path) onto one timeline with wall-clock
  compute/serialize/ipc_wait lanes.

**Zero-overhead-off contract.** Tracing is off unless
``HardwareConfig.trace`` is set: every instrumented site guards its
emit behind one ``is not None`` check of a recorder attribute that
defaults to ``None``, so with tracing off no event is built and cycles
stay bit-identical (see ``HardwareConfig.trace`` for what is and is not
measured of its wall-clock cost).

The per-engine recorder (``engine.trace``) is the one way to a
recorder — the in-process sharded backend runs several engines per
interpreter, so recorder state cannot be global and there is no
module-level switch.
"""

from __future__ import annotations

from .export import (TIMING_FIELDS, merge_segments, new_phase, to_jsonl,
                     to_perfetto, write_trace)
from .metrics import MetricsRegistry, merge_snapshots
from .recorder import EVENT_KINDS, TraceRecorder

__all__ = [
    "EVENT_KINDS", "MetricsRegistry", "TIMING_FIELDS", "TraceRecorder",
    "merge_segments", "merge_snapshots", "new_phase",
    "recorder_from_config", "to_jsonl", "to_perfetto", "write_trace",
]

def recorder_from_config(config, shard: int = 0) -> TraceRecorder | None:
    """Build a recorder from ``HardwareConfig`` — ``None`` when off."""
    if not getattr(config, "trace", False):
        return None
    return TraceRecorder(shard=shard)
