"""Flight recorder: a bounded ring buffer of cycle-domain trace events.

The recorder is the zero-overhead-off half of the observability
contract: every instrumented site in the engine, FIFOs, links, arbiter,
planner and shard runtime guards its emit behind a single
``if <recorder> is not None`` check against an attribute that defaults
to ``None`` (``Engine.trace``). With tracing disabled no event tuple is
ever built, no method is called, and the simulated cycle counts are
bit-identical to an uninstrumented build — the equivalence/fuzz planes
pin this.

With tracing enabled, events are plain tuples

    ``(cycle, seq, kind, track, name, dur, args)``

* ``cycle`` — simulated engine cycle the event is keyed on (span start
  for duration events).
* ``seq`` — recorder-local monotonic sequence number; the cross-shard
  merge sorts on ``(cycle, shard, seq)`` so same-cycle events keep
  their emission order per shard.
* ``kind`` — taxonomy tag (see :data:`EVENT_KINDS`).
* ``track`` — the timeline lane the event renders on (one per CK /
  link / engine / planner).
* ``name`` — short human label.
* ``dur`` — span length in cycles (0 for instant events).
* ``args`` — optional dict of structured detail (guard name, hop,
  counts, reasons) or ``None``.

The buffer is a preallocated ring of ``capacity`` slots: when full, the
oldest event is overwritten and ``dropped`` counts it. That makes the
recorder safe to leave on across arbitrarily long runs — it holds the
*last* ``capacity`` events, which is exactly what a post-mortem
(:class:`~repro.core.errors.DeadlockError` dumps, macro-ff guard
aborts) wants.
"""

from __future__ import annotations

import time

from .metrics import MetricsRegistry

#: The event taxonomy. Instrumented sites only ever emit these kinds;
#: the exporter groups and colours by them, and docs/ARCHITECTURE.md
#: documents each one.
EVENT_KINDS = (
    "dispatch",    # engine dispatched a process generator for one event
    "park",        # a process blocked on a wait condition
    "wake",        # a parked process was made runnable (incl. preempt)
    "stage",       # FIFO stage (per item, or one event per burst)
    "take",        # FIFO take (per item, or one event per burst)
    "grant",       # arbiter accepted a packet from an input
    "xfer",        # link transfer (per packet, or one event per burst)
    "span",        # planner phase span: plan/cascade/replicate
    "ff",          # macro-cruise fast-forward jump (span over the jump)
    "shift",       # one chain FIFO landing a jump as a time shift (span)
    "abort",       # macro-ff guard veto or a train's miss (args: guard, hop)
    "epoch",       # shard epoch begin / bound update
    "drain",       # shard drain-to-end phase
)


class TraceRecorder:
    """Bounded ring buffer of trace events plus the metrics registry.

    One recorder is attached per :class:`~repro.simulation.engine.Engine`
    (``engine.trace``) — the in-process sharded backend runs several
    engines in one interpreter, so recorder state can never be a module
    global. The module-level convenience API in :mod:`repro.trace`
    merely points at a recorder (or at ``None``, the no-op state).
    """

    __slots__ = ("capacity", "shard", "dropped", "metrics", "wall",
                 "_buf", "_n", "_head", "_seq", "_wall_base")

    def __init__(self, capacity: int = 65536, stride: int = 4096,
                 shard: int = 0) -> None:
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self.shard = shard
        self.dropped = 0
        self.metrics = MetricsRegistry(stride)
        #: Wall-clock phase intervals ``(phase, t0_s, t1_s)`` in
        #: ``time.perf_counter`` seconds — the process shard backend
        #: appends one per compute/serialize/ipc_wait stretch so the
        #: exporter can render wall lanes next to the cycle lanes.
        self.wall: list[tuple[str, float, float]] = []
        self._buf: list = [None] * capacity
        self._n = 0
        self._head = 0
        self._seq = 0
        self._wall_base = time.perf_counter()

    # ------------------------------------------------------------------
    # Emission (hot path — called only when tracing is enabled)

    def emit(self, cycle: int, kind: str, track: str, name: str,
             dur: int = 0, args: dict | None = None) -> None:
        """Append one event, overwriting the oldest when full."""
        seq = self._seq
        self._seq = seq + 1
        head = self._head
        self._buf[head] = (cycle, seq, kind, track, name, dur, args)
        head += 1
        self._head = 0 if head == self.capacity else head
        if self._n < self.capacity:
            self._n += 1
        else:
            self.dropped += 1

    def sample(self, name: str, cycle: int, value: float) -> None:
        """Record a metrics sample (stride-bucketed; see MetricsRegistry)."""
        self.metrics.sample(name, cycle, value)

    def wall_span(self, phase: str, t0: float, t1: float) -> None:
        """Record one wall-clock phase interval (perf_counter seconds)."""
        self.wall.append((phase, t0, t1))

    # ------------------------------------------------------------------
    # Draining

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including overwritten ones)."""
        return self._seq

    def __len__(self) -> int:
        return self._n

    def events(self) -> list:
        """The retained events, oldest first."""
        if self._n < self.capacity:
            return [ev for ev in self._buf[:self._n]]
        return self._buf[self._head:] + self._buf[:self._head]

    def tail(self, n: int = 32) -> list:
        """The most recent ``n`` retained events, oldest first."""
        evs = self.events()
        return evs[-n:] if n < len(evs) else evs

    def tail_lines(self, n: int = 32) -> list[str]:
        """The last ``n`` events formatted for post-mortem dumps."""
        lines = []
        for cycle, seq, kind, track, name, dur, args in self.tail(n):
            span = f" +{dur}" if dur else ""
            extra = f" {args}" if args else ""
            lines.append(
                f"  cycle {cycle}{span} [{kind:>8}] {track}: {name}{extra}")
        if self.dropped:
            lines.insert(0, f"  ... ({self.dropped} older events "
                            f"overwritten; buffer holds {self.capacity})")
        return lines

    def segment(self) -> dict:
        """A picklable snapshot for cross-shard shipping & export.

        This is the unit the process shard backend attaches to its
        ``FinalReport`` and the coordinator merges: everything in it is
        plain builtins so it rides the existing control-pipe pickle path.
        """
        return {
            "shard": self.shard,
            "events": self.events(),
            "counters": self.metrics.snapshot(),
            "wall": list(self.wall),
            "wall_base": self._wall_base,
            "dropped": self.dropped,
            "emitted": self._seq,
        }
