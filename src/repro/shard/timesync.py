"""Conservative epoch synchronisation over SupplySchedule horizons.

Classic conservative parallel discrete-event simulation needs
*lookahead*: a guarantee that a neighbour cannot affect you before some
future time. The SMI reproduction gets it for free — the SupplySchedule
contract built for the burst planner already publishes, per boundary
link, committed ``(cycle, item)`` supply plus a *horizon* bounding the
unknown future, and the link latency makes that horizon deep. The
synchroniser simply runs each shard's engine up to the minimum of what
its neighbours have promised, exchanges the newly committed boundary
schedules, and repeats.

Per epoch, shard ``i`` may run every event strictly below::

    bound_i = min( min over incoming cut links  of horizon(link),
                   min over outgoing cut links  of ack_floor(link) + 1 )

* ``horizon(link)`` — no unshipped remote stage can be *visible* locally
  before it (forward supply dependency);
* ``ack_floor(link) + 1`` — no unreported remote take can free a slot
  (and wake a blocked local producer, at ``take + 1``) before it
  (reverse backpressure dependency — the model's slot release is
  instantaneous, so this is the binding constraint when a link fills).

Every published floor is itself at least the publishing shard's bound,
so the global minimum bound strictly increases every round: the
protocol needs no null messages and cannot livelock. True deadlocks
(cyclic send/receive dependencies, §3.3) are detected exactly: a round
in which every engine is idle, nothing was executed, and nothing was
shipped or delivered can never make progress, and raises
:class:`~repro.core.errors.DeadlockError` with every shard's blocked
processes — the same diagnosis a sequential run produces.

Once the last worker anywhere finishes, the global end cycle ``C`` is
fixed (daemons cannot extend it). A sequential run executes everything
scheduled up to and including cycle ``C``; the drain phase reproduces
that by driving every shard to bound ``C + 1`` and flushing boundary
traffic until the whole fabric is quiescent, which is what makes the
merged per-FIFO statistics exactly equal to a sequential run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import DeadlockError
from ..simulation.engine import FOREVER
from .proxy import AckBatch, ShipBatch


@dataclass
class BoundaryChannel:
    """Coordinator-side state of one directed cut link.

    ``horizon`` / ``ack_floor`` hold the latest published floors (both
    monotone — an older floor bounded a superset of the still-unknown
    events, so ``max`` merging is always sound).
    """

    key: tuple[int, int]
    src_shard: int
    dst_shard: int
    latency: int
    horizon: int = 0
    ack_floor: int = 0
    #: Latest producer-side self-sufficiency horizon (not monotone — it
    #: reflects the current slot budget; each publication supersedes).
    slack: int = 0

    def __post_init__(self) -> None:
        # Before any exchange: nothing staged at cycle 0 is visible
        # before the wire latency, and nothing invisible can be taken.
        if self.horizon <= 0:
            self.horizon = self.latency
        if self.ack_floor <= 0:
            self.ack_floor = self.latency


@dataclass
class EpochReport:
    """One shard's answer to one epoch command."""

    reason: str                       # "bound" | "idle"
    executed: int                     # process steps + commits run
    ships: dict = field(default_factory=dict)   # key -> ShipBatch
    acks: dict = field(default_factory=dict)    # key -> AckBatch
    live_workers: int = 0
    last_worker_finish: int = 0
    #: Max over live local workers of their process floor — a proven
    #: lower bound on the global end cycle, ratcheted into the stats
    #: watermark every shard's FIFO folds respect.
    worker_floor: int = 0
    #: Boundary items the shard itself pushed/applied this round, for
    #: self-exchanging (shared-memory) handles whose batches never
    #: reach the coordinator; -1 means "coordinator counts from the
    #: batch dicts" (in-process handles).
    shipped: int = -1
    delivered: int = -1
    #: Deepest conservative bound the shard ran to this round (used by
    #: the ``max_cycles`` check when the coordinator no longer computes
    #: bounds itself).
    bound_reached: int = 0


@dataclass
class SyncResult:
    reason: str                       # "completed" | "max_cycles"
    cycles: int
    rounds: int
    epochs_executed: int


def compute_bounds(channels: list[BoundaryChannel], num_shards: int,
                   cap: int | None) -> list[int]:
    """Per-shard conservative epoch bounds from the current floors."""
    bounds = [FOREVER if cap is None else cap] * num_shards
    for ch in channels:
        if ch.horizon < bounds[ch.dst_shard]:
            bounds[ch.dst_shard] = ch.horizon
        # Reverse (backpressure) dependency: an unknown remote take can
        # matter no earlier than the published take floor's wake — and
        # no earlier than the producer exhausting its provable slot
        # budget at line rate (the slack), whichever is later.
        rev = ch.ack_floor + 1
        if ch.slack > rev:
            rev = ch.slack
        if rev < bounds[ch.src_shard]:
            bounds[ch.src_shard] = rev
    if cap is not None:
        bounds = [b if b < cap else cap for b in bounds]
    return bounds


class EpochSynchronizer:
    """Drives a set of shard handles to global quiescence.

    A *handle* hides where the shard actually runs (in-process object or
    forked worker); it must provide::

        begin_epoch(bound, ships, acks, watermark)  # dispatch one epoch
        finish_epoch() -> EpochReport    # collect its report
        dump_blocked() -> list[str]      # deadlock diagnostics

    and one capability flag, ``self_exchanging``, that selects between
    the two round disciplines:

    * *eager* (``self_exchanging`` false — the in-process
      :class:`LocalHandle`, whose ``begin_epoch`` runs the epoch to
      completion before returning). Main rounds fold Gauss–Seidel
      style: each shard's bound is recomputed from the floors its
      predecessors published moments ago, and their batches are
      delivered in the same round — fresher information, deeper epochs,
      identical cycle trajectories (floors are sound whenever
      published; ``max``-merging keeps them monotone).
    * *streaming* (``self_exchanging`` true — the forked
      :class:`ProcessHandle`, with ``begin_stream``/``begin_drain`` in
      place of ``begin_epoch``). The handle moves boundary batches
      itself through shared-memory rings and self-paces *mid-epoch*:
      within one coordinator round a worker repeatedly drains its
      rings, recomputes its own conservative bound from the freshest
      floors, runs, and publishes — floors post as soon as they are
      proven, not at the round barrier, pushing effective lookahead
      past the ~L/2 a half-duplex epoch exchange yields. The
      coordinator then only supplies the barrier: termination, deadlock
      and ``max_cycles`` detection from the per-round reports (which
      carry ``shipped``/``delivered``/``bound_reached`` instead of
      batches).
    """

    def __init__(self, handles, channels: list[BoundaryChannel]) -> None:
        self.handles = handles
        self.channels = channels
        self._by_key = {ch.key: ch for ch in channels}
        # Batches collected this round, delivered at the next round.
        self._pending_ships: list[dict] = [dict() for _ in handles]
        self._pending_acks: list[dict] = [dict() for _ in handles]
        # Proven lower bound on the global end cycle (monotone): FIFO
        # folds never cross it, keeping end-of-run stats exactly
        # reconstructible at the true end.
        self.watermark = 0
        self.rounds = 0
        self.epochs_executed = 0
        self.streaming = bool(handles) and all(
            h.self_exchanging for h in handles
        )

    # ------------------------------------------------------------------
    def _deliver(self, i: int, handle, bound: int) -> int:
        """Hand shard ``i`` its pending batches; returns items delivered."""
        ships = self._pending_ships[i]
        acks = self._pending_acks[i]
        delivered = sum(len(s.items) for s in ships.values())
        delivered += sum(len(a.cycles) for a in acks.values())
        self._pending_ships[i] = {}
        self._pending_acks[i] = {}
        handle.begin_epoch(bound, ships, acks, self.watermark)
        return delivered

    def _fold(self, report: EpochReport) -> int:
        """Merge one report's floors/batches; returns items shipped."""
        mark = max(report.last_worker_finish, report.worker_floor)
        if mark > self.watermark:
            self.watermark = mark
        shipped = 0
        for key, ship in report.ships.items():
            ch = self._by_key[key]
            if ship.horizon > ch.horizon:
                ch.horizon = ship.horizon
            ch.slack = ship.slack  # latest state supersedes
            shipped += len(ship.items)
            self._pending_ships[ch.dst_shard][key] = ship
        for key, ack in report.acks.items():
            ch = self._by_key[key]
            if ack.floor > ch.ack_floor:
                ch.ack_floor = ack.floor
            shipped += len(ack.cycles)
            self._pending_acks[ch.src_shard][key] = ack
        return shipped

    def _eager_bound(self, i: int, ceiling: int) -> int:
        """Shard ``i``'s bound from the floors as they stand *right now*."""
        bound = ceiling
        for ch in self.channels:
            if ch.dst_shard == i and ch.horizon < bound:
                bound = ch.horizon
            if ch.src_shard == i:
                rev = ch.ack_floor + 1
                if ch.slack > rev:
                    rev = ch.slack
                if rev < bound:
                    bound = rev
        return bound

    def _round(self, bounds: list[int],
               ceiling: int | None = None) -> tuple[list[EpochReport], int, bool]:
        """One round over in-process handles: deliver, run, collect.

        With a ``ceiling`` (main rounds), each shard's bound is
        recomputed just before it runs, folding in the floors earlier
        shards published within this very round; without one (drain
        rounds at a fixed bound) reports fold after every shard has run.
        """
        handles = self.handles
        delivered = 0
        shipped = 0
        if ceiling is not None:
            reports = []
            for i, handle in enumerate(handles):
                delivered += self._deliver(i, handle,
                                           self._eager_bound(i, ceiling))
                report = handle.finish_epoch()
                shipped += self._fold(report)
                reports.append(report)
        else:
            for i, handle in enumerate(handles):
                delivered += self._deliver(i, handle, bounds[i])
            reports = [handle.finish_epoch() for handle in handles]
            for report in reports:
                shipped += self._fold(report)
        self.rounds += 1
        self.epochs_executed += sum(r.executed for r in reports)
        return reports, shipped, delivered > 0

    def _stream_round(self, cap: int | None,
                      drain_end: int | None = None
                      ) -> tuple[list[EpochReport], int, int]:
        """One barrier round over self-exchanging handles."""
        handles = self.handles
        for handle in handles:
            if drain_end is None:
                handle.begin_stream(cap, self.watermark)
            else:
                handle.begin_drain(drain_end, self.watermark)
        reports = [handle.finish_epoch() for handle in handles]
        shipped = 0
        delivered = 0
        for report in reports:
            mark = max(report.last_worker_finish, report.worker_floor)
            if mark > self.watermark:
                self.watermark = mark
            if report.shipped > 0:
                shipped += report.shipped
            if report.delivered > 0:
                delivered += report.delivered
        self.rounds += 1
        self.epochs_executed += sum(r.executed for r in reports)
        return reports, shipped, delivered

    def _deadlock(self) -> DeadlockError:
        blocked: list[str] = []
        for i, handle in enumerate(self.handles):
            blocked.extend(handle.dump_blocked())
        detail = "\n".join(blocked) if blocked else "  (no blocked processes?)"
        return DeadlockError(
            "sharded simulation deadlocked: every shard is idle with no "
            "boundary traffic in flight.\nBlocked processes:\n"
            f"{detail}\n"
            "Hint: SMI sends are non-local (§3.3) — check for cyclic "
            "send/receive dependencies or undersized channel buffers."
        )

    def run(self, max_cycles: int | None = None) -> SyncResult:
        """Run epochs until every worker finishes (or the cap is hit)."""
        num = len(self.handles)
        cap = None if max_cycles is None else max_cycles + 1
        if self.streaming:
            return self._run_streaming(max_cycles, cap)
        ceiling = FOREVER if cap is None else cap
        while True:
            bounds = compute_bounds(self.channels, num, cap)
            reports, shipped, delivered = self._round(bounds, ceiling)
            if all(r.live_workers == 0 for r in reports):
                end = max(r.last_worker_finish for r in reports)
                self._drain(end)
                return SyncResult("completed", end, self.rounds,
                                  self.epochs_executed)
            if shipped or delivered or any(r.executed for r in reports):
                continue
            if all(r.reason == "idle" for r in reports):
                raise self._deadlock()
            if cap is not None and all(b >= cap for b in bounds):
                return SyncResult("max_cycles", max_cycles, self.rounds,
                                  self.epochs_executed)
            # Events exist beyond every bound; the floors ratchet the
            # global minimum bound up each round, so progress follows.

    def _run_streaming(self, max_cycles: int | None,
                       cap: int | None) -> SyncResult:
        """Barrier loop over self-exchanging (shared-memory) handles.

        Workers exchange batches and floors among themselves mid-round;
        each barrier only aggregates progress counters to decide
        completion, deadlock, or cap exhaustion — the same decisions,
        from the same evidence, as the batch-folding loop above.
        """
        while True:
            reports, shipped, delivered = self._stream_round(cap)
            if all(r.live_workers == 0 for r in reports):
                end = max(r.last_worker_finish for r in reports)
                self._drain(end)
                return SyncResult("completed", end, self.rounds,
                                  self.epochs_executed)
            if shipped or delivered or any(r.executed for r in reports):
                continue
            if all(r.reason == "idle" for r in reports):
                raise self._deadlock()
            if cap is not None and all(r.bound_reached >= cap
                                       for r in reports):
                return SyncResult("max_cycles", max_cycles, self.rounds,
                                  self.epochs_executed)

    def _drain(self, end: int) -> None:
        """Drive every shard through cycle ``end`` and flush boundaries.

        A sequential run executes the whole of its final cycle (the
        engine finishes the cycle's scheduled batch before observing
        that the last worker is done), so each shard must execute every
        event at cycles ``<= end``; trailing boundary batches are then
        exchanged until nothing moves, which completes both halves of
        every boundary FIFO's statistics.
        """
        if end > self.watermark:
            self.watermark = end  # the global end is now exactly known
        bounds = [end + 1] * len(self.handles)
        while True:
            if self.streaming:
                reports, shipped, delivered = self._stream_round(
                    None, drain_end=end)
            else:
                reports, shipped, delivered = self._round(bounds)
            if not shipped and not delivered \
                    and not any(r.executed for r in reports):
                return
