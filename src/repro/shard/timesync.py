"""Conservative epoch synchronisation over SupplySchedule horizons.

Classic conservative parallel discrete-event simulation needs
*lookahead*: a guarantee that a neighbour cannot affect you before some
future time. The SMI reproduction gets it for free — the SupplySchedule
contract built for the burst planner already publishes, per boundary
link, committed ``(cycle, item)`` supply plus a *horizon* bounding the
unknown future, and the link latency makes that horizon deep. Each
shard simply runs its engine up to the minimum of what its neighbours
have promised, exchanges the newly committed boundary schedules over
its rings, and repeats; the synchroniser below is the barrier between
such rounds.

Shard ``i`` may run every event strictly below the bound
``_ShardLinks.compute_bound`` (:mod:`repro.shard.backend`) derives from
the floors its rings delivered::

    bound_i = min( min over incoming cut links  of horizon(link),
                   min over outgoing cut links  of ack_floor(link) + 1 )

* ``horizon(link)`` — no unshipped remote stage can be *visible* locally
  before it (forward supply dependency);
* ``ack_floor(link) + 1`` — no unreported remote take can free a slot
  (and wake a blocked local producer, at ``take + 1``) before it
  (reverse backpressure dependency — the model's slot release is
  instantaneous, so this is the binding constraint when a link fills).
  A producer shard therefore never runs past a take it has not been
  told of: every ack lands at or after its local clock.

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

from dataclasses import dataclass

from ..core.errors import DeadlockError


@dataclass(frozen=True)
class BoundaryChannel:
    """One directed cut link: who transmits, who receives, how deep.

    ``latency`` seeds both floors a shard mirrors for the link before
    any exchange: nothing staged at cycle 0 is visible before the wire
    latency, and nothing invisible can be taken.
    """

    key: tuple[int, int]
    src_shard: int
    dst_shard: int
    latency: int


@dataclass
class EpochReport:
    """One shard's answer to one barrier round."""

    reason: str                       # "bound" | "idle"
    executed: int                     # process steps + commits run
    live_workers: int = 0
    last_worker_finish: int = 0
    #: Max over live local workers of their process floor — a proven
    #: lower bound on the global end cycle, ratcheted into the stats
    #: watermark every shard's FIFO folds respect.
    worker_floor: int = 0
    #: Boundary items the shard pushed into / applied from its rings
    #: this round (batches never reach the coordinator).
    shipped: int = 0
    delivered: int = 0
    #: Deepest conservative bound the shard ran to this round (what the
    #: ``max_cycles`` check reads — the coordinator computes no bounds).
    bound_reached: int = 0


@dataclass
class SyncResult:
    reason: str                       # "completed" | "max_cycles"
    cycles: int


class EpochSynchronizer:
    """Drives a set of shard handles to global quiescence.

    The synchroniser is only ever a barrier. Shards move boundary
    batches themselves through their rings and self-pace *mid-round*:
    within one barrier round a shard repeatedly drains its rings,
    recomputes its own conservative bound from the freshest floors,
    runs, and publishes — floors post as soon as they are proven, not
    at the round barrier, pushing effective lookahead past the ~L/2 a
    half-duplex epoch exchange yields. Each barrier aggregates the
    per-round reports (``executed`` / ``shipped`` / ``delivered`` /
    ``bound_reached``) to ratchet the stats watermark and to decide
    termination, deadlock and ``max_cycles``.

    A *handle* hides where the shard's loop actually runs (called
    synchronously in this process, or served by a forked worker); one
    contract covers both::

        begin_stream(cap, watermark)     # start a self-paced round
        begin_drain(end, watermark)      # start one round at end + 1
        finish_epoch() -> EpochReport    # collect the round's report
        dump_blocked() -> list[str]      # deadlock diagnostics
    """

    def __init__(self, handles) -> None:
        self.handles = handles
        # Proven lower bound on the global end cycle (monotone): FIFO
        # folds never cross it, keeping end-of-run stats exactly
        # reconstructible at the true end.
        self.watermark = 0

    # ------------------------------------------------------------------
    def _round(self, cap: int | None, drain_end: int | None = None
               ) -> tuple[list[EpochReport], bool]:
        """One barrier round; returns the reports and "anything moved"."""
        handles = self.handles
        for handle in handles:
            if drain_end is None:
                handle.begin_stream(cap, self.watermark)
            else:
                handle.begin_drain(drain_end, self.watermark)
        reports = [handle.finish_epoch() for handle in handles]
        moved = False
        for report in reports:
            mark = max(report.last_worker_finish, report.worker_floor)
            if mark > self.watermark:
                self.watermark = mark
            if report.executed or report.shipped or report.delivered:
                moved = True
        return reports, moved

    def _deadlock(self) -> DeadlockError:
        blocked: list[str] = []
        for handle in self.handles:
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
        """Run barrier rounds until every worker finishes (or the cap)."""
        cap = None if max_cycles is None else max_cycles + 1
        while True:
            reports, moved = self._round(cap)
            if all(r.live_workers == 0 for r in reports):
                end = max(r.last_worker_finish for r in reports)
                self._drain(end)
                return SyncResult("completed", end)
            if moved:
                continue
            if all(r.reason == "idle" for r in reports):
                raise self._deadlock()
            if cap is not None and all(r.bound_reached >= cap
                                       for r in reports):
                return SyncResult("max_cycles", max_cycles)
            # Events exist beyond every bound; the floors ratchet the
            # global minimum bound up each round, so progress follows.

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
        while self._round(None, drain_end=end)[1]:
            pass
