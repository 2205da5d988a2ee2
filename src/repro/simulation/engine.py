"""Cycle-accurate, event-skipping simulation engine.

The engine advances a global clock (``engine.cycle``). Hardware modules are
*processes*: Python generators that yield wait conditions (see
:mod:`repro.simulation.conditions`). The engine maintains a calendar of
scheduled process resumptions and pending FIFO commits; when nothing is
runnable in the current cycle it jumps directly to the next scheduled cycle,
so idle periods (e.g. a packet in flight on a 100-cycle link) cost O(1)
instead of O(cycles).

Calendar: almost every wake lands in the current cycle (a satisfied
wait, a commit wake, ``set_event``) or the next one (``TICK``, the
delay-1 producer wake), so the calendar is a *this-cycle* / *next-cycle*
pair of plain run lists — one pair for process resumptions, one for FIFO
commits — beside a small heap of the distinct *far* cycles (link latency,
``WaitCycles(k > 1)``, ``preempt``), each with its own bucket. An entry
is the process (or FIFO) itself: no sequence number, no tuple. One
executor, :meth:`Engine._run_cycle`, runs a cycle for :meth:`Engine.run`
and :meth:`Engine.run_until` alike: FIFO commits first, then every process
of the cycle with the step (a generator resume, or a pending
continuation) and the dispatch of what it yielded inlined (``TICK`` /
``WaitCycles`` tested first).

Determinism: processes scheduled for the same cycle run in the order they
were scheduled, so a simulation is exactly reproducible run-to-run. The
run lists keep that order by construction: a far entry for cycle *c* was
scheduled at cycle *c - 2* or earlier, a next-cycle entry during *c - 1*,
a this-cycle entry during *c* itself — so "the far bucket, then the next
list, then same-cycle appends" *is* global scheduling order
(``tests/test_engine.py`` checks it against a sorted reference model).
A process has at most one pending calendar entry; :meth:`Engine.preempt`
of a sleeping process removes the old entry instead of leaving a stale
one behind, and nothing may be scheduled before ``engine.cycle``.

Waits: a process that yields an unsatisfied condition *parks*. A single
condition or a tuple of conditions registers the process with each
condition's ``waiters`` and the wake through one of them withdraws the
others; a persistent :class:`~repro.simulation.conditions.AnyReadable`
(a CK's fixed input set) is armed by storing the process on it — O(1),
nothing allocated. Either way the registrations that exist are exactly
those of currently parked processes.

Continuations: a step that would only re-arm a wait need not resume
its generator. A module may leave a one-shot callable on its process
(``proc.continuation = fn``, from within its own step); the process's
next dispatch — in its own run-list slot, wherever a yield, a wake or a
commit put it — calls ``fn()`` instead of ``gen.send``. ``fn`` returns
:data:`~repro.simulation.conditions.RESUME` (the generator is resumed
then and there, as if no continuation had been set) or the condition to
dispatch exactly as if the generator had yielded it, and may leave the
next continuation behind. The calendar, the order of steps within a
cycle, every commit armed and every ``dispatch`` / ``park`` / ``wake``
trace event are those of the generator-only run: only the Python resume
is gone (``Engine.elided_steps`` counts them). A continuation may touch
only its owner's state, and :meth:`Engine.preempt` drops a pending one —
a firm wake is for the generator. Users: the polling arbiter's settle
and wake-scan steps (:mod:`repro.transport.arbiter`) and the reduce
root's combine countdown (:mod:`repro.transport.collectives`).

Burst timing: the burst fast path (gated by ``HardwareConfig.burst_mode``)
moves whole runs of items in a single process step and then yields one
``WaitCycles(window)`` instead of per-item TICKs. Two layers cooperate:
the FIFO primitives (:mod:`repro.simulation.fifo`) stage/take runs with
analytically computed per-item cycles, and the supply-schedule planner
(:mod:`repro.transport.planner`) simulates the polling loop forward over
the *known* future — staged schedules, statically flow-dead inputs,
downstream slot schedules, producer-sleep horizons — committing
multi-round windows per event and cascading plans across CK boundaries.
The engine contributes two queries: :meth:`Engine.process_floor` (the
earliest cycle a process could run again, the basis of producer-sleep
horizons) and :meth:`Engine.preempt` (a firm wake for a parked CK whose
window a peer's cascade planned on its behalf). Staged items commit at
their individual ready cycles through the ordinary commit calendar, and
slots freed ahead of schedule are held *reserved* and released (waking
blocked producers) by the same mechanism — so burst and per-flit runs
produce identical cycle counts and identical per-FIFO push/pop
statistics and occupancy peaks, differing only in the number of engine
events executed (``tests/test_burst_equivalence.py`` enforces this).

Termination: ``run()`` returns once every non-daemon process has finished.
Transport kernels (CKS/CKR, collective support kernels) are spawned as
*daemons* — they serve forever and do not keep the simulation alive. If live
non-daemon processes remain but nothing is scheduled, the system is
deadlocked and the engine raises :class:`~repro.core.errors.DeadlockError`
with a dump of every blocked process and the condition it waits on — this is
how the simulator surfaces the cyclic-dependency deadlocks the paper warns
about in §3.3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from ..core.errors import DeadlockError, SimulationError
from .conditions import (RESUME, TICK, AnyReadable, CanPop, CanPush,
                         SimEvent, WaitCycles)

#: Safety bound on process steps within a single cycle (combinational loop).
MAX_STEPS_PER_CYCLE = 10_000

#: "Provably never" horizon for supply-schedule queries (finished
#: producers, flow-dead FIFOs).
FOREVER = 1 << 62


def _cond_desc(waiting) -> str:
    """Compact label of what a process parked on (tracing-on only)."""
    kind = type(waiting)
    if kind is AnyReadable:
        conds = waiting.conds
    elif kind is tuple or kind is list:
        conds = waiting
    else:
        conds = (waiting,)
    parts = []
    for cond in conds:
        kind = type(cond)
        if kind is CanPop:
            parts.append(f"pop:{cond.fifo.name}")
        elif kind is CanPush:
            parts.append(f"push:{cond.fifo.name}")
        elif kind is SimEvent:
            parts.append(f"event:{cond.name}")
        else:  # pragma: no cover - unreachable for valid conditions
            parts.append(repr(cond))
    return "|".join(parts)


class Process:
    """A running simulated module (wraps a generator)."""

    __slots__ = (
        "name",
        "gen",
        "daemon",
        "finished",
        "result",
        "done",
        "continuation",
        "_last_step_cycle",
        "_steps_this_cycle",
        "_waiting_on",
        "_scheduled_for",
    )

    def __init__(self, name: str, gen: Generator, daemon: bool) -> None:
        self.name = name
        self.gen = gen
        self.daemon = daemon
        self.finished = False
        self.result: Any = None
        self.done = SimEvent(f"{name}.done")
        # One-shot engine-side continuation (module docstring): what the
        # next dispatch calls instead of resuming ``gen``; None otherwise.
        self.continuation: Callable[[], Any] | None = None
        self._last_step_cycle = -1
        self._steps_this_cycle = 0
        # What the process is parked on (a condition, the tuple of
        # conditions it yielded, or an AnyReadable), None when it is
        # running or has a calendar entry; and the cycle of that entry.
        self._waiting_on: Any = None
        self._scheduled_for = 0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "finished" if self.finished else f"waiting on {self._waiting_on!r}"
        return f"Process({self.name}, {state})"


@dataclass
class RunResult:
    """Outcome of :meth:`Engine.run`."""

    cycles: int
    reason: str  # "completed" or "max_cycles"
    processes_finished: int
    processes_live: int

    @property
    def completed(self) -> bool:
        return self.reason == "completed"


class Engine:
    """The cycle-level discrete event engine."""

    def __init__(self) -> None:
        self.cycle = 0
        # The calendar (see the module docstring). Run lists hold the
        # processes to step / the FIFOs to commit in scheduling order:
        # ``_now`` for ``self.cycle``, ``_next`` for ``_next_at``
        # (``self.cycle + 1`` whenever a next list is non-empty); every
        # later cycle has a bucket in ``_far_procs`` / ``_far_commits``,
        # and the ``_far_heap`` holds each bucket's cycle (a cycle with
        # a bucket in both is listed twice).
        self._now: list = []
        self._next: list = []
        self._commit_now: list = []
        self._commit_next: list = []
        self._commit_spare: list = []  # always empty between cycles
        self._next_at = 1
        self._far_heap: list[int] = []
        self._far_procs: defaultdict[int, list] = defaultdict(list)
        self._far_commits: defaultdict[int, list] = defaultdict(list)
        self._processes: list[Process] = []
        self._fifos: list = []
        self._live_workers = 0
        self._current_proc: Process | None = None
        # Cycle of the most recent non-daemon finish: the cycle a
        # sequential ``run()`` would report if that worker were the last.
        # The sharded backend's global end cycle is the max of this over
        # all shard engines.
        self.last_worker_finish = 0
        # Sharded backends only: a proven lower bound on the *global* end
        # cycle, delivered by the epoch coordinator. FIFO occupancy-log
        # folds never fold entries past it, so end-of-run statistics can
        # be time-filtered exactly at the global end even on a shard
        # whose clock ran ahead of it (see Fifo.counts_at). None (the
        # sequential default) leaves folding unrestricted.
        self.stats_fold_limit: int | None = None
        # Process steps dispatched (added up once per cycle), and how
        # many of them a continuation answered without resuming the
        # generator (counted on that path only). Reporting only.
        self.steps = 0
        self.elided_steps = 0
        # Flight recorder (repro.trace.TraceRecorder) or None. None is
        # the zero-overhead-off contract: every instrumented site in
        # the engine, FIFOs, links, arbiter and planner guards its emit
        # behind one `is not None` check of this attribute, so with
        # tracing off no event is ever built and cycles are those of an
        # uninstrumented build.
        self.trace = None

    def note_fast_forward(self, span: int) -> None:
        """Trace one analytically fast-forwarded window of ``span`` cycles.

        The counter lives in ``PlannerStats.ff_cycles``; the engine only
        puts the span on the timeline.
        """
        if span > 0 and self.trace is not None:
            self.trace.emit(self.cycle, "ff", "engine", "fast-forward",
                            dur=span)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def spawn(
        self,
        gen_or_fn: Generator | Callable[[], Generator],
        name: str | None = None,
        daemon: bool = False,
        start_cycle: int = 0,
    ) -> Process:
        """Register a process; it first runs at ``start_cycle`` (>= now)."""
        gen = gen_or_fn() if callable(gen_or_fn) else gen_or_fn
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator (got {type(gen_or_fn).__name__}); "
                "did you forget a 'yield' in the process body?"
            )
        proc = Process(name or f"proc{len(self._processes)}", gen, daemon)
        self._processes.append(proc)
        if not daemon:
            self._live_workers += 1
        self._schedule(proc, max(start_cycle, self.cycle))
        return proc

    def fifo(self, name: str, capacity: int, latency: int = 1):
        """Create a :class:`~repro.simulation.fifo.Fifo` owned by this engine."""
        from .fifo import Fifo

        return Fifo(self, name, capacity, latency)

    def event(self, name: str = "event") -> SimEvent:
        """Create a :class:`SimEvent` (convenience)."""
        return SimEvent(name)

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _next_lists_at(self, cycle: int) -> bool:
        """Whether the next-cycle run lists stand for ``cycle``
        (``self.cycle + 1``). Outside the run loop they may still be
        dated by an earlier clock; empty ones are simply re-dated."""
        if self._next_at == cycle:
            return True
        if self._next or self._commit_next:
            return False
        self._next_at = cycle
        return True

    def _calendar_list(self, cycle: int, now_list: list, next_list: list,
                       far: dict) -> list:
        """The list an entry for ``cycle`` is appended to: this cycle's,
        the next cycle's, or the far bucket of ``cycle`` (created, and
        its cycle pushed on the far heap, on first use)."""
        now = self.cycle
        if cycle == now:
            return now_list
        if cycle < now:
            raise SimulationError(
                f"event scheduled for cycle {cycle}, before the clock "
                f"({now}): the calendar never moves backwards")
        if cycle == now + 1 and self._next_lists_at(cycle):
            return next_list
        if cycle not in far:
            heappush(self._far_heap, cycle)
        return far[cycle]

    def _run_list(self, cycle: int) -> list:
        """The run list a process scheduled for ``cycle`` is appended to."""
        return self._calendar_list(cycle, self._now, self._next,
                                   self._far_procs)

    def _schedule(self, proc: Process, cycle: int) -> None:
        """Give ``proc`` its one pending calendar entry, at ``cycle``."""
        self._run_list(cycle).append(proc)
        proc._scheduled_for = cycle

    def _unschedule(self, proc: Process) -> None:
        """Remove the pending calendar entry of a sleeping process."""
        cycle = proc._scheduled_for
        far = self._far_procs.get(cycle)
        if far is not None and proc in far:
            far.remove(proc)
            if not far:
                del self._far_procs[cycle]
                self._far_heap.remove(cycle)
                # list.remove keeps the order, not the heap shape.
                self._far_heap.sort()
            return
        # This cycle's list keeps the entries already stepped until the
        # cycle ends; the pending one is the last occurrence.
        run = self._now if cycle == self.cycle else self._next
        for i in range(len(run) - 1, -1, -1):
            if run[i] is proc:
                del run[i]
                return

    def _schedule_commit(self, cycle: int, fifo) -> None:
        """Run ``fifo._commit`` in phase 1 of ``cycle`` (once per cycle
        and FIFO, at the position of the first request). A commit armed
        for the cycle already in its process phase leaves that cycle
        pending: it is entered again — commits, then the processes they
        woke — once every process already listed has run."""
        commits = self._calendar_list(cycle, self._commit_now,
                                      self._commit_next, self._far_commits)
        if fifo not in commits:
            commits.append(fifo)

    def _wake(self, condition, delay: int) -> None:
        """Wake every process parked on ``condition`` (alone or within a
        tuple of conditions) after ``delay`` cycles."""
        waiters = condition.waiters
        if not waiters:
            return
        now = self.cycle
        target = now + delay
        run = self._run_list(target)
        trace = self.trace
        for proc in waiters:
            waiting = proc._waiting_on
            if waiting is not condition:
                if waiting is None:
                    continue  # listed twice in its tuple: already woken
                # Parked on a tuple: withdraw the sibling registrations.
                for other in waiting:
                    if other is not condition:
                        other.waiters.remove(proc)
            proc._waiting_on = None
            proc._scheduled_for = target
            run.append(proc)
            if trace is not None:
                trace.emit(now, "wake", proc.name, "wake",
                           args={"at": target} if delay else None)
        waiters.clear()

    def _wake_watcher(self, watch: AnyReadable) -> None:
        """Wake (this cycle) the process armed on ``watch``; disarms it."""
        proc = watch.proc
        watch.proc = None
        proc._waiting_on = None
        proc._scheduled_for = self.cycle
        self._now.append(proc)
        if self.trace is not None:
            self.trace.emit(self.cycle, "wake", proc.name, "wake")

    def _disarm(self, proc: Process) -> None:
        """Withdraw every registration of a parked process."""
        waiting = proc._waiting_on
        kind = type(waiting)
        if kind is AnyReadable:
            waiting.proc = None
        elif kind is tuple or kind is list:
            for cond in waiting:
                cond.waiters.remove(proc)
        else:
            waiting.waiters.remove(proc)
        proc._waiting_on = None

    def set_event(self, event: SimEvent) -> None:
        """Trigger ``event``, waking all waiters in the current cycle."""
        if event._set:
            return
        event._set = True
        event.set_at_cycle = self.cycle
        self._wake(event, delay=0)

    def _register_fifo(self, fifo) -> None:
        self._fifos.append(fifo)

    # ------------------------------------------------------------------
    # Supply-schedule queries (burst planner support)
    # ------------------------------------------------------------------
    #: Recursion budget for parked-producer chains in :meth:`process_floor`.
    #: Deeper chains add little: the first link latency on a path already
    #: dominates the horizon, and every truncation is merely conservative.
    FLOOR_DEPTH_LIMIT = 3

    def process_floor(self, proc: Process, memo: dict | None = None,
                      depth: int = 0) -> int:
        """Earliest cycle ``proc`` could possibly execute again.

        The *producer-sleep horizon* primitive of the supply-schedule
        contract: a process sleeping on ``WaitCycles`` until cycle T
        cannot be woken by anything (wakes only reach condition waiters),
        so it provably stages nothing before T. A process parked on
        ``CanPop`` conditions cannot run before one of those FIFOs turns
        readable, which recurses into each FIFO's own supply schedule
        (:meth:`repro.simulation.fifo.Fifo.earliest_readable`); cyclic
        producer/consumer chains and over-deep recursions fall back to the
        conservative "now". The result is a lower bound that only moves
        later as the event executes, so memoised values stay sound for a
        whole planning cascade.
        """
        if proc.finished:
            return FOREVER
        key = id(proc)
        if memo is not None:
            # Checked before the running/sleeping shortcut on purpose: a
            # planner seeds its *own* process here ("provably silent up to
            # the plan cursor") to break the self-referential loop through
            # its paired kernel, even though the process is mid-step.
            cached = memo.get(key)
            if cached is not None:
                return cached
        waiting = proc._waiting_on
        if waiting is None:
            # Running this very cycle, or sleeping with a firm deadline.
            floor = proc._scheduled_for
            return floor if floor > self.cycle else self.cycle
        if depth >= self.FLOOR_DEPTH_LIMIT:
            return self.cycle
        if memo is None:
            memo = {}
        # Break producer/consumer cycles at the conservative bound; the
        # final value below can only be later.
        memo[key] = self.cycle
        kind = type(waiting)
        if kind is AnyReadable:
            waiting = waiting.conds
        elif kind is not tuple and kind is not list:
            waiting = (waiting,)
        floor = FOREVER
        for cond in waiting:
            if type(cond) is CanPop:
                ready = cond.fifo.earliest_readable(memo, depth + 1)
            else:
                # CanPush / events: a slot may free (or the event fire)
                # any time another process runs.
                ready = self.cycle
            if ready < floor:
                floor = ready
                if floor <= self.cycle:
                    break
        memo[key] = floor
        return floor

    def preempt(self, proc: Process, cycle: int) -> None:
        """Reschedule a blocked process to run at ``cycle`` (>= now).

        Used by the cascade planner after it has planned a parked CK's
        window on its behalf: the conditions the process waited on may
        never fire now that the planned takes emptied its inputs, so the
        planner hands it a firm wake instead. A parked process is
        disarmed (its registrations withdrawn) and a sleeping one gives
        up its old calendar entry, so neither leaves anything stale
        behind. A pending continuation is dropped: the firm wake runs
        the generator, which is who the planner left its state for. The
        process running this very step cannot be preempted: what it
        yields next is what schedules it.
        """
        if proc is self._current_proc:
            raise SimulationError(
                f"process {proc.name!r} preempted from within its own "
                "step: what it yields next schedules it")
        if cycle < self.cycle:
            cycle = self.cycle
        if self.trace is not None:
            self.trace.emit(self.cycle, "wake", proc.name, "preempt",
                            args={"at": cycle})
        if proc.finished:
            return
        proc.continuation = None
        if proc._waiting_on is not None:
            self._disarm(proc)
        else:
            self._unschedule(proc)
        self._schedule(proc, cycle)

    # ------------------------------------------------------------------
    # Condition dispatch, the generic half (TICK / WaitCycles and the
    # single-FIFO and AnyReadable waits are inline in ``_run_cycle``)
    # ------------------------------------------------------------------
    def _trace_park(self, proc: Process, waiting) -> None:
        self.trace.emit(self.cycle, "park", proc.name, "park",
                        args={"on": _cond_desc(waiting)})

    @staticmethod
    def _satisfied(cond) -> bool:
        kind = type(cond)
        if kind is CanPop:
            return cond.fifo.readable
        if kind is CanPush:
            return cond.fifo.writable
        if kind is SimEvent:
            return cond._set
        raise SimulationError(f"process yielded unsupported condition: {cond!r}")

    def _wait_any(self, proc: Process, conds) -> bool:
        """A process yielded a tuple/list of conditions: True when one
        already holds (it runs again this cycle), else it is parked on
        all of them.

        FIFO visibility/space is computed lazily from the clock, so a
        blocking process must arm the commit event that will wake it
        (items already staged / slots already reserved have known
        deadlines; later stages and takes arm their own wakes).
        """
        for cond in conds:
            if self._satisfied(cond):
                return True
        for cond in conds:
            cond.waiters.append(proc)
            kind = type(cond)
            if kind is CanPop:
                deadlines = cond.fifo._ready
            elif kind is CanPush:
                deadlines = cond.fifo._reserved
            else:
                continue
            if deadlines:
                self._schedule_commit(deadlines[0], cond.fifo)
        proc._waiting_on = conds if len(conds) > 1 else conds[0]
        return False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _finish(self, proc: Process, result) -> None:
        proc.finished = True
        proc.result = result
        if not proc.daemon:
            self._live_workers -= 1
            self.last_worker_finish = self.cycle
        self.set_event(proc.done)

    def _run_cycle(self, cycle: int) -> int:
        """Execute every event of ``cycle`` (the next pending one).

        Phase 1 runs the FIFO commits due, phase 2 steps every process
        scheduled for the cycle — including those woken or resumed
        within it — in scheduling order. A commit armed for this same
        cycle during phase 2 leaves the cycle pending: the caller's next
        ``next_pending_cycle()`` re-enters it (commits, then the
        processes they woke). Returns the number of commits and process
        steps executed.
        """
        # --- assemble the cycle's lists in scheduling order: the far
        # bucket (filled before cycle - 1 began), the next lists (filled
        # during cycle - 1), whatever is already listed for this cycle.
        # The common case — next lists only — swaps list objects: nothing
        # is copied or allocated.
        heap = self._far_heap
        run = commits = None
        if heap and heap[0] == cycle:
            heappop(heap)
            while heap and heap[0] == cycle:
                heappop(heap)
            run = self._far_procs.pop(cycle, None)
            if self._far_commits:
                commits = self._far_commits.pop(cycle, None)
        if self._next_at == cycle:
            nxt = self._next
            if nxt:
                if run is None and not self._now:
                    self._now, self._next = nxt, self._now
                else:
                    run = (run or []) + nxt
                    nxt.clear()
            nxt = self._commit_next
            if nxt:
                if commits is None and not self._commit_now:
                    self._commit_now, self._commit_next = \
                        nxt, self._commit_now
                else:
                    commits = (commits or []) + nxt
                    nxt.clear()
        if run is not None:
            run += self._now
            self._now = run
        if commits is not None:
            commits += self._commit_now
            self._commit_now = commits
        self.cycle = cycle
        self._next_at = nxt_at = cycle + 1
        executed = 0
        trace = self.trace
        far_procs = self._far_procs
        try:
            # --- phase 1: FIFO commits due this cycle ----------------
            commits = self._commit_now
            if commits:
                # Commits armed from here on belong to a later pass.
                self._commit_now = self._commit_spare
                for fifo in commits:
                    fifo._commit(cycle)
                executed += len(commits)
                commits.clear()
                self._commit_spare = commits
            # --- phase 2: step every process of this cycle -----------
            run = self._now
            nxt = self._next
            for proc in run:
                if proc._last_step_cycle == cycle:
                    proc._steps_this_cycle += 1
                    if proc._steps_this_cycle > MAX_STEPS_PER_CYCLE:
                        raise SimulationError(
                            f"process {proc.name!r} stepped "
                            f">{MAX_STEPS_PER_CYCLE} times in cycle "
                            f"{cycle}: combinational loop? (a process "
                            "must yield TICK to make progress)"
                        )
                else:
                    proc._last_step_cycle = cycle
                    proc._steps_this_cycle = 1
                if trace is not None:
                    trace.emit(cycle, "dispatch", proc.name, "step")
                self._current_proc = proc
                step = proc.continuation
                try:
                    if step is None:
                        cond = proc.gen.send(None)
                    else:
                        # One-shot: ``step`` may leave the next one.
                        proc.continuation = None
                        cond = step()
                        if cond is RESUME:
                            cond = proc.gen.send(None)
                        else:
                            self.elided_steps += 1
                except StopIteration as stop:
                    self._finish(proc, stop.value)
                    continue
                except Exception as exc:
                    # Python >= 3.11; older interpreters surface the
                    # kernel's exception untouched.
                    if hasattr(exc, "add_note"):
                        exc.add_note(
                            f"(raised by simulated process "
                            f"{proc.name!r} at cycle {cycle})"
                        )
                    raise
                # --- dispatch what the process yielded ---------------
                if cond is TICK or cond is None:
                    proc._scheduled_for = nxt_at
                    nxt.append(proc)
                    continue
                kind = type(cond)
                if kind is WaitCycles:
                    wake = cycle + cond.cycles
                    proc._scheduled_for = wake
                    if wake == nxt_at:
                        nxt.append(proc)
                    else:
                        if wake not in far_procs:
                            heappush(heap, wake)
                        far_procs[wake].append(proc)
                    continue
                if kind is AnyReadable:
                    if cond.idle_at == cycle or not cond.holds(cycle):
                        # Park, O(1): arm the persistent watcher, then
                        # the commits of items already staged.
                        if cond.proc is not None:
                            raise SimulationError(
                                f"process {proc.name!r} parked on "
                                f"{cond!r}, which {cond.proc.name!r} "
                                "is already parked on")
                        cond.proc = proc
                        proc._waiting_on = cond
                        for fifo in cond.fifos:
                            ready = fifo._ready
                            if ready:
                                self._schedule_commit(ready[0], fifo)
                        if trace is not None:
                            self._trace_park(proc, cond)
                        continue
                elif kind is CanPop:
                    ready = cond.fifo._ready
                    if not ready or ready[0] > cycle:
                        cond.waiters.append(proc)
                        proc._waiting_on = cond
                        if ready:
                            self._schedule_commit(ready[0], cond.fifo)
                        if trace is not None:
                            self._trace_park(proc, cond)
                        continue
                elif kind is CanPush:
                    fifo = cond.fifo
                    if not fifo.writable:
                        cond.waiters.append(proc)
                        proc._waiting_on = cond
                        if fifo._reserved:
                            self._schedule_commit(fifo._reserved[0],
                                                  fifo)
                        if trace is not None:
                            self._trace_park(proc, cond)
                        continue
                elif kind is tuple or kind is list:
                    if not self._wait_any(proc, cond):
                        if trace is not None:
                            self._trace_park(proc, cond)
                        continue
                elif not self._satisfied(cond):
                    cond.waiters.append(proc)
                    proc._waiting_on = cond
                    if trace is not None:
                        self._trace_park(proc, cond)
                    continue
                # The condition already holds: run again this cycle.
                proc._scheduled_for = cycle
                run.append(proc)
            self.steps += len(run)
            executed += len(run)
            run.clear()
            return executed
        finally:
            self._current_proc = None

    def next_pending_cycle(self) -> int | None:
        """Cycle of the earliest pending event, or None when idle."""
        if self._now or self._commit_now:
            return self.cycle
        heap = self._far_heap
        if self._next or self._commit_next:
            cycle = self._next_at
            if heap and heap[0] < cycle:
                return heap[0]
            return cycle
        return heap[0] if heap else None

    def run(self, max_cycles: int | None = None) -> RunResult:
        """Run until all non-daemon processes finish (or ``max_cycles``).

        Raises
        ------
        DeadlockError
            If live non-daemon processes remain but nothing can ever run.
        """
        while True:
            if self._live_workers == 0:
                return self._result("completed")
            next_cycle = self.next_pending_cycle()
            if next_cycle is None:
                raise self._deadlock()
            if max_cycles is not None and next_cycle > max_cycles:
                self.cycle = max_cycles
                return self._result("max_cycles")
            self._run_cycle(next_cycle)

    def run_until(self, bound: int) -> tuple[str, int]:
        """Run every event scheduled strictly before ``bound``.

        The incremental-resume entry point of the sharded backend
        (:mod:`repro.shard`): one *epoch* of a conservative parallel
        simulation. Unlike :meth:`run` it

        * keeps serving daemon processes even when no non-daemon worker
          is live (a shard whose ranks are pure transit must keep
          forwarding other shards' traffic), and
        * treats an empty calendar as ``"idle"`` rather than a deadlock —
          locally nothing can run, but a boundary injection from another
          shard may schedule new work before the next epoch.

        Returns ``(reason, events)`` where ``reason`` is ``"bound"``
        (an event at or past ``bound`` remains pending) or ``"idle"``
        (nothing is scheduled at all), and ``events`` counts the process
        steps and FIFO commits executed. The clock is left at the last
        executed event's cycle; it never reaches ``bound``.
        """
        executed = 0
        while True:
            next_cycle = self.next_pending_cycle()
            if next_cycle is None:
                return "idle", executed
            if next_cycle >= bound:
                return "bound", executed
            executed += self._run_cycle(next_cycle)

    @property
    def live_workers(self) -> int:
        """Non-daemon processes still running (sharded-backend query)."""
        return self._live_workers

    def live_worker_floor(self, memo: dict | None = None) -> int:
        """Max over live workers of their :meth:`process_floor`.

        Every worker's finish cycle is at least its floor, so the global
        end cycle is at least this value — the sharded coordinator
        ratchets its stats watermark (``stats_fold_limit``) on it.
        """
        if memo is None:
            memo = {}
        floor = 0
        for proc in self._processes:
            if not proc.daemon and not proc.finished:
                f = self.process_floor(proc, memo)
                if f > floor:
                    floor = f
        return floor

    def blocked_process_dump(self) -> list[str]:
        """One diagnostic line per blocked process (deadlock reports)."""
        return [
            f"  - {p.name}: waiting on {p._waiting_on!r}"
            for p in self._processes
            if not p.finished and p._waiting_on is not None
        ]

    def _result(self, reason: str) -> RunResult:
        done = sum(1 for p in self._processes if p.finished)
        return RunResult(
            cycles=self.cycle,
            reason=reason,
            processes_finished=done,
            processes_live=self._live_workers,
        )

    def _deadlock(self) -> DeadlockError:
        blocked = self.blocked_process_dump()
        detail = "\n".join(blocked) if blocked else "  (no blocked processes?)"
        history = ""
        if self.trace is not None and len(self.trace):
            tail = "\n".join(self.trace.tail_lines())
            history = f"\nLast trace events before the deadlock:\n{tail}"
        return DeadlockError(
            f"simulation deadlocked at cycle {self.cycle}: "
            f"{self._live_workers} worker process(es) can never run again.\n"
            f"Blocked processes:\n{detail}{history}\n"
            "Hint: SMI sends are non-local (§3.3) — check for cyclic "
            "send/receive dependencies or undersized channel buffers."
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def processes(self) -> list[Process]:
        return list(self._processes)

    @property
    def fifos(self) -> list:
        return list(self._fifos)

    def fifo_stats(self) -> dict[str, dict[str, Any]]:
        """Per-FIFO statistics snapshot (for reports and tests)."""
        return {f.name: f.stats_row() for f in self._fifos}
