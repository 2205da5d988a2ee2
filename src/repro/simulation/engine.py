"""Cycle-accurate, event-skipping simulation engine.

The engine advances a global clock (``engine.cycle``). Hardware modules are
*processes*: Python generators that yield wait conditions (see
:mod:`repro.simulation.conditions`). The engine maintains a calendar of
scheduled process resumptions and pending FIFO commits; when nothing is
runnable in the current cycle it jumps directly to the next scheduled cycle,
so idle periods (e.g. a packet in flight on a 100-cycle link) cost O(1)
instead of O(cycles).

Determinism: processes scheduled for the same cycle run in the order they
were scheduled (a monotonically increasing sequence number breaks ties), so a
simulation is exactly reproducible run-to-run.

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

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

from ..core.errors import DeadlockError, SimulationError
from .conditions import TICK, CanPop, CanPush, SimEvent, WaitCycles

#: Safety bound on process steps within a single cycle (combinational loop).
MAX_STEPS_PER_CYCLE = 10_000

#: "Provably never" horizon for supply-schedule queries (finished
#: producers, flow-dead FIFOs).
FOREVER = 1 << 62


def _cond_desc(conds) -> str:
    """Compact wait-condition label for trace events (tracing-on only)."""
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
        "_token",
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
        self._token = 0
        self._last_step_cycle = -1
        self._steps_this_cycle = 0
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
        self._seq = 0
        self._proc_heap: list = []  # (cycle, seq, process, token)
        self._commit_heap: list = []  # (cycle, seq, fifo)
        self._commit_pending: set = set()  # (cycle, id(fifo)) dedupe
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
        # Macro-cruise accounting: cycle spans the planner committed in
        # closed form (bulk take/stage logs, no per-event dispatch) and
        # how many fast-forward windows did so. Reporting only — the
        # clock itself still moves heap-top to heap-top.
        self.ff_windows = 0
        self.ff_cycles = 0
        # Flight recorder (repro.trace.TraceRecorder) or None. None is
        # the zero-overhead-off contract: every instrumented site in
        # the engine, FIFOs, links, arbiter and planner guards its emit
        # behind one `is not None` check of this attribute, so with
        # tracing off no event is ever built and cycles/wall-clock are
        # indistinguishable from an uninstrumented build.
        self.trace = None

    def note_fast_forward(self, span: int) -> None:
        """Record one analytically fast-forwarded window of ``span`` cycles."""
        if span > 0:
            self.ff_windows += 1
            self.ff_cycles += span
            if self.trace is not None:
                self.trace.emit(self.cycle, "ff", "engine", "fast-forward",
                                dur=span)
                self.trace.sample(
                    "planner/ff_coverage", self.cycle,
                    round(self.ff_cycles / max(self.cycle, 1), 4))

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
    def _schedule(self, proc: Process, cycle: int) -> None:
        proc._token += 1
        proc._scheduled_for = cycle
        self._seq += 1
        heapq.heappush(self._proc_heap, (cycle, self._seq, proc, proc._token))

    def _schedule_commit(self, cycle: int, fifo) -> None:
        key = (cycle, id(fifo))
        if key in self._commit_pending:
            return
        self._commit_pending.add(key)
        self._seq += 1
        heapq.heappush(self._commit_heap, (cycle, self._seq, fifo))

    def _wake_all(self, condition, delay: int) -> None:
        """Wake every valid waiter of ``condition`` after ``delay`` cycles."""
        waiters = condition.waiters
        if not waiters:
            return
        target = self.cycle + delay
        trace = self.trace
        for proc, token in waiters:
            if not proc.finished and token == proc._token:
                proc._waiting_on = None
                self._schedule(proc, target)
                if trace is not None:
                    trace.emit(self.cycle, "wake", proc.name, "wake",
                               args={"at": target} if delay else None)
        waiters.clear()

    def set_event(self, event: SimEvent) -> None:
        """Trigger ``event``, waking all waiters in the current cycle."""
        if event._set:
            return
        event._set = True
        event.set_at_cycle = self.cycle
        self._wake_all(event, delay=0)

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
        if type(waiting) not in (tuple, list):
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
        planner hands it a firm wake instead. Bumping the token
        invalidates the stale waiter entries left in condition lists.
        """
        proc._waiting_on = None
        self._schedule(proc, max(cycle, self.cycle))
        if self.trace is not None:
            self.trace.emit(self.cycle, "wake", proc.name, "preempt",
                            args={"at": max(cycle, self.cycle)})

    # ------------------------------------------------------------------
    # Condition dispatch
    # ------------------------------------------------------------------
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

    def _block(self, proc: Process, conds) -> None:
        entry = (proc, proc._token)
        for cond in conds:
            cond.waiters.append(entry)
            # FIFO visibility/space is computed lazily from the clock, so a
            # blocking process must arm the commit event that will wake it
            # (items already staged / slots already reserved have known
            # deadlines; later stages and takes arm their own wakes).
            kind = type(cond)
            if kind is CanPop or kind is CanPush:
                cond.fifo._arm_waiter_wake(cond)
        proc._waiting_on = conds if len(conds) > 1 else conds[0]
        if self.trace is not None:
            self.trace.emit(self.cycle, "park", proc.name, "park",
                            args={"on": _cond_desc(conds)})

    def _dispatch(self, proc: Process, cond) -> None:
        """Handle the condition a process yielded."""
        kind = type(cond)
        if kind is WaitCycles:
            self._schedule(proc, self.cycle + cond.cycles)
            return
        if cond is TICK or cond is None:
            self._schedule(proc, self.cycle + 1)
            return
        if kind is tuple or kind is list:
            if any(self._satisfied(c) for c in cond):
                self._schedule(proc, self.cycle)
            else:
                self._block(proc, cond)
            return
        if self._satisfied(cond):
            self._schedule(proc, self.cycle)
        else:
            self._block(proc, (cond,))

    def _step(self, proc: Process) -> None:
        if proc._last_step_cycle == self.cycle:
            proc._steps_this_cycle += 1
            if proc._steps_this_cycle > MAX_STEPS_PER_CYCLE:
                raise SimulationError(
                    f"process {proc.name!r} stepped >{MAX_STEPS_PER_CYCLE} "
                    f"times in cycle {self.cycle}: combinational loop? "
                    "(a process must yield TICK to make progress)"
                )
        else:
            proc._last_step_cycle = self.cycle
            proc._steps_this_cycle = 1
        if self.trace is not None:
            self.trace.emit(self.cycle, "dispatch", proc.name, "step")
        self._current_proc = proc
        try:
            cond = proc.gen.send(None)
        except StopIteration as stop:
            proc.finished = True
            proc.result = stop.value
            if not proc.daemon:
                self._live_workers -= 1
                self.last_worker_finish = self.cycle
            self.set_event(proc.done)
            return
        except Exception as exc:
            exc.add_note(
                f"(raised by simulated process {proc.name!r} at cycle "
                f"{self.cycle})"
            )
            raise
        finally:
            self._current_proc = None
        self._dispatch(proc, cond)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> RunResult:
        """Run until all non-daemon processes finish (or ``max_cycles``).

        Raises
        ------
        DeadlockError
            If live non-daemon processes remain but nothing can ever run.
        """
        proc_heap = self._proc_heap
        commit_heap = self._commit_heap
        while True:
            if self._live_workers == 0:
                return self._result("completed")
            # --- find the next cycle with activity -----------------------
            next_cycle = None
            # Skip stale process entries at the heap top.
            while proc_heap:
                cyc, _seq, proc, token = proc_heap[0]
                if proc.finished or token != proc._token:
                    heapq.heappop(proc_heap)
                    continue
                next_cycle = cyc
                break
            if commit_heap and (next_cycle is None or commit_heap[0][0] < next_cycle):
                next_cycle = commit_heap[0][0]
            if next_cycle is None:
                raise self._deadlock()
            if max_cycles is not None and next_cycle > max_cycles:
                self.cycle = max_cycles
                return self._result("max_cycles")
            self.cycle = next_cycle
            # --- phase 1: FIFO commits due this cycle ---------------------
            while commit_heap and commit_heap[0][0] <= next_cycle:
                cyc, _seq, fifo = heapq.heappop(commit_heap)
                self._commit_pending.discard((cyc, id(fifo)))
                fifo._commit(next_cycle)
            # --- phase 2: step every process scheduled for this cycle ----
            while proc_heap and proc_heap[0][0] == next_cycle:
                _cyc, _seq, proc, token = heapq.heappop(proc_heap)
                if proc.finished or token != proc._token:
                    continue
                self._step(proc)

    def next_pending_cycle(self) -> int | None:
        """Cycle of the earliest valid pending event, or None when idle.

        Skips stale heap entries (finished processes, invalidated tokens)
        destructively, so repeated calls stay cheap.
        """
        proc_heap = self._proc_heap
        next_cycle = None
        while proc_heap:
            cyc, _seq, proc, token = proc_heap[0]
            if proc.finished or token != proc._token:
                heapq.heappop(proc_heap)
                continue
            next_cycle = cyc
            break
        commit_heap = self._commit_heap
        if commit_heap and (next_cycle is None
                            or commit_heap[0][0] < next_cycle):
            next_cycle = commit_heap[0][0]
        return next_cycle

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
        proc_heap = self._proc_heap
        commit_heap = self._commit_heap
        executed = 0
        while True:
            next_cycle = self.next_pending_cycle()
            if next_cycle is None:
                return "idle", executed
            if next_cycle >= bound:
                return "bound", executed
            self.cycle = next_cycle
            while commit_heap and commit_heap[0][0] <= next_cycle:
                cyc, _seq, fifo = heapq.heappop(commit_heap)
                self._commit_pending.discard((cyc, id(fifo)))
                fifo._commit(next_cycle)
                executed += 1
            while proc_heap and proc_heap[0][0] == next_cycle:
                _cyc, _seq, proc, token = heapq.heappop(proc_heap)
                if proc.finished or token != proc._token:
                    continue
                self._step(proc)
                executed += 1

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
        return {
            f.name: {
                "pushes": f.pushes,
                "pops": f.pops,
                "max_occupancy": f.max_occupancy,
                "capacity": f.capacity,
                "latency": f.latency,
                "bursts": f.bursts,
                "burst_items": f.burst_items,
            }
            for f in self._fifos
        }


def drain_cycles(n: int) -> Iterable:
    """Helper generator fragment: busy-wait ``n`` cycles (yield from it)."""
    if n > 0:
        yield WaitCycles(n)
