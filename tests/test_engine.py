"""Unit tests for the cycle-level simulation engine."""

import heapq
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DeadlockError, SimulationError
from repro.simulation import (RESUME, TICK, AnyReadable, Engine, SimEvent,
                              WaitCycles)
from repro.simulation.conditions import CanPop, CanPush


def test_empty_engine_completes_immediately():
    eng = Engine()
    result = eng.run()
    assert result.completed
    assert result.cycles == 0


def test_tick_advances_one_cycle_each():
    eng = Engine()
    seen = []

    def proc():
        for _ in range(5):
            seen.append(eng.cycle)
            yield TICK

    eng.spawn(proc, "ticker")
    result = eng.run()
    assert result.completed
    assert seen == [0, 1, 2, 3, 4]


def test_wait_cycles_skips_time():
    eng = Engine()
    marks = []

    def proc():
        yield WaitCycles(1000)
        marks.append(eng.cycle)
        yield WaitCycles(234)
        marks.append(eng.cycle)

    eng.spawn(proc, "sleeper")
    eng.run()
    assert marks == [1000, 1234]


def test_wait_cycles_rejects_zero():
    with pytest.raises(ValueError):
        WaitCycles(0)


def test_process_return_value_captured():
    eng = Engine()

    def proc():
        yield TICK
        return 42

    p = eng.spawn(proc, "answer")
    eng.run()
    assert p.finished
    assert p.result == 42


def test_deterministic_ordering_same_cycle():
    # Processes scheduled in the same cycle run in spawn order.
    eng = Engine()
    order = []

    def make(tag):
        def proc():
            for _ in range(3):
                order.append((eng.cycle, tag))
                yield TICK

        return proc

    eng.spawn(make("a"), "a")
    eng.spawn(make("b"), "b")
    eng.run()
    assert order == [
        (0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b"),
    ]


def test_two_runs_are_identical():
    def build():
        eng = Engine()
        trace = []

        def producer(fifo):
            for i in range(20):
                yield from fifo.push(i)

        def consumer(fifo):
            for _ in range(20):
                item = yield from fifo.pop()
                trace.append((eng.cycle, item))

        f = eng.fifo("f", capacity=3)
        eng.spawn(producer(f), "p")
        eng.spawn(consumer(f), "c")
        eng.run()
        return trace

    assert build() == build()


def test_daemon_does_not_keep_engine_alive():
    eng = Engine()
    steps = []

    def daemon():
        while True:
            steps.append(eng.cycle)
            yield TICK

    def worker():
        yield WaitCycles(3)

    eng.spawn(daemon, "d", daemon=True)
    eng.spawn(worker, "w")
    result = eng.run()
    assert result.completed
    assert result.cycles == 3


def test_event_wakes_waiters():
    eng = Engine()
    ev = SimEvent("go")
    woke_at = []

    def waiter():
        yield ev
        woke_at.append(eng.cycle)

    def setter():
        yield WaitCycles(7)
        eng.set_event(ev)

    eng.spawn(waiter, "waiter")
    eng.spawn(setter, "setter")
    eng.run()
    assert woke_at == [7]
    assert ev.is_set and ev.set_at_cycle == 7


def test_waiting_on_already_set_event_continues():
    eng = Engine()
    ev = SimEvent("pre")
    done = []

    def setter():
        eng.set_event(ev)
        yield TICK

    def waiter():
        yield WaitCycles(5)
        yield ev  # already set: no extra blocking beyond this step
        done.append(eng.cycle)

    eng.spawn(setter, "s")
    eng.spawn(waiter, "w")
    eng.run()
    assert done == [5]


def test_wait_any_of_two_fifos():
    eng = Engine()
    f1 = eng.fifo("f1", capacity=4)
    f2 = eng.fifo("f2", capacity=4)
    got = []

    def selector():
        # Wait until either input has data, then report which.
        yield (f1.can_pop, f2.can_pop)
        if f2.readable:
            got.append(("f2", f2.take(), eng.cycle))
        if f1.readable:
            got.append(("f1", f1.take(), eng.cycle))

    def producer():
        yield WaitCycles(10)
        yield from f2.push("x")

    eng.spawn(selector, "sel")
    eng.spawn(producer, "prod")
    eng.run()
    # Item staged at cycle 10 becomes visible at 11.
    assert got == [("f2", "x", 11)]


def test_deadlock_detected_and_reported():
    eng = Engine()
    f = eng.fifo("stuck", capacity=1)

    def starved():
        item = yield from f.pop()  # nobody ever pushes
        return item

    eng.spawn(starved, "starved-consumer")
    with pytest.raises(DeadlockError, match="starved-consumer"):
        eng.run()


def test_cyclic_dependency_deadlock():
    # Two ranks both send before receiving with too-small buffers (§3.3).
    eng = Engine()
    a_to_b = eng.fifo("a2b", capacity=2)
    b_to_a = eng.fifo("b2a", capacity=2)

    def node(out_f, in_f, n):
        def proc():
            for i in range(n):
                yield from out_f.push(i)
            for _ in range(n):
                yield from in_f.pop()

        return proc

    eng.spawn(node(a_to_b, b_to_a, 10), "a")
    eng.spawn(node(b_to_a, a_to_b, 10), "b")
    with pytest.raises(DeadlockError):
        eng.run()


def test_max_cycles_stops_run():
    eng = Engine()

    def forever():
        while True:
            yield TICK

    eng.spawn(forever, "loop")
    result = eng.run(max_cycles=100)
    assert result.reason == "max_cycles"
    assert result.cycles == 100
    assert not result.completed


def test_combinational_loop_guard():
    eng = Engine()
    f = eng.fifo("f", capacity=4)

    def spinner():
        f.stage("x")
        while True:
            # Yielding an already-satisfied condition without consuming it
            # re-runs the process in the same cycle: must be caught.
            yield f.can_push

    eng.spawn(spinner, "spin")
    with pytest.raises(SimulationError, match="combinational loop"):
        eng.run()


def test_spawn_rejects_non_generator():
    eng = Engine()
    with pytest.raises(SimulationError, match="generator"):
        eng.spawn(lambda: 42, "notgen")


def test_exception_in_process_annotated():
    eng = Engine()

    def broken():
        yield TICK
        raise ValueError("boom")

    eng.spawn(broken, "broken-kernel")
    with pytest.raises(ValueError, match="boom") as exc_info:
        eng.run()
    if sys.version_info >= (3, 11):
        assert any("broken-kernel" in note
                   for note in exc_info.value.__notes__)


def test_kernel_exception_surfaces_unchanged_on_every_python():
    """The note is an annotation, never a replacement: on an interpreter
    without ``BaseException.add_note`` (3.10, which CI runs) the kernel's
    own exception must still be what ``run()`` raises."""
    eng = Engine()

    def broken():
        yield WaitCycles(7)
        raise ValueError("bad operand")

    eng.spawn(broken, "gemv-kernel")
    with pytest.raises(ValueError, match="bad operand") as exc_info:
        eng.run()
    assert type(exc_info.value) is ValueError
    assert eng.cycle == 7
    notes = getattr(exc_info.value, "__notes__", None)
    if hasattr(BaseException, "add_note"):
        assert notes == [
            "(raised by simulated process 'gemv-kernel' at cycle 7)"]
    else:
        assert notes is None


def test_done_event_of_process():
    eng = Engine()

    def worker():
        yield WaitCycles(9)
        return "done"

    waited = []
    p = eng.spawn(worker, "w")

    def observer():
        yield p.done
        waited.append(eng.cycle)

    eng.spawn(observer, "obs")
    eng.run()
    assert waited == [9]


def test_start_cycle_delays_first_step():
    eng = Engine()
    first = []

    def proc():
        first.append(eng.cycle)
        yield TICK

    eng.spawn(proc, "late", start_cycle=50)
    eng.run()
    assert first == [50]


def test_event_skipping_is_fast_for_long_idle():
    # A 10-million-cycle sleep must not iterate 10 million times.
    eng = Engine()

    def sleeper():
        yield WaitCycles(10_000_000)

    eng.spawn(sleeper, "s")
    result = eng.run()
    assert result.cycles == 10_000_000


def test_fifo_stats_snapshot():
    eng = Engine()
    f = eng.fifo("stats", capacity=4)

    def p():
        for i in (1, 2, 3):
            yield from f.push(i)

    def c():
        for _ in range(3):
            yield from f.pop()

    eng.spawn(p, "p")
    eng.spawn(c, "c")
    eng.run()
    stats = eng.fifo_stats()["stats"]
    assert stats["pushes"] == 3
    assert stats["pops"] == 3
    assert stats["capacity"] == 4


# ----------------------------------------------------------------------
# The calendar: nothing before the clock, and scheduling order — checked
# against an executable reference model
# ----------------------------------------------------------------------
def test_scheduling_before_the_clock_raises():
    eng = Engine()
    f = eng.fifo("f", capacity=2)

    def sleeper():
        yield WaitCycles(50)

    proc = eng.spawn(sleeper, "sleeper")
    eng.spawn(sleeper, "other")
    eng.run(max_cycles=10)
    assert eng.cycle == 10
    with pytest.raises(SimulationError, match="before the clock"):
        eng._schedule(proc, 9)
    with pytest.raises(SimulationError, match="before the clock"):
        eng._schedule_commit(9, f)
    assert eng.cycle == 10
    # The failed calls left the calendar alone: the run resumes normally.
    assert eng.run().cycles == 50


def test_preempting_the_running_process_raises():
    eng = Engine()
    procs = []

    def selfish():
        yield TICK
        eng.preempt(procs[0], eng.cycle + 5)

    procs.append(eng.spawn(selfish, "selfish"))
    with pytest.raises(SimulationError, match="within its own step"):
        eng.run()


class _At:
    """A 'run list' of the reference calendar: appending is a heap push."""

    __slots__ = ("engine", "cycle")

    def __init__(self, engine, cycle):
        self.engine = engine
        self.cycle = cycle

    def append(self, proc):
        self.engine._push(proc, self.cycle)


class ReferenceEngine(Engine):
    """The scheduling-order contract as the obvious algorithm: every
    process resumption and every FIFO commit is a heap entry keyed
    ``(cycle, global scheduling sequence number)``; a process carries a
    token that every scheduling bumps, and an entry whose token is stale
    is dropped when it reaches the top. (This is the calendar the run
    lists replaced; waits use the engine's registrations.) The
    continuation rule, as the obvious algorithm too: an entry that
    reaches the top with a continuation pending calls it there instead
    of resuming the generator — ``RESUME`` resumes it after all — and a
    ``preempt`` forgets it."""

    def __init__(self):
        super().__init__()
        self._seq = 0
        self._proc_entries = []     # (cycle, seq, proc, token)
        self._commit_entries = []   # (cycle, seq, fifo)
        self._commit_keys = set()
        self._tokens = {}

    def _push(self, proc, cycle):
        assert cycle >= self.cycle
        token = self._tokens[proc] = self._tokens.get(proc, 0) + 1
        self._seq += 1
        heapq.heappush(self._proc_entries, (cycle, self._seq, proc, token))
        proc._scheduled_for = cycle

    def _run_list(self, cycle):
        return _At(self, cycle)

    def _unschedule(self, proc):
        pass  # the next push bumps the token: the old entry goes stale

    def _wake_watcher(self, watch):
        proc, watch.proc = watch.proc, None
        proc._waiting_on = None
        self._push(proc, self.cycle)

    def _schedule_commit(self, cycle, fifo):
        assert cycle >= self.cycle
        key = (cycle, id(fifo))
        if key not in self._commit_keys:
            self._commit_keys.add(key)
            self._seq += 1
            heapq.heappush(self._commit_entries, (cycle, self._seq, fifo))

    def _stale(self, proc, token):
        return proc.finished or token != self._tokens[proc]

    def preempt(self, proc, cycle):
        assert proc is not self._current_proc
        if proc.finished:
            return
        proc.continuation = None
        if proc._waiting_on is not None:
            self._disarm(proc)
        self._push(proc, max(cycle, self.cycle))

    def _dispatch(self, proc, cond):
        kind = type(cond)
        if cond is TICK or cond is None:
            return self._push(proc, self.cycle + 1)
        if kind is WaitCycles:
            return self._push(proc, self.cycle + cond.cycles)
        if kind is AnyReadable:
            conds = cond.conds
        else:
            conds = cond if kind in (tuple, list) else (cond,)
        if any(self._satisfied(c) for c in conds):
            return self._push(proc, self.cycle)
        if kind is AnyReadable:
            cond.proc = proc
            proc._waiting_on = cond
        else:
            for c in conds:
                c.waiters.append(proc)
            proc._waiting_on = conds if len(conds) > 1 else conds[0]
        for c in conds:
            deadlines = (c.fifo._ready if type(c) is CanPop else
                         c.fifo._reserved if type(c) is CanPush else None)
            if deadlines:
                self._schedule_commit(deadlines[0], c.fifo)

    def run(self, max_cycles=None):
        procs, commits = self._proc_entries, self._commit_entries
        while self._live_workers:
            while procs and self._stale(*procs[0][2:]):
                heapq.heappop(procs)
            pending = [heap[0][0] for heap in (procs, commits) if heap]
            assert pending, "reference model deadlocked"
            self.cycle = cycle = min(pending)
            while commits and commits[0][0] == cycle:
                _, _, fifo = heapq.heappop(commits)
                self._commit_keys.discard((cycle, id(fifo)))
                fifo._commit(cycle)
            while procs and procs[0][0] == cycle:
                _, _, proc, token = heapq.heappop(procs)
                if self._stale(proc, token):
                    continue
                self._current_proc = proc
                step, proc.continuation = proc.continuation, None
                try:
                    cond = RESUME if step is None else step()
                    if cond is RESUME:
                        cond = proc.gen.send(None)
                except StopIteration as stop:
                    self._finish(proc, stop.value)
                    continue
                finally:
                    self._current_proc = None
                self._dispatch(proc, cond)
        return self._result("completed")


class _ContinuationAtTheWake(Engine):
    """Seeded mutation: a woken watcher's continuation runs from the
    commit that wakes it, and what it returns is scheduled from there —
    not in the process's run-list slot. (The measured-and-rejected
    "schedule the scan from the commit phase" variant.)"""

    def _wake_watcher(self, watch):
        proc = watch.proc
        step = proc.continuation
        if step is None:
            return super()._wake_watcher(watch)
        proc.continuation = None
        watch.proc = proc._waiting_on = None
        cond = step()
        delay = 0 if cond is RESUME else 1 if cond is TICK else cond.cycles
        self._schedule(proc, self.cycle + delay)


class _ContinuationOutlivesPreempt(Engine):
    """Seeded mutation: ``preempt`` leaves a pending continuation be."""

    def preempt(self, proc, cycle):
        step = proc.continuation
        super().preempt(proc, cycle)
        proc.continuation = step


_HORIZON = 80
_N_EVENTS = 3
_N_FIFOS = 4       # fifos 0 and 1 form process 0's AnyReadable input set

_op = st.one_of(
    st.just(("tick",)),
    st.tuples(st.just("sleep"), st.integers(1, 6)),
    st.tuples(st.just("event"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("any_event"),
              st.lists(st.integers(0, _N_EVENTS - 1), min_size=2,
                       max_size=3)),
    st.tuples(st.just("set"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("preempt"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("push"), st.integers(0, _N_FIFOS - 1)),
    st.tuples(st.just("pop"), st.integers(2, _N_FIFOS - 1)),
    st.tuples(st.just("pop_either"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("burst_take"), st.integers(2, _N_FIFOS - 1)),
    st.tuples(st.just("pop_any"), st.integers(0, 3)),
    st.tuples(st.just("ticks"), st.integers(2, 5)),
)
_scripts = st.lists(
    st.tuples(st.integers(0, 3), st.lists(_op, max_size=14)),
    min_size=2, max_size=5)
_shapes = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)),
                   min_size=_N_FIFOS, max_size=_N_FIFOS)


def _play(engine, scripts, shapes):
    """Run the scripts on ``engine``; returns the observed step order."""
    log = []
    events = [SimEvent(f"e{i}") for i in range(_N_EVENTS)]
    fifos = [engine.fifo(f"f{i}", capacity=cap, latency=lat)
             for i, (cap, lat) in enumerate(shapes)]
    inputs = AnyReadable(fifos[:2])
    procs = []

    def pop_from(group, cond, then=None):
        while not any(f.readable for f in group):
            if then is not None:
                engine._current_proc.continuation = then
            yield cond
        next(f for f in group if f.readable).take()
        yield TICK

    def sleeps(cycles, name, n):
        # A continuation of a park: the woken process sleeps ``cycles``
        # more (its wake-up scan) before its generator sees the item.
        def step():
            log.append((name, n, "woken", engine.cycle))
            return WaitCycles(cycles) if cycles else RESUME
        return step

    def countdown(proc, left):
        # ``left`` more cycles of TICK that resume no generator.
        def step():
            nonlocal left
            left -= 1
            if left:
                proc.continuation = step
            return TICK
        return step

    def body(name, owner, ops):
        for n, op in enumerate(ops):
            log.append((name, n, engine.cycle))
            kind = op[0]
            if kind == "tick":
                yield TICK
            elif kind == "sleep":
                yield WaitCycles(op[1])
            elif kind == "event":
                yield events[op[1]]
            elif kind == "any_event":
                yield tuple(events[i] for i in op[1])
            elif kind == "set":
                engine.set_event(events[op[1]])
            elif kind == "preempt":
                target = procs[op[1] % len(procs)]
                if target is not engine._current_proc:
                    engine.preempt(target, engine.cycle + op[2])
            elif kind == "push":
                f = fifos[op[1]]
                while not f.writable:
                    yield f.can_push
                f.stage(n)
                yield TICK
            elif kind == "pop":
                yield from pop_from([fifos[op[1]]], fifos[op[1]].can_pop)
            elif kind == "pop_either":
                # A multi-input park that mixes a FIFO and an event.
                f, event = fifos[2], events[op[1]]
                if not f.readable and not event.is_set:
                    yield (f.can_pop, event)
            elif kind == "burst_take":
                # A slot released *this* cycle stays reserved until the
                # next: a producer parking on it later in the cycle arms
                # a commit for the current cycle during phase 2.
                f = fifos[op[1]]
                if f.readable:
                    f.take_burst([engine.cycle])
            elif kind == "pop_any" and owner:
                yield from pop_from(fifos[:2], inputs,
                                    sleeps(op[1], name, n))
            elif kind == "ticks":
                proc = engine._current_proc
                proc.continuation = countdown(proc, op[1] - 1)
                yield TICK
        log.append((name, "end", engine.cycle))

    for i, (start, ops) in enumerate(scripts):
        procs.append(engine.spawn(body(f"p{i}", i == 0, ops), f"p{i}",
                                  daemon=True, start_cycle=start))

    def clock():
        yield WaitCycles(_HORIZON)

    engine.spawn(clock, "clock")
    engine.run()
    assert engine.cycle == _HORIZON
    # Registrations are exactly those of the processes parked right now.
    conds = events + [c for f in fifos for c in (f.can_pop, f.can_push)]
    registered = sorted((p.name, id(c)) for c in conds for p in c.waiters)
    parked = []
    for p in procs:
        waiting = p._waiting_on
        if waiting is inputs:
            assert inputs.proc is p
        elif waiting is not None:
            each = waiting if type(waiting) is tuple else (waiting,)
            parked += [(p.name, id(c)) for c in each]
    assert registered == sorted(parked)
    assert inputs.proc is None or inputs.proc._waiting_on is inputs
    return log


def _matches_the_reference_model(engine_cls):
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(scripts=_scripts, shapes=_shapes)
    def check(scripts, shapes):
        assert _play(engine_cls(), scripts, shapes) == \
            _play(ReferenceEngine(), scripts, shapes)
    check()


def test_step_order_matches_the_reference_model():
    """"Processes scheduled for the same cycle run in the order they were
    scheduled" — over random mixes of TICK, WaitCycles(k), same-cycle
    satisfied waits, single / tuple / AnyReadable parks, set_event,
    preempt of sleeping and of parked processes, commits armed for the
    current cycle during phase 2, and engine-side continuations: of a
    park (the woken process sleeps on before its generator runs) and of
    a TICK (a countdown), either of which a preempt may cut short."""
    _matches_the_reference_model(Engine)


@pytest.mark.parametrize("mutant", [_ContinuationAtTheWake,
                                    _ContinuationOutlivesPreempt])
def test_reference_model_kills_the_continuation_mutants(mutant):
    """The same 300 examples tell a continuation run anywhere but in its
    process's slot, and one that survives a preempt, from the contract."""
    with pytest.raises(AssertionError):
        _matches_the_reference_model(mutant)


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
def test_commit_armed_for_the_current_cycle_reenters_it(engine_cls):
    """A slot a burst take releases *this* cycle stays reserved until the
    next one, so a producer that parks on it later in the same cycle arms
    a commit for the cycle already in its process phase. The cycle is
    entered again — commit, then the wake it schedules — after every
    process already listed has run."""
    eng = engine_cls()
    f = eng.fifo("f", capacity=1)
    f.stage("old")
    log = []

    def consumer():
        yield WaitCycles(5)
        f.take_burst([eng.cycle])        # releases its slot at cycle 5
        log.append(("took", eng.cycle))
        yield TICK

    def producer():
        yield WaitCycles(5)
        assert not f.writable            # still reserved this cycle
        log.append(("parks", eng.cycle))
        yield f.can_push                 # arms a commit for cycle 5
        log.append(("woken", eng.cycle))
        f.stage("new")
        yield TICK

    def bystander():
        yield WaitCycles(5)
        log.append(("bystander", eng.cycle))
        yield TICK

    eng.spawn(consumer, "consumer")
    eng.spawn(producer, "producer")
    eng.spawn(bystander, "bystander")
    eng.run()
    assert log == [("took", 5), ("parks", 5), ("bystander", 5),
                   ("woken", 6)]
    assert f.pushes == 2
