"""Wait conditions yielded by simulated hardware processes.

A simulated module is a Python generator. Each ``yield`` hands control back
to the engine together with a *condition* describing when the process wants
to run again:

* :data:`TICK` — run again next cycle (models one clock cycle of work).
* :class:`WaitCycles` — sleep a fixed number of cycles.
* ``fifo.can_pop`` / ``fifo.can_push`` — run when the FIFO becomes readable /
  writable (interned per FIFO; see :mod:`repro.simulation.fifo`).
* :class:`SimEvent` — a broadcast event other processes can trigger.
* a tuple (or list) of the three above — run when any of them holds.
* :class:`AnyReadable` — run when any FIFO of a *fixed* input set becomes
  readable; built once by the owner of the set and yielded on every park.

Processes normally do not yield FIFO conditions directly; they use the
``yield from fifo.push(x)`` / ``item = yield from fifo.pop()`` helpers which
implement the one-item-per-cycle handshake of a hardware FIFO port.

:data:`RESUME` is not a condition a generator yields: it is what an
*engine-side continuation* (``Process.continuation``, see
:mod:`repro.simulation.engine`) returns to have its generator resumed in
its place; anything else it returns is one of the conditions above.

Waiters
-------

A condition is also where the processes parked on it are found. The
engine (:mod:`repro.simulation.engine`) maintains two kinds of
registration, and both exist only while the process is parked:

* ``waiters`` — on ``CanPop`` / ``CanPush`` / ``SimEvent``: the processes
  parked on this condition, alone or inside a tuple. A wake through one
  condition of a tuple removes the process from the others.
* ``watch`` — on ``CanPop``: the :class:`AnyReadable` whose input set the
  FIFO belongs to (each input FIFO knows its watcher). The watcher is
  *armed* while ``watch.proc`` is the parked process and disarmed
  (``None``) otherwise, so parking on n inputs is one store and allocates
  nothing; FIFOs outside any input set share the never-armed
  :data:`NO_WATCH`.

So a FIFO has somebody to wake exactly when ``can_pop.waiters`` is
non-empty or ``can_pop.watch.proc`` is set — which is the only case in
which a stage schedules a commit event.
"""

from __future__ import annotations

from ..core.errors import SimulationError


class _Tick:
    """Singleton condition: resume the process on the next clock cycle."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "TICK"


#: The unique "advance one cycle" condition.
TICK = _Tick()


class _Resume:
    """Singleton: a continuation's "resume the generator now"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "RESUME"


#: What an engine-side continuation returns instead of a condition when
#: the step is the generator's after all.
RESUME = _Resume()


class WaitCycles:
    """Condition: resume the process after ``cycles`` clock cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 1:
            raise ValueError(f"WaitCycles needs cycles >= 1, got {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"WaitCycles({self.cycles})"


class AnyReadable:
    """Condition: resume when any FIFO of a fixed input set is readable.

    The persistent form of ``yield tuple(f.can_pop for f in fifos)`` for
    a consumer whose input set never changes (a CK's polling arbiter):
    built once, it registers itself as the watcher of every input FIFO,
    and from then on a park is ``self.proc = process`` and a wake (or
    :meth:`Engine.preempt`) is ``self.proc = None``. One process parks on
    it at a time, and a FIFO belongs to at most one input set (it has a
    single consumer).
    """

    __slots__ = ("fifos", "conds", "proc", "idle_at", "_ring")

    def __init__(self, fifos) -> None:
        self.conds = tuple(f.can_pop for f in fifos)
        self.fifos = tuple(cond.fifo for cond in self.conds)
        self._ring = self.fifos + self.fifos  # ``scan`` goes round
        self.proc = None  # the parked process while armed
        # The last cycle at which ``scan`` / ``holds`` found no input
        # readable. FIFO latency is >= 1, so nothing turns visible later
        # in that same cycle: the engine parks a process that yields this
        # condition right after such a look without taking a second one.
        self.idle_at = -1
        for cond in self.conds:
            if cond.watch is not NO_WATCH:
                raise SimulationError(
                    f"fifo {cond.fifo.name!r} already belongs to the "
                    f"input set of {cond.watch!r}")
        for cond in self.conds:
            cond.watch = self

    def holds(self, now: int) -> bool:
        """Whether any input has an item visible at cycle ``now``."""
        return self.scan(0, now) < len(self.fifos)

    def scan(self, start: int, now: int) -> int:
        """How many inputs a pointer at input ``start`` passes, going
        round, before one with an item visible at cycle ``now`` —
        ``len(fifos)`` when there is none."""
        ring = self._ring
        n = len(self.fifos)
        for passed in range(n):
            ready = ring[start + passed]._ready
            if ready and ready[0] <= now:
                return passed
        self.idle_at = now
        return n

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return repr(self.conds)


#: The watcher of every FIFO outside an input set: never armed.
NO_WATCH = AnyReadable(())


class CanPop:
    """Condition: resume when the FIFO has at least one visible item.

    Interned: obtain via ``fifo.can_pop``, never constructed by user code.
    """

    __slots__ = ("fifo", "waiters", "watch")

    def __init__(self, fifo) -> None:
        self.fifo = fifo
        self.waiters: list = []
        self.watch: AnyReadable = NO_WATCH

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CanPop({self.fifo.name})"


class CanPush:
    """Condition: resume when the FIFO has free space.

    Interned: obtain via ``fifo.can_push``, never constructed by user code.
    """

    __slots__ = ("fifo", "waiters")

    def __init__(self, fifo) -> None:
        self.fifo = fifo
        self.waiters: list = []

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CanPush({self.fifo.name})"


class SimEvent:
    """A one-shot broadcast event.

    Processes wait on it by yielding the event; :meth:`set` wakes all current
    and future waiters (waiting on a set event resumes on the next cycle).
    """

    __slots__ = ("name", "waiters", "_set", "set_at_cycle")

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self.waiters: list = []
        self._set = False
        self.set_at_cycle: int | None = None

    @property
    def is_set(self) -> bool:
        """Whether the event has been triggered."""
        return self._set

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "set" if self._set else "unset"
        return f"SimEvent({self.name}, {state})"
