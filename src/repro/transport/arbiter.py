"""Input polling arbitration for communication kernels (§4.3).

A CKS/CKR module has several input connections (application endpoints, the
paired CKR/CKS, other communication kernels, the network). The reference
implementation polls them with a configurable scheme: "when a CKS/CKR module
receives a packet from an incoming connection, it keeps reading from the same
connection up to R times (where R is an optimization parameter) while data is
available, before continuing to poll other ports. With R = 1, the CKS module
polls a different connection every cycle."

The arbiter below reproduces that behaviour cycle-by-cycle:

* polling an empty input costs one cycle and advances the pointer;
* a readable input is drained for up to R packets (one per cycle);
* when *all* inputs are empty the simulator parks the kernel on a wait-any
  condition instead of burning idle cycles; on wake-up it charges exactly the
  number of scan cycles the hardware pointer would have spent reaching the
  readable input, so the timing is identical to literal polling.

Only a grant needs the loop's generator. A cycle in which the kernel
closes a round, polls an empty input, parks, or charges its wake-up scan
is answered by an *engine-side continuation* (``Process.continuation``,
:mod:`repro.simulation.engine`): :meth:`PollingArbiter._settle` after a
cycle's ``TICK``, :meth:`PollingArbiter._wake_scan` after a park. Each
runs in the kernel's own calendar slot and returns what the loop would
have yielded there, so every dispatch, park, wake and commit of the
literal loop happens where it did — a sparse kernel just resumes its
generator once per granted packet instead of three times.

In burst mode the loop's full resume state lives on the arbiter object
rather than in generator locals, so the supply-schedule planner
(:mod:`repro.transport.planner`) can plan windows for this kernel from a
*peer's* engine event — extending a sleeping kernel's window, or waking a
parked one with its next window already committed (``_coplanned``).

When the planner is consulted at all is *engagement* (``docs/
ARCHITECTURE.md``, "Engagement"): a CK on no declared point-to-point
route runs this loop without a planner; one on a route attempts a plan
only while ``SupplyPlanner.live`` is set (a long vector lane is in
flight), and stops for a doubling number of polls after
``PLAN_MISS_LIMIT`` consecutive *misses* — attempts that proved nothing,
or committed yet another window after ``PLAN_WINDOW_ALLOWANCE`` of them
led to no replicated train. Windows only pay as the road to a train, so
a committed window by itself is never a hit. Those three rules are the
whole when-to-plan policy: once a plan is attempted, nothing downstream
skips a replication, drops a window's trace or gives up on the jump.

Resume-state fields (the contract between this loop and the planner):

``_idx``
    The hardware polling pointer: index of the input the *next* poll
    inspects. Every committed window stores the pointer position the
    per-flit loop would have reached at the window's end, so per-flit
    resumption and later plans start from the identical rotation state.
``_resume_reads``
    ``-1`` when the next poll opens a FRESH round; ``>= 0`` when an
    R-round on ``inputs[_idx]`` is still open with that many reads done
    (a window may end mid-round — e.g. at an unknown-supply boundary —
    and the round's remaining budget must survive the resume).
``_plan_until``
    Absolute end cycle of the last committed window. While it lies in
    the future the loop sleeps it off in one event; peers' cascades move
    it further while this kernel sleeps. Committed takes/stages never
    extend past it, so state at ``_plan_until`` is exactly per-flit.
``_resume_state``
    What the kernel is doing *right now*: ``"run"`` (mid per-flit step —
    not co-plannable), ``"window"`` (sleeping off a committed window —
    extendable from ``_plan_until``), or ``"parked"`` (blocked on a
    wait-any of all inputs — co-plannable after an emulated wake-up).
    The settle rule: a continuation stores exactly what the loop would
    have (``_settle`` parks with ``"parked"`` and the pointer one past
    the last input polled; ``_wake_scan`` sets ``"run"`` as it charges
    the scan), and stands aside (``RESUME``, nothing stored) while the
    planner is live — so the generator, resumed in a state other than
    ``"run"``, knows the wake-up is still its own to perform: a
    co-planner's ``preempt`` dropped the continuation, or the planner
    went live while the kernel sat parked.
``_coplanned`` / ``_blocked_on`` / ``_starved_on``
    Cross-event mailboxes: a peer's cascade marks a parked kernel whose
    wake it pre-planned, and every window records which FIFO's unknown
    backpressure or supply ended it, so the cascade only re-plans peers
    whose blocker actually changed.
``_pattern`` / ``_pattern_hist`` / ``_pattern_phase`` / ``_pattern_end``
    The steady-state replication plane: the confirmed
    :class:`~repro.transport.planner_window.WindowPattern` (or ``None``),
    the recent contiguous window signatures the detector folds periods
    out of, the index of the next window expected in a live pattern's
    cycle, and the absolute cycle the pattern's last committed round
    ends at — replication only ever continues a pattern contiguously
    from ``_pattern_end`` at phase 0.
"""

from __future__ import annotations

from typing import Callable, Generator

from ..core.errors import SimulationError
from ..simulation.conditions import RESUME, TICK, AnyReadable, WaitCycles
from ..simulation.fifo import Fifo


#: ``WaitCycles(k)`` at index ``k``: the wake-up scan's sleep for every
#: distance any arbiter built so far can charge (shared, never mutated).
_SCAN_WAITS: list = [None]


class PollingArbiter:
    """Round-robin R-burst polling over a fixed list of input FIFOs."""

    __slots__ = ("inputs", "read_burst", "_idx", "_wait_any", "_plan_miss",
                 "_plan_skip", "_plan_skip_len", "_plan_grace", "_plan_paid",
                 "_resume_reads", "_plan_until",
                 "_resume_state", "_coplanned", "_blocked_on",
                 "_starved_on", "_pattern", "_pattern_hist",
                 "_pattern_phase", "_pattern_end", "_engine", "_planner",
                 "_proc")

    #: Consecutive planner misses before backing off, and how many polls
    #: to skip planning for once backed off — doubling on every repeat up
    #: to the cap, so workloads whose windows never become trains
    #: converge to per-flit speed. A *hit* is an attempt by which this
    #: CK's windows had paid — a replicated train or a landed jump since
    #: its previous attempt; a committed window that has not paid yet is
    #: neutral for the first ``PLAN_WINDOW_ALLOWANCE`` of them (what the
    #: pattern detector needs to confirm its longest period:
    #: ``2 * planner.PATTERN_MAX_PERIOD``) and a miss after that, like
    #: an attempt that proved nothing. (Backing off changes only
    #: wall-clock speed where planning is cycle-neutral. One known
    #: exception: the (1024, 1024) sequential-sends program of
    #: ``tests/test_channels_p2p.py`` deadlocks on the burst plane, as
    #: the specification does, only because planning backs off; without
    #: the backoff it completes — a window / train planning fault,
    #: ROADMAP item 1, pinned there as a strict xfail.)
    PLAN_MISS_LIMIT = 2
    PLAN_SKIP_POLLS = 256
    PLAN_SKIP_MAX = 8192
    PLAN_WINDOW_ALLOWANCE = 6

    def __init__(self, inputs: list[Fifo], read_burst: int) -> None:
        if not inputs:
            raise SimulationError("polling arbiter needs at least one input")
        if read_burst < 1:
            raise SimulationError("read burst (R) must be >= 1")
        self.inputs = inputs
        self.read_burst = read_burst
        self._idx = 0
        # The persistent wait over the fixed input set: built once, armed
        # on every park (see repro.simulation.conditions.AnyReadable).
        self._wait_any = AnyReadable(inputs)
        self._plan_miss = 0
        self._plan_skip = 0
        self._plan_skip_len = self.PLAN_SKIP_POLLS
        self._plan_grace = self.PLAN_WINDOW_ALLOWANCE  # unpaid windows left
        self._plan_paid = False       # a train session committed here
        # Planner resume state (see module docstring):
        self._resume_reads = -1       # >= 0: continue an open R-round
        self._plan_until = 0          # absolute end of the committed window
        self._resume_state = "run"    # "run" | "parked" | "window"
        self._coplanned = False       # a peer planned our window while parked
        self._blocked_on = None       # fifo backpressure that ended the last
        self._starved_on = None       # window / the input that starved it
        self._pattern = None          # confirmed WindowPattern (or None)
        self._pattern_hist: list = []  # recent (signature, end) windows
        self._pattern_phase = 0       # next expected window in the cycle
        self._pattern_end = 0         # absolute end of the pattern's train
        # What the continuations need of ``run``'s arguments (set there).
        self._engine = self._planner = self._proc = None
        while len(_SCAN_WAITS) <= len(inputs):
            _SCAN_WAITS.append(WaitCycles(len(_SCAN_WAITS)))

    @property
    def packets_accepted(self) -> int:
        """Packets granted so far: every take from an input is this
        arbiter's, per-flit or committed by the planner."""
        return sum(f.pops for f in self.inputs)

    def commit_resume(self, res) -> None:
        """Store the resume state a committed window or train session
        ends in (``res``: the planner's ``PlanResult``)."""
        self._idx = res.idx
        self._resume_reads = res.resume_reads
        self._plan_until = res.end
        self._blocked_on = res.blocked_on
        self._starved_on = res.starved_on

    def _note_attempt(self, planned) -> None:
        """Score one own planning attempt for the miss backoff (the hit /
        neutral / miss rule is stated at ``PLAN_MISS_LIMIT``). Every
        session a train commits — a landed jump's chain included — sets
        ``_plan_paid`` on its own arbiter, so that one flag is the whole
        "paid" test."""
        if self._plan_paid:
            self._plan_paid = False
            self._plan_miss = 0
            self._plan_skip_len = self.PLAN_SKIP_POLLS
            self._plan_grace = self.PLAN_WINDOW_ALLOWANCE
        elif planned and self._plan_grace:
            self._plan_grace -= 1
        else:
            self._plan_miss += 1
            if self._plan_miss >= self.PLAN_MISS_LIMIT:
                # Nothing here becomes a train lately: poll per-flit for
                # a while before trying to plan again, backing off
                # harder each time it recurs.
                self._plan_miss = 0
                self._plan_skip = self._plan_skip_len
                if self._plan_skip_len < self.PLAN_SKIP_MAX:
                    self._plan_skip_len *= 2

    def run(self, route: Callable, engine, ck=None) -> Generator:
        """The kernel main loop: poll, and stage each packet where
        ``route`` says.

        ``route(packet)`` is a plain call — the same-cycle routing
        decision — returning the output the packet is staged into: a
        FIFO or a link (anything with ``writable`` / ``wait_writable()``
        / ``stage(packet)``). The loop stalls on the output's
        backpressure (for a link, its line-rate pacing too), stages, and
        the cycle ends: one packet is accepted per cycle at most. The
        cycles in between are :meth:`_settle`'s and :meth:`_wake_scan`'s
        (module docstring); this generator runs once per granted packet,
        and wherever the planner must look.

        ``ck``, if given, is the owning kernel; its ``supply_planner``
        (:class:`repro.transport.planner.SupplyPlanner`, which the
        transport builder assigns only on the burst plane and only to a
        CK on a declared point-to-point route; else ``None``) is the
        burst fast path, consulted only while the planner's ``live``
        attribute is set (a long vector lane is in flight — see
        "Engagement" in ``docs/ARCHITECTURE.md``): ``plan(ck, engine, resume_reads,
        skip)`` is a plain call that simulates this very loop forward
        over the *known* future, commits every take/stage it proved,
        stores the resume state on this arbiter (``_plan_until`` /
        ``_idx`` / ``_resume_reads``) and returns a truthy value — the
        loop then sleeps the whole committed window in one engine event
        and resumes in the exact per-flit state. ``None`` means nothing
        was provable; fall back to one per-flit step. While this kernel
        sleeps or parks, a peer's cascade may commit further windows on
        its behalf: a sleeping kernel simply finds ``_plan_until`` moved
        when it wakes, a parked one is preempted with ``_coplanned`` set
        and skips its wake-up scan. Without a planner this is the
        specification loop, untouched.
        """
        inputs = self.inputs
        n = len(inputs)
        burst = self.read_burst
        planner = ck.supply_planner if ck is not None else None
        self._engine = engine
        self._planner = planner
        self._proc = proc = engine._current_proc
        settle = self._settle
        # A committed window can be outstanding only where this loop
        # re-enters after a plan of its own, a window's sleep or a
        # co-planned wake (peers plan a CK only while it sleeps a window
        # or is parked): only those paths pay for the check.
        covered = True
        while True:
            if self._resume_state != "run":
                # Woken from a park whose wake-scan continuation stood
                # aside (the planner is live) or was dropped by a
                # co-planner's preempt: the wake-up is this loop's.
                self._resume_state = "run"
                if self._coplanned:
                    # A peer's cascade planned our window while we were
                    # parked (and already emulated this wake-up): pick
                    # up the committed state below.
                    self._coplanned = False
                    covered = True
                else:
                    # The pointer moves to the first readable input;
                    # each input it passes costs the hardware a cycle.
                    scan = self._wait_any.scan(self._idx, engine.cycle)
                    self._idx = (self._idx + scan) % n
                    if scan:
                        if planner is not None and planner.live \
                                and not self._plan_skip:
                            # Fuse the scan charge into the plan's sleep.
                            if planner.plan(ck, engine, -1, scan) is not None:
                                covered = True
                                continue
                        yield WaitCycles(scan)
            if planner is not None:
                if covered:
                    until = self._plan_until
                    if until > engine.cycle:
                        # A committed window (own, or planned by a peer's
                        # cascade) covers the near future: sleep it off.
                        self._resume_state = "window"
                        yield WaitCycles(until - engine.cycle)
                        self._resume_state = "run"
                        continue
                    covered = False
                if not planner.live:
                    pass
                elif self._plan_skip:
                    self._plan_skip -= 1
                else:
                    plan = planner.plan(ck, engine, self._resume_reads, 0)
                    self._note_attempt(plan)
                    if plan is not None:
                        covered = True
                        continue
            resume_reads = self._resume_reads
            fifo = inputs[self._idx]
            if fifo.readable:
                # Grant: ``resume_reads < burst`` always (a full round
                # is closed as it fills, below).
                self._resume_reads = -1
                pkt = fifo.take()
                if engine.trace is not None:
                    engine.trace.emit(engine.cycle, "grant", fifo.name,
                                      "grant", args={"input": self._idx})
                out = route(pkt)
                while not out.writable:
                    yield out.wait_writable()
                out.stage(pkt)
                reads = resume_reads + 1 if resume_reads > 0 else 1
                if reads < burst:
                    # Stay in the round; the planner gets another look
                    # before the next per-flit read.
                    self._resume_reads = reads
                else:
                    self._idx = (self._idx + 1) % n
                if planner is None or not planner.live:
                    # (While the planner is live every step is this
                    # generator's: it gets its look at each.)
                    proc.continuation = settle
                yield TICK
            elif resume_reads >= 0:
                # The open round's input ran dry: close the round.
                self._resume_reads = -1
                self._idx = (self._idx + 1) % n
            else:
                self._idx = (self._idx + 1) % n
                if self._wait_any.holds(engine.cycle):
                    # Some other input has data: the scan costs this cycle.
                    if planner is None or not planner.live:
                        proc.continuation = settle
                    yield TICK
                else:
                    # Nothing anywhere: park until any input becomes
                    # readable; the wake-up then charges the scan
                    # distance the hardware pointer would have travelled.
                    self._resume_state = "parked"
                    proc.continuation = self._wake_scan
                    yield self._wait_any

    def _settle(self):
        """Continuation of a cycle's ``TICK``: exactly the transitions
        :meth:`run` makes between two grants with the planner not live —
        close an open round whose input ran dry, poll the next input,
        and either spend a cycle on it (another input holds data) or
        park. A grant is the generator's (``RESUME``), and so is every
        step while the planner is live: it gets its look at each."""
        planner = self._planner
        if planner is not None and planner.live:
            return RESUME
        n = len(self.inputs)
        idx = self._idx
        ahead = self._wait_any.scan(idx, self._engine.cycle)
        if ahead == 0:
            return RESUME
        if self._resume_reads >= 0:
            # The open round's input ran dry: close the round; the next
            # input is polled in the same cycle.
            self._resume_reads = -1
            idx += 1
            if ahead == 1 < n:
                self._idx = idx % n
                return RESUME
        self._idx = (idx + 1) % n
        if ahead < n:
            # Some other input has data: the scan costs this cycle.
            self._proc.continuation = self._settle
            return TICK
        # Nothing anywhere: park; the wake-up charges the scan distance.
        self._resume_state = "parked"
        self._proc.continuation = self._wake_scan
        return self._wait_any

    def _wake_scan(self):
        """Continuation of a park: the woken kernel's pointer scan, slept
        as ``WaitCycles(scan)`` — the generator next runs at the grant.
        Stands aside, ``_resume_state`` untouched, while the planner is
        live: the loop fuses the scan into a plan."""
        planner = self._planner
        if planner is not None and planner.live:
            return RESUME
        self._resume_state = "run"
        scan = self._wait_any.scan(self._idx, self._engine.cycle)
        self._idx = (self._idx + scan) % len(self.inputs)
        return _SCAN_WAITS[scan] if scan else RESUME
