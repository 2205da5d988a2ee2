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
from ..simulation.conditions import TICK, AnyReadable, WaitCycles
from ..simulation.fifo import Fifo
from ..simulation.stats import GapHistogram, PlannerStats


class PollingArbiter:
    """Round-robin R-burst polling over a fixed list of input FIFOs.

    ``record_accepts`` (opt-in) keeps a bounded :class:`GapHistogram` of
    inter-accept gaps for the polling ablation benchmark; the default is
    off so a long-running kernel carries no per-packet state.
    """

    __slots__ = ("inputs", "read_burst", "_idx", "packets_accepted",
                 "_wait_any", "accept_hist", "_plan_miss", "_plan_skip",
                 "_plan_skip_len", "_plan_grace", "_plan_paid",
                 "_resume_reads", "_plan_until",
                 "_resume_state", "_coplanned", "_blocked_on",
                 "_starved_on", "_pattern", "_pattern_hist",
                 "_pattern_phase", "_pattern_end", "planner_stats")

    #: Consecutive planner misses before backing off, and how many polls
    #: to skip planning for once backed off — doubling on every repeat up
    #: to the cap, so workloads whose windows never become trains
    #: converge to per-flit speed. A *hit* is an attempt by which this
    #: CK's windows had paid — a replicated train or a landed jump since
    #: its previous attempt; a committed window that has not paid yet is
    #: neutral for the first ``PLAN_WINDOW_ALLOWANCE`` of them (what the
    #: pattern detector needs to confirm its longest period:
    #: ``2 * planner.PATTERN_MAX_PERIOD``) and a miss after that, like
    #: an attempt that proved nothing. (Backing off never changes cycle
    #: counts — planning is cycle-neutral — only wall-clock speed.)
    PLAN_MISS_LIMIT = 2
    PLAN_SKIP_POLLS = 256
    PLAN_SKIP_MAX = 8192
    PLAN_WINDOW_ALLOWANCE = 6

    def __init__(self, inputs: list[Fifo], read_burst: int,
                 record_accepts: bool = False) -> None:
        if not inputs:
            raise SimulationError("polling arbiter needs at least one input")
        if read_burst < 1:
            raise SimulationError("read burst (R) must be >= 1")
        self.inputs = inputs
        self.read_burst = read_burst
        self._idx = 0
        self.packets_accepted = 0
        self.accept_hist: GapHistogram | None = (
            GapHistogram() if record_accepts else None
        )
        # The persistent wait over the fixed input set: built once, armed
        # on every park (see repro.simulation.conditions.AnyReadable).
        self._wait_any = AnyReadable(inputs)
        self._plan_miss = 0
        self._plan_skip = 0
        self._plan_skip_len = self.PLAN_SKIP_POLLS
        self._plan_grace = self.PLAN_WINDOW_ALLOWANCE  # unpaid windows left
        self._plan_paid = 0           # replications at the last hit
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
        self.planner_stats = PlannerStats()

    def commit_resume(self, res) -> None:
        """Store the resume state a committed window or train session
        ends in (``res``: the planner's ``PlanResult``)."""
        self._idx = res.idx
        self._resume_reads = res.resume_reads
        self._plan_until = res.end
        self._blocked_on = res.blocked_on
        self._starved_on = res.starved_on

    def record_accept(self, cycle: int) -> None:
        """Count one accepted packet (histogram only if opted in)."""
        self.packets_accepted += 1
        if self.accept_hist is not None:
            self.accept_hist.record(cycle)

    def _note_attempt(self, planned) -> None:
        """Score one own planning attempt for the miss backoff (the hit /
        neutral / miss rule is stated at ``PLAN_MISS_LIMIT``). Every
        session a train commits — a landed jump's chain included — counts
        one replication on its own arbiter, so that one counter is the
        whole "paid" test."""
        paid = self.planner_stats.replications
        if paid > self._plan_paid:
            self._plan_paid = paid
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

    def run(self, forward: Callable, engine, ck=None) -> Generator:
        """The kernel main loop: poll, and hand packets to ``forward``.

        ``forward(packet)`` must be a generator that completes the same-cycle
        routing decision and staging of the packet (it may internally stall
        on backpressure). One packet is accepted per cycle at most.

        ``ck``, if given, is the owning kernel; on the burst plane
        (``ck.burst_mode``) and on a declared point-to-point route its
        ``supply_planner``
        (:class:`repro.transport.planner.SupplyPlanner`, else ``None``)
        is the burst fast path, consulted only while the planner's ``live`` attribute
        is set (a long vector lane is in flight — see "Engagement" in
        ``docs/ARCHITECTURE.md``): ``plan(ck, engine, resume_reads,
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
        planner = ck.supply_planner if ck is not None and ck.burst_mode \
            else None
        # A committed window can be outstanding only where this loop
        # re-enters after a plan of its own, a window's sleep or a
        # co-planned wake (peers plan a CK only while it sleeps a window
        # or is parked): only those paths pay for the check.
        covered = True
        while True:
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
            if resume_reads >= 0 or fifo.readable:
                reads = max(resume_reads, 0)
                self._resume_reads = -1
                if reads < burst and fifo.readable:
                    pkt = fifo.take()
                    self.packets_accepted += 1  # record_accept, inline
                    if self.accept_hist is not None:
                        self.accept_hist.record(engine.cycle)
                    if engine.trace is not None:
                        engine.trace.emit(engine.cycle, "grant", fifo.name,
                                          "grant", args={"input": self._idx})
                    yield from forward(pkt)
                    reads += 1
                    if reads < burst:
                        # Stay in the round; the planner gets another look
                        # before the next per-flit read.
                        self._resume_reads = reads
                        continue
                self._idx = (self._idx + 1) % n
            else:
                self._idx = (self._idx + 1) % n
                if self._wait_any.holds(engine.cycle):
                    # Some other input has data: the scan costs this cycle.
                    yield TICK
                else:
                    # Nothing anywhere: park until any input becomes
                    # readable, then charge the scan distance the hardware
                    # pointer would have travelled.
                    self._resume_state = "parked"
                    yield self._wait_any
                    self._resume_state = "run"
                    if self._coplanned:
                        # A peer's cascade planned our window while we were
                        # parked (and already emulated this wake-up): the
                        # loop top picks up the committed state.
                        self._coplanned = False
                        covered = True
                        continue
                    scan = 0
                    while scan < n and not inputs[self._idx].readable:
                        self._idx = (self._idx + 1) % n
                        scan += 1
                    if scan:
                        if planner is not None and planner.live \
                                and not self._plan_skip:
                            # Fuse the scan charge into the plan's sleep.
                            if planner.plan(ck, engine, -1, scan) is not None:
                                covered = True
                                continue
                        yield WaitCycles(scan)
