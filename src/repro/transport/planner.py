"""Supply-schedule burst planning: the simulator's data-plane fast path.

The burst data plane moves whole polling windows through FIFO -> arbiter ->
CKS/CKR -> link in one engine event while staying cycle-identical to the
per-flit reference interpretation. The ``planner*`` modules are the
planning layer that makes that possible — a pipeline *plan window →
train → prove period & jump* (:mod:`~repro.transport.planner_window`,
:mod:`~repro.transport.planner_train`, :mod:`~repro.transport.planner_ff`)
driven from here — organised around one contract:

**SupplySchedule.** Any flit source — an application channel's vectorised
push, a CK forwarding a planned window, a collective support kernel, an
inter-FPGA link — publishes ``(cycle, count)`` commitments about what it
will provably stage and when, simply by staging early with exact future
cycles; :meth:`repro.simulation.fifo.Fifo.present_schedule` exposes the
committed items and :meth:`Fifo.supply_horizon` the *horizon*: the cycle
below which no unknown arrival can turn visible. Horizons come from three
sources, in increasing power:

* the registered-FIFO handoff (``now + latency`` — a stage this cycle is
  invisible before that);
* static flow-liveness (a flow-dead FIFO is empty forever);
* **producer-sleep horizons**: with a closed, registered producer set, a
  producer blocked in the engine until cycle T provably stages nothing
  before T (:meth:`repro.simulation.engine.Engine.process_floor`), and the
  query recurses through parked producer chains — a CKS parked on inputs
  whose own producers sleep is itself asleep. This is what makes
  collective workloads plannable without static routes: runtime
  communicators keep every transit FIFO flow-live, but the support
  kernels' sleep states still bound every unknown.

**Cascaded co-planning.** A single-CK plan saturates at one FIFO depth per
engine event on multi-hop paths: CK_a stages one ``inter_ck_fifo_depth``
window into the FIFO toward CK_b and stops at unknown backpressure; CK_b's
takes only become known at its own next event. :class:`SupplyPlanner`
breaks that fixpoint: when a committed plan stages into a FIFO whose
consumer CK is parked or sleeping a planned window, the consumer's next
window is planned *in the same engine event* (its commits are published as
the supply/slot schedule of the next hop), then the producer's plan is
extended against the freed slots, and so on along the pipeline — one
engine event plans a multi-hop stream end-to-end. Parked consumers get a
firm wake (:meth:`Engine.preempt`) since their planned takes may empty the
very FIFOs whose conditions would have woken them.

**This module owns** :class:`SupplyPlanner` — the entry point, the
commit of a window's resume state, pattern detection, the cascade, the
lane registry behind engagement's live state and the macro-cruise
registry (app lanes, relay FIFOs). *When* a CK consults it is
engagement, decided outside: the builder's route mark, the lane
registry's ``live`` attribute and the arbiter's plan-miss backstop
(``docs/ARCHITECTURE.md``, "Engagement") — nothing in here backs off,
skips or gives up. **It reads** the arbiters' resume / pattern fields,
parked CKs' input heads and horizons, process wait states. **It may
mutate** the planner's cross-event state — all of which lives on the
:class:`~repro.transport.arbiter.PollingArbiter` (``_idx`` /
``_resume_reads`` / ``_plan_until`` / ``_resume_state`` and the
``_pattern*`` fields; see that module's docstring for the field-by-field
contract) — ``PlannerStats`` and the engine's wake schedule; FIFOs only
through ``plan_window`` and ``replicate_train``.
"""

from __future__ import annotations

from collections import deque

from ..simulation.stats import PlannerStats
from .planner_train import replicate_train
from .planner_window import _compile_pattern, plan_window

#: Total co-plan / extension attempts per cascade (per initiating event).
CASCADE_BUDGET = 64

#: Shortest vector burst (``push_vec`` / ``pop_vec`` call length, in
#: elements) that engages the planner: window planning only pays as the
#: road to a train and a jump, and a shorter burst ends before a period
#: can be proven. Fixed by the size x hops x preset sweep recorded in
#: docs/ARCHITECTURE.md ("Engagement"), not configurable.
LANE_LIVE_MIN = 1024

#: Longest window sequence the pattern detector folds into one round: a
#: steady state may cycle through several distinct window shapes (a full
#: R-round window, then the partial window that drains an injection's
#: tail) before repeating.
PATTERN_MAX_PERIOD = 3


class SupplyPlanner:
    """Cascaded co-planning across CK boundaries (one per transport).

    The transport builder wires the producer/consumer CK of every transit
    FIFO and link (:meth:`wire`); :meth:`plan` then plans the initiating
    CK's window and cascades: every committed window's targets name
    downstream CKs whose supply just grew, every window's sources name
    upstream CKs whose backpressure just eased, and each of those — if
    parked or sleeping a planned window — gets its next window planned in
    the same engine event, until the worklist drains or the budget runs
    out. With empty maps it degrades to exactly the single-CK planner.

    **Steady-state pattern replication.** Every committed window carries
    a decision trace; :meth:`_observe` compares consecutive, contiguous
    windows of each CK and compiles a :class:`WindowPattern` when two of
    them are exact Δ-shifted copies with identical arbiter boundary
    state. From then on every planning opportunity for that CK — its own
    event, a cascade extension, a co-plan — first tries
    :func:`replicate_train`, which
    replays pattern rounds against live committed state and bulk-commits
    the train; :func:`plan_window` remains the fallback for everything
    the pattern cannot prove (drifted supply, partial tail rounds, shape
    changes — any of which also retires the pattern until a new one
    confirms). This is how the per-call exchange quantum stops being the
    multi-hop bottleneck: amortising the planning search across long
    steady-state trains, exactly as the paper's pipelined SMI_Push/Pop
    channels amortise per-message control overhead in hardware.

    Replication is part of the burst plane, not a switch on it. The one
    selectable tier is **macro-cruise** (``macro=True``, from
    ``HardwareConfig.macro_cruise`` through the builder — the default):
    app-side channel lanes register here, trains extend them
    arithmetically and jump proven periods in closed form.
    ``macro=False`` is the burst plane without any of it. The choice is
    fixed at construction: nothing flips it mid-run.
    """

    cascade_budget = CASCADE_BUDGET

    def __init__(self, macro: bool = False, pinned: bool = False) -> None:
        self.consumer_ck: dict[int, object] = {}  # id(fifo) -> reading CK
        self.producer_ck: dict[int, object] = {}  # id(fifo) -> writing CK
        self.macro = macro
        #: Engagement: arbiters attempt a plan only while this is set
        #: (read as an attribute on every poll, never computed there).
        #: It follows the registered long lanes; ``pinned`` holds it up
        #: where no lane can speak for the traffic — ``macro=False``
        #: registers none, and a shard may carry a route whose lanes
        #: live in another shard.
        self.pinned = pinned or not macro
        self.live = self.pinned
        self._long_lanes: set = set()   # registered lanes >= LANE_LIVE_MIN
        self._live_since = 0            # cycle the current live span began
        #: ``(fifo, producer, consumer)`` declarations of the builder that
        #: nothing has read yet; the first :meth:`plan` applies them
        #: (:meth:`wire`).
        self.unwired: list = []
        #: The planner's counters — the only ``PlannerStats`` of a
        #: build: every CK's windows, trains and jumps are booked here.
        self.stats = PlannerStats()
        #: id(app endpoint FIFO) -> live channel lane (see
        #: :class:`repro.core.channel._SendLane` / ``_RecvLane``); a lane
        #: registers for the duration of one sleeping vector burst.
        self.app_lanes: dict[int, object] = {}
        #: id(fifo) of every transit FIFO (CK-internal hand-offs, links
        #: between two of this planner's CKs): the fast-forward chain
        #: resolver walks *through* these and must terminate only on app
        #: endpoint FIFOs, never on an interior relay hop.
        self.relay_fifos: set[int] = set()
        self._stamp = 0  # plan-call counter (cursor refresh generation)
        self._extra_results: list = []  # peer-session train results
        self._cascade_origin = None     # CK whose event we are inside
        # CKs whose last train this cascade ended with every session
        # stuck: a retry is pointless until a plan_window commit changes
        # supply or slots somewhere (cleared on every such commit).
        self._train_stuck: set[int] = set()

    def wire(self, fifo, producer=None, consumer=None) -> None:
        """Declare the CK endpoints of one transit FIFO (builder hook)."""
        self.relay_fifos.add(id(fifo))
        if producer is not None:
            self.producer_ck[id(fifo)] = producer
        if consumer is not None:
            self.consumer_ck[id(fifo)] = consumer

    # ------------------------------------------------------------------
    # Lane registry (engagement's live state, macro-cruise's app lanes)
    # ------------------------------------------------------------------
    def reads(self, length: int) -> bool:
        """Whether a vector burst of ``length`` elements should publish
        its supply schedule (the channel's burst path): only if a plan
        may consume it — the burst is long enough to engage the planner
        itself, or another lane already has. Otherwise the channel runs
        the specification path, which is cheaper with nobody reading."""
        return self.live or length >= LANE_LIVE_MIN

    def register_lane(self, fifo, lane, length: int) -> None:
        """Attach a channel lane to its app endpoint for this burst of
        ``length`` elements; a long one raises the live state."""
        self.app_lanes[id(fifo)] = lane
        if length >= LANE_LIVE_MIN:
            if not self._long_lanes:
                self.live = True
                self.stats.live_spans += 1
                self._live_since = fifo.engine.cycle
            self._long_lanes.add(lane)

    def unregister_lane(self, fifo, lane) -> None:
        """Detach ``lane`` (no-op if another burst already replaced it);
        the last long lane to leave drops the live state."""
        if self.app_lanes.get(id(fifo)) is lane:
            del self.app_lanes[id(fifo)]
        if lane in self._long_lanes:
            self._long_lanes.remove(lane)
            if not self._long_lanes:
                self.live = self.pinned
                engine = fifo.engine
                if engine.trace is not None:
                    engine.trace.emit(
                        self._live_since, "span", "planner", "live",
                        dur=engine.cycle - self._live_since)

    # ------------------------------------------------------------------
    # Entry point (CK.process -> PollingArbiter.run -> here)
    # ------------------------------------------------------------------
    def plan(self, ck, engine, resume_reads, skip):
        """Plan the running CK's window, then cascade along the pipeline.

        Returns a truthy value when a window was committed (the arbiter's
        ``_plan_until``/``_idx``/``_resume_reads`` carry the resume state)
        or ``None`` when nothing was provable. A confirmed steady-state
        pattern is tried first; the full planning simulation runs only
        when replication proves nothing.
        """
        if self.unwired:
            for wiring in self.unwired:
                self.wire(*wiring)
            self.unwired.clear()
        memo: dict = {}
        cursors: dict = {}
        self._cascade_origin = ck
        self._train_stuck.clear()
        # Peer-session results only matter to this event's cascade; a
        # previous event that planned nothing must not leak its trains'
        # results into ours.
        self._extra_results.clear()
        try:
            res = self._advance(ck, engine, engine.cycle + skip,
                                resume_reads, "window", memo, cursors)
            if res is None:
                return None
            self._cascade(ck, engine, res, memo, cursors)
            return True
        finally:
            self._cascade_origin = None

    def _window(self, ck, engine, start, reads, idx, memo, cursors):
        """One :func:`plan_window` call on the cascade's shared state."""
        self._stamp += 1
        return plan_window(ck, engine, start, reads, idx=idx, memo=memo,
                           cursors=cursors, stamp=self._stamp)

    def _advance(self, ck, engine, start, reads, kind, memo, cursors):
        """Pattern first, else window, then commit: the one planning
        step behind :meth:`plan`, :meth:`_extend` and :meth:`_coplan`,
        from the arbiter's pointer at ``start``. Returns the committed
        :class:`PlanResult` or ``None``."""
        arb = ck.arbiter
        idx = arb._idx
        res = self._try_replicate(ck, engine, start, reads, idx, memo,
                                  cursors)
        if res is None:
            own = kind == "window"  # own events only
            if own:
                self.stats.attempts += 1
            res = self._window(ck, engine, start, reads, idx, memo, cursors)
            if res is not None:
                self._commit(arb, res, start, kind, idx, reads)
            if own and engine.trace is not None:
                # The rate moves here only: sample every attempt.
                stats = self.stats
                engine.trace.sample("planner/hit_rate", start,
                                    round(stats.windows / stats.attempts, 4))
        return res

    def _commit(self, arb, res, start, kind, sidx, sreads) -> None:
        arb.commit_resume(res)
        stats = self.stats
        stats.window_cycles += res.end - start
        stats.takes += res.takes
        if kind == "window":
            stats.windows += 1
        elif kind == "extension":
            stats.extensions += 1
        else:
            stats.coplans += 1
        trace = arb.inputs[0].engine.trace
        if trace is not None:
            trace.emit(start, "span", "planner", kind,
                       dur=res.end - start, args={"takes": res.takes})
        self._train_stuck.clear()  # new supply/slots: trains may move
        self._observe(arb, res, start, sidx, sreads)

    # ------------------------------------------------------------------
    # Pattern detection and replication
    # ------------------------------------------------------------------
    def _observe(self, arb, res, start, sidx, sreads) -> None:
        """Feed one committed window into the CK's pattern detector.

        A pattern confirms when the last ``p`` committed windows
        (``p <= PATTERN_MAX_PERIOD``) are an exact Δ-shifted repeat of
        the ``p`` before them, all contiguous — the steady state may
        cycle through several window shapes per period (e.g. a full
        R-round window then the injection tail's partial window).
        Boundary-state closure is automatic: contiguous windows inherit
        the arbiter state the previous window ended in, so equal
        signatures one period apart imply the round re-enters its own
        start state. A live pattern survives as long as further windows
        continue its cycle (tracked by ``_pattern_phase``); any
        deviation retires it and detection starts over from history.
        """
        trace = res.trace
        hist = arb._pattern_hist
        if trace is None or res.end <= start or not trace[0]:
            hist.clear()
            arb._pattern = None
            arb._pattern_end = res.end
            return
        ops_abs, obs_abs = trace
        ops_rel = tuple((tc - start, j, sc - start, tgt)
                        for (tc, j, sc, tgt) in ops_abs)
        obs_rel = tuple((c - start, j, r) for (c, j, r) in obs_abs)
        sig = (res.end - start, sidx, sreads, res.idx, res.resume_reads,
               ops_rel, obs_rel)
        pat = arb._pattern
        if pat is not None:
            phase = arb._pattern_phase
            if start == arb._pattern_end and sig == pat.sigs[phase]:
                arb._pattern_phase = (phase + 1) % len(pat.sigs)
            else:
                arb._pattern = None
        if hist and hist[-1][1] != start:
            hist.clear()  # non-contiguous: history restarts here
        hist.append((sig, res.end))
        if len(hist) > 2 * PATTERN_MAX_PERIOD:
            del hist[0]
        arb._pattern_end = res.end
        if arb._pattern is None:
            for p in range(1, PATTERN_MAX_PERIOD + 1):
                if len(hist) >= 2 * p and all(
                        hist[i - p][0] == hist[i - 2 * p][0]
                        for i in range(p)):
                    arb._pattern = _compile_pattern(hist[-p:])
                    arb._pattern_phase = 0
                    break

    def _try_replicate(self, ck, engine, start, reads, idx, memo, cursors):
        """Replicate the CK's confirmed pattern from ``start``, if any.

        Only applicable when the window would begin exactly at the
        pattern's committed end in exactly the boundary state the pattern
        cycles through — otherwise the periodicity argument does not
        apply and the planner must search. On success the whole train
        (including any co-replicated peer sessions) is already committed;
        peer results await the cascade in ``_extra_results``.
        """
        arb = ck.arbiter
        pat = arb._pattern
        if pat is not None:
            pat = pat.at_phase(arb._pattern_phase)
        if pat is None or start != arb._pattern_end \
                or reads != pat.reads0 or idx != pat.idx0 \
                or id(ck) in self._train_stuck:
            return None
        self.stats.pattern_checks += 1
        self._stamp += 1
        return replicate_train(self, ck, engine, start, memo, cursors,
                               self._stamp)

    def _peers(self, res):
        """CKs whose plannable state just changed — and who can use it.

        A consumer of a FIFO the window staged into is worth planning only
        if it is actually waiting on that supply (its own last window
        *starved* on the FIFO, or it is parked with nothing better to do);
        a producer of a FIFO the window took from only if its last window
        was *blocked* on that FIFO's backpressure. Anything else would be
        a planning attempt that almost always returns empty-handed.
        """
        peers = []
        for fifo in res.targets:
            peer = self.consumer_ck.get(id(fifo))
            if peer is not None:
                arb = peer.arbiter
                if arb._starved_on is fifo or arb._resume_state == "parked":
                    peers.append(peer)
        for fifo in res.sources:
            peer = self.producer_ck.get(id(fifo))
            if peer is not None and peer.arbiter._blocked_on is fifo:
                peers.append(peer)
        return peers

    def _cascade(self, origin, engine, first, memo, cursors) -> None:
        budget = self.cascade_budget
        queue: deque = deque()
        queued: set[int] = set()

        def enqueue(peers):
            for peer in peers:
                if id(peer) not in queued:
                    queued.add(id(peer))
                    queue.append(peer)

        def drain_extras():
            # Peer sessions committed by a replication train: their
            # blockers changed too, so their peers join the worklist.
            extras = self._extra_results
            if extras:
                self._extra_results = []
                for r in extras:
                    enqueue(self._peers(r))

        enqueue(self._peers(first))
        drain_extras()
        while queue and budget > 0:
            peer = queue.popleft()
            queued.discard(id(peer))
            budget -= 1
            if peer is origin:
                res = self._extend(peer, engine, memo, cursors)
            else:
                res = self._coplan(peer, engine, memo, cursors)
            if res is not None and res.takes:
                enqueue(self._peers(res))
            drain_extras()

    def _extend(self, ck, engine, memo, cursors):
        """Stretch the origin's committed window against new information."""
        arb = ck.arbiter
        return self._advance(ck, engine, arb._plan_until, arb._resume_reads,
                             "extension", memo, cursors)

    def _coplan(self, peer, engine, memo, cursors):
        """Plan a peer CK's next window on its behalf, state permitting.

        A CK sleeping a planned window resumes planning from its committed
        wake ``_plan_until`` (no rescheduling needed — on its old wake it
        simply sleeps the extension off). A parked CK first needs its
        per-flit wake-up emulated (first provable readable cycle plus the
        pointer-scan charge); its planned takes may empty the inputs whose
        conditions would have woken it, so it gets a firm preempt to the
        window's end. Any other state (mid per-flit step, blocked inside a
        forward) is not co-plannable and is left untouched.
        """
        arb = peer.arbiter
        proc = peer.proc
        if proc is None or proc.finished:
            return None
        state = arb._resume_state
        if state == "window":
            res = self._advance(peer, engine, arb._plan_until,
                                arb._resume_reads, "coplan", memo, cursors)
            if res is None:
                return None
            if proc._waiting_on is None and res.end > proc._scheduled_for:
                # Skip the intermediate wake at the old window end: the
                # extension already covers it (waking there would only
                # re-sleep to ``_plan_until``).
                engine.preempt(proc, res.end)
            return res
        if state != "parked" or proc._waiting_on is None:
            return None
        wake = self._parked_wake(arb, engine, memo)
        if wake is None:
            return None
        start, idx = wake
        res = self._window(peer, engine, start, -1, idx, memo, cursors)
        if res is None or not res.takes:
            return None
        self._commit(arb, res, start, "coplan", idx, -1)
        arb._coplanned = True
        arb._resume_state = "window"
        engine.preempt(proc, res.end)
        return res

    @staticmethod
    def _parked_wake(arb, engine, memo):
        """Emulate a parked CK's wake-up: ``(first take cycle, pointer)``.

        Per-flit, the kernel wakes at the first cycle any input turns
        readable, then charges the scan distance the hardware pointer
        would have travelled (the pointer was already rotated once when it
        parked). That wake is provable only if every known head is later
        than or equal to the earliest one *and* no unknown arrival can
        beat or tie it on a drained input — the same horizon rule the
        in-plan park uses. Returns ``None`` when the wake cannot be
        proved, or when a normal wake is already pending this cycle.
        """
        now = engine.cycle
        inputs = arb.inputs
        wake = None
        for f in inputs:
            if f.present_count:
                ready = f.earliest_readable()
                if ready <= now:
                    return None  # readable already: normal wake imminent
                if wake is None or ready < wake:
                    wake = ready
        if wake is None:
            return None
        for f in inputs:
            if not f.present_count and f.supply_horizon(memo) <= wake:
                return None
        idx = arb._idx
        n = len(inputs)
        scan = 0
        while scan < n:
            f = inputs[idx]
            if f.present_count and f.earliest_readable() <= wake:
                break
            idx = (idx + 1) % n
            scan += 1
        return wake + scan, idx

