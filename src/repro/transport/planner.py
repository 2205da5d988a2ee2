"""Supply-schedule burst planning: the simulator's data-plane fast path.

The burst data plane moves whole polling windows through FIFO -> arbiter ->
CKS/CKR -> link in one engine event while staying cycle-identical to the
per-flit reference interpretation. This module is the planning layer that
makes that possible, organised around one contract:

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

:func:`plan_window` consumes supply schedules to simulate one CK's polling
loop forward over the known future only, committing every take/stage with
the exact per-flit cycles (R-round budgets, scan charges, parked gaps,
link pacing) and stopping at the first decision that depends on
information not yet in the simulation.

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

**Steady-state pattern replication.** Every committed window carries a
decision trace; when a CK's recent windows turn out to be exact Δ-shifted
repeats of each other (:meth:`SupplyPlanner._observe`, up to
``PATTERN_MAX_PERIOD`` window shapes per period), the compiled
:class:`WindowPattern` replaces the planning *search* with straight-line
*verification*: :func:`replicate_train` replays pattern rounds against
live committed state, ping-pongs sessions across producer/consumer CKs
(validated stages become the next hop's virtual supply, validated takes
the previous hop's virtual slot releases) and bulk-commits whole trains
with one ``take_burst``/``stage_burst`` pair per FIFO and one firm wake
per sleeping peer. Everything is re-proved from committed facts, so
cycle-exactness holds by the same argument as :func:`plan_window`; any
deviation ends the train at the last valid round and planning resumes.
When the per-event information quantum (buffer depths, the app's
injection cadence) keeps trains at a single round — where replication
saves nothing over the planner — a futility backoff quiesces the whole
plane, traces included, until a multi-round catch-up regime (accumulated
link inventories, post-stall drains) re-arms it.

**Analytic fast-forward** (``HardwareConfig.macro_cruise``, on by
default). A validated train is still O(1) work per packet. When a whole
program resolves into app-stream relay chains (``send lane -> sessions
-> recv lane``) the steady state is a periodic object: *plan window ->
prove period -> jump*. The train fingerprints each chain at every
sweep boundary and :class:`_FFHistory` finds the shortest *hyperperiod*
— sessions advance at equal rates but, at the paper's 8-deep buffers,
unequal round sizes, so the frontiers re-align only every
lcm(round sizes) packets; ``ff_apply``'s guard battery reduces the
candidate to committed facts (conservation along every hop, Δ-shift of
every tracked list, horizon / budget / slot bounds) and lands ``R``
periods as ``S + k·ΔT`` int64 columns through the train's ordinary bulk
commit. Two things make it hold at zero slack: the train-frontier
silence proof (``ff_silent`` — a session's validated round frontier is
its process floor, so a relay stopped on its full output proves its
consumer's observation), and a footprint cap on ``R`` with the jump as
the train's last act (memory independent of message size; the next
train re-proves the period). A program that cannot arm stops probing on
measured futility (:meth:`SupplyPlanner.note_probing`).

All of the planner's cross-event state lives on the
:class:`~repro.transport.arbiter.PollingArbiter` (``_idx`` /
``_resume_reads`` / ``_plan_until`` / ``_resume_state`` and the
``_pattern*`` fields); see that module's docstring for the field-by-field
contract.
"""

from __future__ import annotations

from collections import deque
from heapq import merge as _heap_merge

import numpy as np

from ..core.errors import ChannelError, RoutingError
from ..network.link import Link
from ..network.packet import Packet
from ..simulation.engine import FOREVER

#: Safety bound on planned takes per window (keeps commit lists small).
PLAN_MAX_TAKES = 2048

#: Snapshot depth per input per plan. Deeper queues (the link FIFOs hold a
#: full bandwidth-delay product) are cut here; the planner treats the cut
#: as an unknown-future boundary, which is always sound — and the cascade
#: re-snapshots on every extension, so truncation only bounds one pass.
PLAN_SNAPSHOT = 16

#: Total co-plan / extension attempts per cascade (per initiating event).
CASCADE_BUDGET = 64

#: Longest window sequence the pattern detector folds into one round: a
#: steady state may cycle through several distinct window shapes (a full
#: R-round window, then the partial window that drains an injection's
#: tail) before repeating.
PATTERN_MAX_PERIOD = 3

#: Take budget per train when macro-cruise has every live plane proven
#: (registered app lanes on both stream ends, support planes quiet):
#: with the app endpoints extending arithmetically inside the train,
#: the only externalities left are message boundaries, so a train may
#: fast-forward the whole steady state of a message in one event.
MACRO_MAX_TAKES = 1 << 22


class _TargetCursor:
    """Planning-time view of one routing target's future slot schedule.

    ``free``/``rels``/``rel_ptr``/``next_free`` mirror the per-flit
    ``_stage_with_backpressure`` stall model: a currently-free slot stages
    as soon as line pacing allows; a slot reserved by the consumer's own
    burst takes stages the cycle after it releases (the cycle a producer
    blocked on ``can_push`` would wake); with neither, the per-flit path
    would block open-endedly, so the plan must stop. The planner mirrors
    these fields into locals inside its hot loop and flushes them back on
    target switches.

    Cursors live for one cascade (one engine event) and are shared by all
    of its plan calls: a later extension must not re-pair a reserved slot
    release the first plan already staged against. :meth:`refresh` re-reads
    the slot schedule at the start of a later call — the committed stages
    are netted out of ``free`` by ``slot_plan`` itself, and ``rel_ptr``
    stays valid because within one event the pending-release list only ever
    grows at the tail (the wall clock does not move, so no release expires).
    """

    __slots__ = ("target", "fifo", "is_link", "free", "rels", "rel_ptr",
                 "rel_base", "next_free", "pace", "stage_cycles",
                 "stage_pkts", "stamp")

    def __init__(self, target, now: int, stamp: int) -> None:
        self.target = target
        self.is_link = isinstance(target, Link)
        self.fifo = target.fifo if self.is_link else target
        self.free, self.rels = self.fifo.slot_plan(now)
        self.rel_ptr = 0
        self.rel_base = self.fifo._reserved_paired
        self.next_free = target._next_free if self.is_link else 0
        self.pace = target.cycles_per_packet if self.is_link else 0
        self.stage_cycles: list[int] = []
        self.stage_pkts: list = []
        self.stamp = stamp  # plan-call counter of the last refresh

    def refresh(self, now: int) -> None:
        """Re-read committed slot state (later plan call, or rollback).

        All pairings so far are committed (``commit_pairings`` ran) or
        being discarded, so the re-read release list starts exactly past
        the committed ones: re-base the pointer. ``next_free`` likewise
        returns to the link's committed pacing state — after a commit the
        two agree, and after a declined window the cursor's speculative
        advance must be dropped.
        """
        self.free, self.rels = self.fifo.slot_plan(now)
        self.rel_base = self.fifo._reserved_paired
        self.rel_ptr = 0
        if self.is_link:
            self.next_free = self.target._next_free

    def commit_pairings(self) -> None:
        """Persist how many releases this cursor's stages consumed, so
        plans in later engine events do not hand the same slot out twice."""
        self.fifo._reserved_paired = self.rel_base + self.rel_ptr


class PlanResult:
    """One committed window: resume state plus the FIFOs it touched."""

    __slots__ = ("end", "idx", "resume_reads", "takes", "sources", "targets",
                 "blocked_on", "starved_on", "trace")

    def __init__(self, end, idx, resume_reads, takes, sources, targets,
                 blocked_on, starved_on, trace=None):
        self.end = end                    # absolute cycle the window covers
        self.idx = idx                    # arbiter pointer at resume
        self.resume_reads = resume_reads  # -1 fresh, >= 0 mid-R-round
        self.takes = takes                # packets moved
        self.sources = sources            # input FIFOs taken from
        self.targets = targets            # FIFOs staged into (links: theirs)
        self.blocked_on = blocked_on      # fifo whose backpressure ended it
        self.starved_on = starved_on      # input whose unknown supply did
        self.trace = trace                # (ops, obs) for pattern detection


#: Horizon sentinel for truncated snapshots: more items exist physically
#: beyond the cut, so "drained" NEVER means "unreadable" — no horizon
#: (not even a producer-sleep one, which only bounds *unknown* arrivals)
#: may rescue a decision there.
_TRUNCATED = -1


def _snap_input(f, pkts_l, rdy_l, hz_l, j, now):
    """Lazily snapshot input ``j``'s supply schedule for a planning window.

    Fills ``pkts_l``/``rdy_l`` with the published commitments (items
    physically present, oldest first, with exact visibility cycles).
    ``hz_l`` gets the horizon below which "snapshot drained" provably
    means "unreadable" — ``_TRUNCATED`` for a cut snapshot, and ``None``
    as a placeholder otherwise: the (possibly recursive) producer-sleep
    query runs only if the plan actually drains the input.
    """
    if f._flow_dead:
        P = pkts_l[j] = ()
        rdy_l[j] = ()
        hz_l[j] = FOREVER
        return P
    P, rdy_l[j] = f.present_schedule(now, PLAN_SNAPSHOT)
    pkts_l[j] = P
    hz_l[j] = _TRUNCATED if len(P) >= PLAN_SNAPSHOT else None
    return P


def _silent_hz(ck, f, cycle):
    """``f``'s supply horizon under the planner's self-silence fixpoint.

    The unconditional horizon treats the planning kernel as "running now",
    which poisons any producer chain that loops back through it — a CKS
    asking about its paired CKR finds "it could wake from my own loopback
    stage next cycle". But while the plan's cursor sits at ``cycle``,
    every stage this kernel could still make lands at or after ``cycle``
    (the cursor only moves forward), and during a proposed park it makes
    none at all before the wake — so seeding the kernel's own floor with
    ``cycle`` is sound, by induction on the earliest cycle anything could
    deviate. Computed with a throwaway memo: the assumption is scoped to
    one decision, never to the cascade-wide cache.
    """
    proc = ck.proc
    if proc is None:
        return 0
    return f.supply_horizon({id(proc): cycle})


def plan_window(ck, engine, start, resume_reads, idx=None, memo=None,
                cursors=None, stamp=0, trace=False):
    """Multi-round burst planner: one provable window for one CK.

    Simulates :meth:`PollingArbiter.run`'s per-flit state machine forward
    from the absolute cycle ``start`` over the *known* future only —
    supply schedules (items already committed, with their exact visibility
    cycles and horizons) and downstream slot schedules — and commits every
    take/stage it proved with the exact per-flit cycles, including R-round
    budgets, empty-input scan charges, and parked gaps whose wake-up cycle
    is already decided by an in-flight item. The plan stops at the first
    decision that depends on information not yet in the simulation (an
    arrival that has not been committed, a stall with no known release)
    and returns the exact per-flit resume state, so resuming — per-flit or
    by a later plan — is seamless and the cycle trajectory is identical to
    the literal interpretation.

    ``start`` may lie in the future (cascade extensions and co-plans plan
    from a CK's committed wake); snapshots are always taken against the
    current wall state, which is exactly what is provable. Returns a
    :class:`PlanResult` or ``None`` when nothing could be proved (the
    caller then falls back to one per-flit step).

    With ``trace=True`` the committed window also carries a decision
    trace on ``PlanResult.trace`` for the pattern detector: ``ops`` — one
    ``(take_cycle, input_idx, stage_cycle, target)`` per accepted packet
    in global take order — and ``obs`` — every readability observation
    the polling simulation made on a cycle it did *not* take from that
    input (``(cycle, input_idx, was_readable)``). Together they are a
    complete record of the window's decision-relevant state: replaying a
    Δ-shifted copy is cycle-exact iff every op re-validates (supply,
    routing, slots) and every observation re-holds at the shifted cycle.
    Parks are traced as their wake race: known heads provably unreadable
    the cycle before the wake, drained inputs silent through it, and the
    scan's stop input readable exactly at it.
    """
    arbiter = ck.arbiter
    inputs = arbiter.inputs
    n = len(inputs)
    burst = arbiter.read_burst
    now = engine.cycle
    c = start
    if idx is None:
        idx = arbiter._idx
    mode_reads = resume_reads  # -1 = FRESH, >= 0 = mid-round reads done
    route = ck._route
    route_memo = ck._route_memo
    pkts_l: list = [None] * n  # per-input snapshot: items
    rdy_l: list = [None] * n   # per-input snapshot: visibility cycles
    hz_l: list = [0] * n       # per-input snapshot: unknown-supply horizon
    ptr = [0] * n
    takes: list = [None] * n
    if cursors is None:
        cursors = {}  # id(target) -> _TargetCursor, shared per cascade
    total = 0
    ended = False  # plan hit an unknowable decision: stop where we are
    blocked_on = None  # fifo whose unknown backpressure ended the plan
    starved_on = None  # input whose unknown supply ended the plan
    if memo is None:
        memo = {}
    # Decision trace for the pattern detector (see docstring): the target
    # cursor of every take in order, plus every negative/positive
    # readability observation (scan charges, R-round ends, park races).
    trace_tgts = [] if trace else None
    trace_obs: list = []

    def starved(j, at):
        """Is drained input ``j`` of unknowable readability by ``at``?

        True when an unknown arrival could be visible at or before
        ``at``: always for a truncated snapshot (more items physically
        exist beyond the cut), otherwise when neither the cached
        unconditional horizon nor the self-silence retry exceeds ``at``.
        Only reached on give-up paths, so the closure stays off the hot
        take loop.
        """
        hz = hz_l[j]
        if hz is None:
            hz = hz_l[j] = inputs[j].supply_horizon(memo)
        return hz == _TRUNCATED or (
            hz <= at and _silent_hz(ck, inputs[j], at) <= at)

    # Cached cursor of the current routing target, mirrored into locals
    # (flushed back on switch and before commit).
    t_cur = None
    t_key = -1
    t_free = t_rp = t_nf = t_pace = 0
    t_isl = False
    t_rels = t_sc = t_sp = ()

    while not ended and total < PLAN_MAX_TAKES:
        P = pkts_l[idx]
        if P is None:
            P = _snap_input(inputs[idx], pkts_l, rdy_l, hz_l, idx, now)
        R = rdy_l[idx]
        p = ptr[idx]
        k = len(P)
        # ---- FRESH readability check / R-round over input idx ----------
        if mode_reads < 0:
            if p >= k:
                # Drained (or empty): provably unreadable only below the
                # input's unknown-supply horizon (computed on first use,
                # retried under the self-silence fixpoint before giving up).
                if starved(idx, c):
                    starved_on = inputs[idx]
                    break
                # fall through to rotation / scan / park below
            elif R[p] <= c:
                mode_reads = 0
            # (head exists but is not visible yet: provably unreadable)
        if mode_reads >= 0:
            tk = takes[idx]
            if tk is None:
                tk = takes[idx] = []
            while mode_reads < burst:
                if p >= k:
                    if starved(idx, c):
                        ended = True  # unknown readability: stop in ROUND
                        starved_on = inputs[idx]
                    elif trace_tgts is not None:
                        # Round ended on a provably silent drained input:
                        # a replica must re-prove the silence here.
                        trace_obs.append((c, idx, False))
                    break
                if R[p] > c:
                    if trace_tgts is not None:
                        trace_obs.append((c, idx, False))
                    break  # head not visible: the R-round ends here
                pkt = P[p]
                key = (pkt.dst << 8) | pkt.port
                if key != t_key:
                    if t_cur is not None:  # flush the outgoing cursor
                        t_cur.free = t_free
                        t_cur.rel_ptr = t_rp
                        t_cur.next_free = t_nf
                        t_cur = None
                        t_key = -1
                    out = route_memo.get(key)
                    if out is None:
                        try:
                            out = route(pkt)
                        except RoutingError:
                            # The per-flit path raises at this exact cycle.
                            ended = True
                            break
                        route_memo[key] = out
                    t_cur = cursors.get(id(out))
                    if t_cur is None:
                        t_cur = cursors[id(out)] = _TargetCursor(out, now,
                                                                 stamp)
                    elif t_cur.stamp != stamp:
                        # Carried over from an earlier plan call of this
                        # cascade: re-read the slot schedule once.
                        t_cur.refresh(now)
                        t_cur.stamp = stamp
                    t_key = key
                    t_free = t_cur.free
                    t_rels = t_cur.rels
                    t_rp = t_cur.rel_ptr
                    t_nf = t_cur.next_free
                    t_pace = t_cur.pace
                    t_isl = t_cur.is_link
                    t_sc = t_cur.stage_cycles
                    t_sp = t_cur.stage_pkts
                # Earliest per-flit stage cycle (see _TargetCursor).
                s = t_nf if (t_isl and t_nf > c) else c
                if t_free > 0:
                    t_free -= 1
                elif t_rp < len(t_rels):
                    floor = t_rels[t_rp] + 1
                    t_rp += 1
                    if floor > s:
                        s = floor
                else:
                    ended = True  # unknown backpressure: stop before take
                    blocked_on = t_cur.fifo
                    break
                if t_isl:
                    t_nf = s + t_pace
                tk.append(c)
                t_sc.append(s)
                t_sp.append(pkt)
                if trace_tgts is not None:
                    trace_tgts.append(t_cur)
                total += 1
                p += 1
                c = s + 1
                mode_reads += 1
            ptr[idx] = p
            if ended:
                break
            idx = (idx + 1) % n
            mode_reads = -1
            continue
        # ---- unreadable at c: rotate, then scan-charge or park ---------
        any_r = False
        wake = None
        for j in range(n):
            Pj = pkts_l[j]
            if Pj is None:
                Pj = _snap_input(inputs[j], pkts_l, rdy_l, hz_l, j, now)
            pj = ptr[j]
            if pj < len(Pj):
                rdy = rdy_l[j][pj]
                if rdy <= c:
                    any_r = True
                    if trace_tgts is not None:
                        trace_obs.append((c, j, True))
                    break
                if wake is None or rdy < wake:
                    wake = rdy
                if trace_tgts is not None:
                    trace_obs.append((c, j, False))
            elif starved(j, c):
                ended = True  # cannot even decide "anything readable?"
                starved_on = inputs[j]
                break
            elif trace_tgts is not None:
                trace_obs.append((c, j, False))
        if ended:
            break
        if any_r:
            idx = (idx + 1) % n
            c += 1  # the pointer scan costs this cycle
            continue
        # Park: wake at the first known future visibility, provided no
        # unknown arrival could beat (or tie) it on a drained input.
        if wake is None:
            break
        for j in range(n):
            if ptr[j] >= len(pkts_l[j]) and starved(j, wake):
                starved_on = inputs[j]
                wake = None
                break
        if wake is None:
            break
        if trace_tgts is not None:
            # A park's wake is a *race* on future visibility: it lands at
            # ``wake`` exactly because no input shows anything earlier
            # (strictly: known heads at or after ``wake``, drained inputs
            # silent through ``wake`` inclusive — a tie from an unknown
            # arrival could shorten the scan). Record the race so a
            # replica re-proves it at the shifted cycles: known heads
            # unreadable at ``wake - 1``, drained inputs unreadable at
            # ``wake`` itself.
            w1 = wake - 1
            for j in range(n):
                if ptr[j] < len(pkts_l[j]):
                    trace_obs.append((w1, j, False))
                else:
                    trace_obs.append((wake, j, False))
        idx = (idx + 1) % n  # per-flit rotates before parking
        scan = 0
        while scan < n:
            Pj = pkts_l[idx]  # None / () only for provably empty inputs
            if Pj:
                pj = ptr[idx]
                if pj < len(Pj) and rdy_l[idx][pj] <= wake:
                    if trace_tgts is not None:
                        # The wake-up scan's stop input: readable at wake.
                        trace_obs.append((wake, idx, True))
                    break
            if trace_tgts is not None:
                # Scanned past: provably unreadable at the wake cycle.
                trace_obs.append((wake, idx, False))
            idx = (idx + 1) % n
            scan += 1
        c = wake + scan

    if t_cur is not None:  # flush the cached cursor before committing
        t_cur.free = t_free
        t_cur.rel_ptr = t_rp
        t_cur.next_free = t_nf
    if total == 0 and c == start:
        return None
    if total <= 1 and c - start < 8:
        # A trivial window: committing it (burst bookkeeping, cascade
        # wake-up accounting) costs more than letting the per-flit loop
        # move the one packet. Declining is always cycle-neutral, but the
        # shared cursors must drop this call's pending stage and slot
        # consumption, or a later plan of the cascade would commit them
        # under the wrong kernel's identity.
        for cur in cursors.values():
            if cur.stage_pkts:
                cur.stage_pkts = []
                cur.stage_cycles = []
                cur.refresh(now)  # nothing committed: re-read = rollback
        return None
    # Assemble the decision trace before the commit clears the cursors'
    # stage lists. Global take order is recovered by sorting the merged
    # per-input take cycles (cycles strictly increase within a window),
    # which aligns 1:1 with the order targets were recorded in.
    trace_out = None
    if trace_tgts is not None and total:
        merged = []
        for i in range(n):
            tki = takes[i]
            if tki:
                merged.extend((tc, i) for tc in tki)
        merged.sort()
        sc_ptr: dict = {}
        ops = []
        for (tc, i), cur in zip(merged, trace_tgts):
            ci = id(cur)
            pi = sc_ptr.get(ci, 0)
            ops.append((tc, i, cur.stage_cycles[pi], cur.target))
            sc_ptr[ci] = pi + 1
        trace_out = (ops, trace_obs)
    # Commit under the planned CK's identity: a cascade runs inside a
    # *peer's* engine event, but the logical stager of these packets (for
    # the producer-set tripwire) is this CK's own process.
    prev_proc = engine._current_proc
    if ck.proc is not None:
        engine._current_proc = ck.proc
    try:
        sources = []
        for i in range(n):
            if takes[i]:
                inputs[i].take_burst(takes[i], collect=False)
                sources.append(inputs[i])
        targets = []
        for cur in cursors.values():
            if cur.stage_pkts:
                cur.target.stage_burst(cur.stage_pkts, cur.stage_cycles,
                                       verify_occupancy=False)
                cur.commit_pairings()
                targets.append(cur.fifo)
                # The cursor outlives this call (shared per cascade):
                # hand off the committed run and start a fresh one.
                cur.stage_pkts = []
                cur.stage_cycles = []
    finally:
        engine._current_proc = prev_proc
    if total:
        arbiter.packets_accepted += total
        hist = arbiter.accept_hist
        if hist is not None:
            # Reconstruct global accept order: take cycles strictly
            # increase within a plan, so merging the per-input sorted
            # lists recovers the per-flit recording order exactly.
            for cyc in _heap_merge(*(tk for tk in takes if tk)):
                hist.record(cyc)
    return PlanResult(c, idx, mode_reads, total, sources, targets,
                      blocked_on, starved_on, trace_out)


#: Same-cycle event order within a pattern round: readable witness (2)
#: before take (0) before unreadable observation (1) — see the ordering
#: comment in :class:`WindowPattern`.
_EV_RANK = (1, 2, 0)


class WindowPattern:
    """A confirmed periodic window shape, compiled for bulk replication.

    Built by :meth:`SupplyPlanner._observe` once two consecutive,
    contiguous committed windows of one CK turn out to be exact Δ-shifted
    copies of each other (same relative take/stage/charge structure, same
    arbiter state at both window boundaries). The compiled form is a
    single cycle-sorted event list per round:

    * ``(rel_c, 0, j, rel_s, target)`` — take input ``j``'s head at
      ``start + rel_c``, stage it into ``target`` at ``start + rel_s``;
    * ``(rel_c, 1, j, 0, None)`` — the polling loop *observed* input
      ``j`` unreadable at ``start + rel_c`` (an empty-poll scan charge,
      or the early end of an R-round); a replica must re-prove the
      silence — known head not yet visible, or drained below every
      supply horizon;
    * ``(rel_c, 2, j, 0, None)`` — input ``j`` was the readable witness
      that turned a scan into a rotation instead of a park; a replica
      must re-prove the head visible by then.

    Replication (:func:`replicate_window`) replays rounds of this list
    against *live* committed state only — real present items, real slot
    schedules, real horizons — so a committed train is cycle-exact by the
    same argument as :func:`plan_window`; the pattern merely replaces the
    polling-loop search with a straight-line verification.
    """

    __slots__ = ("delta", "idx0", "reads0", "events", "n_takes",
                 "inputs_used", "takes_per_input", "target_fifos", "sigs")

    def __init__(self, delta, idx0, reads0, ops_rel, obs_rel,
                 sigs=()) -> None:
        self.sigs = sigs  # the window signatures one round cycles through
        self.delta = delta    # round length in cycles
        self.idx0 = idx0      # arbiter pointer at every round boundary
        self.reads0 = reads0  # open R-round reads at every round boundary
        self.n_takes = len(ops_rel)
        # Observation dedupe. Between two consecutive takes on input j
        # (a *span*) the head is fixed, so of all "unreadable at X"
        # observations only the latest binds (ready > X_max implies the
        # rest) and of all "readable by X" witnesses only the earliest.
        # Raw traces carry one obs per scanned input per rotation/park
        # cycle; spans compress that to at most two checks each.
        takes_seen: dict = {}
        u_max: dict = {}  # (j, span) -> max rel cycle of 'u' obs
        r_min: dict = {}  # (j, span) -> min rel cycle of 'r' obs
        merged = [(rel_t, 0, j, rel_s, tgt)
                  for (rel_t, j, rel_s, tgt) in ops_rel]
        merged.extend((rel_c, 2 if readable else 1, j, 0, None)
                      for (rel_c, j, readable) in obs_rel)
        # Same-cycle order must mirror the live planner's program order:
        # a park's wake-up scan witnesses the head readable *and then*
        # takes it in the same cycle, so the readable witness precedes
        # the take (it binds to the pre-take head), while the park-race
        # unreadable observations refer to the post-take head and follow
        # it. Sorting by raw kind would key the witness one item ahead —
        # a constraint one supply cycle too strict, which starves every
        # replica round in the zero-slack regime of relay interior hops.
        merged.sort(key=lambda e: (e[0], _EV_RANK[e[1]]))
        for ev in merged:
            rel_c, kind, j = ev[0], ev[1], ev[2]
            if kind == 0:
                takes_seen[j] = takes_seen.get(j, 0) + 1
            else:
                key = (j, takes_seen.get(j, 0))
                if kind == 1:
                    if rel_c > u_max.get(key, -1):
                        u_max[key] = rel_c
                else:
                    if rel_c < r_min.get(key, delta + 1):
                        r_min[key] = rel_c
        events = [ev for ev in merged if ev[1] == 0]
        events.extend((rel_c, 1, j, 0, None)
                      for (j, _s), rel_c in u_max.items())
        events.extend((rel_c, 2, j, 0, None)
                      for (j, _s), rel_c in r_min.items())
        events.sort(key=lambda e: (e[0], _EV_RANK[e[1]]))
        self.events = tuple(events)
        used = {ev[2] for ev in events}
        self.inputs_used = tuple(sorted(used))
        # Per-round supply demand and the set of staged-into FIFOs, for
        # the O(inputs) round precheck and the train's dirty-wiring.
        self.takes_per_input = tuple(
            (j, takes_seen[j]) for j in sorted(takes_seen))
        tfifos = []
        for (_t, _j, _s, tgt) in ops_rel:
            fifo = tgt.fifo if isinstance(tgt, Link) else tgt
            if fifo not in tfifos:
                tfifos.append(fifo)
        self.target_fifos = tuple(tfifos)


def _compile_pattern(entries):
    """Fold ``p`` contiguous window signatures into one round's pattern.

    Each signature's relative cycles are offset by the cumulative length
    of the windows before it, so the compiled round replays the whole
    period in one validation pass; the signatures themselves are kept so
    later ``plan_window`` commits can be matched against the cycle
    (``SupplyPlanner._observe`` phase tracking).
    """
    sigs = tuple(sig for sig, _end in entries)
    delta = 0
    ops: list = []
    obs: list = []
    for sig in sigs:
        w_delta, _sidx, _sreads, _eidx, _ereads, ops_rel, obs_rel = sig
        ops.extend((t + delta, j, s + delta, tgt)
                   for (t, j, s, tgt) in ops_rel)
        obs.extend((c + delta, j, r) for (c, j, r) in obs_rel)
        delta += w_delta
    return WindowPattern(delta, sigs[0][1], sigs[0][2], tuple(ops),
                         tuple(obs), sigs)


class _ReplicaSession:
    """Per-CK state of one replication train (see :func:`replicate_train`).

    Holds the CK's full input inventory snapshot (extended in place as
    peer sessions publish their tentative stages), the validated-round
    accumulators, and the per-round accept cycles — everything needed to
    bulk-commit the session at train end. ``done`` marks a session whose
    last failure was a *shape divergence* (routing change, a stall
    landing off-pattern early, a silence observation broken by an
    already-visible item): no amount of further train progress can
    un-fail those, unlike slot or supply exhaustion.
    """

    __slots__ = ("ck", "arb", "pattern", "start", "T", "snap_items",
                 "snap_ready", "snap_iter", "ptr", "avail", "take_cycles",
                 "all_takes", "rounds", "takes", "blocked_on", "starved_on",
                 "hz_cache", "stage_cursors", "done", "dirty", "last_fail")

    def __init__(self, ck, pattern, start, now) -> None:
        self.ck = ck
        self.arb = ck.arbiter
        self.pattern = pattern
        self.start = start
        self.T = start  # next round's base cycle
        inputs = self.arb.inputs
        # Lazy committed-inventory snapshots: items are pulled from the
        # FIFO's present iterator only as validation reaches them, so a
        # short train against a deep link inventory never materialises
        # the whole bandwidth-delay product.
        self.snap_items: dict = {}
        self.snap_ready: dict = {}
        self.snap_iter: dict = {}
        self.ptr: dict = {}
        self.avail: dict = {}  # un-taken items per input (count precheck)
        for j in pattern.inputs_used:
            self.snap_items[j] = []
            self.snap_ready[j] = []
            self.snap_iter[j] = inputs[j].iter_present()
            self.ptr[j] = 0
            self.avail[j] = inputs[j].present_count
        self.take_cycles: dict = {j: [] for j in pattern.inputs_used}
        self.all_takes: list = []
        self.rounds = 0
        self.takes = 0
        self.blocked_on = None
        self.starved_on = None
        self.hz_cache: dict = {}
        self.stage_cursors: dict = {}  # id(cursor) -> cursor (this CK's)
        self.done = False
        self.dirty = True       # something changed since the last failure
        self.last_fail = None   # (event, X, detail) of the last failure

    def ensure(self, j, k) -> bool:
        """Extend input ``j``'s snapshot to >= ``k`` items if they exist."""
        items = self.snap_items[j]
        if len(items) >= k:
            return True
        it = self.snap_iter[j]
        if it is None:
            return False  # committed side drained; only feeds extend now
        ready = self.snap_ready[j]
        for item, r in it:
            items.append(item)
            ready.append(r)
            if len(items) >= k:
                return True
        self.snap_iter[j] = None
        return False

    def feed(self, j, pkt, ready) -> None:
        """Append a peer session's validated stage as virtual supply."""
        it = self.snap_iter[j]
        if it is not None:
            # FIFO order: every committed item precedes the train's
            # stages, so the lazy iterator must drain first.
            items = self.snap_items[j]
            rdy = self.snap_ready[j]
            for item, r in it:
                items.append(item)
                rdy.append(r)
            self.snap_iter[j] = None
        self.snap_items[j].append(pkt)
        self.snap_ready[j].append(ready)
        self.avail[j] += 1


#: Safety bound on coordinator sweeps per train (each sweep advances at
#: least one session by one round, so real trains end far earlier).
TRAIN_SWEEP_LIMIT = 4096

#: Optional diagnostics hook: a callable invoked once per finished train
#: with the session list (tests and ad-hoc profiling; None in production).
_train_debug = None

#: Test seam for the fast-forward guard battery: a callable
#: ``probe(guard, hop) -> bool`` consulted at every guard site of the
#: analytic jump's proof (``hop`` is the chain position the guard
#: concerns, ``-1`` for chain-wide guards). Returning True forces that
#: guard to report failure, so tests can drive each abort path
#: deterministically and pin the per-packet-replication fallback
#: bit-exact (``tests/test_macro_ff_aborts.py``); None in production.
_ff_guard_probe = None


def _ff_veto(guard: str, hop: int = -1) -> bool:
    """True when the test probe vetoes this guard site (see above)."""
    p = _ff_guard_probe
    return p is not None and p(guard, hop)


#: Longest sweep period the fast-forward detector resolves. Sessions of
#: one chain advance at equal *rates* but, at shallow depths, unequal
#: round sizes (a CKS moving 16 packets / 32 cycles on one sweep, the CKR
#: 22 packets / 44 cycles on the next), so the first sweep boundary at
#: which every frontier has moved by one common ΔT is the *hyperperiod*
#: of the round sizes — lcm(16, 22) = 176 packets, 19 sweeps — not one of
#: the first few sweeps.
FF_MAX_P = 64
FF_KEEP = 2 * FF_MAX_P + 1  # checkpoints retained per chain

#: Footprint bound of one analytic jump, in commit-lattice entries
#: (packets x per-packet cycle columns: one take and one stage column
#: per relay session plus the lanes'). A jump is ``S + k·ΔT`` whatever
#: its length, so a longer one buys nothing but memory — every FIFO it
#: lands in logs each packet's stage and take until the clock passes
#: them. Bounding the span keeps a run's footprint independent of the
#: message size; the next train re-proves the period and jumps again.
FF_MAX_ENTRIES = 1 << 17

#: Candidate periods examined per sweep (nearest first): the checkpoints
#: that share the newest one's frontier skew. Lock-step trains share one
#: skew at every sweep, so this is the old ``P = 1..4`` probe there.
FF_TRIES = 4


class _FFHistory:
    """Sweep-boundary fingerprints of one relay chain, indexed by skew.

    A fingerprint is ``(counts, cycles, lens)`` (see ``ff_checkpoint``).
    Two checkpoints can bound a period only if every cycle frontier
    moved by one common ΔT between them — equivalently, if their *skew*
    (each frontier relative to the first) is equal. Indexing the history
    by skew makes the detector's per-sweep cost one dict lookup when
    nothing is periodic, and makes the candidate periods exactly the
    sweeps at which the frontiers re-aligned, however far apart.
    """

    __slots__ = ("cps", "n", "by_skew")

    def __init__(self) -> None:
        self.cps: list = []        # (counts, cycles, lens, skew), oldest first
        self.n = 0                 # sweeps fingerprinted so far
        self.by_skew: dict = {}    # skew -> sweep numbers, ascending

    def ff_detect(self, cp):
        """Record fingerprint ``cp``; return the shortest period ending
        at it, or ``None``.

        A period of ``P`` sweeps holds when the checkpoints ``P`` and
        ``2P`` sweeps back share the newest one's skew, both windows
        advanced the frontiers by the same ``ΔT > 0``, and every counter
        and tracked-list length advanced equally in both. Returns
        ``(ΔT, count deltas, lens at the three checkpoints)``.
        """
        counts, cycles, lens = cp
        c0 = cycles[0]
        skew = tuple(c - c0 for c in cycles)
        cps = self.cps
        by_skew = self.by_skew
        n = self.n
        self.n = n + 1
        if len(cps) == FF_KEEP:
            # Evict the oldest fingerprint; it heads its skew's list.
            gone = cps.pop(0)[3]
            old = by_skew[gone]
            if len(old) > 1:
                del old[0]
            else:
                del by_skew[gone]
        cps.append((counts, cycles, lens, skew))
        seen = by_skew.get(skew)
        if seen is None:
            by_skew[skew] = [n]
            return None
        first = n - len(cps) + 1  # sweep number of cps[0]
        found = None
        for m in seen[:-FF_TRIES - 1:-1]:
            a = 2 * m - n  # sweep number of the checkpoint 2P back
            if a < first:
                break
            cA = cps[a - first]
            cB = cps[m - first]
            if cA[3] != skew:
                continue
            dT = c0 - cB[1][0]
            if dT <= 0 or cB[1][0] - cA[1][0] != dT:
                continue
            dn = tuple(y - x for x, y in zip(cB[0], counts))
            if dn != tuple(y - x for x, y in zip(cA[0], cB[0])):
                continue
            if tuple(y - x for x, y in zip(cB[2], lens)) != \
                    tuple(y - x for x, y in zip(cA[2], cB[2])):
                continue
            found = (dT, dn, cA[2], cB[2], lens)
            break
        seen.append(n)
        return found


def replicate_train(planner, ck, engine, start, memo, cursors, stamp):
    """Co-replicate confirmed patterns along a pipeline and bulk-commit.

    The train starts from ``ck``'s confirmed pattern at ``start`` and
    validates Δ-shifted rounds against *live committed state only* — the
    full input inventories (no snapshot truncation: replication consumes
    facts, so a deep link FIFO replicates its whole bandwidth-delay
    product in one call), the shared cascade cursors' slot budgets with
    the exact :func:`plan_window` stall formula, and the supply horizons
    (with the self-silence retry) for every silence observation.

    When a session's round fails on *slot exhaustion* in a FIFO whose
    consumer CK also has a live, contiguous pattern — or on *supply
    exhaustion* in a FIFO whose producer CK does — that peer joins the
    train as its own session, and the sessions ping-pong: a validated
    round's stages are published to the consumer session as virtual
    supply (the exact items with their exact visibility cycles), its
    takes to the producer's cursor as virtual slot releases. This is
    sound for the same reason the cascade is: everything published will
    be committed before any other process runs, with exactly the cycles
    it was validated at. A round whose computed schedule deviates from
    its pattern by even one cycle is rolled back and never committed;
    :func:`plan_window` handles the deviation exactly on the next visit.

    At train end every session bulk-commits — all stages first (so
    cross-session takes find their items), then all takes — one
    ``stage_burst``/``take_burst`` pair per FIFO for the whole train,
    with persistent slot pairing on ``Fifo._reserved_paired`` and a
    single firm wake (:meth:`Engine.preempt`) per sleeping peer.

    Returns the origin's :class:`PlanResult` (or ``None`` if the origin
    proved no full round); peer sessions' results are appended to
    ``planner._extra_results`` for the cascade to fan out from.
    """
    now = engine.cycle
    # Macro-cruise: app-side channel lanes this train may extend. The
    # take budget is raised only under the global cruise condition (see
    # SupplyPlanner.macro_take_budget); each lane still proves itself
    # per resource before any extension.
    macro_lanes = planner.app_lanes if planner.macro else None
    max_takes = planner.macro_take_budget() if macro_lanes else PLAN_MAX_TAKES
    lanes_used: dict = {}   # id(lane) -> lane joined to this train
    lane_extends = 0
    origin = _ReplicaSession(ck, ck.arbiter._pattern, start, now)
    sessions: dict = {id(ck): origin}
    order = [origin]
    feeds: dict = {}    # id(fifo) -> (consumer session, its input index)
    stager: dict = {}   # id(fifo) -> session whose pattern stages into it
    v_rels: dict = {}   # id(fifo) -> virtual release cycles (train takes)
    v_items: dict = {}  # id(fifo) -> [(pkt, ready)] validated train stages
    cursor_fifo: dict = {}  # id(fifo) -> live cursor staging into it

    def lane_of(fifo):
        """The extendable app lane on ``fifo``, joined to the train."""
        if macro_lanes is None:
            return None
        lane = macro_lanes.get(id(fifo))
        if lane is None or not lane.extendable():
            return None
        if id(lane) not in lanes_used:
            lane.begin(now)
            lanes_used[id(lane)] = lane
        return lane

    def hook_inputs(sess) -> None:
        inputs = sess.arb.inputs
        for j in sess.pattern.inputs_used:
            fifo = inputs[j]
            feeds[id(fifo)] = (sess, j)
            # Stages other sessions validated before this one joined are
            # not in the committed snapshot yet: replay them.
            pend = v_items.get(id(fifo))
            if pend:
                for pkt, r in pend:
                    sess.feed(j, pkt, r)
        for fifo in sess.pattern.target_fifos:
            stager[id(fifo)] = sess

    hook_inputs(origin)

    def try_join(peer) -> None:
        """Add a peer CK's session if its pattern can continue the train.

        Sleeping-window peers join like a co-plan would; the cascade's
        *origin* CK may join even in the ``"run"`` state — it is inside
        its own planner call right now and re-reads ``_plan_until`` the
        moment control returns, exactly as after a cascade extension.
        """
        if peer is None or id(peer) in sessions:
            return
        arb = peer.arbiter
        pat = arb._pattern
        proc = peer.proc
        state_ok = (arb._resume_state == "window"
                    or peer is planner._cascade_origin)
        if (pat is None or proc is None or proc.finished
                or not state_ok
                or arb._plan_until != arb._pattern_end
                or arb._pattern_phase != 0
                or arb._idx != pat.idx0
                or arb._resume_reads != pat.reads0):
            return
        # Cheap demand precheck before building any session state: the
        # peer's first round needs its full take counts from committed
        # items plus whatever the train has already published. A peer
        # rejected here is retried on every later failure of the session
        # that wanted it, by which time more may have been published.
        inputs = arb.inputs
        for j, need in pat.takes_per_input:
            f = inputs[j]
            if f.present_count + len(v_items.get(id(f), ())) < need:
                return
        sess = _ReplicaSession(peer, pat, arb._plan_until, now)
        sessions[id(peer)] = sess
        order.append(sess)
        hook_inputs(sess)  # also replays earlier sessions' virtual items

    def ff_close_chain() -> bool:
        """Join the whole relay pipeline around the train (macro only).

        Ordinary trains grow on demand — a peer joins when a session
        blocks on its slots or starves on its supply. In a deep-buffer
        steady state the interior hops of a relay chain do neither
        (every FIFO holds its bandwidth-delay product), so a multi-hop
        program shatters into per-CK trains and the chain resolver
        never sees the whole stream. Under the raised macro budget,
        walk every session's inputs upstream and targets downstream
        and invite those CKs too; ``try_join``'s own preconditions
        (confirmed contiguous pattern, demand precheck) still decide.
        Returns True when the train grew.
        """
        n0 = len(order)
        for sess in order:  # appends during iteration close transitively
            inputs = sess.arb.inputs
            for j in sess.pattern.inputs_used:
                try_join(planner.producer_ck.get(id(inputs[j])))
            for tgt in sess.pattern.target_fifos:
                try_join(planner.consumer_ck.get(id(tgt)))
        return len(order) > n0

    def publish_stage(fifo, pkt, s) -> None:
        ready = s + fifo.latency
        v_items.setdefault(id(fifo), []).append((pkt, ready))
        hooked = feeds.get(id(fifo))
        if hooked is not None:
            sess, j = hooked
            sess.feed(j, pkt, ready)
            sess.dirty = True  # new supply may unblock a starved round
        elif macro_lanes is not None:
            # A stage into an app receive endpoint: virtual supply for
            # the sleeping pop_vec's lane.
            lane = lane_of(fifo)
            if lane is not None and not lane.is_send:
                lane.note_item(pkt, ready)

    def publish_take(fifo, x) -> None:
        v_rels.setdefault(id(fifo), []).append(x)
        cur = cursor_fifo.get(id(fifo))
        if cur is not None:
            cur.rels.append(x)
        peer = stager.get(id(fifo))
        if peer is not None:
            peer.dirty = True  # a freed slot may unblock a blocked round
        elif macro_lanes is not None:
            # A take from an app send endpoint: a virtual slot release
            # for the sleeping push_vec's lane.
            lane = lane_of(fifo)
            if lane is not None and lane.is_send:
                lane.note_release(x)

    def ff_silent(sess, j, X) -> bool:
        """Zero-slack silence proof: is ``sess``'s drained input ``j``
        provably unreadable through ``X`` under the train's own frontiers?

        The engine-level producer-sleep horizon only knows where each
        producer process sleeps *now* — its last committed window end.
        Inside a train the producer session has already validated
        rounds far past that, and everything it validated is published
        (fed into ``sess``'s snapshot, which is drained): whatever it
        stages next lands at or after its round frontier ``T``, because
        the train commits every session through its ``T`` before any
        other process runs (the same floor ``process_floor`` reports
        once the train's firm wakes are in place). So the supply-horizon
        query may seed every train session's process with its ``T`` —
        and the observer with ``X``, as :func:`_silent_hz` does — in a
        throwaway memo. This is what breaks the circular proof at zero
        slack: a relay whose 8-deep output is full cannot stage until
        its consumer takes, and the consumer cannot end its round until
        it knows the relay is silent; the relay's ``T`` (it validated
        up to the full FIFO and stopped on its slots) *is* that
        knowledge. Macro-only: the plain burst plane keeps its trains.
        """
        if macro_lanes is None or _ff_veto('silence'):
            return False
        floors = {id(s.ck.proc): s.T for s in order}
        floors[id(sess.ck.proc)] = X
        return sess.arb.inputs[j].supply_horizon(floors) > X

    def validate_round(sess) -> bool:
        ck_s = sess.ck
        inputs = sess.arb.inputs
        avail = sess.avail
        # O(inputs) demand precheck: a round needs its full take count
        # per input (committed plus already-published virtual supply) —
        # without it, walking the events just to fail is wasted work.
        for j, need in sess.pattern.takes_per_input:
            if avail[j] < need:
                sess.starved_on = inputs[j]
                sess.blocked_on = None
                sess.last_fail = ('precheck', j, need, avail[j])
                return False
        route = ck_s._route
        route_memo = ck_s._route_memo
        snap_items = sess.snap_items
        snap_ready = sess.snap_ready
        ptr = sess.ptr
        T = sess.T
        ok = True
        fail = None
        fatal = False          # shape divergence: never retry
        saves: dict = {}       # id(cursor) -> (cursor, free, rel_ptr, nf)
        stage_buf: dict = {}   # id(cursor) -> (cursor, [pkts], [cycles])
        round_takes: list = []  # (input_idx, fifo, take_cycle) event order
        round_stages: list = []  # (fifo, pkt, stage_cycle) in event order
        for ev in sess.pattern.events:
            rel_c, kind, j, rel_s, target = ev
            X = T + rel_c
            if kind == 0:
                p = ptr[j]
                if not sess.ensure(j, p + 1) or snap_ready[j][p] > X:
                    sess.starved_on = inputs[j]
                    sess.blocked_on = None
                    fail = ('take-starved', j, X,
                            snap_ready[j][p] if p < len(snap_items[j])
                            else None)
                    ok = False
                    break
                pkt = snap_items[j][p]
                key = (pkt.dst << 8) | pkt.port
                out = route_memo.get(key)
                if out is None:
                    try:
                        out = route(pkt)
                    except RoutingError:
                        # plan_window stops here too; the per-flit path
                        # raises at this exact cycle after the fallback.
                        fail = ('route-error', j, X, None)
                        ok = False
                        fatal = True
                        break
                    route_memo[key] = out
                if out is not target:
                    fail = ('target-mismatch', j, X, None)
                    ok = False  # traffic shape changed: not this pattern
                    fatal = True
                    break
                cid = id(out)
                cur = cursors.get(cid)
                if cur is None:
                    cur = cursors[cid] = _TargetCursor(out, now, stamp)
                    fresh = True
                elif cur.stamp != stamp:
                    cur.refresh(now)
                    cur.stamp = stamp
                    fresh = True
                else:
                    fresh = False
                if fresh:
                    # First touch in this train: graft the virtual
                    # releases other sessions already validated.
                    pend = v_rels.get(id(cur.fifo))
                    if pend:
                        cur.rels = cur.rels + pend
                    cursor_fifo[id(cur.fifo)] = cur
                if cid not in saves:
                    saves[cid] = (cur, cur.free, cur.rel_ptr, cur.next_free)
                # Exact plan_window stall model; the outcome must land on
                # the pattern's relative stage cycle or the round is off.
                s = cur.next_free if (cur.is_link and cur.next_free > X) \
                    else X
                if cur.free > 0:
                    cur.free -= 1
                elif cur.rel_ptr < len(cur.rels):
                    floor = cur.rels[cur.rel_ptr] + 1
                    cur.rel_ptr += 1
                    if floor > s:
                        s = floor
                else:
                    sess.blocked_on = cur.fifo
                    sess.starved_on = None
                    fail = ('no-slot', j, X, cur.fifo.name)
                    ok = False
                    break
                expected = T + rel_s
                if s != expected:
                    if s > expected:
                        sess.blocked_on = cur.fifo  # stall worsened
                        sess.starved_on = None
                    else:
                        fatal = True  # a stall the pattern had vanished
                    fail = ('stage-cycle', j, X, (s, expected))
                    ok = False
                    break
                if cur.is_link:
                    cur.next_free = s + cur.pace
                buf = stage_buf.get(cid)
                if buf is None:
                    buf = stage_buf[cid] = (cur, [], [])
                buf[1].append(pkt)
                buf[2].append(s)
                ptr[j] = p + 1
                round_takes.append((j, inputs[j], X))
                round_stages.append((cur.fifo, pkt, s))
            elif kind == 1:
                # Pattern polled this input and found it unreadable: the
                # replica must re-prove it. With items (real or virtual)
                # present the head's visibility is exact; drained inputs
                # need a horizon past X (retrying under self-silence).
                p = ptr[j]
                if sess.ensure(j, p + 1):
                    if snap_ready[j][p] <= X:
                        fail = ('early-arrival', j, X, snap_ready[j][p])
                        ok = False  # an arrival beat the pattern's rhythm
                        fatal = True
                        break
                else:
                    hz = sess.hz_cache.get(j)
                    if hz is None:
                        hz = sess.hz_cache[j] = \
                            inputs[j].supply_horizon(memo)
                    if hz <= X and _silent_hz(ck_s, inputs[j], X) <= X \
                            and not ff_silent(sess, j, X):
                        sess.starved_on = inputs[j]
                        sess.blocked_on = None
                        fail = ('no-horizon', j, X, hz)
                        ok = False
                        break
            else:  # kind == 2: the readable witness of a rotation
                p = ptr[j]
                if not sess.ensure(j, p + 1) or snap_ready[j][p] > X:
                    sess.starved_on = inputs[j]
                    sess.blocked_on = None
                    fail = ('witness-missing', j, X,
                            snap_ready[j][p] if p < len(snap_items[j])
                            else None)
                    ok = False
                    break
        if not ok:
            # Roll the failed round back: cursor budgets to their
            # round-start state, input pointers past validated takes only.
            for cur, free, rel_ptr, nf in saves.values():
                cur.free = free
                cur.rel_ptr = rel_ptr
                cur.next_free = nf
            for j, _f, _x in round_takes:
                ptr[j] -= 1
            if fatal:
                sess.done = True
            sess.last_fail = fail
            return False
        for cid, (cur, pkts, cycles) in stage_buf.items():
            cur.stage_pkts.extend(pkts)
            cur.stage_cycles.extend(cycles)
            sess.stage_cursors[cid] = cur
        for j, fifo, x in round_takes:
            sess.take_cycles[j].append(x)
            sess.all_takes.append(x)
            avail[j] -= 1
            publish_take(fifo, x)
        for fifo, pkt, s in round_stages:
            publish_stage(fifo, pkt, s)
        sess.takes += sess.pattern.n_takes
        sess.rounds += 1
        sess.T += sess.pattern.delta
        sess.blocked_on = None
        sess.starved_on = None
        return True

    # ---- analytic stream fast-forward (the tier-2 macro path) ----------
    # Validated replication still does O(1) work *per packet*;
    # on a long steady stream that per-packet constant is the wall-clock
    # bound. But once the train's sweeps settle into an exact periodic
    # regime — every scalar advancing by the same per-period delta,
    # every tracked list appending a Δ-shifted copy of its previous
    # period's appends — the next R periods are closed-form arithmetic:
    # extend every cycle lattice by slice-shifting, advance every
    # counter by R deltas, append the packet runs by stream position,
    # and let the train's ordinary bulk commit land the whole span. The
    # guard battery below reduces that induction to committed facts
    # (conservation along the chain, frozen-value monotonicity, horizon
    # and budget bounds); any guard failing just leaves the train on
    # per-packet replication, and the committed lattices still face the
    # stage/take monotonicity and visibility tripwires at commit time.
    ff_dead = False             # permanent no-arm: stop probing the train
    ff_miss = None              # last silent no-arm outcome (guard, why)
    ff_probes = 0               # sweeps that probed without a jump
    ff_armed = False            # chains resolved at least once (stats)
    ff_chains = None            # resolved relay chains, one per stream
    ff_lists = None             # per chain: tracked (list, kind) registry
    ff_hist = None              # per chain: fingerprint history (_FFHistory)
    ff_shape = None             # (sessions, lanes) chains resolved under

    def ff_resolve():
        """Resolve the train as app-stream relay chains.

        Each chain is ``send lane -> session_0 -> ... -> session_n ->
        recv lane``, found by walking every session's single
        ``target_fifos[0]`` into the next session's input — transit CK
        relays included, so a 4-hop deep stream resolves as one chain
        of 8 relay sessions. Interior hops must be builder-wired relay
        FIFOs (``planner.relay_fifos``: CK-internal transit, no app
        writer can reach them), the whole channel history must sit
        inside the lanes (a stream element's position identifies its
        payload — the element-indexed packet runs depend on it), and no
        frozen-value release may be left in front of a sender's pacing
        cursor (a consumed release *writes* the cursor via ``max(cur,
        rel + 1)``, so only Δ-shifting train releases may feed it).

        Concurrent independent streams resolve as one chain per send
        lane; disjointness is structural — every session and recv lane
        is claimed by at most one walk, and any sharing (two sessions
        on one input, two chains through one session or endpoint) is an
        overlap refusal that falls back to per-packet replication.

        Returns ``(chains, refusal, permanent)``: ``chains`` is the
        resolved list or ``None``; ``refusal`` names the precondition
        that failed (consumer not joined, lane inactive, snapshot not
        drained, ...), and ``permanent`` tells refusals a later sweep
        can heal from ones it never can (a compiled pattern's shape —
        its input/target counts — is fixed for the whole train). A
        permanent refusal disarms probing for the rest of the program
        instead of re-fingerprinting every sweep, and its reason
        survives on ``planner.ff_disarm_reason`` /
        ``PlannerStats.ff_disarm_reason``; a transient one is reported
        once per train (guard ``unresolved``), so a run that never arms
        says *why* instead of showing silent zero counters.
        """
        sends = [la for la in lanes_used.values() if la.is_send]
        recvs = {}
        for la in lanes_used.values():
            if not la.is_send:
                recvs[id(la.chan.endpoint)] = la
        if not sends or len(recvs) != len(sends):
            return None, "app lanes not joined", False
        by_input = {}
        for sess in order:
            tpi = sess.pattern.takes_per_input
            if len(tpi) != 1 or len(sess.pattern.target_fifos) != 1:
                # Pattern shape fixed for the train: never a relay.
                return None, "pattern shape (multi-input/target session)", \
                    True
            if sess.done:
                return None, "session diverged from its pattern", False
            j, tpr = tpi[0]
            fin = sess.arb.inputs[j]
            if id(fin) in by_input:
                return None, "overlap (two sessions on one input)", True
            by_input[id(fin)] = (sess, j, tpr)
        relay = planner.relay_fifos
        chains = []
        taken: set = set()        # sessions claimed by an earlier walk
        claimed_eps: set = set()  # recv endpoints claimed by a chain
        for ls in sends:
            chan_s = ls.chan
            if not ls.active or ls.cur is None:
                return None, "send lane inactive", False
            if ls.rel_ptr < ls.rels0 or chan_s._sent != ls.i:
                return None, "send lane history not in the train", False
            hops = []
            f = chan_s.endpoint
            while True:
                ent = by_input.get(id(f))
                if ent is None:
                    return None, "consumer not joined", False
                sess, j, tpr = ent
                if id(sess) in taken:
                    return None, "overlap (chains share a session)", True
                taken.add(id(sess))
                if len(sess.stage_cursors) != 1 \
                        or sess.snap_iter[j] is not None:
                    return None, "snapshot not drained", False
                cur = next(iter(sess.stage_cursors.values()))
                tgt = sess.pattern.target_fifos[0]
                if cur.stamp != stamp or cur.fifo is not tgt:
                    return None, "stage cursor not live", False
                hops.append((sess, j, tpr, cur))
                if id(tgt) in relay:
                    f = tgt  # transit hop: keep walking the chain
                    continue
                lr = recvs.pop(id(tgt), None)
                break
            if lr is None:
                if id(tgt) in claimed_eps:
                    return None, "overlap (two chains on one endpoint)", \
                        True
                if id(tgt) in planner.boundary_fifos:
                    # Cross-shard boundary: the consumer lives in another
                    # shard's planner, so this walk can never reach a
                    # recv lane — a permanent refusal.
                    return None, "cross-shard boundary chain", True
                return None, "recv lane not joined", False
            claimed_eps.add(id(tgt))
            chan_r = lr.chan
            if not lr.active or lr.cur is None \
                    or chan_r._received != lr.got \
                    or chan_r._current is not None \
                    or chan_s.dtype is not chan_r.dtype:
                return None, "recv lane inactive", False
            chains.append((ls, lr, hops,
                           chan_s.dtype.elements_per_packet))
        if len(taken) != len(order) or recvs:
            return None, "sessions outside every chain", False
        return chains, None, False

    def ff_track(chain):
        """Every per-packet list one chain appends to, with its kind:
        ``'c'`` cycle lattice, ``'p'`` packets — built by iterating the
        resolved chain in stream order."""
        ls, lr, hops, _epp = chain
        lists = [(ls.rels, 'c'), (ls.pend_cycles, 'c'),
                 (ls.pend_pkts, 'p')]
        for sess, j, _tpr, cur in hops:
            lists += [
                (sess.take_cycles[j], 'c'), (sess.all_takes, 'c'),
                (sess.snap_items[j], 'p'), (sess.snap_ready[j], 'c'),
                (cur.rels, 'c'), (cur.stage_cycles, 'c'),
                (cur.stage_pkts, 'p'),
            ]
        lists += [(lr.take_cycles, 'c'), (lr.pkts, 'p'), (lr.ready, 'c')]
        return tuple(lists)

    def ff_checkpoint(chain, lists):
        """Fingerprint one chain at a sweep boundary: every counter,
        every cycle-valued frontier, every tracked list length."""
        ls, lr, hops, _epp = chain
        counts = [
            ls.i, ls.free, ls.rel_ptr, ls.claimed,
            ls.chan._packer.pending,
            lr.got, lr.ic, lr.ip, lr.pend_takes,
        ]
        cycles = [ls.cur, lr.cur]
        for sess, _jc, _tpr, cur in hops:
            counts += [sess.rounds, sess.takes, cur.free, cur.rel_ptr]
            cycles.append(sess.T)
            if cur.is_link:
                cycles.append(cur.next_free)
            for j in sess.pattern.inputs_used:
                counts.append(sess.ptr[j])
                counts.append(sess.avail[j])
                counts.append(len(sess.snap_items[j]))
        lens = tuple(len(L) for L, _k in lists)
        return (tuple(counts), tuple(cycles), lens)

    def ff_obs_bound(sess, jc):
        """Rounds for which every non-chain observation provably holds.

        Nothing in the chain stages into or takes from these inputs (the
        fingerprint pinned their pointers and inventories), so their
        heads never move and one readiness or horizon comparison bounds
        every round at once. ``None`` = unbounded.
        """
        T = sess.T
        delta = sess.pattern.delta
        inputs = sess.arb.inputs
        bound = None
        for rel_c, kind, j, _rs, _tg in sess.pattern.events:
            if kind == 0 or j == jc:
                continue
            if sess.ensure(j, sess.ptr[j] + 1):
                r = sess.snap_ready[j][sess.ptr[j]]
                if kind == 1:
                    b = (r - T - rel_c - 1) // delta + 1
                elif r <= T + rel_c:
                    continue  # witness readable: holds as X grows
                else:
                    b = 0
            elif kind == 1:
                hz = sess.hz_cache.get(j)
                if hz is None:
                    hz = sess.hz_cache[j] = inputs[j].supply_horizon(memo)
                b = (hz - T - rel_c - 1) // delta + 1
            else:
                b = 0  # witness needs an item that is not there
            if bound is None or b < bound:
                bound = b
        return bound

    def ff_standing_rounds(sess, jc, tpr, max_rounds):
        """Rounds whose chain-input references to *already present*
        items all hold explicitly. Items the jump itself appends are
        the verified Δ-shift lattice — induction covers those — but the
        standing backlog holds frozen cycles the shift argument says
        nothing about, so each reference is checked against its shifted
        pattern cycle directly (O(backlog), the region is bounded by
        the constant chain occupancy)."""
        items = sess.snap_items[jc]
        ready = sess.snap_ready[jc]
        p0 = sess.ptr[jc]
        n_it = len(items)
        T = sess.T
        delta = sess.pattern.delta
        ok = max_rounds
        slot = 0
        for rel_c, kind, j, _rs, _tg in sess.pattern.events:
            if j != jc:
                continue
            s = slot
            if kind == 0:
                slot += 1
            k = 0
            while k < ok:
                idx = p0 + k * tpr + s
                if idx >= n_it:
                    break
                X = T + k * delta + rel_c
                bad = (ready[idx] <= X) if kind == 1 else (ready[idx] > X)
                if bad:
                    ok = k
                    break
                k += 1
        return ok

    def ff_abort(guard, hop=-1):
        """Report one failed guard of the analytic jump's proof.

        Trace-only: emits an ``abort`` event carrying the guard name and
        the chain hop it concerns (``-1`` for chain-wide guards), then
        returns False so callers fall back to per-packet replication —
        exactly what an unguarded ``return False`` did before.
        """
        nonlocal ff_miss
        ff_miss = None  # reported here, not by the per-train summary
        if engine.trace is not None:
            engine.trace.emit(engine.cycle, "abort", "planner", "ff-abort",
                              args={"guard": guard, "hop": hop})
        return False

    def ff_apply(chain, lists, dT, dn, lensA, lensB, lensC):
        """Verify the period is a provable Δ-shift and bulk-apply R of
        them along the whole relay chain. Returns True when the jump
        landed (False leaves the train on ordinary replication with
        nothing mutated)."""
        ls, lr, hops, epp = chain
        (d_i, d_lsfree, d_lsrp, d_lscl, d_pend,
         d_got, d_ic, d_ip, d_ptk) = dn[:9]
        dE = d_i  # stream elements shipped per period
        if dE <= 0 or d_got != dE or dE % epp or dE % ls.width:
            return False
        ppp = dE // epp  # packets per period, uniform along the chain
        if d_pend or d_ic or d_lsfree:
            return False
        if d_lsrp != ppp or d_lscl != ppp or d_ip != ppp or d_ptk != ppp:
            return False
        # Per hop: the period must be a whole number of that session's
        # pattern rounds with the common ΔT, its takes must equal the
        # chain's packets per period (per-hop element conservation in
        # the deltas), and its chain-input bookkeeping must advance in
        # lockstep while every other input stays frozen.
        ei = 9
        rnds = []
        for sess, jc, tpr, cur in hops:
            rnd, tpp, d_cfree, d_crp = dn[ei:ei + 4]
            ei += 4
            if tpp != ppp or rnd <= 0 or tpp != rnd * tpr \
                    or dT != rnd * sess.pattern.delta \
                    or d_cfree or d_crp != ppp:
                return False
            rnds.append(rnd)
            for j in sess.pattern.inputs_used:
                d_ptr, d_avail, d_len = dn[ei:ei + 3]
                ei += 3
                if j == jc:
                    if d_ptr != ppp or d_avail or d_len != ppp:
                        return False
                elif d_ptr or d_avail or d_len:
                    return False
        # Every tracked list appended exactly one period's packets.
        if any(c - b != ppp for b, c in zip(lensB, lensC)):
            return False
        if lr.chan._current is not None or not ls.pend_pkts:
            return False
        tmpl = ls.pend_pkts[-1]
        if tmpl.count != epp or tmpl.dtype is not ls.chan.dtype:
            return False
        try:
            lr.chan._check_packet(tmpl)
        except ChannelError:
            return False

        def attrs_ok(p):
            return (p.count == epp and p.dst == tmpl.dst
                    and p.src == tmpl.src and p.port == tmpl.port
                    and p.op == tmpl.op and p.dtype is tmpl.dtype)

        # ---- Δ-shift verification of the two observed windows ----------
        for (L, kind), a, b, c in zip(lists, lensA, lensB, lensC):
            if len(L) != c:
                return False
            if kind == 'c':
                w2 = L[b:c]
                if w2 != [x + dT for x in L[a:b]]:
                    return False
                if w2 and w2[-1] - dT > w2[0]:
                    return False  # extension would break monotonicity
            elif not all(map(attrs_ok, L[a:c])):
                return False
        # ---- element conservation along every hop ----------------------
        # Walk the element frontier down the chain: each hop's standing
        # inventory pushes the next-staged element back, and the frontier
        # must stay packet-aligned and ahead of the receiver at every
        # hop, landing exactly on the receiver's pending backlog.
        pend0 = ls.chan._packer.pending
        e_ship0 = ls.i - pend0  # elements inside emitted packets
        g0 = lr.got
        pend_r = len(lr.pkts) - lr.ip
        if e_ship0 % epp or g0 % epp:
            return False
        e = e_ship0
        for k, (sess, jc, _tpr, _cur) in enumerate(hops):
            e -= epp * sess.avail[jc]
            if e < g0 or _ff_veto('conservation', k):
                return ff_abort('conservation', k)
        if e != g0 + epp * pend_r:
            return False
        # Standing (pre-window, frozen) items must look like the stream.
        for sess, jc, _tpr, _cur in hops:
            if not all(map(attrs_ok, sess.snap_items[jc][sess.ptr[jc]:])):
                return False
        if not all(map(attrs_ok, lr.pkts[lr.ip:])):
            return False
        # The sender's release backlog must sit on the Δ lattice:
        # consumed releases *write* the pacing cursor, so one frozen
        # off-lattice value would bend the whole trajectory. The scan
        # starts one period back to tie the first extension period to
        # the releases the last observed period consumed (``rel_ptr``
        # advanced ppp per window, so the start never dips into the
        # frozen slot-plan prefix below ``rels0``).
        rels_s = ls.rels
        for idx in range(ls.rel_ptr - ppp, len(rels_s) - ppp):
            if rels_s[idx + ppp] != rels_s[idx] + dT:
                return ff_abort('rel-lattice')
        if _ff_veto('rel-lattice'):
            return ff_abort('rel-lattice')
        # ---- every externality bounds R (in periods); the closed-form
        # horizon/budget bounds are the min over the whole chain. -------
        R = (len(ls.values) - ls.i) // dE - 1  # message end: leave the
        r_b = (lr.n - g0) // dE - 1            # tail to the sweeps
        if r_b < R:
            R = r_b
        for sess, _jc, _tpr, _cur in hops:
            r_b = (max_takes - sess.takes) // ppp - 1
            if r_b < R:
                R = r_b
        # Footprint cap: the jump materialises one cycle column per
        # commit lattice (and every FIFO it lands in logs the same
        # per-packet facts), so the span is bounded by entries, not by
        # message size; the steady state re-arms in the next train.
        r_b = FF_MAX_ENTRIES // (ppp * (3 + 2 * len(hops)))
        if r_b < R:
            R = r_b
        if _ff_veto('budget'):
            return ff_abort('budget')
        for k, ((sess, jc, tpr, _cur), rpd) in enumerate(zip(hops, rnds)):
            ob = ff_obs_bound(sess, jc)
            if ob is not None and ob // rpd < R:
                R = ob // rpd
            if R < 2 or _ff_veto('horizon', k):
                return ff_abort('horizon', k)
            st = ff_standing_rounds(sess, jc, tpr, R * rpd)
            if st // rpd < R:
                R = st // rpd
            if _ff_veto('standing', k):
                return ff_abort('standing', k)
        if R < 2:
            return ff_abort('standing')
        # Standing recv-lane items must continue the readiness lattice
        # one-for-one against the items the last observed period
        # consumed: the lane take rule *writes* ``cur = max(cur,
        # ready)``, so a frozen ready either side of the lattice would
        # bend the take trajectory (``ip`` advanced ppp per window, so
        # ``ip - ppp`` is in range).
        ready_r = lr.ready
        cap = R * ppp
        m = 0
        for rdy in ready_r[lr.ip:]:
            if m >= cap:
                break
            if rdy != ready_r[lr.ip + m - ppp] + dT:
                cap = m
                break
            m += 1
        if cap // ppp < R:
            R = cap // ppp
        if _ff_veto('recv-lattice'):
            return ff_abort('recv-lattice')
        # Cursor release backlogs only *floor* the pattern's stage
        # cycles (frozen values are older, hence smaller — but each
        # consumed release must still free its slot in time, at every
        # hop of the chain).
        for k, (_sess, _jc, _tpr, cur) in enumerate(hops):
            w2_sc = cur.stage_cycles[-ppp:]
            rels = cur.rels
            cap = R * ppp
            m = 0
            for idx in range(cur.rel_ptr,
                             min(len(rels), cur.rel_ptr + cap)):
                if rels[idx] + 1 > w2_sc[m % ppp] + (m // ppp + 1) * dT:
                    cap = m
                    break
                m += 1
            if cap // ppp < R:
                R = cap // ppp
            if _ff_veto('slots', k):
                return ff_abort('slots', k)
        if R < 2:
            return ff_abort('slots')
        # ---- apply: R periods in closed form ---------------------------
        # Only the *commit lattices* are materialised — the per-packet
        # stage/take cycles the train's bulk commit hands to the FIFOs —
        # and each as one int64 column (``S + k·ΔT`` by construction, so
        # never a Python list of boxed cycles). The ledgers the sweeps
        # validate against (session snapshots, release lists, the lanes'
        # supply and slot ledgers) are not extended: the jump ends the
        # train, nothing reads them again, and only the counters the
        # commit needs (release pairings) advance.
        e_tail0 = g0 + R * dE            # first element left in-chain
        dt_np = ls.chan.dtype.np_dtype
        values = ls.values
        total_p = R * ppp
        # One private copy of the whole surviving tail; each clone's
        # payload is a view into it (cheaper than per-packet np.array).
        tail_arr = np.array(values[e_tail0:e_ship0 + R * dE], dtype=dt_np)
        tail_pkts = [
            Packet(src=tmpl.src, dst=tmpl.dst, port=tmpl.port, op=tmpl.op,
                   count=epp, payload=tail_arr[k * epp:(k + 1) * epp],
                   dtype=tmpl.dtype)
            for k in range((e_ship0 + R * dE - e_tail0) // epp)]

        def pkt_run(e0):
            """The jump's packet appends for a list whose next append
            carries element ``e0``. Elements consumed inside the jump
            never have their payload read again (their queues drain
            within the span), so they share one template packet; the
            elements still in-chain at the end get real payload clones,
            shared across every list that holds them."""
            n_t = (e_tail0 - e0) // epp
            if n_t >= total_p:
                return [tmpl] * total_p
            if n_t <= 0:
                return tail_pkts[-n_t:total_p - n_t]
            return [tmpl] * n_t + tail_pkts[:total_p - n_t]

        shifts = (np.arange(1, R + 1, dtype=np.int64) * dT)[:, None]

        def ext_c(L):
            """Commit lattice ``L`` plus ``R`` Δ-shifted copies of its
            last period, as one int64 column."""
            n0 = len(L)
            col = np.empty(n0 + total_p, dtype=np.int64)
            col[:n0] = L
            np.add(col[n0 - ppp:n0], shifts,
                   out=col[n0:].reshape(R, ppp))
            return col

        # Sender lane: stages into the send endpoint.
        ls.pend_cycles = ext_c(ls.pend_cycles)
        ls.pend_pkts += pkt_run(e_ship0)
        # Each hop takes its input's run and stages the run shifted by
        # its own standing inventory, handing it to the next hop.
        e = e_ship0
        for sess, jc, _tpr, cur in hops:
            sess.take_cycles[jc] = tc = ext_c(sess.take_cycles[jc])
            if sess.arb.accept_hist is not None:
                # Opt-in arbiter instrumentation records every accept;
                # a relay's accepts are exactly its chain-input takes.
                sess.all_takes = tc.tolist()
            e -= epp * sess.avail[jc]
            cur.stage_cycles = ext_c(cur.stage_cycles)
            cur.stage_pkts += pkt_run(e)
        # Recv lane: takes the endpoint, payload straight to the caller.
        lr.take_cycles = ext_c(lr.take_cycles)
        lr.out[g0:g0 + R * dE] = np.asarray(values[g0:g0 + R * dE], dt_np)
        # Counters: R per-period deltas each, at every hop.
        for (sess, jc, _tpr, cur), rnd in zip(hops, rnds):
            sess.rounds += R * rnd
            sess.takes += R * ppp
            sess.T += R * dT
            sess.blocked_on = sess.starved_on = None
            cur.rel_ptr += total_p
            if cur.is_link:
                cur.next_free += R * dT
        ls.i += R * dE
        ls.cur += R * dT
        ls.claimed += total_p
        ls.chan._sent += R * dE
        ls.chan._packer._emitted += total_p
        if pend0:
            # The packer's partial-packet buffer must hold the elements
            # just before the advanced frontier, not the stale ones.
            ls.chan._packer._buf[:] = list(
                np.asarray(values[ls.i - pend0:ls.i], dt_np))
        lr.got += R * dE
        lr.cur += R * dT
        lr.chan._received += R * dE
        stats = origin.arb.planner_stats
        stats.ff_bulk_rounds += R * sum(rnds)
        stats.ff_jumps += 1
        stats.ff_chain_hops += len(hops)
        return True

    def ff_try():
        nonlocal ff_chains, ff_lists, ff_hist, ff_shape, ff_dead, \
            ff_armed, ff_miss
        shape = (len(order), len(lanes_used))
        if ff_chains is not None and shape != ff_shape:
            ff_chains = None  # a session or lane joined: chains staled
        if ff_chains is None:
            chains, refusal, permanent = ff_resolve()
            if chains is None:
                if permanent:
                    # Shape can never materialize: stop fingerprinting
                    # this train AND drop the program-wide probing taxes
                    # (chain closure, futility-backoff override).
                    ff_dead = True
                    ff_miss = None
                    planner.ff_disarmed = True
                    planner.ff_disarm_reason = refusal
                    stats = origin.arb.planner_stats
                    stats.ff_disarms += 1
                    stats.ff_disarm_reason = refusal
                    if engine.trace is not None:
                        engine.trace.emit(
                            engine.cycle, "disarm", "planner", "ff-disarm",
                            args={"reason": refusal})
                else:
                    ff_miss = ("unresolved", refusal)
                return False
            ff_shape = shape
            ff_armed = True
            ff_chains = chains
            ff_lists = [ff_track(c) for c in chains]
            ff_hist = [_FFHistory() for _ in chains]
        ff_miss = ("no-period", "")
        for chain, lists, hist in zip(ff_chains, ff_lists, ff_hist):
            det = hist.ff_detect(ff_checkpoint(chain, lists))
            if _ff_veto('no-period'):
                det = None
            if det is not None:
                ff_miss = ("no-period",
                           "candidate period is not a provable Δ-shift")
                if ff_apply(chain, lists, *det):
                    ff_miss = None
                    return True
        return False

    def ff_report_miss():
        """One ``abort`` event per train for the silent no-arm outcomes.

        A train that probed but neither landed a jump nor had a guard
        of ``ff_apply`` refuse one ended on ``unresolved`` (the
        ``ff_resolve`` precondition that failed) or ``no-period`` (the
        chains resolved, no two sweep boundaries bounded a period; the
        event carries the distinct per-sweep advances seen per cycle
        frontier — equal rates at unequal round sizes read as e.g.
        ``[32]`` beside ``[44]``). Counted in ``PlannerStats`` so
        ``planner_summary`` can say "probing, no period (k trains)".
        """
        guard, why = ff_miss
        reason = "no period" if guard == "no-period" else guard
        if why:
            reason = f"{reason} — {why}"
        stats = origin.arb.planner_stats
        stats.ff_misses += 1
        stats.ff_miss_reason = reason
        if engine.trace is not None:
            args = {"guard": guard, "hop": -1}
            if why:
                args["reason"] = why
            else:
                args["steps"] = [
                    sorted({b[1][i] - a[1][i]
                            for a, b in zip(h.cps, h.cps[1:])} - {0})
                    for h in ff_hist for i in range(len(h.cps[-1][1]))]
            engine.trace.emit(engine.cycle, "abort", "planner", "ff-abort",
                              args=args)
        return reason

    # ---- ping-pong: sweep sessions until no round makes progress.
    # A failed session goes quiet (``dirty = False``) until a peer's
    # validated round publishes supply or slots it depends on, so stuck
    # sessions cost nothing while the rest of the train advances. ------
    sweeps = 0
    progress = True
    while progress and sweeps < TRAIN_SWEEP_LIMIT:
        sweeps += 1
        progress = False
        for sess in order:
            if sess.done or not sess.dirty or \
                    sess.takes + sess.pattern.n_takes > max_takes:
                continue
            if validate_round(sess):
                progress = True
            else:
                sess.dirty = False
                if sess.blocked_on is not None:
                    try_join(planner.consumer_ck.get(id(sess.blocked_on)))
                    if macro_lanes is not None:
                        # No CK behind this FIFO: maybe a sleeping app
                        # pop_vec whose lane can free slots by taking.
                        lane = lane_of(sess.blocked_on)
                        if lane is not None and not lane.is_send:
                            ext = lane.extend()
                            if ext:
                                lane_extends += 1
                                for x in ext:
                                    publish_take(sess.blocked_on, x)
                                progress = True
                elif sess.starved_on is not None:
                    try_join(planner.producer_ck.get(id(sess.starved_on)))
                    if macro_lanes is not None:
                        # No CK behind this FIFO: maybe a sleeping app
                        # push_vec whose lane can stage more supply.
                        lane = lane_of(sess.starved_on)
                        if lane is not None and lane.is_send:
                            ext = lane.extend()
                            if ext:
                                lane_extends += 1
                                for pkt, s in ext:
                                    publish_stage(sess.starved_on, pkt, s)
                                progress = True
        if not ff_dead and not planner.ff_disarmed \
                and macro_lanes is not None \
                and max_takes == MACRO_MAX_TAKES:
            ff_probes += 1
            if ff_close_chain():
                progress = True  # new sessions need a sweep before ff
            elif ff_try():
                # A landed jump is the train's last act: it extrapolated
                # the commit lattices only (no ledger — snapshot, release
                # or lane supply list — was mirrored), so nothing may
                # validate against this train's virtual state again. The
                # bulk commit below lands the span; the steady state
                # re-arms from committed facts in the next train.
                planner.ff_futile = ff_probes = 0  # probing repaid
                break
    if ff_probes:
        planner.note_probing(
            ff_probes, len(order),
            ff_report_miss() if ff_miss is not None else "",
            origin.arb.planner_stats, engine)

    committed = [sess for sess in order if sess.rounds]
    if not committed:
        # No session proved a round, but lane extensions may already
        # have advanced the app channels (elements drained from a
        # sleeping push_vec, endpoint items claimed for a sleeping
        # pop_vec) to unblock the sweep. That work is real: commit it
        # physically (stages before takes, as below) or the stream
        # silently loses elements.
        for lane in lanes_used.values():
            if lane.is_send:
                lane.commit()
        for lane in lanes_used.values():
            if not lane.is_send:
                lane.commit()
        for lane in lanes_used.values():
            _wake_lane_kernel(engine, lane)
            lane.finish()
        if lane_extends:
            origin.arb.planner_stats.lane_extends += lane_extends
        return None
    # ---- bulk commit: all stages first (cross-session takes must find
    # their items), then all takes; each stage run under its CK's own
    # identity for the producer-set tripwire. Lane stages land between
    # the two phases (their consumers' takes must find them); lane takes
    # land after every session stage they consume is physical. ---------
    prev_proc = engine._current_proc
    try:
        for sess in committed:
            if sess.ck.proc is not None:
                engine._current_proc = sess.ck.proc
            for cur in sess.stage_cursors.values():
                if cur.stage_pkts:
                    cur.target.stage_burst(cur.stage_pkts, cur.stage_cycles,
                                           verify_occupancy=False)
                    cur.commit_pairings()
                    cur.stage_pkts = []
                    cur.stage_cycles = []
        for lane in lanes_used.values():
            if lane.is_send:
                lane.commit()
        for sess in committed:
            inputs = sess.arb.inputs
            for j in sess.pattern.inputs_used:
                tc = sess.take_cycles[j]
                if len(tc):
                    inputs[j].take_burst(tc, collect=False)
        for lane in lanes_used.values():
            if not lane.is_send:
                lane.commit()
    finally:
        engine._current_proc = prev_proc
    # ---- macro-cruise epilogue: persist lane slot pairings, firm-wake
    # each lane's sleeping kernel at its extended frontier, and account
    # the fast-forwarded span. ----------------------------------------
    if lanes_used:
        for lane in lanes_used.values():
            _wake_lane_kernel(engine, lane)
            lane.finish()
        stats = origin.arb.planner_stats
        stats.lane_extends += lane_extends
        if ff_armed:
            # Only count the train as a fast-forward window when the
            # chain resolver actually armed: un-armable programs ride
            # ordinary trains and must not inflate ff coverage.
            # The span is the longest per-session advance, not last
            # frontier minus first start: the frontiers of a chain are
            # skewed by its link latencies, and back-to-back jump trains
            # would count that skew once per train (coverage > 1).
            span = max(sess.T - sess.start for sess in committed)
            stats.ff_windows += 1
            stats.ff_cycles += span
            stats.ff_takes += sum(sess.takes for sess in committed)
            engine.note_fast_forward(span)
    # ---- per-session resume state, stats, and wakes --------------------
    origin_res = None
    for sess in committed:
        arb = sess.arb
        pattern = sess.pattern
        inputs = sess.arb.inputs
        sources = [inputs[j] for j in pattern.inputs_used
                   if len(sess.take_cycles[j])]
        targets = [cur.fifo for cur in sess.stage_cursors.values()]
        res = PlanResult(sess.T, pattern.idx0, pattern.reads0, sess.takes,
                         sources, targets, sess.blocked_on,
                         sess.starved_on)
        if res.end - sess.start != sess.rounds * pattern.delta:
            # Checked prediction: a train's span is Δ per round in closed
            # form; any deviation means a committed round was not the
            # exact Δ-shift the proof assumed. Fail loudly, never commit
            # a resume state the arithmetic cannot vouch for.
            raise RuntimeError(
                f"replication train span mismatch on {sess.ck!r}: "
                f"committed {res.end - sess.start} cycles over "
                f"{sess.rounds} round(s) of Δ={pattern.delta}")
        if engine.trace is not None:
            track = sess.ck.proc.name if sess.ck.proc is not None \
                else "planner"
            engine.trace.emit(
                sess.start, "span", track, "train",
                dur=res.end - sess.start,
                args={"rounds": sess.rounds, "takes": sess.takes})
        arb.packets_accepted += sess.takes
        hist = arb.accept_hist
        if hist is not None:
            for cyc in sess.all_takes:
                hist.record(cyc)
        stats = arb.planner_stats
        stats.replications += 1
        stats.replicated_rounds += sess.rounds
        stats.window_cycles += res.end - sess.start
        stats.takes += sess.takes
        planner._note_train(arb, sess.rounds)
        arb._idx = res.idx
        arb._resume_reads = res.resume_reads
        arb._plan_until = res.end
        arb._blocked_on = res.blocked_on
        arb._starved_on = res.starved_on
        arb._pattern_end = res.end  # the pattern stays live past the train
        if sess is origin:
            origin_res = res
        else:
            stats.pattern_checks += 1  # a train visit counts as a check
            arb._plan_miss = 0
            arb._plan_skip = 0
            proc = sess.ck.proc
            if sess.ck is not planner._cascade_origin \
                    and proc._waiting_on is None \
                    and res.end > proc._scheduled_for:
                # Skip the intermediate wake at the old window end, like
                # a co-plan would. The cascade origin needs no preempt:
                # it is inside its own planner call and re-reads
                # ``_plan_until`` the moment control returns.
                engine.preempt(proc, res.end)
            planner._extra_results.append(res)
    # Every session is stuck by construction when the sweep loop ends;
    # only a plan_window commit can change that within this cascade.
    stuck = planner._train_stuck
    for sess in order:
        stuck.add(id(sess.ck))
    if _train_debug is not None:
        _train_debug(order)
    return origin_res


def _wake_lane_kernel(engine, lane) -> None:
    """Firm-wake a lane's kernel at the frontier the train extended it to.

    A kernel sleeping off its own plan is moved to the later frontier. A
    ``pop_vec`` blocked on its empty endpoint is normally woken by the
    next item turning visible — unless the train consumed the rest of
    its message, after which no item is coming: per-flit it returns at
    the frontier, so it is woken there.
    """
    proc = lane.proc
    end = lane.proc_end
    if proc is None or end is None or proc.finished:
        return
    if proc._waiting_on is None:
        if end > proc._scheduled_for:
            engine.preempt(proc, end)
    elif not lane.is_send and lane.got >= lane.n:
        engine.preempt(proc, end)


class SupplyPlanner:
    """Cascaded co-planning across CK boundaries (one per transport).

    The transport builder wires the producer/consumer CK of every transit
    FIFO and link (:meth:`wire`); :meth:`plan` then plans the initiating
    CK's window and cascades: every committed window's targets name
    downstream CKs whose supply just grew, every window's sources name
    upstream CKs whose backpressure just eased, and each of those — if
    parked or sleeping a planned window — gets its next window planned in
    the same engine event, until the worklist drains or the budget runs
    out. A standalone CK (unit tests) uses an instance with empty maps,
    which degrades to exactly the single-CK planner.

    **Steady-state pattern replication.** Every committed window carries
    a decision trace (dropped only while the futility backoff below has
    quiesced the CK);
    :meth:`_observe` compares consecutive, contiguous windows of each CK
    and compiles a :class:`WindowPattern` when two of them are exact
    Δ-shifted copies with identical arbiter boundary state. From then on
    every planning opportunity for that CK — its own event, a cascade
    extension, a co-plan — first tries :func:`replicate_window`, which
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
    ``macro=False`` is the burst plane without any of it; a program on
    which the fast-forward proves futile drops to exactly that
    (:meth:`note_probing`).
    """

    cascade_budget = CASCADE_BUDGET

    #: Futility backoff: a train committing fewer than REP_GOOD_ROUNDS
    #: rounds saved nothing over the window planner (the per-event
    #: information quantum was the bound, not planning speed); after
    #: REP_MISS_LIMIT such trains the CK skips replication — and the
    #: whole trace/signature tax — for a doubling number of planning
    #: opportunities, up to REP_SKIP_MAX. Catch-up regimes (accumulated
    #: link inventories, post-stall drains) commit multi-round trains,
    #: which reset the backoff immediately.
    REP_GOOD_ROUNDS = 2
    REP_MISS_LIMIT = 2
    REP_SKIP_MAX = 4096

    def __init__(self, macro: bool = False) -> None:
        self.consumer_ck: dict[int, object] = {}  # id(fifo) -> reading CK
        self.producer_ck: dict[int, object] = {}  # id(fifo) -> writing CK
        self.macro = macro
        #: id(app endpoint FIFO) -> live channel lane (see
        #: :class:`repro.core.channel._SendLane` / ``_RecvLane``); a lane
        #: registers for the duration of one sleeping vector burst.
        self.app_lanes: dict[int, object] = {}
        #: Plane registry for the global cruise condition: every support
        #: kernel the builder wired (CK planes prove themselves per
        #: resource inside the train; app planes prove via their lanes).
        self.support_planes: list = []
        #: id(fifo) of every transit FIFO (CK-internal hand-offs, link
        #: FIFOs, cross-shard boundaries): the fast-forward chain
        #: resolver walks *through* these and must terminate only on app
        #: endpoint FIFOs, never on an interior relay hop.
        self.relay_fifos: set[int] = set()
        #: id(fifo) of every cross-shard boundary link FIFO: its consumer
        #: CK lives in another shard's planner, so a chain walk reaching
        #: one can never terminate on a recv lane — a *permanent* resolve
        #: refusal (the builder registers these so sharded planes drop
        #: the macro probe tax on the first attempt instead of
        #: re-fingerprinting every sweep).
        self.boundary_fifos: set[int] = set()
        #: Permanent macro no-arm: set when the chain resolver refuses a
        #: train for a reason no later sweep can heal (pattern shapes are
        #: fixed — wrong input/target counts, overlapping chains). From
        #: then on the program drops every macro-only tax: no chain
        #: closure, no checkpoint fingerprinting, and the replication
        #: futility backoff behaves exactly as with macro off.
        self.ff_disarmed = False
        #: Why: the resolver's permanent-refusal reason string ("" until
        #: disarmed) — surfaced by ``reporting.planner_summary`` so a
        #: disarmed run reads "permanently refused (<reason>)" instead
        #: of a silent row of zero ff counters.
        self.ff_disarm_reason = ""
        #: Measured futility (see :meth:`note_probing`): sweeps probed
        #: since the last landed jump, and the largest train seen.
        self.ff_futile = 0
        self.ff_sessions = 0
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
    # Macro-cruise plane registry
    # ------------------------------------------------------------------
    def register_lane(self, fifo, lane) -> None:
        """Attach a channel lane to its app endpoint for this burst."""
        self.app_lanes[id(fifo)] = lane

    def unregister_lane(self, fifo, lane) -> None:
        """Detach ``lane`` (no-op if another burst already replaced it)."""
        if self.app_lanes.get(id(fifo)) is lane:
            del self.app_lanes[id(fifo)]

    def macro_take_budget(self) -> int:
        """Per-train take budget under the global cruise condition.

        The raised :data:`MACRO_MAX_TAKES` budget applies only when every
        plane outside the train's own proof obligations is covered: app
        kernels by registered lanes (checked per resource at extension
        time) and every support plane provably silent (finished, or never
        started). Any unproven plane keeps the ordinary budget — the
        macro fast-forward degrades to ordinary trains, never guesses.
        """
        if not (self.macro and self.app_lanes):
            return PLAN_MAX_TAKES
        for plane in self.support_planes:
            proc = getattr(plane, "proc", plane)
            if proc is not None and not proc.finished:
                return PLAN_MAX_TAKES
        return MACRO_MAX_TAKES

    def note_probing(self, sweeps: int, sessions: int, why: str,
                     stats, engine) -> None:
        """Account one train's fast-forward probing; give up when futile.

        ``sweeps`` is the number of sweeps a train spent probing (chain
        closure, resolution, fingerprinting) without landing a jump; a
        landed jump clears the account. Probing is a tax — traces
        and replication attempts held on through the futility backoff,
        whole pipelines pulled into every train — that only a landed
        jump repays, so it ends on *measured* futility: once the sweeps
        probed since the last jump exceed one full detector history
        (``FF_KEEP``) per session of the largest train seen, the
        program is a plain burst-plane program from here on
        (``macro`` off: no lanes, no closure, no override — exactly the
        code path of ``macro_cruise=False``). Growing trains raise the
        allowance, so a long pipeline gets the sweeps its fill takes;
        trains that neither land a jump nor grow exhaust it. The
        verdict is reported like a resolver refusal (``disarm`` event,
        ``ff_disarm_reason``) with the last no-arm outcome attached.
        """
        if sessions > self.ff_sessions:
            self.ff_sessions = sessions
        self.ff_futile += sweeps
        if self.ff_futile <= FF_KEEP * self.ff_sessions:
            return
        self.macro = False
        self.ff_disarmed = True
        self.ff_disarm_reason = reason = (
            f"gave up after {self.ff_futile} probing sweeps"
            + (f" ({why})" if why else ""))
        stats.ff_disarms += 1
        stats.ff_disarm_reason = reason
        if engine.trace is not None:
            engine.trace.emit(engine.cycle, "disarm", "planner",
                              "ff-disarm", args={"reason": reason})

    def reset_backoff(self) -> None:
        """Reset futility backoff on every wired CK.

        The builder calls this once the plane is wired, making "a newly
        wired plane starts from the initial backoff state" an enforced
        invariant rather than an accident of construction order. With
        ``build_transport``'s always-fresh arbiters the call is a
        formality; it matters for wiring paths that attach established
        CKs to a planner (hand-wired ``SOLO_PLANNER`` setups, in-place
        rewiring), whose escalated skip lengths say nothing about the
        new plane.
        """
        seen: set[int] = set()
        for cks in (self.producer_ck, self.consumer_ck):
            for peer in cks.values():
                if id(peer) not in seen:
                    seen.add(id(peer))
                    peer.arbiter.reset_backoff()

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
        memo: dict = {}
        cursors: dict = {}
        arb = ck.arbiter
        stats = arb.planner_stats
        start = engine.cycle + skip
        self._cascade_origin = ck
        self._train_stuck.clear()
        # Peer-session results only matter to this event's cascade; a
        # previous event that planned nothing must not leak its trains'
        # results into ours.
        self._extra_results.clear()
        try:
            rep = self._try_replicate(ck, engine, start, resume_reads,
                                      arb._idx, memo, cursors)
            if rep is not None:
                self._cascade(ck, engine, rep, memo, cursors)
                return True
            stats.attempts += 1
            self._stamp += 1
            res = plan_window(ck, engine, start, resume_reads, memo=memo,
                              cursors=cursors, stamp=self._stamp,
                              trace=not arb._rep_skip
                              or self._macro_probing())
            if res is None:
                return None
            self._commit(arb, res, start, "window", arb._idx, resume_reads)
            self._cascade(ck, engine, res, memo, cursors)
            return True
        finally:
            self._cascade_origin = None

    def _commit(self, arb, res, start, kind, sidx, sreads) -> None:
        arb._idx = res.idx
        arb._resume_reads = res.resume_reads
        arb._plan_until = res.end
        arb._blocked_on = res.blocked_on
        arb._starved_on = res.starved_on
        stats = arb.planner_stats
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
            if stats.attempts:
                trace.sample("planner/hit_rate", res.end,
                             round(stats.windows / stats.attempts, 4))
        self._train_stuck.clear()  # new supply/slots: trains may move
        if res.trace is not None or arb._pattern is not None \
                or arb._pattern_hist:
            self._observe(arb, res, start, sidx, sreads)
        else:
            # Quiesced (futility backoff): untraced window, no live
            # pattern, empty history — just track the frontier.
            arb._pattern_end = res.end

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

    def _macro_probing(self) -> bool:
        """True while the macro fast-forward may still arm this program.

        The futility backoff quiesces CKs whose trains commit too few
        rounds — untraced windows, no replication attempts — which is
        exactly what starves a relay chain's interior hops of the
        confirmed patterns the chain resolver needs (their per-CK trains
        are short while the whole chain is still filling). While
        probing, traces and replication attempts stay on for every CK.
        The override ends with the probing itself: on the first
        permanent resolve refusal (``ff_disarmed``), or when
        :meth:`note_probing` measures it futile and turns ``macro`` off.
        """
        return self.macro and not self.ff_disarmed

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
        if arb._rep_skip and not self._macro_probing():
            arb._rep_skip -= 1
            return None
        pat = arb._pattern
        if pat is None or start != arb._pattern_end \
                or arb._pattern_phase != 0 \
                or reads != pat.reads0 or idx != pat.idx0 \
                or id(ck) in self._train_stuck:
            return None
        arb.planner_stats.pattern_checks += 1
        self._stamp += 1
        res = replicate_train(self, ck, engine, start, memo, cursors,
                              self._stamp)
        if res is None:
            self._note_train(arb, 0)
        return res

    def _note_train(self, arb, rounds) -> None:
        """Update the futility backoff after a train (or failed attempt)."""
        if rounds >= self.REP_GOOD_ROUNDS:
            arb._rep_miss = 0
            arb._rep_skip_len = arb.REP_SKIP_POLLS
            return
        arb._rep_miss += 1
        if arb._rep_miss >= self.REP_MISS_LIMIT:
            arb._rep_miss = 0
            arb._rep_skip = arb._rep_skip_len
            if arb._rep_skip_len < self.REP_SKIP_MAX:
                arb._rep_skip_len *= 2

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
        start = arb._plan_until
        sidx = arb._idx
        sreads = arb._resume_reads
        rep = self._try_replicate(ck, engine, start, sreads, sidx,
                                  memo, cursors)
        if rep is not None:
            return rep
        self._stamp += 1
        res = plan_window(ck, engine, start, sreads, memo=memo,
                          cursors=cursors, stamp=self._stamp,
                          trace=not arb._rep_skip or self._macro_probing())
        if res is None:
            return None
        self._commit(arb, res, start, "extension", sidx, sreads)
        return res

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
            start = arb._plan_until
            sidx = arb._idx
            sreads = arb._resume_reads
            res = self._try_replicate(peer, engine, start, sreads,
                                      sidx, memo, cursors)
            if res is None:
                self._stamp += 1
                res = plan_window(peer, engine, start, sreads, memo=memo,
                                  cursors=cursors, stamp=self._stamp,
                                  trace=not arb._rep_skip
                                  or self._macro_probing())
                if res is None:
                    return None
                self._commit(arb, res, start, "coplan", sidx, sreads)
            arb._plan_miss = 0
            arb._plan_skip = 0
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
        self._stamp += 1
        res = plan_window(peer, engine, start, -1, idx=idx, memo=memo,
                          cursors=cursors, stamp=self._stamp,
                          trace=not arb._rep_skip or self._macro_probing())
        if res is None or not res.takes:
            return None
        self._commit(arb, res, start, "coplan", idx, -1)
        arb._plan_miss = 0
        arb._plan_skip = 0
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


#: Default planner for CKs built outside the transport builder (unit
#: tests, ad-hoc wiring): no cascade peers, pure single-CK planning.
SOLO_PLANNER = SupplyPlanner()
