"""Plan window: one CK's polling loop simulated over the known future.

First stage of the planner pipeline (:mod:`repro.transport.planner` has
the SupplySchedule contract). :func:`plan_window` consumes supply
schedules to simulate one CK's polling loop forward over the known
future only, committing every take/stage with the exact per-flit cycles
(R-round budgets, scan charges, parked gaps, link pacing) and stopping
at the first decision that depends on information not yet in the
simulation. A committed window carries a decision trace; windows that
repeat Δ-shifted exactly compile into a :class:`WindowPattern`, the
straight-line form :mod:`repro.transport.planner_train` verifies instead
of searching.

**App lanes.** Under macro-cruise a window does not stop at an app
endpoint's capacity while the kernel behind it sleeps a vector burst: a
drained send endpoint asks its ``push_vec`` lane for the stages the
window's own takes make room for (:func:`_refill`), a full receive
endpoint asks its ``pop_vec`` lane for the takes the window's own
stages feed (:func:`_extend_recv_lane`) — the publication a train makes
through ``_Train.extend_lane``. Cut at the capacity instead, a window
would end on a round the endpoint sets (22 packets at ``NOCTUA``), not
the link's (16), and the chain's period would be their hyperperiod. The
lanes commit with the window: their stages before its takes, their
takes after its stages, then each kernel gets a firm wake at its new
frontier (:func:`_land_lanes`).

**This module owns** :class:`_TargetCursor` (the slot budget of one
routing target, shared by every plan call of a cascade),
:class:`PlanResult`, :func:`plan_window`, :class:`WindowPattern` and its
compiler, and the landing of the app lanes a window extends (shared
with the train's commit). **It reads** each input's
``present_schedule`` / ``supply_horizon`` (cut at
:data:`PLAN_SNAPSHOT`), each target's ``slot_plan`` and link pacing, the
CK's routing memo and polling pointer, the endpoints' registered lanes.
**It may mutate** the FIFOs it takes from and stages into (one burst per
FIFO, under the planned CK's process identity), ``Fifo._reserved_paired``
(:meth:`_TargetCursor.commit`), the cascade's cursors, the lanes it
extends and their kernels' wakes — never the arbiter: the caller commits
the returned :class:`PlanResult`.
"""

from __future__ import annotations

from ..core.errors import RoutingError
from ..simulation.engine import FOREVER

#: Safety bound on planned takes per window (keeps commit lists small).
PLAN_MAX_TAKES = 2048

#: Snapshot depth per input per plan. Deeper queues (the link FIFOs hold a
#: full bandwidth-delay product) are cut here; the planner treats the cut
#: as an unknown-future boundary, which is always sound — and the cascade
#: re-snapshots on every extension, so truncation only bounds one pass.
PLAN_SNAPSHOT = 16


class _TargetCursor:
    """Planning-time view of one routing target's future slot schedule.

    The target is one FIFO — a link is a FIFO whose ``pace`` is non-zero
    (:func:`~repro.network.link.Link`), and the cursor reads its line
    pacing from it. ``free``/``rels``/``rel_ptr``/``next_free`` mirror the
    stall model of the per-flit loop (``PollingArbiter.run``): a
    currently-free slot stages as soon as line pacing allows; a slot
    reserved by the consumer's own burst takes stages the cycle after it
    releases (the cycle a producer blocked on ``can_push`` would wake);
    with neither, the per-flit path would block open-endedly, so the plan
    must stop. The planner mirrors these fields into locals inside its hot
    loop and flushes them back on target switches.

    Cursors live for one cascade (one engine event) and are shared by all
    of its plan calls: a later extension must not re-pair a reserved slot
    release the first plan already staged against. :meth:`refresh` re-reads
    the slot schedule at the start of a later call — the committed stages
    are netted out of ``free`` by ``slot_plan`` itself, and ``rel_ptr``
    stays valid because within one event the pending-release list only ever
    grows at the tail (the wall clock does not move, so no release expires).
    """

    __slots__ = ("fifo", "free", "rels", "rel_ptr", "rel_base",
                 "next_free", "pace", "stage_cycles", "stage_pkts", "stamp")

    def __init__(self, fifo, now: int, stamp: int) -> None:
        self.fifo = fifo
        self.free, self.rels = fifo.slot_plan(now)
        self.rel_ptr = 0
        self.rel_base = fifo._reserved_paired
        self.next_free = fifo.next_free
        self.pace = fifo.pace
        self.stage_cycles: list[int] = []
        self.stage_pkts: list = []
        self.stamp = stamp  # plan-call counter of the last refresh

    def refresh(self, now: int) -> None:
        """Re-read committed slot state (later plan call, or rollback).

        All pairings so far are committed (:meth:`commit` ran) or
        being discarded, so the re-read release list starts exactly past
        the committed ones: re-base the pointer. ``next_free`` likewise
        returns to the FIFO's committed pacing state — after a commit the
        two agree, and after a declined window the cursor's speculative
        advance must be dropped.
        """
        fifo = self.fifo
        self.free, self.rels = fifo.slot_plan(now)
        self.rel_base = fifo._reserved_paired
        self.rel_ptr = 0
        self.next_free = fifo.next_free

    def commit(self) -> None:
        """Land the pending stage run and persist how many releases it
        consumed, so plans in later engine events do not hand the same
        slot out twice. The cursor outlives the call (shared per
        cascade): it hands off the committed run and starts a fresh one.
        """
        self.fifo.stage_burst(self.stage_pkts, self.stage_cycles,
                              verify_occupancy=False)
        self.fifo._reserved_paired = self.rel_base + self.rel_ptr
        self.stage_pkts = []
        self.stage_cycles = []


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
        self.targets = targets            # FIFOs staged into
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


def _lane(fifo, is_send, now, lanes):
    """The extendable app lane of kind ``is_send`` on endpoint ``fifo``,
    opened on its first use by this window, or ``None``.

    ``lanes`` maps each such lane to the entries fed to it so far: the
    window's takes from a send endpoint, or its stages into a receive
    endpoint, published to the lane as it goes (see :func:`plan_window`).
    """
    host = fifo.macro_host
    if host is None:
        return None
    lane = host.app_lanes.get(id(fifo))
    if lane is None or lane.is_send is not is_send or not lane.extendable():
        return None
    if lane not in lanes:
        lane.begin(now)
        lanes[lane] = 0
    return lane


def _refill(j, inputs, pkts_l, rdy_l, hz_l, takes, now, lanes):
    """Drained input ``j`` of a window: append to its snapshot what a
    sleeping ``push_vec`` on it would stage next — its plan against the
    slots the window's takes from ``j`` free. True when the snapshot
    grew (never past a truncated one)."""
    if hz_l[j] == _TRUNCATED:
        return False
    lane = _lane(inputs[j], True, now, lanes)
    if lane is None:
        return False
    tk = takes[j]
    if tk:
        lane.add_releases(tk[lanes[lane]:])
        lanes[lane] = len(tk)
    ext = lane.extend()
    if not ext:
        return False
    pkts, cycles = ext
    if not isinstance(pkts_l[j], list):  # the empty snapshot's ()
        pkts_l[j], rdy_l[j] = [], []
    lat = inputs[j].latency
    pkts_l[j].extend(pkts)
    rdy_l[j].extend(s + lat for s in cycles)
    return True


def _extend_recv_lane(fifo, cur, now, lanes):
    """Take cycles a sleeping ``pop_vec`` on app receive endpoint
    ``fifo`` would make next, or ``()``: its take plan over the committed
    items, then the window's stages into ``fifo`` through cursor ``cur``
    with their exact visibility cycles."""
    lane = _lane(fifo, False, now, lanes)
    if lane is None:
        return ()
    fed = lanes[lane]
    lat = fifo.latency
    lane.add_supply(cur.stage_pkts[fed:],
                    [s + lat for s in cur.stage_cycles[fed:]])
    lanes[lane] = len(cur.stage_pkts)
    return lane.extend()


def _land_lanes(engine, lanes) -> None:
    """Land the app lanes a window or a train extended, after its own
    stages and takes: what each still holds (a receive lane's takes; a
    send lane's stages, unless they landed before those takes), then a
    firm wake of each kernel at its new frontier. Closing a send lane
    pairs the releases it claimed, which those takes put in place."""
    for lane in lanes:
        lane.commit()
        _wake_lane_kernel(engine, lane)
        lane.finish()


def _wake_lane_kernel(engine, lane) -> None:
    """Firm-wake a lane's kernel at the frontier a plan extended it to.

    A kernel sleeping off its own plan is moved to the later frontier. A
    ``pop_vec`` blocked on its empty endpoint is woken there too: the
    items the lane took never turn visible to it, and the next one —
    if any is coming — is not visible before the frontier, where the
    kernel re-reads the lane and parks again on an empty endpoint.
    """
    proc = lane.proc
    end = lane.cur  # the lane's pacing frontier
    if proc is None or end is None or proc.finished:
        return
    if proc._waiting_on is None:
        if end > proc._scheduled_for:
            engine.preempt(proc, end)
    elif not lane.is_send:
        engine.preempt(proc, end)


def plan_window(ck, engine, start, resume_reads, idx=None, memo=None,
                cursors=None, stamp=0):
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

    A committed window that moved packets carries a decision trace on
    ``PlanResult.trace`` for the pattern detector: ``ops`` — one
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
    Under macro-cruise a window runs through app endpoints whose kernel
    sleeps a vector burst (module docstring, "App lanes").
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
    trace_tgts: list = []
    trace_obs: list = []
    lanes: dict = {}  # app lane -> entries fed (see _lane)
    snap = (inputs, pkts_l, rdy_l, hz_l, takes, now, lanes)  # for _refill

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
    t_rels = t_sc = t_sp = ()

    while not ended and total < PLAN_MAX_TAKES:
        P = pkts_l[idx]
        if P is None:
            P = _snap_input(inputs[idx], pkts_l, rdy_l, hz_l, idx, now)
        R = rdy_l[idx]
        p = ptr[idx]
        k = len(P)
        # ---- FRESH readability check / R-round over input idx ----------
        if p >= k and _refill(idx, *snap):
            P = pkts_l[idx]
            R = rdy_l[idx]
            k = len(P)
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
                if p >= k and _refill(idx, *snap):
                    P = pkts_l[idx]
                    R = rdy_l[idx]
                    k = len(P)
                if p >= k:
                    if starved(idx, c):
                        ended = True  # unknown readability: stop in ROUND
                        starved_on = inputs[idx]
                    else:
                        # Round ended on a provably silent drained input:
                        # a replica must re-prove the silence here.
                        trace_obs.append((c, idx, False))
                    break
                if R[p] > c:
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
                    t_sc = t_cur.stage_cycles
                    t_sp = t_cur.stage_pkts
                # Earliest per-flit stage cycle (see _TargetCursor).
                s = t_nf if t_nf > c else c
                if t_free > 0:
                    t_free -= 1
                else:
                    if t_rp == len(t_rels):
                        # Out of known releases: an app receive lane may
                        # still publish its next takes.
                        t_rels.extend(_extend_recv_lane(t_cur.fifo, t_cur,
                                                        now, lanes))
                    if t_rp == len(t_rels):
                        ended = True  # unknown backpressure: stop before take
                        blocked_on = t_cur.fifo
                        break
                    floor = t_rels[t_rp] + 1
                    t_rp += 1
                    if floor > s:
                        s = floor
                if t_pace:
                    t_nf = s + t_pace
                tk.append(c)
                t_sc.append(s)
                t_sp.append(pkt)
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
            if pj >= len(Pj) and _refill(j, *snap):
                Pj = pkts_l[j]
            if pj < len(Pj):
                rdy = rdy_l[j][pj]
                if rdy <= c:
                    any_r = True
                    trace_obs.append((c, j, True))
                    break
                if wake is None or rdy < wake:
                    wake = rdy
                trace_obs.append((c, j, False))
            elif starved(j, c):
                ended = True  # cannot even decide "anything readable?"
                starved_on = inputs[j]
                break
            else:
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
        # A park's wake is a *race* on future visibility: it lands at
        # ``wake`` exactly because no input shows anything earlier
        # (strictly: known heads at or after ``wake``, drained inputs
        # silent through ``wake`` inclusive — a tie from an unknown
        # arrival could shorten the scan). Record the race so a replica
        # re-proves it at the shifted cycles: known heads unreadable at
        # ``wake - 1``, drained inputs unreadable at ``wake`` itself.
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
                    # The wake-up scan's stop input: readable at wake.
                    trace_obs.append((wake, idx, True))
                    break
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
        # A send lane extended here was fed committed slots only: its
        # stages stand without the window.
        _land_lanes(engine, lanes)
        return None
    if total <= 1 and c - start < 8 and not lanes:
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
    if total:
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
            ops.append((tc, i, cur.stage_cycles[pi], cur.fifo))
            sc_ptr[ci] = pi + 1
        trace_out = (ops, trace_obs)
    # Commit under the planned CK's identity: a cascade runs inside a
    # *peer's* engine event, but the logical stager of these packets (for
    # the producer-set tripwire) is this CK's own process.
    prev_proc = engine._current_proc
    if ck.proc is not None:
        engine._current_proc = ck.proc
    try:
        for lane in lanes:
            if lane.is_send:
                lane.commit()  # the stages our takes find
        sources = []
        for i in range(n):
            if takes[i]:
                inputs[i].take_burst(takes[i])
                sources.append(inputs[i])
        targets = []
        for cur in cursors.values():
            if cur.stage_pkts:
                cur.commit()
                targets.append(cur.fifo)
    finally:
        engine._current_proc = prev_proc
    _land_lanes(engine, lanes)
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

    Replication (:func:`~repro.transport.planner_train.replicate_train`)
    replays rounds of this list against *live* committed state only —
    real present items, real slot schedules, real horizons — so a
    committed train is cycle-exact by the same argument as
    :func:`plan_window`; the pattern merely replaces the polling-loop
    search with a straight-line verification.
    """

    __slots__ = ("delta", "idx0", "reads0", "events", "n_takes",
                 "inputs_used", "takes_per_input", "target_fifos", "sigs",
                 "rotations")

    def __init__(self, delta, idx0, reads0, ops_rel, obs_rel,
                 sigs=()) -> None:
        self.sigs = sigs  # the window signatures one round cycles through
        self.rotations: dict = {}  # phase -> this round begun there
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
            if tgt not in tfifos:
                tfifos.append(tgt)
        self.target_fifos = tuple(tfifos)

    def at_phase(self, phase):
        """The round begun at window ``phase`` of its cycle: the same
        windows rotated, so a CK that stopped between two windows of a
        round replicates from where it stopped. Its boundary state is
        that window's start state, and a whole number of its rounds
        leaves the CK at the same phase."""
        if phase == 0:
            return self
        pat = self.rotations.get(phase)
        if pat is None:
            sigs = self.sigs
            pat = self.rotations[phase] = _compile_pattern(
                [(sig, None) for sig in sigs[phase:] + sigs[:phase]])
        return pat


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
