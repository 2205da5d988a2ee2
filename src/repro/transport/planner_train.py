"""Train: verify confirmed window patterns in bulk along a pipeline.

Middle stage of the planner pipeline. When a CK's recent windows turn
out to be exact Δ-shifted repeats of each other, the compiled
:class:`~repro.transport.planner_window.WindowPattern` replaces the
planning *search* with straight-line *verification*:
:func:`replicate_train` replays pattern rounds against live committed
state, ping-pongs sessions across producer/consumer CKs (validated
stages become the next hop's virtual supply, validated takes the
previous hop's virtual slot releases) and bulk-commits whole trains
with one ``take_burst``/``stage_burst`` pair per FIFO — plus, for a
proven jump, one ``shift`` — and one firm wake per sleeping peer.
Two sessions whose rounds each need the other's same round (a FIFO
between them shallower than one round) validate those rounds as one
event stream (:meth:`_Train.validate_coupled`). Everything is re-proved
from committed facts, so cycle-exactness holds by the same argument as
``plan_window``; any deviation ends the train at the last valid round
and planning resumes.

**This module owns** :class:`_ReplicaSession` (one CK's validated
rounds), :class:`_Train` (one train's sessions, their virtual supply /
slot exchange, the app lanes joined to it), :func:`replicate_train` and
the bulk commit with its wakes; a train lives for one call. **It reads**
each session input's ``iter_present`` / ``present_count`` /
``supply_horizon``, the cascade's cursors, the CKs' routing memos, the
arbiters' pattern fields, the planner's wiring maps and app lanes. **It
may mutate**, while sweeping, only cursor budgets (written once a round
validates) and the joined lanes' train-scoped ledgers; at commit the
FIFOs, ``Fifo._reserved_paired``, each session arbiter's resume state
and ``_plan_paid`` flag, the planner's ``stats`` / ``_train_stuck`` /
``_extra_results`` and the engine's wake schedule.
"""

from __future__ import annotations

from ..core.errors import RoutingError
from .planner_ff import _FastForward, ff_close_chain, ff_silent
from .planner_window import (PlanResult, _land_lanes, _silent_hz,
                             _TargetCursor)

#: Safety bound on validated takes per session per train. Trains are
#: re-proved round by round from committed facts, so nothing outside the
#: train's own proofs needs the bound to be small; with registered app
#: lanes extending both stream ends inside the train, a train may
#: validate a message's whole steady state in one event.
MACRO_MAX_TAKES = 1 << 22


class _ReplicaSession:
    """Per-CK state of one replication train (see :func:`replicate_train`).

    Holds the CK's full input inventory snapshot (extended in place as
    peer sessions publish their tentative stages), the validated-round
    accumulators, and the per-input take cycles — everything needed to
    bulk-commit the session at train end. ``done`` marks a session whose
    last failure was a *shape divergence* (routing change, a stall
    landing off-pattern early, a silence observation broken by an
    already-visible item): no amount of further train progress can
    un-fail those, unlike slot or supply exhaustion.
    """

    __slots__ = ("ck", "arb", "pattern", "start", "T", "snap_items",
                 "snap_ready", "snap_iter", "ptr", "avail", "take_cycles",
                 "rounds", "takes", "blocked_on", "starved_on",
                 "hz_cache", "stage_cursors", "done", "dirty", "last_fail",
                 "frontier", "pending", "sent")

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
        self.rounds = 0
        self.takes = 0
        self.blocked_on = None
        self.starved_on = None
        self.hz_cache: dict = {}
        self.stage_cursors: dict = {}  # id(cursor) -> cursor (this CK's)
        self.done = False
        self.dirty = True       # something changed since the last failure
        self.last_fail = None   # (event, X, detail) of the last failure
        self.frontier = start   # no unpublished stage of a joint round earlier
        self.pending = None     # a validated round's state, until it lands
        self.sent: dict = {}    # id(fifo) -> entries a joint round published

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

    def extend_supply(self, j, pkts, ready) -> None:
        """Append a run of stages published into input ``j`` as virtual
        supply: ``pkts[i]`` visible at ``ready[i]``."""
        items = self.snap_items[j]
        rdy = self.snap_ready[j]
        it = self.snap_iter[j]
        if it is not None:
            # FIFO order: every committed item precedes the train's
            # stages, so the lazy iterator must drain first.
            for item, r in it:
                items.append(item)
                rdy.append(r)
            self.snap_iter[j] = None
        items.extend(pkts)
        rdy.extend(ready)
        self.avail[j] += len(pkts)


#: Safety bound on coordinator sweeps per train (each sweep advances at
#: least one session by one round, so real trains end far earlier).
TRAIN_SWEEP_LIMIT = 4096

#: The failures of a session that ran out of items on an input.
_STARVED = ('precheck', 'take-starved', 'witness-missing')

#: Optional diagnostics hook: a callable invoked once per finished train
#: with the committed :class:`_Train` (tests and ad-hoc profiling; None
#: in production).
_train_debug = None


class _Train:
    """One replication train: its sessions, the virtual supply / slot
    ledgers they exchange, and the app lanes joined so far (see
    :func:`replicate_train`). ``sweep`` validates, ``commit`` lands."""

    __slots__ = ("planner", "engine", "memo", "cursors", "stamp", "now",
                 "macro_lanes", "lanes_used",
                 "origin", "sessions", "order", "feeds", "stager", "v_rels",
                 "v_items", "cursor_fifo", "ff", "closure_stale", "joint",
                 "joint_fail", "pairs")

    def __init__(self, planner, ck, engine, start, memo, cursors,
                 stamp) -> None:
        self.planner = planner
        self.engine = engine
        self.memo = memo
        self.cursors = cursors
        self.stamp = stamp
        self.now = now = engine.cycle
        # Macro-cruise: app-side channel lanes this train may extend (the
        # live registry — the burst plane without macro-cruise registers
        # none); each lane proves itself per resource before any extension.
        self.macro_lanes = planner.app_lanes
        self.lanes_used: dict = {}   # id(lane) -> lane joined to this train
        arb = ck.arbiter
        self.origin = origin = _ReplicaSession(
            ck, arb._pattern.at_phase(arb._pattern_phase), start, now)
        self.sessions: dict = {id(ck): origin}
        self.order = [origin]
        self.feeds: dict = {}    # id(fifo) -> (consumer session, input idx)
        self.stager: dict = {}   # id(fifo) -> session staging into it
        self.v_rels: dict = {}   # id(fifo) -> virtual release cycles
        self.v_items: dict = {}  # id(fifo) -> ([pkts], [ready]) train stages
        self.cursor_fifo: dict = {}  # id(fifo) -> live cursor staging into it
        self.ff = _FastForward()
        # Whether ff_close_chain's last walk may have gone stale: set by
        # supply published for a CK outside the train.
        self.closure_stale = True
        self.joint = None  # id(session) -> (session, peers) of a joint round
        self.joint_fail = None  # the session whose round failed a joint one
        self.pairs: dict = {}   # id(session) -> (producer, consumer, fifo)
        self.hook_inputs(origin)

    def lane_of(self, fifo):
        """The extendable app lane on ``fifo``, joined to the train."""
        lane = self.macro_lanes.get(id(fifo))
        if lane is None or not lane.extendable():
            return None
        if id(lane) not in self.lanes_used:
            lane.begin(self.now)
            self.lanes_used[id(lane)] = lane
        return lane

    def hook_inputs(self, sess) -> None:
        inputs = sess.arb.inputs
        for j in sess.pattern.inputs_used:
            fifo = inputs[j]
            self.feeds[id(fifo)] = (sess, j)
            # Stages other sessions validated before this one joined are
            # not in the committed snapshot yet: replay them.
            pend = self.v_items.get(id(fifo))
            if pend is not None:
                sess.extend_supply(j, *pend)
        for fifo in sess.pattern.target_fifos:
            self.stager[id(fifo)] = sess

    def try_join(self, peer) -> None:
        """Add a peer CK's session if its pattern can continue the train.

        Sleeping-window peers join like a co-plan would; the cascade's
        *origin* CK may join even in the ``"run"`` state — it is inside
        its own planner call right now and re-reads ``_plan_until`` the
        moment control returns, exactly as after a cascade extension.
        """
        if peer is None or id(peer) in self.sessions:
            return
        arb = peer.arbiter
        pat = arb._pattern
        proc = peer.proc
        state_ok = (arb._resume_state == "window"
                    or peer is self.planner._cascade_origin)
        if pat is not None:
            pat = pat.at_phase(arb._pattern_phase)
        if (pat is None or proc is None or proc.finished
                or not state_ok
                or arb._plan_until != arb._pattern_end
                or arb._idx != pat.idx0
                or arb._resume_reads != pat.reads0):
            return
        # Cheap demand precheck before building any session state: the
        # peer's first round needs its full take counts from committed
        # items plus whatever the train has already published. A peer
        # rejected here is retried on every later failure of the session
        # that wanted it, by which time more may have been published.
        # A FIFO shallower than the round, staged into by a session, can
        # never hold it: that supply comes with the stager's joint round.
        inputs = arb.inputs
        v_items = self.v_items
        for j, need in pat.takes_per_input:
            f = inputs[j]
            pend = v_items.get(id(f))
            if f.present_count + (len(pend[0]) if pend else 0) < need \
                    and (need <= f.capacity or id(f) not in self.stager):
                return
        sess = _ReplicaSession(peer, pat, arb._plan_until, self.now)
        self.sessions[id(peer)] = sess
        self.order.append(sess)
        self.hook_inputs(sess)  # also replays earlier sessions' virtual items

    def publish_supply(self, fifo, pkts, cycles) -> None:
        """Publish a run of validated stages into ``fifo`` (staged at
        ``cycles``, in FIFO order) as virtual supply."""
        lat = fifo.latency
        ready = [s + lat for s in cycles]
        fid = id(fifo)
        pend = self.v_items.setdefault(fid, ([], []))
        pend[0].extend(pkts)
        pend[1].extend(ready)
        hooked = self.feeds.get(fid)
        if hooked is not None:
            sess, j = hooked
            sess.extend_supply(j, pkts, ready)
            sess.dirty = True  # new supply may unblock a starved round
            return
        peer = self.planner.consumer_ck.get(fid)
        if peer is not None and id(peer) not in self.sessions:
            # The one input of a try_join precheck that moves inside a
            # train: the peer may pass it now.
            self.closure_stale = True
        # A stage into an app receive endpoint: virtual supply for the
        # sleeping pop_vec's lane.
        lane = self.lane_of(fifo)
        if lane is not None and not lane.is_send:
            lane.add_supply(pkts, ready)

    def publish_releases(self, fifo, xs) -> None:
        """Publish a run of validated takes from ``fifo`` (at cycles
        ``xs``, in FIFO order) as virtual slot releases."""
        fid = id(fifo)
        self.v_rels.setdefault(fid, []).extend(xs)
        cur = self.cursor_fifo.get(fid)
        if cur is not None:
            cur.rels.extend(xs)
        peer = self.stager.get(fid)
        if peer is not None:
            peer.dirty = True  # a freed slot may unblock a blocked round
            return
        # A take from an app send endpoint: virtual slot releases for the
        # sleeping push_vec's lane.
        lane = self.lane_of(fifo)
        if lane is not None and lane.is_send:
            lane.add_releases(xs)

    def target_cursor(self, out):
        """The cascade's cursor for routing target ``out``, re-read once
        per train; at that first touch it grafts the virtual releases
        other sessions already published on its FIFO."""
        cid = id(out)
        cur = self.cursors.get(cid)
        if cur is None:
            cur = self.cursors[cid] = _TargetCursor(out, self.now, self.stamp)
        elif cur.stamp != self.stamp:
            cur.refresh(self.now)
            cur.stamp = self.stamp
        else:
            return cur
        pend = self.v_rels.get(cid)
        if pend:
            cur.rels = cur.rels + pend
        self.cursor_fifo[cid] = cur
        return cur

    def validate_round(self, sess) -> bool:
        """Validate ``sess``'s next pattern round on its own; on success
        land it (publish and advance the session)."""
        self.run_round(sess, None)
        if sess.pending is None:
            return False
        self.land_round(sess, None)
        return True

    def run_round(self, sess, peers) -> bool:
        """Validate ``sess``'s next pattern round. It leaves the round's
        ``(pos, takes, runs)`` on ``sess.pending`` when the round
        validates, and ``None`` there (the failure recorded on the
        session) when it does not.

        The round's state lives in locals: the snapshot columns, position
        and take run of the input its last event read, and the free /
        rel_ptr / next_free budget and stage run of the target it last
        staged into. A switch to another input or target parks them in
        the round's ``pos`` / ``takes`` / ``runs`` tables. Nothing reaches
        the session or a cursor until the round lands, so a failed round
        has nothing to roll back.

        ``peers`` maps each FIFO of a joint round (see
        :meth:`validate_coupled`) to the session on its other end. Where
        the round needs what that session's round has not published yet
        — a slot its takes free, an item it stages, its frontier past a
        silence observation — it publishes its own runs on the coupled
        FIFO so far and returns True: the coordinator runs it again from
        its start once the peer moved. A rerun walks the same prefix to
        the same outcomes (the ledgers it read only grew at their tails,
        the peer's frontier only rose) and publishes only past what
        ``sess.sent`` says is out. With ``peers`` None it returns False.
        """
        sess.pending = None
        ck_s = sess.ck
        inputs = sess.arb.inputs
        avail = sess.avail
        # O(inputs) demand precheck: a round needs its full take count
        # per input (committed plus already-published virtual supply) —
        # without it, walking the events just to fail is wasted work. A
        # coupled input's supply comes with the peer's round.
        for j, need in sess.pattern.takes_per_input:
            if avail[j] < need and not (peers and id(inputs[j]) in peers):
                sess.starved_on = inputs[j]
                sess.blocked_on = None
                sess.last_fail = ('precheck', j, need, avail[j])
                return False
        joint = self.joint
        route = ck_s._route
        route_memo = ck_s._route_memo
        snap_items = sess.snap_items
        snap_ready = sess.snap_ready
        T = sess.T
        fatal = False   # shape divergence: never retry
        # Per input, its snapshot position this round; per input and per
        # target, the round's take cycles and [cursor, free, rel_ptr,
        # next_free, pkts, cycles] stage run, both in first-touch order
        # and each run in FIFO order.
        pos = sess.ptr.copy()
        takes: dict = {}
        runs: dict = {}
        jc = -1         # the input in locals
        items = ready = xs = None
        p = 0
        tgt = None      # the target in locals
        run = cur = rels = pkts = cycles = None
        free = rel_ptr = next_free = pace = 0
        key = -1        # the last routing key, and where it routes
        out = None
        for rel_c, kind, j, rel_s, target in sess.pattern.events:
            X = T + rel_c
            if kind == 1:
                # Pattern polled this input and found it unreadable: the
                # replica must re-prove it. With items (real or virtual)
                # present the head's visibility is exact; drained inputs
                # need a horizon past X (retrying under self-silence), or
                # a coupled peer whose unpublished stages all land later.
                if j == jc:
                    q, rd = p, ready
                else:
                    q, rd = pos[j], snap_ready[j]
                if q < len(rd) or sess.ensure(j, q + 1):
                    if rd[q] <= X:
                        fail = ('early-arrival', j, X, rd[q])
                        fatal = True  # an arrival beat the pattern's rhythm
                        break
                    continue
                peer = peers.get(id(inputs[j])) if peers else None
                if peer is not None:
                    if peer.frontier + inputs[j].latency > X:
                        continue  # its unpublished stages land later
                    if id(peer) in joint:
                        self.publish_joint(sess, peers, takes, runs)
                        sess.frontier = X
                        return True
                hz = sess.hz_cache.get(j)
                if hz is None:
                    hz = sess.hz_cache[j] = \
                        inputs[j].supply_horizon(self.memo)
                if hz <= X and _silent_hz(ck_s, inputs[j], X) <= X \
                        and not ff_silent(self, sess, j, X):
                    sess.starved_on = inputs[j]
                    sess.blocked_on = None
                    fail = ('no-horizon', j, X, hz)
                    break
                continue
            if j != jc:
                if jc >= 0:
                    pos[jc] = p
                jc = j
                items = snap_items[j]
                ready = snap_ready[j]
                p = pos[j]
                xs = takes.get(j)
            # A take, or (kind 2) the readable witness of a rotation: the
            # head must be visible by X.
            if (p >= len(items) and not sess.ensure(j, p + 1)) \
                    or ready[p] > X:
                peer = peers.get(id(inputs[j])) if peers else None
                if peer is not None and p >= len(items) \
                        and peer.frontier + inputs[j].latency <= X \
                        and id(peer) in joint:
                    # The peer may still stage the head in time.
                    self.publish_joint(sess, peers, takes, runs)
                    sess.frontier = X
                    return True
                sess.starved_on = inputs[j]
                sess.blocked_on = None
                fail = ('witness-missing' if kind else 'take-starved',
                        j, X, ready[p] if p < len(items) else None)
                break
            if kind:
                continue
            pkt = items[p]
            k = (pkt.dst << 8) | pkt.port
            if k != key:
                out = route_memo.get(k)
                if out is None:
                    try:
                        out = route(pkt)
                    except RoutingError:
                        # plan_window stops here too; the per-flit path
                        # raises at this exact cycle after the fallback.
                        fail = ('route-error', j, X, None)
                        fatal = True
                        break
                key = k
            if out is not target:
                fail = ('target-mismatch', j, X, None)
                fatal = True  # traffic shape changed: not this pattern
                break
            if out is not tgt:
                if tgt is not None:
                    run[1] = free
                    run[2] = rel_ptr
                    run[3] = next_free
                run = runs.get(out)
                if run is None:
                    cur = self.target_cursor(out)
                    run = runs[out] = [cur, cur.free, cur.rel_ptr,
                                       cur.next_free, [], []]
                tgt = out
                cur, free, rel_ptr, next_free, pkts, cycles = run
                rels = cur.rels
                pace = cur.pace
            # Exact plan_window stall model; the outcome must land on the
            # pattern's relative stage cycle or the round is off.
            s = next_free if next_free > X else X
            if free > 0:
                free -= 1
            elif rel_ptr < len(rels):
                floor = rels[rel_ptr] + 1
                rel_ptr += 1
                if floor > s:
                    s = floor
            else:
                peer = peers.get(id(out)) if peers else None
                if peer is not None and id(peer) in joint:
                    # The peer's takes may still free the slot.
                    self.publish_joint(sess, peers, takes, runs)
                    sess.frontier = X
                    return True
                sess.blocked_on = cur.fifo
                sess.starved_on = None
                fail = ('no-slot', j, X, cur.fifo.name)
                break
            expected = T + rel_s
            if s != expected:
                if s > expected:
                    sess.blocked_on = cur.fifo  # stall worsened
                    sess.starved_on = None
                else:
                    fatal = True  # a stall the pattern had vanished
                fail = ('stage-cycle', j, X, (s, expected))
                break
            if pace:
                next_free = s + pace
            pkts.append(pkt)
            cycles.append(s)
            p += 1
            if xs is None:
                xs = takes[j] = [X]
            else:
                xs.append(X)
        else:
            # The round validated: park the locals and hand the round
            # back (a joint round's peer first sees the rest of its runs).
            if jc >= 0:
                pos[jc] = p
            if tgt is not None:
                run[1] = free
                run[2] = rel_ptr
                run[3] = next_free
            if peers:
                self.publish_joint(sess, peers, takes, runs)
            sess.pending = pos, takes, runs
            return False
        if fatal:
            sess.done = True
        sess.last_fail = fail
        return False

    def land_round(self, sess, coupled) -> None:
        """Write the validated ``sess.pending`` round back and publish it
        once per FIFO it touched — all takes, then all stages (the
        per-FIFO order is the only one any ledger reads) — except the
        FIFO ``coupled`` names: a joint round published it while it ran."""
        pos, takes, runs = sess.pending
        sess.pending = None
        inputs = sess.arb.inputs
        avail = sess.avail
        sess.ptr = pos
        take_cycles = sess.take_cycles
        for j, xs in takes.items():
            take_cycles[j].extend(xs)
            avail[j] -= len(xs)
            if id(inputs[j]) != coupled:
                self.publish_releases(inputs[j], xs)
        stage_cursors = sess.stage_cursors
        for cur, free, rel_ptr, next_free, pkts, cycles in runs.values():
            cur.free = free
            cur.rel_ptr = rel_ptr
            cur.next_free = next_free
            cur.stage_pkts.extend(pkts)
            cur.stage_cycles.extend(cycles)
            stage_cursors[id(cur)] = cur
            if id(cur.fifo) != coupled:
                self.publish_supply(cur.fifo, pkts, cycles)
        sess.takes += sess.pattern.n_takes
        sess.rounds += 1
        sess.T += sess.pattern.delta
        sess.blocked_on = None
        sess.starved_on = None

    def publish_joint(self, sess, peers, takes, runs) -> None:
        """Publish what a joint round has validated on its coupled FIFOs
        past what it published before (``sess.sent`` counts those)."""
        inputs = sess.arb.inputs
        sent = sess.sent
        for j, xs in takes.items():
            fid = id(inputs[j])
            k = sent.get(fid, 0)
            if fid in peers and len(xs) > k:
                self.publish_releases(inputs[j], xs[k:])
                sent[fid] = len(xs)
        for fifo, run in runs.items():
            fid = id(fifo)
            k = sent.get(fid, 0)
            if fid in peers and len(run[4]) > k:
                self.publish_supply(fifo, run[4][k:], run[5][k:])
                sent[fid] = len(run[4])

    def coupled_peer(self, sess):
        """The joint round ``sess``'s last failure asks for, as
        ``(producer, consumer, fifo)``, or ``None``.

        A producer that ran out of slots on an on-chip FIFO and its
        consumer that ran out of items on the same FIFO wait on each
        other's *same* round when the FIFO is shallower than a round:
        the producer's last stages need slots only the consumer's takes
        of that round free, and those takes need those stages. Both
        failures must be current (the peer is not dirty), the patterns
        must share Δ, and ``fifo`` must have no other producer (the
        frontier silence proof speaks for one writer).
        """
        fail = sess.last_fail[0]
        if fail == 'no-slot':
            fifo = sess.blocked_on
            hooked = self.feeds.get(id(fifo))
            if hooked is None:
                return None
            producer = sess
            consumer = peer = hooked[0]
            ok = peer.starved_on is fifo and peer.last_fail[0] in _STARVED
        elif fail in _STARVED:
            fifo = sess.starved_on
            producer = peer = self.stager.get(id(fifo))
            if peer is None:
                return None
            consumer = sess
            ok = peer.blocked_on is fifo and peer.last_fail[0] == 'no-slot'
        else:
            return None
        if not ok or peer is sess or peer.dirty or peer.done \
                or peer.pattern.delta != sess.pattern.delta \
                or peer.takes + peer.pattern.n_takes > MACRO_MAX_TAKES \
                or fifo.producers != (producer.ck.proc,):
            return None
        return producer, consumer, fifo

    def validate_coupled(self, producer, consumer, fifo) -> bool:
        """Validate the next rounds of two sessions coupled through
        ``fifo`` as one event stream; both land or neither does.

        Each round runs (:meth:`run_round`) until it waits on the other,
        in turn: a stage into ``fifo`` becomes the consumer's supply
        (visible at ``s + latency``), a take from it a release the
        producer may stage after (at ``x + 1``), each published as the
        round waits. A waiting session's ``frontier`` is the cycle of
        the event it waits at — nothing it has yet to stage lands
        earlier — and a settled one's is its next round's base. A pass
        in which no ledger grew, no frontier moved and no round settled
        is a deadlock: the patterns cannot hold together. On failure the
        tentative ledger entries are cut back to where they were, so the
        train is as the two solo failures left it.
        """
        fid = id(fifo)
        rels = self.v_rels.get(fid)
        pend = self.v_items.get(fid)
        n_rels = len(rels) if rels else 0
        n_items = len(pend[0]) if pend else 0
        self.joint_fail = None
        live = self.joint = {}  # id(session) -> (session, its peers)
        for sess, peer in ((producer, consumer), (consumer, producer)):
            sess.frontier = sess.T
            sess.sent = {}
            live[id(sess)] = (sess, {fid: peer})
        mark = None
        ok = True
        while live and ok:
            for key, (sess, peers) in list(live.items()):
                if self.run_round(sess, peers):
                    continue  # waits on its peer
                del live[key]
                if sess.pending is None:
                    self.joint_fail = sess
                    ok = False
                    break
                sess.frontier = sess.T + sess.pattern.delta
            rels = self.v_rels.get(fid)
            pend = self.v_items.get(fid)
            now = (len(rels) if rels else 0, len(pend[0]) if pend else 0,
                   producer.frontier, consumer.frontier, len(live))
            if now == mark:
                ok = False  # deadlock
            mark = now
        self.joint = None
        if ok:
            self.land_round(producer, fid)
            self.land_round(consumer, fid)
            producer.dirty = consumer.dirty = True
            self.pairs[id(producer)] = self.pairs[id(consumer)] = \
                (producer, consumer, fifo)
            return True
        # Cut the tentative entries back: the consumer's snapshot and the
        # train's ledger of stages, the ledger and cursor of releases.
        n = len(pend[0]) - n_items if pend else 0
        if n:
            del pend[0][-n:], pend[1][-n:]
            j = self.feeds[fid][1]
            del consumer.snap_items[j][-n:], consumer.snap_ready[j][-n:]
            consumer.avail[j] -= n
        n = len(rels) - n_rels if rels else 0
        if n:
            del rels[-n:]
            cur = self.cursor_fifo.get(fid)
            if cur is not None:
                del cur.rels[-n:]
        producer.pending = consumer.pending = None
        producer.dirty = consumer.dirty = False
        return False

    def extend_lane(self, fifo, is_send: bool) -> bool:
        """No CK behind ``fifo``: maybe a sleeping app kernel whose lane
        can help — a ``push_vec`` (``is_send``) staging more supply into
        the endpoint a session starved on, or a ``pop_vec`` freeing slots
        by taking from the endpoint a session is blocked on. Publishes
        the extension to the train; True when the lane produced work."""
        lane = self.lane_of(fifo)
        if lane is None or lane.is_send is not is_send:
            return False
        ext = lane.extend()
        if not ext:
            return False
        if is_send:
            self.publish_supply(fifo, *ext)
        else:
            self.publish_releases(fifo, ext)
        return True

    def unblock(self, sess) -> bool:
        """Invite the CK behind the FIFO ``sess`` last failed on, and
        extend the app lane there if it has one; True when the lane
        produced work."""
        planner = self.planner
        if sess.blocked_on is not None:
            self.try_join(planner.consumer_ck.get(id(sess.blocked_on)))
            return self.extend_lane(sess.blocked_on, False)
        if sess.starved_on is not None:
            self.try_join(planner.producer_ck.get(id(sess.starved_on)))
            return self.extend_lane(sess.starved_on, True)
        return False

    def sweep_pair(self, producer, consumer, fifo) -> bool:
        """Move a coupled pair one joint round; True when a round landed
        or a lane moved.

        A landed round feeds the app lanes on the pair's far sides at
        once, so the next round does not first fail on them. A round
        that failed on a lane retries once the lane moved; one that
        waits on a session of the train keeps the pair, quiet until that
        session publishes; any other failure splits the pair, and its
        sessions try their rounds alone again.
        """
        cap = MACRO_MAX_TAKES
        moved = False
        while producer.takes + producer.pattern.n_takes <= cap \
                and consumer.takes + consumer.pattern.n_takes <= cap \
                and not (producer.done or consumer.done):
            if self.validate_coupled(producer, consumer, fifo):
                inputs = producer.arb.inputs
                for j in producer.pattern.inputs_used:
                    self.extend_lane(inputs[j], True)
                for out in consumer.pattern.target_fifos:
                    self.extend_lane(out, False)
                return True
            failed = self.joint_fail
            if failed is None or failed.done:
                break
            if self.unblock(failed):
                moved = True
                continue
            if failed.blocked_on is not None:
                waits, other = failed.blocked_on, self.feeds
            else:
                waits, other = failed.starved_on, self.stager
            if waits is not fifo and id(waits) in other:
                return moved  # a session of the train will free it
            break
        del self.pairs[id(producer)], self.pairs[id(consumer)]
        producer.dirty = consumer.dirty = True
        return moved

    def sweep(self) -> None:
        """Ping-pong: sweep sessions until no round makes progress.

        A failed session goes quiet (``dirty = False``) until a peer's
        validated round publishes supply or slots it depends on, so stuck
        sessions cost nothing while the rest of the train advances. An
        app lane extended for a failed session publishes to it at once,
        so the session retries within the sweep: each sweep then moves
        every session of a lane-fed chain one round, and a chain's sweep
        period is its round, not a ping-pong of two.
        """
        order = self.order
        pairs = self.pairs
        lanes = self.macro_lanes
        ff = self.ff
        sweeps = 0
        progress = True
        while progress and sweeps < TRAIN_SWEEP_LIMIT:
            sweeps += 1
            progress = False
            for sess in order:
                coupled = pairs.get(id(sess))
                if coupled is not None:
                    if sess is coupled[0] and (sess.dirty
                                               or coupled[1].dirty) \
                            and self.sweep_pair(*coupled):
                        progress = True
                    if id(sess) in pairs:
                        continue  # the pair moves when its producer does
                while not sess.done and sess.dirty and \
                        sess.takes + sess.pattern.n_takes <= MACRO_MAX_TAKES:
                    if self.validate_round(sess):
                        progress = True
                        break
                    sess.dirty = False
                    coupled = self.coupled_peer(sess)
                    if coupled is not None:
                        if self.validate_coupled(*coupled):
                            progress = True
                            break
                        failed = self.joint_fail
                        if failed is not None and failed is not sess \
                                and self.unblock(failed):
                            progress = True
                    if self.unblock(sess):
                        progress = True
            # Every chain runs from a send lane to a recv lane: with no
            # lane registered (always so without macro-cruise) there is
            # nothing to close or prove.
            if not ff.dead and lanes:
                if ff_close_chain(self):
                    progress = True  # new sessions need a sweep before ff
                elif ff.ff_try(self):
                    # A proven jump is the train's last act: it advanced
                    # counters and frontiers only (no ledger — snapshot,
                    # release or lane supply list — was mirrored), so
                    # nothing may validate against this train's virtual
                    # state again. The commit lands the validated prefix,
                    # then the span as one time shift per chain FIFO.
                    break
        if ff.miss is not None:
            ff.ff_report_miss(self)

    def commit(self):
        """Bulk-commit every session that proved a round; returns the
        origin's :class:`PlanResult` (``None`` if it proved none).

        All stages first (cross-session takes must find their items),
        then all takes; each stage run under its CK's own identity for
        the producer-set tripwire. Lane stages land between the two
        phases (their consumers' takes must find them); lane takes land
        after every session stage they consume is physical. With no
        session committed the lanes still commit: extensions may already
        have advanced the app channels (elements drained from a sleeping
        push_vec, endpoint items claimed for a sleeping pop_vec) to
        unblock the sweep, and that work is real — left virtual, the
        stream silently loses elements. A proven jump
        (:meth:`~repro.transport.planner_ff._FastForward.ff_apply`) lands
        last, on top of that validated prefix: one time shift per chain
        FIFO, nothing per packet.
        """
        planner = self.planner
        engine = self.engine
        origin = self.origin
        order = self.order
        lanes = self.lanes_used.values()
        committed = [sess for sess in order if sess.rounds]
        prev_proc = engine._current_proc
        try:
            for sess in committed:
                if sess.ck.proc is not None:
                    engine._current_proc = sess.ck.proc
                for cur in sess.stage_cursors.values():
                    if cur.stage_pkts:
                        cur.commit()
            for lane in lanes:
                if lane.is_send:
                    lane.commit()
            for sess in committed:
                inputs = sess.arb.inputs
                for j in sess.pattern.inputs_used:
                    tc = sess.take_cycles[j]
                    if len(tc):
                        inputs[j].take_burst(tc)
        finally:
            engine._current_proc = prev_proc
        # ---- macro-cruise epilogue: the lanes' takes, slot pairings and
        # firm wakes, and the fast-forwarded span. --------------------------
        _land_lanes(engine, lanes)
        # A proven jump: the prefix and its release pairings are in, so
        # each chain FIFO now takes the span as one time shift.
        for fifo, args in self.ff.shifts:
            fifo.shift(*args)
        if not committed:
            return None
        stats = planner.stats
        if self.ff.armed:
            # Only count the train as a fast-forward window when the
            # chain resolver actually armed: un-armable programs ride
            # ordinary trains and must not inflate ff coverage.
            # The span is the longest per-session advance, not last
            # frontier minus first start: the frontiers of a chain are
            # skewed by its link latencies, and back-to-back jump trains
            # would count that skew once per train (coverage > 1).
            span = max(sess.T - sess.start for sess in committed)
            stats.ff_cycles += span
            if self.ff.jump is not None:
                engine.note_fast_forward(span, self.ff.jump)
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
            arb._plan_paid = True
            stats.replications += 1
            stats.replicated_rounds += sess.rounds
            stats.window_cycles += res.end - sess.start
            stats.takes += sess.takes
            arb.commit_resume(res)
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
            _train_debug(self)
        return origin_res


def replicate_train(planner, ck, engine, start, memo, cursors, stamp):
    """Co-replicate confirmed patterns along a pipeline and bulk-commit.

    The train starts from ``ck``'s confirmed pattern at ``start`` and
    validates Δ-shifted rounds against *live committed state only* — the
    full input inventories (no snapshot truncation: replication consumes
    facts, so a deep link FIFO replicates its whole bandwidth-delay
    product in one call), the shared cascade cursors' slot budgets with
    the exact :func:`~repro.transport.planner_window.plan_window` stall
    formula, and the supply horizons (with the self-silence retry) for
    every silence observation.

    When a session's round fails on *slot exhaustion* in a FIFO whose
    consumer CK also has a live, contiguous pattern — or on *supply
    exhaustion* in a FIFO whose producer CK does — that peer joins the
    train as its own session, and the sessions ping-pong: a validated
    round's stages are published to the consumer session as virtual
    supply (the exact items with their exact visibility cycles), its
    takes to the producer's cursor as virtual slot releases — one run
    per FIFO the round touched, takes before stages. This is
    sound for the same reason the cascade is: everything published will
    be committed before any other process runs, with exactly the cycles
    it was validated at. A round whose computed schedule deviates from
    its pattern by even one cycle fails and is never committed;
    ``plan_window`` handles the deviation exactly on the next visit.

    At train end every session bulk-commits — all stages first (so
    cross-session takes find their items), then all takes — one
    ``stage_burst``/``take_burst`` pair per FIFO for the whole train,
    with persistent slot pairing on ``Fifo._reserved_paired`` and a
    single firm wake (:meth:`Engine.preempt`) per sleeping peer.

    Returns the origin's :class:`PlanResult` (or ``None`` if the origin
    proved no full round); peer sessions' results are appended to
    ``planner._extra_results`` for the cascade to fan out from.
    """
    train = _Train(planner, ck, engine, start, memo, cursors, stamp)
    train.sweep()
    return train.commit()

