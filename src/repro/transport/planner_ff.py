"""Prove period & jump: the analytic stream fast-forward.

Last stage of the planner pipeline (``HardwareConfig.macro_cruise``, on
by default). A validated train is still O(1) work per packet. When an
app stream's sessions resolve into a relay chain (``send lane ->
sessions -> recv lane``; each stream alone, see :func:`ff_resolve`) its
steady state is a periodic object. The
train fingerprints each chain at every sweep boundary and
:class:`_FFHistory` finds the shortest *hyperperiod* — sessions advance
at equal rates but possibly unequal round sizes (an interior relay's
8-packet round beside the link's 16), so the frontiers re-align only
every lcm(round sizes) packets;
:meth:`_FastForward.ff_apply`'s guard battery reduces the candidate to
committed facts (conservation along every hop, Δ-shift of every tracked
list, message-end / horizon / slot bounds) and lands ``R`` periods as
what the proof says they are — **a time shift, not packets**: the train's
commit lands the validated prefix through its ordinary bursts, then
every chain FIFO takes ``(n = R·ppp, δ = R·ΔT, floor)`` through
:meth:`repro.simulation.fifo.Fifo.shift` (rows, pending releases and
log entries above the floor move by ``δ``, the complete log prefix
below it folds, the counts advance by ``n``). A jump costs O(period +
chain occupancy) on the host whatever the message size, so there is one
per stream and nothing to re-prove after it. What makes it hold at zero
slack is the train-frontier silence proof (:func:`ff_silent` — a
session's validated round frontier is its process floor, so a relay
stopped on its full output proves its consumer's observation).

A chain has three member kinds — send lane, relay hop, recv lane — with
the same three methods: ``ff_fingerprint`` (counters, frontiers, tracked
lattices at a sweep boundary), ``ff_check`` (is my slice of a candidate
period's deltas one period of lockstep advance?) and ``ff_advance``
(move counters and frontiers past ``R`` periods). :class:`_RelayHop` is
the planner's; the lanes' live with the lanes
(:class:`repro.core.channel._SendLane` / ``_RecvLane``), so nothing here
knows a channel's or packer's internals.

**This module owns** :class:`_FFHistory`, the guard seam
(``_ff_guard_probe``), :class:`_RelayHop`, :class:`_FastForward` and the
``FF_*`` bounds — every fast-forward function of the planner, under the
``ff_`` / ``_ff_`` prefix the profile benchmark attributes
``planner.ff_s`` by. **It reads** the train's sessions, cursors,
joined lanes and stager map, supply horizons under the train's own frontiers, the
planner's relay registry. **It may mutate**, on a proven jump only, the
members' counters and frontiers, the planner's ff counters and the shift
list the train's commit then lands — plus its own train's ``dead`` /
``miss`` verdict, a send lane's ``ff_spent`` mark and, through
``_Train.try_join``, the session list.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..network.packet import Packet

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
#: one chain advance at equal *rates* but may move unequal round sizes
#: (rounds of 16 and 22 packets re-align every lcm(16, 22) = 176 packets,
#: 19 sweeps), so the first sweep boundary at which every frontier has
#: moved by one common ΔT is the *hyperperiod* of the round sizes — not
#: necessarily one of the first few sweeps.
FF_MAX_P = 64
FF_KEEP = 2 * FF_MAX_P + 1  # checkpoints retained per chain

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


class _RelayHop:
    """One relay session of a resolved chain, as a chain member.

    ``sess`` takes ``tpr`` packets per pattern round from its chain
    input ``jc`` and stages them through its one live cursor ``cur``;
    ``rnd`` is the pattern rounds per period the last ``ff_check``
    accepted. The three ``ff_`` methods are the member interface the
    lanes share (see the module docstring), so the layout of a hop's
    fingerprint has this one definition.
    """

    __slots__ = ("sess", "jc", "tpr", "cur", "rnd")

    def __init__(self, sess, jc, tpr, cur) -> None:
        self.sess = sess
        self.jc = jc
        self.tpr = tpr
        self.cur = cur
        self.rnd = 0

    def ff_fingerprint(self):
        """``(counters, cycle frontiers, tracked (list, kind) lattices)``
        at a sweep boundary — kind ``'c'`` cycle lattice, ``'p'`` packets."""
        sess = self.sess
        cur = self.cur
        jc = self.jc
        counts = [sess.rounds, sess.takes, cur.free, cur.rel_ptr]
        for j in sess.pattern.inputs_used:
            counts += (sess.ptr[j], sess.avail[j], len(sess.snap_items[j]))
        return (counts,
                (sess.T, cur.next_free) if cur.pace else (sess.T,),
                ((sess.take_cycles[jc], 'c'), (sess.snap_items[jc], 'p'),
                 (sess.snap_ready[jc], 'c'),
                 (cur.rels, 'c'), (cur.stage_cycles, 'c'),
                 (cur.stage_pkts, 'p')))

    def ff_check(self, dn, dT, _tmpl) -> int:
        """Packets this hop moved per period, or 0 to refuse.

        The period must be a whole number of the session's pattern
        rounds with the common ΔT, and its chain-input bookkeeping must
        advance in lockstep with its takes while every other input
        stays frozen.
        """
        sess = self.sess
        rnd, tpp, d_cfree, d_crp = dn[:4]
        if rnd <= 0 or tpp != rnd * self.tpr \
                or dT != rnd * sess.pattern.delta \
                or d_cfree or d_crp != tpp:
            return 0
        ei = 4
        for j in sess.pattern.inputs_used:
            d_ptr, d_avail, d_len = dn[ei:ei + 3]
            ei += 3
            if j == self.jc:
                if d_ptr != tpp or d_avail or d_len != tpp:
                    return 0
            elif d_ptr or d_avail or d_len:
                return 0
        self.rnd = rnd
        return tpp

    def ff_advance(self, R, dT, ppp) -> None:
        """Land ``R`` periods of ``ppp`` packets: counters and the round
        frontier only — both FIFOs take the span as a time shift
        (release pairings unchanged), so the commit lattices and the
        cursor's pairing pointer stay the validated prefix's."""
        sess = self.sess
        sess.rounds += R * self.rnd
        sess.takes += R * ppp
        sess.T += R * dT
        sess.blocked_on = sess.starved_on = None

    def ff_obs_bound(self, memo):
        """Rounds for which every non-chain observation provably holds.

        Nothing in the chain stages into or takes from these inputs (the
        fingerprint pinned their pointers and inventories), so their
        heads never move and one readiness or horizon comparison bounds
        every round at once. ``None`` = unbounded.
        """
        sess = self.sess
        T = sess.T
        delta = sess.pattern.delta
        inputs = sess.arb.inputs
        bound = None
        for rel_c, kind, j, _rs, _tg in sess.pattern.events:
            if kind == 0 or j == self.jc:
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
                hz = inputs[j].supply_horizon(memo)
                b = (hz - T - rel_c - 1) // delta + 1
            else:
                b = 0  # witness needs an item that is not there
            if bound is None or b < bound:
                bound = b
        return bound

    def ff_standing_rounds(self, max_rounds):
        """Rounds whose chain-input references to *already present*
        items all hold explicitly. Items the jump itself appends are
        the verified Δ-shift lattice — induction covers those — but the
        standing backlog holds frozen cycles the shift argument says
        nothing about, so each reference is checked against its shifted
        pattern cycle directly (O(backlog), the region is bounded by
        the constant chain occupancy)."""
        sess = self.sess
        jc = self.jc
        tpr = self.tpr
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


def ff_silent(train, sess, j, X) -> bool:
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
    and the observer with ``X``, as
    :func:`~repro.transport.planner_window._silent_hz` does — in a
    throwaway memo. This is what breaks the circular proof at zero
    slack: a relay whose 8-deep output is full cannot stage until
    its consumer takes, and the consumer cannot end its round until
    it knows the relay is silent; the relay's ``T`` (it validated
    up to the full FIFO and stopped on its slots) *is* that
    knowledge. Macro-only: the plain burst plane keeps its trains.
    """
    if not train.planner.macro or _ff_veto('silence'):
        return False
    floors = {id(s.ck.proc): s.T for s in train.order}
    floors[id(sess.ck.proc)] = X
    return sess.arb.inputs[j].supply_horizon(floors) > X


def ff_close_chain(train) -> bool:
    """Join the whole relay pipeline around the train (app lanes
    registered only).

    Ordinary trains grow on demand — a peer joins when a session
    blocks on its slots or starves on its supply. In a deep-buffer
    steady state the interior hops of a relay chain do neither
    (every FIFO holds its bandwidth-delay product), so a multi-hop
    program shatters into per-CK trains and the chain resolver
    never sees the whole stream. While a stream's lanes are
    registered, walk every session's inputs upstream and targets
    downstream and invite those CKs too; ``try_join``'s own
    preconditions (confirmed contiguous pattern, demand precheck)
    still decide. Returns True when the train grew.

    The walk re-runs only when ``train.closure_stale`` says its last
    result may have changed. A train lives inside one engine event, so
    a peer outside it keeps its arbiter state (pattern, phase, resume
    point) and its inputs' committed inventories: of ``try_join``'s
    preconditions only the demand precheck can flip, and only when
    ``publish_supply`` puts virtual supply on a FIFO that peer reads,
    which is what sets the flag. A walk is closed when it ends (the
    sessions it appends are walked in the same pass), so it clears the
    flag then. A join by the sweep needs no flag of its own: it invites
    the producer of an input or the consumer of a target of a session,
    the same peers a walk invites, so after a closed walk it can only
    follow the publication that let that peer's precheck pass.
    """
    if not train.closure_stale:
        return False
    order = train.order
    planner = train.planner
    n0 = len(order)
    for sess in order:  # appends during iteration close transitively
        inputs = sess.arb.inputs
        for j in sess.pattern.inputs_used:
            train.try_join(planner.producer_ck.get(id(inputs[j])))
        for tgt in sess.pattern.target_fifos:
            train.try_join(planner.consumer_ck.get(id(tgt)))
    train.closure_stale = False
    return len(order) > n0


def ff_resolve(train):
    """Resolve the train's app streams as relay chains, one per walk.

    Each chain is ``send lane -> session_0 -> ... -> session_n ->
    recv lane``, found by walking from every joined send lane through
    each session's single ``target_fifos[0]`` into the next session's
    input — transit CK relays included, so a 4-hop stream resolves as
    one chain of 11 relay sessions (the CKR plus both CKS stages at
    every transit rank, between the source's CKS and the destination's
    CKR). See :func:`ff_walk` for what one walk demands.

    Walks are independent: a walk that fails, a recv lane nobody walked
    to and sessions outside every chain refuse nothing else, so the
    stream beside a shard cut or beside a stream of another shape still
    resolves. Returns ``(chains, refused)``: the resolved ``(send lane,
    hops, recv lane)`` list, and per failed walk ``(send endpoint name,
    refusal, permanent)`` — ``permanent`` telling refusals a later sweep
    of this train can heal (consumer not joined, snapshot not drained,
    ...) from ones it never can (a compiled pattern's shape, an
    overlap, a walk leaving the planner across a cut link, an outside
    session staging into an observed FIFO). With no send lane joined
    the one refusal is ``(None, "app lanes not joined", False)``.
    """
    lanes = train.lanes_used.values()
    sends = [la for la in lanes if la.is_send]
    if not sends:
        return [], [(None, "app lanes not joined", False)]
    recvs = {id(la.chan.endpoint): la for la in lanes if not la.is_send}
    by_input = {}  # id(fifo) -> (session, input, takes per round)
    for sess in train.order:
        inputs = sess.arb.inputs
        for j, tpr in sess.pattern.takes_per_input:
            fid = id(inputs[j])  # two takers poison the input (overlap)
            by_input[fid] = None if fid in by_input else (sess, j, tpr)
    chains, refused = [], []
    taken: set = set()  # sessions and recv lanes claimed by a walk
    for ls in sends:
        chain, why, permanent = ff_walk(train, ls, by_input, recvs, taken)
        if chain is None:
            refused.append((ls.chan.endpoint.name, why, permanent))
        else:
            chains.append(chain)
    return chains, refused


def ff_walk(train, ls, by_input, recvs, taken):
    """Walk send lane ``ls``'s stream down the train: ``(chain, None,
    False)``, or ``(None, refusal, permanent)`` (see :func:`ff_resolve`).

    Interior hops must be builder-wired relay FIFOs
    (``planner.relay_fifos``: CK-internal transit, no app writer can
    reach them), the whole channel history must sit inside the lanes (a
    stream element's position identifies its payload — the
    element-indexed packet runs depend on it), and no frozen-value
    release may be left in front of a sender's pacing cursor (a consumed
    release *writes* the cursor via ``max(cur, rel + 1)``, so only
    Δ-shifting train releases may feed it). Disjointness is structural:
    every session and recv lane is claimed by at most one walk, and any
    sharing is an overlap refusal.

    The one rule a chain owes the sessions outside it (guard site
    ``outside``): no hop may observe a FIFO a train session stages into.
    A chain session stages into its own chain FIFO only, so that stager
    is outside the chain and its proof does not cover it: the
    fingerprint only shows the FIFO frozen over the two observed
    windows, and ``ff_obs_bound`` bounds it from committed state, not
    from the stager's validated frontier. The rule keeps the jump's
    soundness from resting on either.
    """
    if not ls.active or ls.cur is None:
        return None, "send lane inactive", False
    if ls.rel_ptr < ls.rels0 or not ls.owns_history:
        return None, "send lane history not in the train", False
    relay = train.planner.relay_fifos
    hops = []
    f = ls.chan.endpoint
    while True:
        if id(f) not in by_input:
            return None, "consumer not joined", False
        ent = by_input[id(f)]
        if ent is None:
            return None, "overlap (two sessions on one input)", True
        sess, j, tpr = ent
        pattern = sess.pattern
        if len(pattern.takes_per_input) != 1 \
                or len(pattern.target_fifos) != 1:
            # Pattern shape fixed for the train: never a relay.
            return None, "pattern shape (multi-input/target session)", True
        if id(sess) in taken:
            return None, "overlap (chains share a session)", True
        taken.add(id(sess))
        if sess.done:
            return None, "session diverged from its pattern", False
        if len(sess.stage_cursors) != 1 or sess.snap_iter[j] is not None:
            return None, "snapshot not drained", False
        cur = next(iter(sess.stage_cursors.values()))
        tgt = pattern.target_fifos[0]
        if cur.stamp != train.stamp or cur.fifo is not tgt:
            return None, "stage cursor not live", False
        hops.append(_RelayHop(sess, j, tpr, cur))
        if id(tgt) not in relay:
            break
        f = tgt  # transit hop: keep walking the chain
    lr = recvs.get(id(tgt))
    if lr is None:
        if tgt.macro_host is None:
            # Neither a relay nor an app endpoint: a cut link whose
            # consumer lives in another shard's planner, so this walk
            # can never reach a recv lane.
            return None, "cross-shard boundary chain", True
        return None, "recv lane not joined", False
    if id(lr) in taken:
        return None, "overlap (two chains on one endpoint)", True
    taken.add(id(lr))
    if not lr.active or lr.cur is None or not lr.owns_history \
            or ls.chan.dtype is not lr.chan.dtype:
        return None, "recv lane inactive", False
    stager = train.stager
    for k, hop in enumerate(hops):
        inputs = hop.sess.arb.inputs
        if _ff_veto('outside', k) or any(
                j != hop.jc and id(inputs[j]) in stager
                for j in hop.sess.pattern.inputs_used):
            return None, "outside session stages into an observed FIFO", \
                True
    return (ls, hops, lr), None, False


def ff_shift_refusal(fifo, stages, takes, inv, floor, ppp, dT):
    """Why chain FIFO ``fifo`` cannot land a jump as a time shift from
    ``floor``, or ``None``.

    ``stages`` / ``takes`` are the train's commit lattices for the FIFO
    (the validated prefix the commit lands first), ``inv`` the rows it
    holds at the frontiers. A shift is exact when everything it carries
    over — those rows, the releases and log entries at or above
    ``floor`` — and the logs one period below ``floor`` (the peak of the
    skipped span is that period's) sit on the period lattice. The two
    observed windows are verified already; this extends the same Δ-shift
    check back to the oldest survivor, which a link FIFO's
    bandwidth-delay product can put before the windows and — under a
    young train — before the train, in the FIFO's own committed log.
    """
    why = fifo.shift_refusal()
    if why is not None:
        return why
    lo = floor - dT
    for log, cycles, rows in ((fifo._occ_stages, stages, inv),
                              (fifo._occ_takes, takes, 0)):
        k = bisect_left(cycles, lo)
        if not k or rows > len(cycles):
            cycles = log + cycles  # survivors older than the train
            k = bisect_left(cycles, lo)
        if k == len(cycles) or cycles[k] >= floor or rows > len(cycles):
            return "survivors older than the log"
        k = min(k, len(cycles) - rows)  # the oldest survivor
        if cycles[k + ppp:] != [c + dT for c in cycles[k:-ppp]]:
            return "survivors off the period lattice"
    return None


def ff_checkpoint(chain):
    """Fingerprint one chain at a sweep boundary: every member's
    counters, cycle-valued frontiers and tracked list lengths, in
    stream order."""
    ls, hops, lr = chain
    counts: list = []
    cycles: list = []
    lens: list = []
    for member in (ls, *hops, lr):
        m_counts, m_cycles, lattices = member.ff_fingerprint()
        counts += m_counts
        cycles += m_cycles
        lens += [len(L) for L, _k in lattices]
    return (tuple(counts), tuple(cycles), tuple(lens))


class _FastForward:
    """Fast-forward state of one train (``_Train.ff``; every method
    takes the train — the state holds no reference back to it).

    Validated replication still does O(1) work *per packet*; on a long
    steady stream that per-packet constant is the wall-clock bound. But
    once the train's sweeps settle into an exact periodic regime —
    every scalar advancing by the same per-period delta, every tracked
    list appending a Δ-shifted copy of its previous period's appends —
    the next R periods are closed-form arithmetic: advance every counter
    by R deltas and every frontier by R·ΔT, and hand each chain FIFO one
    time shift for the train's commit to land after the validated
    prefix. The guard battery of :meth:`ff_apply` reduces that induction
    to committed facts (conservation along the chain, frozen-value
    monotonicity, horizon and budget bounds, shiftability of every
    FIFO); any guard failing just leaves the train on per-packet
    replication, and the prefix still faces the stage/take monotonicity
    and visibility tripwires at commit time.
    """

    __slots__ = ("dead", "miss", "armed", "chains", "refused", "shape",
                 "shifts", "jump")

    def __init__(self) -> None:
        self.dead = False    # permanent no-arm: stop probing the train
        self.miss = None     # last silent no-arm outcome (guard, why, chain)
        self.armed = False   # a chain resolved at least once (stats)
        self.chains = {}     # chain key -> (relay chain, its _FFHistory)
        self.refused = ()    # failed walks of the last ff_resolve
        self.shape = None    # (sessions, lanes) chains resolved under
        self.shifts = ()     # a proven jump: (fifo, shift args)
        self.jump = None     # ... and what it was (the ``ff`` event args)

    def ff_abort(self, engine, guard, hop=-1, reason=None) -> bool:
        """Report one failed guard of the analytic jump's proof.

        Trace-only: emits an ``abort`` event carrying the guard name,
        the chain hop it concerns (``-1`` for chain-wide guards) and,
        where the guard has several causes, the ``reason``; then returns
        False so callers fall back to per-packet replication — exactly
        what an unguarded ``return False`` did before.
        """
        self.miss = None  # reported here, not by the per-train summary
        if engine.trace is not None:
            args = {"guard": guard, "hop": hop}
            if reason:
                args["reason"] = reason
            engine.trace.emit(engine.cycle, "abort", "planner", "ff-abort",
                              args=args)
        return False

    def ff_apply(self, train, chain, dT, dn, lensA, lensB, lensC) -> bool:
        """Verify the period is a provable Δ-shift and advance the whole
        relay chain by R of them, leaving ``self.shifts`` for the commit.
        Returns True when the jump is proven (False leaves the train on
        ordinary replication with nothing mutated)."""
        ls, hops, lr = chain
        engine = train.engine
        if not ls.pend_pkts:
            return False
        tmpl = ls.pend_pkts[-1]
        # Each member checks its own slice of the deltas and names the
        # packets it moved per period, which must be uniform along the
        # chain (per-hop element conservation in the deltas).
        lists: list = []
        ppp = ci = 0
        for member in (ls, *hops, lr):
            counts, _cycles, lattices = member.ff_fingerprint()
            moved = member.ff_check(dn[ci:ci + len(counts)], dT, tmpl)
            if not moved or (ppp and moved != ppp):
                return False
            ppp = moved
            ci += len(counts)
            lists += lattices
        epp = ls.chan.dtype.elements_per_packet
        dE = ppp * epp  # stream elements shipped per period
        # ---- the O(1) bound on R (in periods) comes first: message end
        # on both lanes — the tail is left to the sweeps. It is final:
        # the remainder only shrinks, so the chain is not probed again
        # for this message (a stream ending just below arming pays one
        # cheap refusal, not an O(lattice) proof per sweep). A jump is a
        # time shift, so no take budget bounds it; the guards below do.
        g0 = lr.got
        R = (len(ls.values) - ls.i) // dE - 1
        r_b = (lr.n - g0) // dE - 1
        if r_b < R:
            R = r_b
        if R < 2:
            ls.ff_spent = True
            return self.ff_abort(engine, 'budget', -1,
                                 "message ends within three periods")
        if _ff_veto('budget'):
            return self.ff_abort(engine, 'budget')
        r_msg = R
        # Every tracked list appended exactly one period's packets.
        if any(c - b != ppp for b, c in zip(lensB, lensC)):
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
        e_ship0 = ls.shipped  # elements inside emitted packets
        pend_r = len(lr.pkts) - lr.ip
        if e_ship0 % epp or g0 % epp:
            return False
        e = e_ship0
        for k, hop in enumerate(hops):
            e -= epp * hop.sess.avail[hop.jc]
            if e < g0 or _ff_veto('conservation', k):
                return self.ff_abort(engine, 'conservation', k)
        if e != g0 + epp * pend_r:
            return False
        # Standing (pre-window, frozen) items must look like the stream.
        for hop in hops:
            sess = hop.sess
            if not all(map(attrs_ok,
                           sess.snap_items[hop.jc][sess.ptr[hop.jc]:])):
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
                return self.ff_abort(engine, 'rel-lattice')
        if _ff_veto('rel-lattice'):
            return self.ff_abort(engine, 'rel-lattice')
        # ---- every other externality bounds R too; the closed-form
        # horizon bounds are the min over the whole chain. ---------------
        for k, hop in enumerate(hops):
            rpd = hop.rnd
            ob = hop.ff_obs_bound(train.memo)
            if ob is not None and ob // rpd < R:
                R = ob // rpd
            if R < 2 or _ff_veto('horizon', k):
                return self.ff_abort(engine, 'horizon', k)
            st = hop.ff_standing_rounds(R * rpd)
            if st // rpd < R:
                R = st // rpd
            if _ff_veto('standing', k):
                return self.ff_abort(engine, 'standing', k)
        if R < 2:
            return self.ff_abort(engine, 'standing')
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
            return self.ff_abort(engine, 'recv-lattice')
        # Cursor release backlogs only *floor* the pattern's stage
        # cycles (frozen values are older, hence smaller — but each
        # consumed release must still free its slot in time, at every
        # hop of the chain).
        for k, hop in enumerate(hops):
            cur = hop.cur
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
                return self.ff_abort(engine, 'slots', k)
        if R < 2:
            return self.ff_abort(engine, 'slots')
        # ---- one time shift per chain FIFO ------------------------------
        # FIFO k sits between its stager (the send lane, then each hop's
        # cursor) and its taker (each hop, then the recv lane); it holds
        # ``inv`` rows at the frontiers and shifts from the lower of the
        # two. What a shift cannot carry exactly refuses the jump.
        spans = []  # per chain FIFO: (fifo, floor, inv)
        fifo = ls.chan.endpoint
        stages, f_p = ls.pend_cycles, ls.cur
        for k, hop in enumerate((*hops, None)):
            if hop is not None:
                sess = hop.sess
                takes, f_c, inv = (sess.take_cycles[hop.jc], sess.T,
                                   sess.avail[hop.jc])
            else:
                takes, f_c, inv = lr.take_cycles, lr.cur, pend_r
            floor = f_p if f_p < f_c else f_c
            why = ff_shift_refusal(fifo, stages, takes, inv, floor, ppp, dT)
            if why is not None or _ff_veto('shift', k):
                return self.ff_abort(engine, 'shift', k, why)
            spans.append((fifo, floor, inv))
            if hop is not None:
                cur = hop.cur
                fifo = cur.fifo
                stages, f_p = cur.stage_cycles, sess.T
        # ---- apply: R periods in closed form ---------------------------
        # Nothing is materialised per packet. The train's commit lands
        # the validated prefix through the ordinary bursts, then each
        # chain FIFO takes ``(n, δ, floor)`` and the real packets of the
        # rows still in it at the end — the in-chain elements, cloned
        # once and dealt out from the receiver's end of the chain. The
        # ledgers the sweeps validate against (session snapshots, release
        # lists, the lanes' supply and slot ledgers) are not extended:
        # the jump ends the train, nothing reads them again.
        n = R * ppp
        delta = R * dT
        e_tail0 = g0 + R * dE            # first element left in-chain
        dt_np = ls.chan.dtype.np_dtype
        values = ls.values
        # One private copy of the whole surviving tail; each clone's
        # payload is a view into it (cheaper than per-packet np.array).
        tail_arr = np.array(values[e_tail0:e_ship0 + R * dE], dtype=dt_np)
        tail_pkts = [
            Packet(src=tmpl.src, dst=tmpl.dst, port=tmpl.port, op=tmpl.op,
                   count=epp, payload=tail_arr[k * epp:(k + 1) * epp],
                   dtype=tmpl.dtype)
            for k in range(len(tail_arr) // epp)]
        shifts = self.shifts = []
        hi = len(tail_pkts)
        for fifo, floor, inv in spans:
            shifts.append((fifo, (n, delta, dT, floor,
                                  tail_pkts[hi - inv:hi])))
            hi -= inv
        ls.ff_advance(R, dT, ppp)
        for hop in hops:
            hop.ff_advance(R, dT, ppp)
        # A jump the message end cut leaves under two periods behind it:
        # the bound above can never reach 2 again for this message.
        ls.ff_spent = r_msg - R < 2
        self.jump = {"period": dT, "ppp": ppp, "periods": R,
                     "hops": len(hops)}
        lr.ff_advance(R, dT, np.asarray(values[g0:g0 + R * dE], dt_np))
        stats = train.planner.stats
        stats.ff_jumps += 1
        stats.ff_chain_hops += len(hops)
        return True

    def ff_try(self, train) -> bool:
        """Resolve the chains, fingerprint each at this sweep boundary,
        and jump the first provable period.

        The walks are re-run when a session or lane joined, and at every
        sweep while one is refused only for now; a chain that resolves
        again with the same members keeps its fingerprint history. The
        train retires (``dead``) once every send lane's walk is refused
        for good or its message ends too soon to jump.
        """
        shape = (len(train.order), len(train.lanes_used))
        if shape != self.shape or any(not p for _e, _w, p in self.refused):
            chains, self.refused = ff_resolve(train)
            self.shape = shape
            old = self.chains
            self.chains = {}
            for chain in chains:
                key = (id(chain[0]), *(id(hop.sess) for hop in chain[1]))
                self.chains[key] = old.get(key) or (chain, _FFHistory())
            self.armed = self.armed or bool(chains)
        permanent = all(p for _e, _w, p in self.refused)
        if not self.chains:  # every walk refused: report the first
            endpoint, why, _p = self.refused[0]
            self.dead = permanent
            self.miss = ("unresolved", why, endpoint)
            return False
        self.miss = ("no-period", "", None)
        for chain, hist in self.chains.values():
            if chain[0].ff_spent:
                continue  # its message ends too soon: refused for good
            det = hist.ff_detect(ff_checkpoint(chain))
            if _ff_veto('no-period'):
                det = None
            if det is not None:
                self.miss = ("no-period",
                             "candidate period is not a provable Δ-shift",
                             None)
                if self.ff_apply(train, chain, *det):
                    self.miss = None
                    return True
        if permanent and all(chain[0].ff_spent
                             for chain, _h in self.chains.values()):
            self.dead = True
            self.miss = None
        return False

    def ff_report_miss(self, train) -> None:
        """One ``abort`` event per train for the silent no-arm outcomes.

        A train that probed but neither landed a jump nor had a guard
        of ``ff_apply`` refuse one ended on ``unresolved`` (no chain
        resolved: the first refused walk's send endpoint, as ``chain``,
        and the precondition that failed, healable or not) or
        ``no-period`` (the
        chains resolved, no two sweep boundaries bounded a period; the
        event carries the distinct per-sweep advances seen per cycle
        frontier — equal rates at unequal round sizes read as e.g.
        ``[32]`` beside ``[44]``). Counted in ``PlannerStats`` so
        ``planner_summary`` can say "probing, no period (k trains)".
        """
        guard, why, chain = self.miss
        reason = "no period" if guard == "no-period" else guard
        if why:
            reason = f"{reason} — {chain + ': ' if chain else ''}{why}"
        stats = train.planner.stats
        stats.ff_misses += 1
        stats.ff_miss_reason = reason
        engine = train.engine
        if engine.trace is not None:
            args = {"guard": guard, "hop": -1}
            if chain:
                args["chain"] = chain
            if why:
                args["reason"] = why
            else:
                args["steps"] = [
                    sorted({b[1][i] - a[1][i]
                            for a, b in zip(h.cps, h.cps[1:])} - {0})
                    for _c, h in self.chains.values() if h.cps
                    for i in range(len(h.cps[-1][1]))]
            engine.trace.emit(engine.cycle, "abort", "planner", "ff-abort",
                              args=args)
