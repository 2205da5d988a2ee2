"""Transient channels and the Push/Pop primitives (§3.1).

"Point-to-point communication in SMI codes is based on transient channels:
when established, a streaming interface is exposed at the specified port at
either end, allowing data to be streamed across the network using FIFO
semantics." Channels are plain descriptors — creating one is a zero-overhead
operation (§3.3); the data path is the per-element Push/Pop pair, which is
pipelineable to one element per clock cycle.

Vectorised variants (``push_vec``/``pop_vec``) model a widened application
datapath (an HLS kernel pushing a vector type): ``width`` elements move per
cycle. They are used where the paper's kernels are vectorised (the
bandwidth benchmark saturating the link, the multi-bank stencil).
"""

from __future__ import annotations

from itertools import islice
from typing import Generator

import numpy as np

from ..network.packet import OpType
from ..simulation.conditions import TICK, WaitCycles
from ..simulation.fifo import Fifo
from ..transport.packing import PacketPacker
from .comm import SMIComm
from .datatypes import SMIDatatype
from .errors import ChannelError, MessageOverrunError, TypeMismatchError


class _SendLane:
    """Macro-cruise plane of a sleeping :meth:`SendChannel.push_vec` burst.

    While the sender process sleeps off a committed run, its remaining
    plan is a pure function of the endpoint's slot schedule: the chunk
    pacing, the packer layout and the stall rule are all deterministic.
    The lane exposes exactly that function to the supply planner: a
    replication train (or a planned window) starving on this endpoint
    queues the slot releases its own takes produced
    (:meth:`add_releases`) and asks the lane to continue the channel's
    plan against them (:meth:`extend`) — same arithmetic, same cycles,
    no engine event. Planned packets stay on the lane until the bulk
    commit (:meth:`commit`); closing the ledger (:meth:`finish`) pairs
    the claimed releases so the sleeping generator's next ``slot_plan``
    never sees a slot handed out twice.

    ``cur is None`` marks the plan frontier as unknown (the generator is
    mid element-wise fallback, or has not planned yet): the lane refuses
    to extend there, which is the macro plane's per-resource fallback
    rule — any unproven resource ends the fast-forward.
    """

    __slots__ = ("chan", "values", "width", "i", "cur", "rels", "rel_ptr",
                 "free", "rel_base", "claimed", "pend_pkts", "pend_cycles",
                 "active", "proc", "rels0", "ff_spent")
    is_send = True

    def __init__(self, chan: "SendChannel", values, width: int) -> None:
        self.chan = chan
        self.values = values
        self.width = width
        # The kernel process running this burst (for the firm wake at
        # the train's extended frontier).
        self.proc = chan.endpoint.engine._current_proc
        self.i = 0          # elements planned so far (shared with generator)
        self.cur = None     # pacing frontier; None = not extendable
        self.rels: list[int] = []   # claimable release cycles, FIFO order
        self.rel_ptr = 0
        self.rels0 = 0
        self.free = 0
        self.rel_base = 0
        self.claimed = 0    # releases consumed by lane stages this train
        self.pend_pkts: list = []
        self.pend_cycles: list = []
        self.active = False  # True between begin() and commit()
        # The fast-forward refused this burst on its message end (what
        # remains only shrinks): its chain is not probed again.
        self.ff_spent = False

    def extendable(self) -> bool:
        return self.cur is not None and self.i < len(self.values)

    def begin(self, now: int) -> None:
        """Open the train-scoped slot ledger (idempotent per train)."""
        if self.active:
            return
        ep = self.chan.endpoint
        # Slots freed since the generator's last plan: currently-free
        # slots plus the pending unpaired releases, in _reserved order —
        # train-published releases are appended behind them, exactly the
        # order the endpoint's reserved queue will hold at commit time.
        self.free, rels = ep.slot_plan(now)
        self.rels = list(rels)
        self.rel_ptr = 0
        # Committed (frozen-value) release prefix: entries below this
        # index came from the endpoint's own slot plan, not from the
        # train's Δ-shifting published takes. The analytic fast-forward
        # refuses to extrapolate while the plan still consumes them.
        self.rels0 = len(self.rels)
        self.rel_base = ep._reserved_paired
        self.claimed = 0
        self.active = True

    def add_releases(self, cycles) -> None:
        self.rels.extend(cycles)

    def extend(self):
        """Continue the channel's plan; returns the new run as
        ``(packets, stage_cycles)``, or ``()`` when nothing fits.

        Identical to the generator's planning loop with the slot budget
        taken from the train ledger instead of ``slot_plan``: chunks of
        ``width`` elements advance the pacing cursor one cycle each, a
        claimed release stalls the chunk to ``release + 1``, and the plan
        stops before the first chunk whose slots are unknown.
        """
        chan = self.chan
        values = self.values
        n = len(values)
        i = self.i
        cur = self.cur
        planned, stage_cycles, cur, flush_tail, used = _plan_push_chunks(
            chan._packer.pending, chan._sent, chan.count, values, i,
            self.width, chan.dtype.elements_per_packet, cur,
            self.free, self.rels, self.rel_ptr)
        if planned == 0:
            return ()
        self.free = max(0, self.free - used[0])
        self.rel_ptr += used[1]
        self.claimed += used[1]
        packets = chan._packer.pack_run(values[i:i + planned],
                                        flush_tail=flush_tail)
        if len(packets) != len(stage_cycles):  # pragma: no cover
            raise ChannelError(
                f"macro lane expected {len(stage_cycles)} packets, "
                f"packer produced {len(packets)}")
        chan._sent += planned
        self.i = i + planned
        self.cur = cur
        self.pend_pkts.extend(packets)
        self.pend_cycles.extend(stage_cycles)
        return packets, stage_cycles

    def commit(self) -> None:
        """Bulk-commit the train's lane stages (stage phase of the train
        commit — before any session takes them).

        Occupancy verification is deferred exactly as for the planner's
        own cursor stages: the takes whose releases these stages claim
        commit later in the same train, so the trajectory check would
        see a transiently over-full schedule. The ledger arithmetic
        (free budget + claimed releases, slot-for-slot) is the proof.
        """
        if self.pend_pkts:
            self.chan.endpoint.stage_burst(self.pend_pkts, self.pend_cycles,
                                           verify_occupancy=False)
            self.pend_pkts = []
            self.pend_cycles = []

    def finish(self) -> None:
        """Close the train ledger: persist release pairings (take phase
        ran, so the claimed releases are on the reserved queue now)."""
        if self.claimed:
            self.chan.endpoint._reserved_paired = self.rel_base + self.claimed
        self.active = False

    # -- chain member of the analytic fast-forward: the same three
    # methods as :class:`repro.transport.planner_ff._RelayHop`. ----------
    @property
    def owns_history(self) -> bool:
        """The channel's whole history sits in this burst, so a stream
        element's position identifies its payload."""
        return self.chan._sent == self.i

    @property
    def shipped(self) -> int:
        """Elements inside emitted packets (planned, not still packing)."""
        return self.i - self.chan._packer.pending

    def ff_fingerprint(self):
        """``(counters, cycle frontiers, tracked (list, kind) lattices)``
        at a sweep boundary — kind ``'c'`` cycle lattice, ``'p'`` packets."""
        return ((self.i, self.free, self.rel_ptr, self.claimed,
                 self.chan._packer.pending),
                (self.cur,),
                ((self.rels, 'c'), (self.pend_cycles, 'c'),
                 (self.pend_pkts, 'p')))

    def ff_check(self, dn, _dT, tmpl) -> int:
        """Packets staged per period, or 0 to refuse: the deltas ``dn``
        of the counters above must be whole chunks and whole packets
        shaped like ``tmpl``, each claiming one train release, with the
        packer and the free budget back where they started."""
        d_i, d_free, d_rp, d_cl, d_pend = dn
        epp = self.chan.dtype.elements_per_packet
        ppp = d_i // epp
        if d_i <= 0 or d_i % epp or d_i % self.width or d_pend or d_free \
                or d_rp != ppp or d_cl != ppp \
                or tmpl.count != epp or tmpl.dtype is not self.chan.dtype:
            return 0
        return ppp

    def ff_advance(self, R, dT, ppp) -> None:
        """Land ``R`` periods of ``ppp`` packets: the plan frontier and
        the packer move past them. The endpoint takes the span as a time
        shift (release pairings unchanged), so ``claimed`` and the
        pending run stay the validated prefix's."""
        chan = self.chan
        n = R * ppp
        elements = n * chan.dtype.elements_per_packet
        self.cur += R * dT
        self.i += elements
        chan._sent += elements
        pend = chan._packer.pending
        chan._packer.fast_forward(n, self.values[self.i - pend:self.i])


def _plan_push_chunks(pending, sent, count, values, i, width, epp, cur,
                      free, rels, rel_ptr):
    """Plan stage cycles for whole width-chunks of ``values[i:]``.

    The one chunk-pacing/stall rule both the sender generator and its
    macro lane use: each chunk's packets each claim a slot (free slots
    stage at the pacing cursor; a release stalls the cursor — and every
    later chunk — to ``release + 1``), then the cursor advances one cycle
    for the chunk's closing TICK. Stops before the first chunk whose
    slots are not all known. Returns ``(planned_elements, stage_cycles,
    cur_end, flush_tail, (free_used, rels_used))``.
    """
    n = len(values)
    n_rels = len(rels)
    stage_cycles: list[int] = []
    planned = 0
    flush_tail = False
    free_used = 0
    rels_used = 0
    while i + planned < n:
        w_j = min(width, n - i - planned)
        comps = (pending + w_j) // epp
        rem = (pending + w_j) % epp
        extra = 0
        if rem and sent + planned + w_j == count:
            extra = 1  # the message ends mid-packet: final flush
        chunk_stages = []
        c_free = 0
        c_rels = 0
        for _ in range(comps + extra):
            if free > 0:
                free -= 1
                c_free += 1
            elif rel_ptr + c_rels < n_rels:
                cur = max(cur, rels[rel_ptr + c_rels] + 1)
                c_rels += 1
            else:
                chunk_stages = None
                break
            chunk_stages.append(cur)
        if chunk_stages is None:
            break  # unknown stall: stop the plan before this chunk
        stage_cycles.extend(chunk_stages)
        free_used += c_free
        rel_ptr += c_rels
        rels_used += c_rels
        planned += w_j
        pending = 0 if extra else rem
        if extra:
            flush_tail = True
        cur += 1  # the chunk's closing TICK
    return planned, stage_cycles, cur, flush_tail, (free_used, rels_used)


def _plan_pop_takes(check, rows, want, width, cur, ic):
    """Plan take cycles over ``rows`` — ``(packet, ready)`` pairs in FIFO
    order — for up to ``want`` more elements.

    The one take rule both the receiver generator and its macro lane use:
    a take lands at the pacing cursor, never before the packet's
    visibility (``cur = max(cur, ready)``); every filled ``width``-batch
    of elements then advances the cursor one cycle, the carry ``ic``
    surviving across packets and calls. Stops before a packet ``check``
    rejects — the per-flit path reaches it at its own take cycle and
    raises there. Returns ``(takes, plan, consumed, cur, ic)``, ``plan``
    being the ``(packet, elements used)`` pairs behind ``takes``.
    """
    takes: list[int] = []
    plan: list[tuple] = []
    consumed = 0
    for pkt, ready in rows:
        if consumed >= want:
            break
        try:
            check(pkt)
        except ChannelError:
            break
        cur = max(cur, ready)  # stall until the packet is visible
        takes.append(cur)
        use = min(pkt.count, want - consumed)
        plan.append((pkt, use))
        consumed += use
        left = use
        while left > 0:  # advance one cycle per filled width-batch
            step = min(left, width - ic)
            ic += step
            left -= step
            if ic >= width:
                cur += 1
                ic = 0
    return takes, plan, consumed, cur, ic


class _RecvLane:
    """Macro-cruise plane of a sleeping :meth:`RecvChannel.pop_vec` burst.

    The mirror of :class:`_SendLane`: a replication train (or a planned
    window) blocked on the receive endpoint's backpressure publishes its
    validated stages into the lane (:meth:`add_supply`) and asks
    it to continue the channel's take plan (:meth:`extend`) — consuming
    items at exactly the cycles the per-flit pop loop would (width
    pacing carried across waits, a take never before the item's
    visibility), copying payloads straight into the caller's output
    array, and returning the take cycles whose releases free the train's
    slots. Takes commit at train (or window) end, after
    the stages that produced the items.
    """

    __slots__ = ("chan", "n", "width", "out", "got", "ic", "cur", "pkts",
                 "ready", "ip", "take_cycles", "pend_takes", "active",
                 "armed", "proc")
    is_send = False

    def __init__(self, chan: "RecvChannel", n: int, width: int, out) -> None:
        self.chan = chan
        self.n = n
        self.width = width
        self.out = out
        self.proc = chan.endpoint.engine._current_proc
        self.got = 0        # elements consumed (shared with generator)
        self.ic = 0         # width-pacing carry (shared with generator)
        self.cur = None     # pacing frontier; None until the first plan
        # Claimable supply in FIFO order, columnar: ``pkts[i]`` becomes
        # visible at ``ready[i]`` (lock-step lists, one row per packet).
        self.pkts: list = []
        self.ready: list[int] = []
        self.ip = 0
        self.take_cycles: list[int] = []
        self.pend_takes = 0
        self.active = False
        # armed marks the generator's quiescent yields (sleeping off a
        # committed plan or blocked on an empty endpoint) — the only
        # states whose pacing frontier a train may extend.
        self.armed = False

    def extendable(self) -> bool:
        return (self.armed and self.got < self.n
                and self.chan._current is None)

    def begin(self, now: int) -> None:
        """Open the train-scoped supply ledger (idempotent per train)."""
        if self.active:
            return
        # Committed items the generator has not consumed yet precede any
        # train-published stage in FIFO order.
        pkts, ready = self.chan.endpoint.present_schedule(now)
        self.pkts = list(pkts)
        self.ready = list(ready)
        self.ip = 0
        self.take_cycles = []
        self.pend_takes = 0
        self.active = True

    def add_supply(self, pkts, ready) -> None:
        self.pkts.extend(pkts)
        self.ready.extend(ready)

    def extend(self):
        """Continue the channel's take plan; returns the new take
        cycles, or ``()``."""
        chan = self.chan
        ip = self.ip
        takes, plan, consumed, cur, ic = _plan_pop_takes(
            chan._check_packet,
            zip(islice(self.pkts, ip, None), islice(self.ready, ip, None)),
            self.n - self.got, self.width,
            self.cur if self.cur is not None else 0, self.ic)
        if not takes:
            return ()
        chan._deliver(plan, self.out, self.got)
        self.got += consumed
        self.ic = ic
        self.cur = cur
        self.ip = ip + len(takes)
        self.take_cycles.extend(takes)
        self.pend_takes += len(takes)
        return takes

    def commit(self) -> None:
        """Bulk-commit the train's lane takes (take phase of the train
        commit — the sessions' stages are physically present by now)."""
        if len(self.take_cycles):
            self.chan.endpoint.take_burst(self.take_cycles)
            self.take_cycles = []
            self.pend_takes = 0

    def finish(self) -> None:
        self.active = False

    # -- chain member of the analytic fast-forward (see _SendLane) -------
    @property
    def owns_history(self) -> bool:
        return self.chan._received == self.got \
            and self.chan._current is None

    def ff_fingerprint(self):
        return ((self.got, self.ic, self.ip, self.pend_takes),
                (self.cur,),
                ((self.take_cycles, 'c'), (self.pkts, 'p'),
                 (self.ready, 'c')))

    def ff_check(self, dn, _dT, tmpl) -> int:
        """Packets taken per period, or 0 to refuse: whole packets the
        channel accepts (``tmpl``), the width-pacing carry back where it
        started."""
        d_got, d_ic, d_ip, d_ptk = dn
        chan = self.chan
        epp = chan.dtype.elements_per_packet
        ppp = d_got // epp
        if d_got <= 0 or d_got % epp or d_ic or d_ip != ppp \
                or d_ptk != ppp or chan._current is not None:
            return 0
        try:
            chan._check_packet(tmpl)
        except ChannelError:
            return 0
        return ppp

    def ff_advance(self, R, dT, run) -> None:
        """Land ``R`` periods: ``run`` (elements) delivered straight to
        the caller — the one O(message) step of a jump, a NumPy slice;
        the endpoint takes their packets as a time shift."""
        self.out[self.got:self.got + len(run)] = run
        self.got += len(run)
        self.cur += R * dT
        self.chan._received += len(run)


class SendChannel:
    """Descriptor of an open send channel (``SMI_Open_send_channel``).

    ``burst_mode`` selects the vectorised fast path for ``push_vec``: whole
    runs of packets are packed and staged in one engine event with the
    exact cycles the per-element handshake would have used (see
    :mod:`repro.simulation.fifo`). Cycle counts are identical either way.

    The burst path is also the channel's side of the supply-schedule
    contract (:mod:`repro.transport.planner`): every early-staged run is a
    ``(cycle, count)`` commitment the CKS window planner consumes via
    ``present_schedule``, and while the sender then sleeps off the
    committed run, the engine's process floor bounds its endpoint's
    unknown future — which is what lets downstream plans extend across
    the send-side gaps.
    """

    def __init__(
        self,
        count: int,
        dtype: SMIDatatype,
        src_global: int,
        dst_global: int,
        port: int,
        comm: SMIComm,
        endpoint: Fifo,
        burst_mode: bool = True,
    ) -> None:
        if count < 0:
            raise ChannelError(f"message count must be >= 0: {count}")
        self.count = count
        self.dtype = dtype
        self.port = port
        self.comm = comm
        self.endpoint = endpoint
        self._burst = burst_mode
        self._packer = PacketPacker(src_global, dst_global, port, dtype)
        self._sent = 0

    @property
    def closed(self) -> bool:
        """Channels close implicitly after ``count`` elements (§3.1.1)."""
        return self._sent >= self.count

    @property
    def elements_sent(self) -> int:
        return self._sent

    def _check_open(self, n: int = 1) -> None:
        if self._sent + n > self.count:
            raise MessageOverrunError(
                f"push of {n} element(s) exceeds the channel's declared "
                f"count {self.count} (already sent {self._sent})"
            )

    def _stage_packet(self, pkt) -> Generator:
        while not self.endpoint.writable:
            yield self.endpoint.can_push
        self.endpoint.stage(pkt)

    def push(self, value) -> Generator:
        """``SMI_Push``: blocking, one element, pipelineable to II=1."""
        self._check_open()
        pkt = self._packer.add(value)
        self._sent += 1
        if pkt is None and self._sent == self.count:
            pkt = self._packer.flush()
        if pkt is not None:
            yield from self._stage_packet(pkt)
        yield TICK

    def push_vec(self, values, width: int | None = None) -> Generator:
        """Push many elements, ``width`` of them per cycle."""
        values = np.asarray(values, dtype=self.dtype.np_dtype)
        self._check_open(len(values))
        width = width if width is not None else len(values)
        if width < 1:
            raise ChannelError("vector width must be >= 1")
        host = getattr(self.endpoint, "macro_host", None)
        if self._burst and (host is None or host.reads(len(values))):
            yield from self._push_vec_burst(values, width)
        else:
            yield from self._push_vec_flit(values, width)

    def _push_vec_flit(self, values, width: int) -> Generator:
        """Per-flit plane: the element-by-element ``push`` loop — ``width``
        elements, then a TICK — without a Python-level step per element.
        Payloads are sliced out of ``values`` as ``pack_run`` does, but
        each packet is still staged (stalling on a full endpoint) in the
        chunk that pushes its last element, and at every yield ``_sent``
        counts exactly the elements pushed so far."""
        packer = self._packer
        n = len(values)
        base = self._sent
        last = self.count - base    # index past the message's final element
        epp = packer.epp
        done = 0                    # elements of ``values`` in emitted packets
        full = epp - packer.pending  # index past the next packet's last element
        for start in range(0, n, width):
            stop = min(start + width, n)
            while full <= stop:
                pkt = packer.pack_slice(values[done:full])
                self._sent = base + full
                done = full
                full += epp
                yield from self._stage_packet(pkt)
            if stop == last and (done < stop or packer.pending):
                # The message ends mid-packet: final flush.
                pkt = packer.pack_slice(values[done:stop])
                self._sent = base + stop
                done = stop
                yield from self._stage_packet(pkt)
            self._sent = base + stop
            yield TICK
        if done < n:
            packer.buffer(values[done:])

    def _push_vec_burst(self, values, width: int) -> Generator:
        """Burst fast path for :meth:`push_vec`: per-flit-identical cycles.

        Plans runs of width-chunks against the endpoint's slot schedule —
        free slots now, plus slots whose future release cycle is already
        known (reserved by the CKS's own burst takes) — packs them with one
        vectorised packer call, stages them with the per-chunk cycles the
        element loop would have used (stalls on a full endpoint included),
        and sleeps the run's length in one event. Falls back to a literal
        (blocking) chunk when the next packet's stall cycle is unknown —
        exactly where the per-element path would block open-endedly.
        """
        ep = self.endpoint
        engine = ep.engine
        epp = self.dtype.elements_per_packet
        n = len(values)
        host = getattr(ep, "macro_host", None)
        lane = None
        if host is not None:
            lane = _SendLane(self, values, width)
            host.register_lane(ep, lane, n)
        try:
            i = 0
            while True:
                if lane is not None:
                    # A macro train may have continued this plan while we
                    # slept: adopt its frontier and sleep the remainder.
                    i = lane.i
                    lc = lane.cur
                    if lc is not None and lc > engine.cycle:
                        yield WaitCycles(lc - engine.cycle)
                        continue
                if i >= n:
                    break
                free, rels = ep.slot_plan(engine.cycle)
                rels = list(rels)
                rel_base = ep._reserved_paired
                start = engine.cycle
                planned, stage_cycles, cur, flush_tail, used = (
                    _plan_push_chunks(self._packer.pending, self._sent,
                                      self.count, values, i, width, epp,
                                      start, free, rels, 0)
                )
                if planned == 0:
                    # The very next chunk's packets exceed free space: run
                    # it as the per-flit path does, so the stall lands
                    # mid-chunk exactly there.
                    if lane is not None:
                        lane.cur = None  # mid-chunk: frontier unknown
                    w_j = min(width, n - i)
                    yield from self._push_vec_flit(values[i : i + w_j], w_j)
                    i += w_j
                    if lane is not None:
                        lane.i = i
                    continue
                packets = self._packer.pack_run(
                    values[i : i + planned], flush_tail=flush_tail
                )
                if len(packets) != len(stage_cycles):  # pragma: no cover
                    raise ChannelError(
                        f"burst planner expected {len(stage_cycles)} "
                        f"packets, packer produced {len(packets)}"
                    )
                if packets:
                    ep.stage_burst(packets, stage_cycles)
                self._sent += planned
                i += planned
                if lane is not None:
                    # Pair the releases this plan claimed so a mid-sleep
                    # macro train never hands the same slot out twice.
                    if used[1]:
                        ep._reserved_paired = rel_base + used[1]
                    lane.i = i
                    lane.cur = cur
                yield WaitCycles(cur - start)
        finally:
            if lane is not None:
                host.unregister_lane(ep, lane)


class RecvChannel:
    """Descriptor of an open receive channel (``SMI_Open_recv_channel``)."""

    def __init__(
        self,
        count: int,
        dtype: SMIDatatype,
        src_global: int,
        dst_global: int,
        port: int,
        comm: SMIComm,
        endpoint: Fifo,
        burst_mode: bool = True,
    ) -> None:
        if count < 0:
            raise ChannelError(f"message count must be >= 0: {count}")
        self.count = count
        self.dtype = dtype
        self.source_global = src_global
        self.port = port
        self.comm = comm
        self.endpoint = endpoint
        self._burst = burst_mode
        self._received = 0
        self._current = None
        self._offset = 0

    @property
    def closed(self) -> bool:
        return self._received >= self.count

    @property
    def elements_received(self) -> int:
        return self._received

    def _check_packet(self, pkt) -> None:
        if pkt.op != OpType.DATA:
            raise ChannelError(
                f"recv channel on port {self.port}: unexpected control "
                f"packet {pkt!r}"
            )
        if pkt.dtype is not None and pkt.dtype != self.dtype:
            raise TypeMismatchError(
                f"port {self.port}: channel opened with {self.dtype.name} "
                f"but packet carries {pkt.dtype.name} (§3.1.1 requires "
                "matching types)"
            )
        if pkt.src != self.source_global:
            raise ChannelError(
                f"port {self.port}: expected data from global rank "
                f"{self.source_global}, got rank {pkt.src} — two senders "
                "on one port?"
            )

    def _next_packet(self) -> Generator:
        while not self.endpoint.readable:
            yield self.endpoint.can_pop
        pkt = self.endpoint.take()
        self._check_packet(pkt)
        self._current = pkt
        self._offset = 0

    def pop(self) -> Generator:
        """``SMI_Pop``: blocking, one element, pipelineable to II=1."""
        if self._received >= self.count:
            raise MessageOverrunError(
                f"pop beyond the channel's declared count {self.count}"
            )
        if self._current is None:
            yield from self._next_packet()
        pkt = self._current
        value = pkt.payload[self._offset]
        self._offset += 1
        self._received += 1
        if self._offset >= pkt.count:
            self._current = None
        yield TICK
        return value

    def _deliver(self, plan, out, got: int) -> None:
        """Land one non-empty take plan (see :func:`_plan_pop_takes`):
        payloads into ``out`` from element ``got`` on, the received
        count, and the last packet kept current if the plan used only
        part of it."""
        start = got
        for pkt, use in plan:
            out[got:got + use] = pkt.payload[:use]
            got += use
        self._received += got - start
        if use < pkt.count:
            self._current = pkt
            self._offset = use

    def pop_vec(self, n: int, width: int | None = None) -> Generator:
        """Pop ``n`` elements, ``width`` per cycle; returns an ndarray."""
        if self._received + n > self.count:
            raise MessageOverrunError(
                f"pop of {n} exceeds declared count {self.count} "
                f"(already received {self._received})"
            )
        width = width if width is not None else n
        if width < 1:
            raise ChannelError("vector width must be >= 1")
        out = np.empty(n, dtype=self.dtype.np_dtype)
        host = getattr(self.endpoint, "macro_host", None)
        if self._burst and (host is None or host.reads(n)):
            yield from self._pop_vec_burst(n, width, out)
            return out
        got = 0
        in_cycle = 0
        ep = self.endpoint
        dtype = self.dtype
        source = self.source_global
        while got < n:
            pkt = self._current
            if pkt is None:
                # _next_packet, inline (one packet per 28 payload bytes).
                while not ep.readable:
                    yield ep.can_pop
                pkt = ep.take()
                if (pkt.op is not OpType.DATA or pkt.src != source
                        or pkt.dtype is not dtype):
                    self._check_packet(pkt)  # the full check; may raise
                self._current = pkt
                self._offset = 0
            take = min(n - got, pkt.count - self._offset, width - in_cycle)
            out[got : got + take] = pkt.payload[self._offset : self._offset + take]
            self._offset += take
            got += take
            self._received += take
            in_cycle += take
            if self._offset >= pkt.count:
                self._current = None
            if in_cycle >= width:
                yield TICK
                in_cycle = 0
        if in_cycle:
            yield TICK
        return out

    def _pop_vec_burst(self, n: int, width: int, out: np.ndarray) -> Generator:
        """Burst fast path for :meth:`pop_vec`: per-flit-identical cycles.

        Every packet physically present in the endpoint FIFO — including
        ones still staged, whose future ready cycle is known — is consumed
        in one engine event: takes land at ``max(schedule, ready)`` exactly
        where the element loop would have taken them (stalls included), and
        the process sleeps to the end of the computed schedule.
        """
        ep = self.endpoint
        engine = ep.engine
        host = getattr(ep, "macro_host", None)
        lane = None
        if host is not None:
            lane = _RecvLane(self, n, width, out)
            host.register_lane(ep, lane, n)
        try:
            yield from self._pop_vec_burst_loop(n, width, out, lane)
        finally:
            if lane is not None:
                host.unregister_lane(ep, lane)

    def _pop_vec_burst_loop(
        self, n: int, width: int, out: np.ndarray, lane
    ) -> Generator:
        ep = self.endpoint
        engine = ep.engine
        got = 0
        in_cycle = 0
        while got < n:
            if lane is not None:
                # A macro train may have consumed ahead while we slept or
                # waited: adopt its progress and pacing carry.
                got = lane.got
                in_cycle = lane.ic
                if got >= n:
                    break
            if lane is not None:
                lane.armed = False
            if self._current is not None:
                # Leftover partial packet from a previous pop: consume it
                # with the literal per-cycle steps (at most a few).
                pkt = self._current
                take = min(n - got, pkt.count - self._offset, width - in_cycle)
                out[got : got + take] = (
                    pkt.payload[self._offset : self._offset + take]
                )
                self._offset += take
                got += take
                self._received += take
                in_cycle += take
                if self._offset >= pkt.count:
                    self._current = None
                if lane is not None:
                    lane.got = got
                    lane.ic = in_cycle
                if in_cycle >= width:
                    if lane is not None:
                        lane.ic = 0
                    yield TICK
                    in_cycle = 0
                continue
            if ep.present_count == 0:
                if lane is not None:
                    lane.got = got
                    lane.ic = in_cycle
                    lane.armed = True
                yield ep.can_pop
                continue
            # ---- plan over every packet currently in the FIFO ----------
            cur = engine.cycle
            if lane is not None and lane.cur is not None and lane.cur > cur:
                # Resume the pacing frontier a macro train advanced for us.
                cur = lane.cur
            takes, plan, consumed, cur, in_cycle = _plan_pop_takes(
                self._check_packet, ep.iter_present(), n - got, width, cur,
                in_cycle)
            if not plan:
                # The head packet fails validation: consume it exactly like
                # the per-flit path (take at its visibility cycle, then
                # raise from the check with the packet already taken).
                yield from self._next_packet()
                continue
            ep.take_burst(takes)
            self._deliver(plan, out, got)
            got += consumed
            if lane is not None:
                lane.got = got
                lane.ic = in_cycle
                lane.cur = cur
                lane.armed = True
            if cur > engine.cycle:
                yield WaitCycles(cur - engine.cycle)
        if lane is not None and lane.cur is not None \
                and lane.cur > engine.cycle:
            # A macro train finished the message ahead of our wake: the
            # kernel is busy (in the per-flit sense) until the lane's end.
            yield WaitCycles(lane.cur - engine.cycle)
        if in_cycle:
            yield TICK
