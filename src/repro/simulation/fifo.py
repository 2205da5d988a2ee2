"""Registered FIFO channels between simulated hardware modules.

These model the on-chip FIFO buffers that SMI uses everywhere (§4.2): between
application endpoints and communication kernels, between communication
kernels, and — with a larger latency — the inter-FPGA serial links themselves.

Semantics (matching a hardware FIFO with registered full/empty flags):

* An item *staged* (pushed) in cycle ``t`` becomes *visible* to the consumer
  at cycle ``t + latency`` (default latency 1 — the classic one-cycle
  handoff). A link is simply a FIFO whose latency is the wire delay and
  whose write port is paced to the line rate: ``pace`` cycles per item,
  the line free again from ``next_free`` (0 / 0 on an on-chip FIFO;
  :func:`~repro.network.link.Link` builds one).
* ``capacity`` bounds the total number of items in flight (visible + staged).
  A full FIFO exerts backpressure: ``push`` blocks, which is how stalls
  propagate through a pipelined design.
* One push and one pop per port per cycle: the ``push``/``pop`` helper
  generators each consume one simulated cycle per item, exactly like an HLS
  pipeline with initiation interval 1.

Waiters and commits
-------------------

Visibility and free space are computed lazily from the clock
(:attr:`Fifo.readable`, :attr:`Fifo.writable`), so the engine's *commit*
events exist only to wake parked processes. Who is parked is recorded on
the FIFO's two interned conditions: ``can_pop.waiters`` /
``can_push.waiters`` list the processes parked on the condition (alone
or inside a tuple), and ``can_pop.watch`` is the
:class:`~repro.simulation.conditions.AnyReadable` input set the FIFO
belongs to, armed while its owner is parked (see "Waiters" in
:mod:`repro.simulation.conditions`). Every registration is a live park —
wakes and ``preempt`` withdraw theirs — so ``stage`` schedules a commit
only when there is somebody to wake, and a FIFO nobody is parked on
costs the calendar nothing.

Burst fast path
---------------

``stage_burst``/``take_burst`` move a whole run of items in a single
engine event while reproducing the per-flit cycle trajectory exactly:

* a burst *stage* records each item with the ready cycle the one-per-cycle
  handshake would have given it, so consumers observe identical ``readable``
  transitions;
* a burst *take* may consume items ahead of their per-flit take cycle (even
  items still staged, whose future ready cycle is known), but the freed slot
  is held in a *reserved* list until that cycle, so producers observe the
  identical ``writable`` trajectory and wake at the identical cycles.

Every stage and take logs its exact simulated cycle in one of two sorted
occupancy logs, in both modes. ``pushes``/``pops`` are read from those
logs (one entry per item, folded entries counted), so they are
burst-invariant. ``max_occupancy`` is the maximum end-of-cycle prefix sum
of the logs' ``+1``/``-1`` deltas, so it depends only on the per-item
cycle trajectory (which burst mode reproduces exactly), not on the
wall-time order commits happen to execute in.

Time shift
----------

:meth:`Fifo.shift` lands a *proven periodic span* without its items. The
planner's fast-forward proves that from this FIFO's frontiers to the same
frontiers ``delta`` cycles later ``n`` items pass through, nothing
outside the proving chain touches the FIFO, and every process inside the
chain sleeps to its own shifted frontier — so the only observable things
are the state at the shifted frontiers, which is the state at the
frontiers *shifted*, and the statistics, which are exact from counts:

* the folded log counts, hence ``pushes`` / ``pops``, advance by ``n``;
* both occupancy logs are *complete* below ``floor = min(producer
  frontier, consumer frontier)`` — no later event can land under it — so
  the prefix below ``floor`` folds ahead of the clock, exactly; the
  occupancy trajectory is periodic from one period below ``floor`` on, so
  the peak over the skipped span is the peak the fold already holds;
* what lies at or above ``floor`` — the rows' ready cycles, the pending
  releases (their pairing count untouched), the log entries — moves by
  ``delta``, the rows now carrying the packets ``n`` later in the stream;
* ``_occ_folded_through`` moves to ``floor``: time-filtered queries at
  or above it answer exactly — inside the span from the recorded period
  (the span's events are that period, ``delta / period`` times) — and
  below it they raise (:meth:`Fifo._check_fold_watermark`, the existing
  contract).

What cannot be shifted exactly — either half of a cut link (its
``boundary`` mark: the peer shard sees every item), a parked waiter — is
refused before anything is mutated (:meth:`Fifo.shift_refusal`). A run
cut by ``max_cycles`` inside a shifted span sees what it sees after any early bulk commit: the raw
``pushes`` / ``pops`` include the committed future events, and
``max_occupancy`` reports the peak through the fold — by periodicity the
peak of every period of the span. Time-filtered queries at the cut (a
sharded run's stats merge) stay exact as long as the span is the FIFO's
last; below an older span they raise.

Supply schedules
----------------

A FIFO is also the ledger of the *supply-schedule contract* consumed by
the burst planner (:mod:`repro.transport.planner`): any flit source — an
app channel's vectorised push, a CK's planned forward, a collective
support kernel, a link — publishes its commitments simply by staging
early with exact future cycles, and :meth:`present_schedule` exposes them.
Beyond the staged items, :meth:`supply_horizon` bounds the *unknown*
future: with a registered (closed) producer set, no arrival can become
visible before the earliest producer wake plus the FIFO latency
(producer-sleep horizons); without one, the bound degrades to
``now + latency``; flow-dead FIFOs are empty forever.

Staged store, reserved slots and the pairing count
--------------------------------------------------

Private fields carry the items in flight and the slot economy between
burst takes and the planners' future stages; their invariants are
load-bearing for everything in :mod:`repro.transport.planner`:

``_staged`` / ``_ready``
    The row store, columnar and the only one: two deques in lock step,
    ``_staged[i]`` the item and ``_ready[i]`` the cycle it becomes
    visible (non-decreasing — single producer). A row stays until it is
    taken; it is visible while ``_ready[i] <= now``, so every row keeps
    its ready cycle and the head is readable when ``_ready[0] <= now``.
    One packet is one *row* of the two columns, never a container object
    of its own: a bulk stage is two C-level ``extend`` calls, a bulk take
    drops the same prefix from both, and no per-packet object is left
    for CPython's cyclic collector to track (a ``(ready, item)`` tuple
    per packet made the collector more than half of a macro-cruise run's
    wall time, growing super-linearly with message size). Invariant:
    ``len(_staged) == len(_ready)`` between any two method calls; every
    path — per-flit ``stage``/``take``, the burst plane, boundary
    injection and acks — appends to and pops from both columns together.
    A cut link's transmitting half ships straight from these columns
    (:class:`~repro.shard.proxy.BoundaryTx`): its rows past the shipped
    cursor are the stages no exchange has shipped yet.

``_reserved``
    The release cycles (non-decreasing) of slots a burst consumer took
    *ahead of the wall clock*: the item left the FIFO at commit time, but
    the slot stays occupied until its per-flit take cycle so producers
    observe the exact per-flit ``writable`` trajectory. Entries are
    appended by ``take_burst`` (whose cycle runs are monotone per the
    single-consumer ordering tripwire) and trimmed from the front as the
    clock passes them (:meth:`_trim_reserved`), waking blocked producers
    through the commit calendar. Until a FIFO's first burst take the
    field is the shared empty tuple, not a deque of its own.

``_reserved_paired``
    How many *leading* ``_reserved`` entries a producer's committed plan
    has already paired a future stage against. A planner may commit a
    stage at ``release + 1`` long before the wall clock reaches the
    release; without this count the *next* plan's :meth:`slot_plan` would
    hand the same slot out twice. Invariants: paired entries are always
    the oldest (pairing consumes releases strictly in order);
    ``0 <= _reserved_paired <= len(_reserved)``; the count survives
    across engine events and drains together with the releases it covers
    (:meth:`_trim_reserved` decrements both in step); and
    :meth:`slot_plan` both excludes paired releases from the offered
    schedule *and* adds their double-counted slot back into the free
    budget (the reservation and the future-dated staged item paired to it
    otherwise both occupy). Three writers advance it, each only when it
    commits a stage paired to a release:
    :meth:`repro.transport.planner_window._TargetCursor.commit`, and the
    app send channel's vector pushes in :mod:`repro.core.channel`
    (``_SendLane.finish`` and ``SendChannel._push_vec_burst``) —
    speculative plans that roll back never touch it.

Both sides assume the single-producer / single-consumer wiring the SMI
transport uses everywhere: per-item cycles are computed under the invariant
that free space only grows and visibility only advances during a planned
burst window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice, repeat
from operator import gt
from typing import Any, Generator, Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import SimulationError
from .conditions import TICK, CanPop, CanPush, WaitCycles
from .engine import FOREVER

#: Fold the occupancy delta log into (base, peak) once it grows past this
#: many events, so long-running kernels carry O(1) state.
_OCC_FOLD_LIMIT = 8192

#: :meth:`Fifo._occ_sweep` takes its NumPy path from this many log
#: entries in the swept window on (see the comment there).
_OCC_BULK_MIN = 128


class Fifo:
    """A bounded FIFO with registered (cycle-delayed) visibility.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.simulation.engine.Engine`.
    name:
        Diagnostic name (shows up in deadlock reports and stats).
    capacity:
        Maximum items in flight. Must be >= 1.
    latency:
        Cycles between staging an item and it becoming visible. Must be >= 1
        (hardware handoff takes at least one cycle); links use larger values.
    """

    __slots__ = (
        "engine",
        "name",
        "capacity",
        "latency",
        "_staged",
        "_ready",
        "_reserved",
        "_reserved_paired",
        "can_pop",
        "can_push",
        "_occ_stages",
        "_occ_takes",
        "_occ_base",
        "_occ_peak",
        "_occ_folded_stages",
        "_occ_folded_takes",
        "_occ_folded_through",
        "_occ_span",
        "macro_host",
        "_flow_dead",
        "producers",
        "_stage_guard",
        "horizon_pin",
        "boundary",
        "_take_log",
        "pace",
        "next_free",
        "src",
        "dst",
    )

    def __init__(self, engine, name: str, capacity: int, latency: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"fifo {name!r}: capacity must be >= 1")
        if latency < 1:
            raise SimulationError(f"fifo {name!r}: latency must be >= 1")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.latency = latency
        # Row store, columnar: ``_staged[i]`` becomes visible at
        # ``_ready[i]`` (lock-step; see "Staged store" in the module doc).
        self._staged: deque = deque()
        self._ready: deque = deque()
        # Slots taken ahead of schedule by a burst consumer, held occupied
        # until their per-flit take cycle (non-decreasing release cycles).
        # The shared empty tuple stands in until the first burst take: an
        # empty deque is 760 bytes, most FIFOs of a fabric never see one,
        # and every reader only tests, measures or iterates the log.
        self._reserved: deque | tuple = ()
        # How many leading reserved entries a producer's committed plan has
        # already paired a future stage against. A cascade can commit a
        # stage at ``release + 1`` long before the wall clock reaches the
        # release, and the *next* plan must not hand the same slot out
        # twice; the pairing count survives across engine events and drains
        # together with the releases it covers.
        self._reserved_paired = 0
        self.can_pop = CanPop(self)
        self.can_push = CanPush(self)
        # --- statistics ---
        # Exact occupancy tracking: a time-indexed delta log, kept as two
        # *sorted* cycle lists (stages and takes are each monotone per
        # FIFO — single producer, single consumer) and folded lazily into
        # (base, peak) with a linear merge, no sorting.
        self._occ_stages: list[int] = []
        self._occ_takes: list[int] = []
        self._occ_base = 0
        self._occ_peak = 0
        # Events already folded out of the logs (exact per-item counts;
        # every folded entry's cycle is below the fold threshold, which
        # the engine's ``stats_fold_limit`` watermark may clamp).
        self._occ_folded_stages = 0
        self._occ_folded_takes = 0
        # Exclusive cycle bound of the folded log prefix: time-filtered
        # queries below it would silently include folded (unsplittable)
        # events, so counts_at/max_occupancy_at refuse them loudly. Bulk
        # clock jumps (macro-cruise trains, sharded run_until) can move
        # folds far ahead of any previously observed clock in one event.
        self._occ_folded_through = 0
        # The last time shift's span (see :meth:`shift`): ``(floor,
        # period, periods, stage cycles, take cycles of the period below
        # floor)`` — what answers ``counts_at`` inside the span.
        self._occ_span: tuple | None = None
        # Macro-cruise host: the SupplyPlanner app-side channel lanes on
        # this endpoint register with (set by the transport builder on
        # app send/recv endpoints when ``HardwareConfig.macro_cruise``).
        self.macro_host = None
        # Static flow liveness (set by the transport builder): True means no
        # declared communication flow can ever route a packet through this
        # FIFO, so a burst planner may treat it as empty at any future cycle.
        # Guarded by a stage-time tripwire rather than trusted silently.
        self._flow_dead = False
        # Closed producer set (supply-schedule contract): None means the
        # writers of this FIFO are unknown (app endpoints); a tuple of
        # Process handles means *only* those processes ever stage here, so
        # the burst planner may derive producer-sleep horizons from their
        # wake floors. Guarded by a stage-time tripwire like flow_dead.
        self.producers: tuple | None = None
        # One combined flag so the per-stage hot path pays a single branch
        # for both tripwires (kept in sync by the property/registration).
        self._stage_guard = False
        # Sharded-backend proxy contract (see repro.shard.proxy): both
        # halves of a cut link set ``boundary``; on the consumer side a
        # pinned horizon stands in for the *remote* producer's sleep
        # floor, and the take log captures the exact take cycles to ack
        # to the peer shard. Pin and log stay None outside sharded
        # builds, so the take paths pay one is-None branch.
        self.horizon_pin: int | None = None
        self.boundary = False
        self._take_log: list | None = None
        # A link's write port (:func:`repro.network.link.Link`): cycles
        # per line slot, the first cycle the line takes the next item,
        # and the ``(rank, iface)`` ends. 0 / 0 / None on on-chip FIFOs.
        self.pace = 0
        self.next_free = 0
        self.src = self.dst = None
        engine._register_fifo(self)

    @property
    def flow_dead(self) -> bool:
        return bool(self._flow_dead)

    @flow_dead.setter
    def flow_dead(self, value: bool | str) -> None:
        """``True``, or the reason as a string (the tripwire quotes it)."""
        self._flow_dead = value
        self._stage_guard = bool(value) or self.producers is not None

    # ------------------------------------------------------------------
    # Combinational status (as seen by processes in the current cycle)
    # ------------------------------------------------------------------
    @property
    def readable(self) -> bool:
        """True if at least one item is visible this cycle.

        Visibility is computed lazily: an item staged at ``t`` counts as
        visible from ``t + latency`` on without requiring a commit event —
        the engine's commit calendar is only used to *wake* blocked
        processes (see :meth:`_commit`), which keeps the event count
        per burst O(1) instead of O(items).
        """
        ready = self._ready
        return bool(ready) and ready[0] <= self.engine.cycle

    @property
    def _consumer_parked(self) -> bool:
        """Somebody to wake when an item turns visible: a process listed
        on ``can_pop``, or the armed watcher of this FIFO's input set."""
        can_pop = self.can_pop
        return bool(can_pop.waiters) or can_pop.watch.proc is not None

    def _trim_reserved(self, now: int) -> None:
        """Drop reserved entries whose release cycle has passed, keeping
        the paired-prefix count aligned (paired entries are the oldest).

        The boundary is strict: a slot whose pre-committed release cycle
        *is* ``now`` stays reserved until the next cycle. The per-flit
        contract everywhere — the engine's delay-1 producer wake, the
        planner's ``release + 1`` stage pacing — is that a slot freed by
        a take at cycle ``c`` becomes usable at ``c + 1``; an observer
        whose event happens to land exactly on ``c`` (a window ending
        there, an epoch boundary) must not see the slot a cycle early.
        (A take executed *in* the current cycle frees its slot
        immediately via ``take_burst``'s same-cycle path instead — that
        models the consumer itself running this cycle, not a
        pre-committed future release.)"""
        reserved = self._reserved
        if reserved and reserved[0] < now:
            if reserved[-1] < now:
                # Whole-log trim (the common case after a bulk clock
                # jump: every pre-committed release is in the past).
                reserved.clear()
                self._reserved_paired = 0
                return
            paired = self._reserved_paired
            while reserved and reserved[0] < now:
                reserved.popleft()
                if paired:
                    paired -= 1
            self._reserved_paired = paired

    def has_space(self) -> bool:
        """True if there is room for one more item (what ``can_push``
        waits for)."""
        if self._reserved:
            self._trim_reserved(self.engine.cycle)
        return len(self._staged) + len(self._reserved) < self.capacity

    @property
    def writable(self) -> bool:
        """True if one item can be staged this cycle: there is room, and
        a link's line is free (:meth:`has_space`, inlined)."""
        if self._reserved:
            self._trim_reserved(self.engine.cycle)
        return (len(self._staged) + len(self._reserved) < self.capacity
                and self.engine.cycle >= self.next_free)

    def slot_plan(self, now: int) -> tuple[int, list]:
        """``(free_slots, pending_release_cycles)`` in one pass.

        The burst planner's slot snapshot: currently free slots plus the
        sorted future release cycles of slots still reserved by a
        consumer's burst takes. A producer plans stages beyond the free
        slots against these: slot ``free + j`` becomes stageable at
        ``releases[j] + 1`` — the cycle a producer blocked on ``can_push``
        would wake and stage in the per-flit path.

        Releases a committed plan already paired a future stage against
        are excluded (and their double-counted slot — the reservation plus
        the future-dated staged item — added back), so successive plans of
        one producer see a consistent budget no matter how far ahead of
        the wall clock earlier windows committed.
        """
        self._trim_reserved(now)
        reserved = self._reserved
        paired = self._reserved_paired
        free = self.capacity - len(self._staged) - len(reserved) + paired
        if paired:
            return free, list(islice(reserved, paired, None))
        return free, list(reserved)

    @property
    def present_count(self) -> int:
        """Items physically in the FIFO (visible + staged, not reserved)."""
        return len(self._staged)

    def wait_writable(self):
        """Condition for a producer that found the FIFO not writable: free
        space, or the cycle a link's line takes the next item."""
        gap = self.next_free - self.engine.cycle
        if gap <= 0 or not self.has_space():
            return self.can_push
        return WaitCycles(gap)

    def __len__(self) -> int:
        """Items visible this cycle."""
        return bisect_right(self._ready, self.engine.cycle)

    # ------------------------------------------------------------------
    # Raw single-cycle operations (used by the handshake helpers below and
    # by modules that interleave several FIFO operations in one cycle).
    # ------------------------------------------------------------------
    def _reject_flow_dead(self) -> None:
        reason = self._flow_dead
        if not isinstance(reason, str):
            reason = ("an OpDecl.peer declaration does not match actual "
                      "traffic, or the builder's flow-liveness analysis "
                      "missed a route")
        raise SimulationError(
            f"fifo {self.name!r}: staged but marked flow-dead — {reason}")

    def _reject_foreign_producer(self, proc) -> None:
        raise SimulationError(
            f"fifo {self.name!r}: staged by process {proc.name!r} which is "
            "not in the registered producer set — the supply-schedule "
            "contract assumed a closed set of writers, so planner horizons "
            "derived from it would silently diverge"
        )

    def _reject_early_take(self, cycle: int, ready: int) -> None:
        raise SimulationError(
            f"fifo {self.name!r}: take_burst at cycle {cycle} but next "
            f"item is only visible at {ready}"
        )

    def _check_stage_allowed(self) -> None:
        if self._flow_dead:
            self._reject_flow_dead()
        producers = self.producers
        if producers is not None:
            cur = self.engine._current_proc
            if cur is not None and cur not in producers:
                self._reject_foreign_producer(cur)

    def stage(self, item: Any) -> None:
        """Stage one item this cycle; it becomes visible ``latency`` later.

        The caller must have checked :attr:`writable`; staging into a full
        FIFO, or a link whose line is busy, is a simulation bug and raises.
        """
        now = self.engine.cycle
        staged = self._staged
        if self._reserved:
            self._trim_reserved(now)
        present = len(staged)
        if present + len(self._reserved) >= self.capacity:
            raise SimulationError(f"fifo {self.name!r}: stage() while full")
        if self._stage_guard:
            self._check_stage_allowed()
        pace = self.pace
        if pace:
            if now < self.next_free:
                raise SimulationError(
                    f"link {self.name}: stage() while busy or full")
            self.next_free = now + pace
        staged.append(item)
        self._ready.append(now + self.latency)
        can_pop = self.can_pop  # _consumer_parked, inline
        if can_pop.waiters or can_pop.watch.proc is not None:
            self.engine._schedule_commit(self._ready[0], self)
        occ = self._occ_stages
        occ.append(now)
        if len(occ) > _OCC_FOLD_LIMIT:
            self._occ_fold()
        trace = self.engine.trace
        if trace is not None:
            trace.emit(now, "stage", self.name, "stage")
            trace.sample(f"fifo_occ/{self.name}", now, present + 1)
            if pace:
                trace.emit(now, "xfer", self.name, "xfer", dur=pace)
                trace.sample(f"link_util/{self.name}", now,
                             self.utilization(max(now, 1)))

    def take(self) -> Any:
        """Remove and return the oldest visible item (must be readable)."""
        now = self.engine.cycle
        ready = self._ready
        if not ready or ready[0] > now:
            raise SimulationError(f"fifo {self.name!r}: take() while empty")
        ready.popleft()
        staged = self._staged
        item = staged.popleft()
        if self._take_log is not None:
            self._take_log.append(now)
        occ = self._occ_takes
        occ.append(now)
        if len(occ) > _OCC_FOLD_LIMIT:
            self._occ_fold()
        trace = self.engine.trace
        if trace is not None:
            trace.emit(now, "take", self.name, "take")
            trace.sample(f"fifo_occ/{self.name}", now, len(staged))
        # Space freed: wake any blocked producers (registered flag -> next
        # cycle, handled by the engine's wake scheduling).
        if self.can_push.waiters:
            self.engine._wake(self.can_push, delay=1)
        return item

    # ------------------------------------------------------------------
    # Burst fast path: move runs of items in one engine event with
    # analytically computed per-item cycles (see module docstring).
    # ------------------------------------------------------------------
    def iter_present(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(item, ready_cycle)`` oldest-first over visible + staged.

        Visible items report the current cycle (they are takeable now);
        staged items report the future cycle they become visible. Burst
        planners walk this to compute exact per-flit schedules.
        """
        return zip(self._staged,
                   map(max, self._ready, repeat(self.engine.cycle)))

    def present_schedule(self, now: int, limit: int = 0) -> tuple[list, list]:
        """``(items, ready_cycles)`` oldest-first over visible + staged.

        The list form of :meth:`iter_present`, built with minimal overhead
        for the burst planner's per-window snapshot. A positive ``limit``
        truncates the snapshot (planners treat the cut as an unknown-future
        boundary, which is always sound — a deep link FIFO would otherwise
        be copied wholesale to serve a handful of takes).
        """
        staged = self._staged
        if not staged:
            return (), ()
        if limit and len(staged) > limit:
            items = list(islice(staged, limit))
            ready = list(islice(self._ready, limit))
        else:
            items = list(staged)
            ready = list(self._ready)
        nv = bisect_right(ready, now)
        if nv:
            ready[:nv] = repeat(now, nv)
        return items, ready

    def stage_burst(self, items: Sequence[Any], cycles: Sequence[int],
                    verify_occupancy: bool = True) -> None:
        """Stage ``items[i]`` as if at ``cycles[i]`` (visible ``latency``
        later), all within the current engine event.

        ``cycles`` must be non-decreasing and start at or after the current
        cycle; the caller must have checked :meth:`slot_plan` has room for it
        (the per-flit path would not have staged a run it cannot fit — a
        burst that overcommits is a planner bug and raises).
        ``verify_occupancy=False`` skips the per-item occupancy-trajectory
        tripwire: the window planner paces every stage against
        :meth:`slot_plan`'s release schedule (with persistent pairing
        bookkeeping), and re-walking the trajectory on its long
        reserved/paired lists every commit would dominate the fast path
        the planner exists to provide. A link's run starts no earlier
        than ``next_free``, and the line is busy until ``pace`` cycles
        after its last stage.
        """
        k = len(items)
        if k == 0:
            return
        if len(cycles) != k:
            raise SimulationError(
                f"fifo {self.name!r}: stage_burst items/cycles length mismatch"
            )
        now = self.engine.cycle
        if cycles[0] < now:
            raise SimulationError(
                f"fifo {self.name!r}: stage_burst cycle {cycles[0]} is in "
                f"the past (now {now})"
            )
        if self._stage_guard:
            self._check_stage_allowed()
        pace = self.pace
        if pace and cycles[0] < self.next_free:
            raise SimulationError(
                f"link {self.name}: burst starts at {cycles[0]} but the "
                f"line is busy until {self.next_free}")
        staged = self._staged
        latency = self.latency
        prev = cycles[0]
        # Walk the per-flit occupancy at each stage instant: reserved slots
        # release over time, so a burst may stage beyond the instantaneous
        # free space as long as every stage lands in a slot that is free by
        # its own cycle (the planner paced it against slot_plan releases).
        reserved = self._reserved
        n_res = len(reserved)
        base = len(staged)
        capacity = self.capacity
        if (n_res == 0 and base + k <= capacity) or not verify_occupancy:
            # Fast path: no reserved slots and the whole run fits (or the
            # caller is the planner, which already paced each stage) — the
            # monotonicity check runs at C speed over cycle pairs.
            if k > 1 and any(map(gt, cycles, islice(cycles, 1, None))):
                raise SimulationError(
                    f"fifo {self.name!r}: stage_burst cycles not monotone"
                )
            ready_run = [cyc + latency for cyc in cycles]
        else:
            res_idx = 0
            paired = self._reserved_paired
            for cyc in cycles:
                if cyc < prev:
                    raise SimulationError(
                        f"fifo {self.name!r}: stage_burst cycles not monotone"
                    )
                prev = cyc
                base += 1
                # Strict: a pre-committed release frees its slot for
                # stages from release + 1 on (the per-flit wake cycle).
                while res_idx < n_res and reserved[res_idx] < cyc:
                    res_idx += 1
                # Pending *paired* reservations back items already counted
                # in ``base`` (committed future stages), so they net out.
                occ = base + (n_res - res_idx) - (
                    paired - res_idx if paired > res_idx else 0
                )
                if occ > capacity:
                    raise SimulationError(
                        f"fifo {self.name!r}: stage_burst overcommits at "
                        f"cycle {cyc} ({occ} slots in a {capacity}-deep FIFO)"
                    )
            ready_run = [cyc + latency for cyc in cycles]
        # One packet = one row: two C-level extends, no per-item container.
        staged.extend(items)
        self._ready.extend(ready_run)
        occ_stages = self._occ_stages
        if occ_stages and cycles[0] < occ_stages[-1]:
            raise SimulationError(
                f"fifo {self.name!r}: stage_burst at cycle {cycles[0]} "
                f"behind an already-recorded stage at {occ_stages[-1]} — "
                "the single-producer monotonicity the occupancy log relies "
                "on does not hold here"
            )
        occ_stages.extend(cycles)
        if len(occ_stages) > _OCC_FOLD_LIMIT:
            self._occ_fold()
        if pace:
            self.next_free = cycles[-1] + pace
        if self._consumer_parked:
            self.engine._schedule_commit(self._ready[0], self)
        trace = self.engine.trace
        if trace is not None:
            trace.emit(cycles[0], "stage", self.name, "stage-burst",
                       dur=cycles[-1] - cycles[0], args={"n": k})
            trace.sample(f"fifo_occ/{self.name}", cycles[-1], len(staged))
            if pace:
                trace.emit(cycles[0], "xfer", self.name, "xfer-burst",
                           dur=cycles[-1] - cycles[0] + pace, args={"n": k})
                trace.sample(f"link_util/{self.name}", cycles[-1],
                             self.utilization(max(cycles[-1], 1)))

    def take_burst(self, cycles: Sequence[int]) -> None:
        """Remove the ``len(cycles)`` oldest items as if taken one per
        ``cycles[i]``, all within the current engine event.

        Items may still be staged as long as they are visible by their take
        cycle. Each freed slot stays *reserved* until its take cycle, so
        producers see the per-flit ``writable`` trajectory; the engine
        releases the slot (and wakes blocked producers) on schedule.
        Nothing is returned: callers hold the item identities from their
        planning snapshot (``present_schedule`` / ``iter_present``).
        """
        k = len(cycles)
        if k == 0:
            return
        now = self.engine.cycle
        if cycles[0] < now:
            raise SimulationError(
                f"fifo {self.name!r}: take_burst cycle {cycles[0]} is in "
                f"the past (now {now})"
            )
        if k > 1 and any(map(gt, cycles, islice(cycles, 1, None))):
            raise SimulationError(
                f"fifo {self.name!r}: take_burst cycles not monotone"
            )
        staged = self._staged
        if k > len(staged):
            raise SimulationError(
                f"fifo {self.name!r}: take_burst ran out of items"
            )
        ready_q = self._ready
        # Visibility check fused into the pop loop: row i must be ready
        # by its take cycle. (The raise aborts the whole simulation, so
        # the partial mutation before it is moot.)
        for cyc in cycles:
            ready = ready_q.popleft()
            if ready > cyc:
                self._reject_early_take(cyc, ready)
            staged.popleft()
        # Slot bookkeeping: every take — current-cycle ones included —
        # holds its slot *reserved* until the cycle after its take cycle
        # (the strict ``_trim_reserved`` boundary). Producers therefore
        # observe a freed slot at ``take + 1`` — the cycle a blocked
        # per-flit producer would wake — regardless of how this commit's
        # engine event happens to be ordered against a producer event in
        # the same cycle. (A per-flit ``take()`` keeps its immediate-free
        # semantics: it *is* the reference, and per-flit producers racing
        # it are always parked, never polling mid-cycle.)
        if self.can_push.waiters:
            if cycles[0] == now:
                self.engine._wake(self.can_push, delay=1)
            else:
                # A blocked producer needs its wake at the first release.
                self.engine._schedule_commit(cycles[0], self)
        reserved = self._reserved
        if type(reserved) is tuple:
            reserved = self._reserved = deque()
        reserved.extend(cycles)
        if self._take_log is not None:
            self._take_log.extend(cycles)
        occ_takes = self._occ_takes
        if occ_takes and cycles[0] < occ_takes[-1]:
            raise SimulationError(
                f"fifo {self.name!r}: take_burst at cycle {cycles[0]} "
                f"behind an already-recorded take at {occ_takes[-1]} — "
                "the single-consumer monotonicity the occupancy log relies "
                "on does not hold here"
            )
        occ_takes.extend(cycles)
        if len(occ_takes) > _OCC_FOLD_LIMIT:
            self._occ_fold()
        trace = self.engine.trace
        if trace is not None:
            trace.emit(cycles[0], "take", self.name, "take-burst",
                       dur=cycles[-1] - cycles[0], args={"n": k})
            trace.sample(f"fifo_occ/{self.name}", cycles[-1], len(staged))

    # ------------------------------------------------------------------
    # Time shift: land a proven periodic span as arithmetic on the state
    # at the frontiers (see "Time shift" in the module docstring).
    # ------------------------------------------------------------------
    def shift_refusal(self) -> str | None:
        """Why :meth:`shift` could not move this FIFO exactly (``None``
        when it can)."""
        if self.boundary:
            return "boundary link: the peer shard sees every item"
        if self.can_push.waiters or self._consumer_parked:
            return "parked waiter"
        return None

    def shift(self, n: int, delta: int, period: int, floor: int,
              items: Sequence[Any]) -> None:
        """Land ``n`` items passing through over ``delta`` cycles — whole
        periods of ``period`` cycles — as a time shift of the state at
        ``floor``.

        The caller has proven the contract in the module docstring:
        ``floor`` is the lower of this FIFO's producer and consumer
        frontiers, nobody observes the FIFO before the shifted frontiers,
        and everything at or above ``floor`` (plus the logs one period
        below it) is on the period lattice. ``items`` are the packets the
        surviving rows carry at the end — the ones ``n`` later in the
        stream, oldest first. Refuses (raises, nothing mutated) what
        :meth:`shift_refusal` names.
        """
        stages = self._occ_stages
        takes = self._occ_takes
        occ, peak, i, j = self._occ_sweep(floor)
        # The skipped span repeats the period just below the floor.
        span_stages = stages[bisect_left(stages, floor - period, 0, i):i]
        span_takes = takes[bisect_left(takes, floor - period, 0, j):j]
        refusal = self.shift_refusal()
        if refusal is None and len(items) != len(self._staged):
            refusal = (f"{len(items)} replacement items for "
                       f"{len(self._staged)} rows")
        per_period = len(span_stages)
        if refusal is None and (len(span_takes) != per_period
                                or per_period * delta != n * period):
            refusal = (f"the period below cycle {floor} logged "
                       f"{per_period} stages and {len(span_takes)} "
                       f"takes, not {n} per {delta} cycles")
        if refusal is not None:
            raise SimulationError(
                f"fifo {self.name!r}: time shift refused — {refusal}")
        # Fold the complete log prefix ahead of the clock. This may pass
        # the sharded ``stats_fold_limit`` watermark: every shifted event
        # precedes the receiving kernel's last pop (the prover leaves the
        # message's tail outside the span), hence the global end cycle
        # the watermark stands for — and a query inside the span, e.g. a
        # run cut there, is still answered from the recorded period.
        self._occ_base = occ
        self._occ_peak = peak
        self._occ_folded_stages += i + n
        self._occ_folded_takes += j + n
        self._occ_stages = [c + delta for c in stages[i:]]
        self._occ_takes = [c + delta for c in takes[j:]]
        self._occ_folded_through = floor
        self._occ_span = (floor, period, delta // period,
                          span_stages, span_takes)
        # Releases below the floor are unobservable (the producer sleeps
        # past them); the pending ones move, pairing count in step.
        self._trim_reserved(floor)
        if self._reserved:
            self._reserved = deque([c + delta for c in self._reserved])
        self._ready = deque([r + delta for r in self._ready])
        self._staged = deque(items)
        if self.pace:
            self.next_free += delta  # a link's line moves with its rows
        trace = self.engine.trace
        if trace is not None:
            trace.emit(floor, "shift", self.name, "shift", dur=delta,
                       args={"n": n})
            trace.sample(f"fifo_occ/{self.name}", floor + delta,
                         len(self._staged))

    # ------------------------------------------------------------------
    # Exact occupancy accounting (time-indexed delta log)
    # ------------------------------------------------------------------
    def _occ_sweep(self, stop: int) -> tuple[int, int, int, int]:
        """Prefix-sum sweep of both sorted cycle logs over cycles < stop.

        Returns ``(occ, peak, stages_consumed, takes_consumed)``. Events
        of one cycle net out before the peak check — the registered-FIFO
        view, where everything on one clock edge commits together.
        """
        stages = self._occ_stages
        takes = self._occ_takes
        occ = self._occ_base
        peak = self._occ_peak
        ns_w = bisect_right(stages, stop - 1)
        nt_w = bisect_right(takes, stop - 1)
        if ns_w + nt_w >= _OCC_BULK_MIN:
            # Bulk path: the same registered-FIFO view as the scalar
            # merge below. Occupancy only rises at stage cycles, so the
            # end-of-cycle peak is attained at some stage cycle c with
            # value ``#stages <= c  -  #takes <= c`` — two C-speed
            # binary-search sweeps over the already-sorted logs.
            # Both paths stay because each wins on its own sizes. The
            # scalar merge costs ~0.17 µs per entry; the bulk path pays
            # ~8 µs of array set-up first, then ~0.04 µs per entry.
            # Measured on a 2-core Xeon (one stage and one take per
            # cycle pair), the two tie at 64 to 96 entries; at 128 the
            # bulk path is 1.3-1.8x faster, at 4 096 4x. The sweeps
            # that make the crossover matter are the short ones: the
            # end-of-run ``fifo_stats`` of a FIFO that moved a few
            # hundred items, a shift folding one chain FIFO's prefix.
            if ns_w:
                cs = np.array(stages[:ns_w], dtype=np.int64)
                ct = np.array(takes[:nt_w], dtype=np.int64)
                hi = occ + int(np.max(
                    np.searchsorted(cs, cs, side="right")
                    - np.searchsorted(ct, cs, side="right")
                ))
                if hi > peak:
                    peak = hi
            return occ + ns_w - nt_w, peak, ns_w, nt_w
        i = j = 0
        ns = len(stages)
        nt = len(takes)
        while True:
            s = stages[i] if i < ns else stop
            t = takes[j] if j < nt else stop
            cyc = s if s <= t else t
            if cyc >= stop:
                break
            while i < ns and stages[i] == cyc:
                occ += 1
                i += 1
            while j < nt and takes[j] == cyc:
                occ -= 1
                j += 1
            if occ > peak:
                peak = occ
        return occ, peak, i, j

    def _occ_fold(self) -> None:
        """Fold log entries strictly before the current cycle into
        ``(base, peak)`` — they are final, since every logging path stamps
        cycles at or after the wall clock.

        Under a sharded backend the engine carries a ``stats_fold_limit``
        watermark (a proven lower bound on the global end cycle): folds
        never cross it, so even on a shard whose clock runs ahead of the
        eventual global end, every folded entry provably lies at or
        before that end and :meth:`counts_at` stays exact.
        """
        now = self.engine.cycle
        limit = self.engine.stats_fold_limit
        if limit is not None and limit + 1 < now:
            now = limit + 1
        occ, peak, i, j = self._occ_sweep(now)
        self._occ_base = occ
        self._occ_peak = peak
        if now > self._occ_folded_through:
            self._occ_folded_through = now
        if i:
            self._occ_folded_stages += i
            del self._occ_stages[:i]
        if j:
            self._occ_folded_takes += j
            del self._occ_takes[:j]

    @property
    def pushes(self) -> int:
        """Items ever staged: one stage-log entry each, folded or not."""
        return self._occ_folded_stages + len(self._occ_stages)

    @property
    def pops(self) -> int:
        """Items ever taken: one take-log entry each, folded or not."""
        return self._occ_folded_takes + len(self._occ_takes)

    def utilization(self, cycles: int) -> float:
        """Fraction of a link's line slots over ``cycles`` that carried an
        item (0 on an on-chip FIFO)."""
        if cycles <= 0:
            return 0.0
        return self.pushes * self.pace / cycles

    @property
    def max_occupancy(self) -> int:
        """Exact peak occupancy (items in flight plus reserved slots).

        The maximum *end-of-cycle* prefix sum of the stage/take cycle logs
        up to the current cycle. Because the logs hold exact per-item
        cycles in burst and per-flit mode alike, the statistic is
        burst-invariant (the equivalence suite asserts it) — committed
        future events beyond the wall clock are excluded until the clock
        reaches them.
        """
        return self._occ_sweep(self.engine.cycle + 1)[1]

    # ------------------------------------------------------------------
    # Supply-schedule contract (consumed by the burst planner)
    # ------------------------------------------------------------------
    def register_producer(self, proc) -> None:
        """Add ``proc`` to this FIFO's *closed* producer set.

        Registration is a contract: once any producer is registered, only
        registered processes may stage here (a stage-time tripwire
        enforces it), which is what makes :meth:`supply_horizon` sound.
        The transport builder registers the structurally closed sets
        (CK-to-CK FIFOs, links, receive endpoints, support-kernel
        outputs); app-written endpoints stay unregistered because kernels
        may push from helper processes the metadata cannot see.
        """
        if proc is None:
            return
        if self.producers is None:
            self.producers = (proc,)
        elif proc not in self.producers:
            self.producers = self.producers + (proc,)
        self._stage_guard = True

    def supply_horizon(self, memo: dict | None = None, depth: int = 0) -> int:
        """Exclusive cycle below which no *unknown* arrival can be visible.

        The planner's "provably unreadable" bound for a drained input:
        flow-dead FIFOs never see traffic; a registered producer set
        yields a producer-sleep horizon (earliest producer wake, via
        :meth:`Engine.process_floor`, plus this FIFO's latency); unknown
        writers degrade to ``now + latency`` (a stage this cycle turns
        visible no earlier than that).

        A *pinned* horizon (the sharded backend's proxy contract) takes
        precedence over producer floors: the pin is the remote shard's
        published visibility bound for this boundary FIFO, valid for the
        whole epoch regardless of the local clock — returning it even
        when it is below ``now + latency`` is merely conservative, while
        a clock-relative bound could over-claim silence past the epoch.
        A flow-dead boundary FIFO still reports FOREVER (injections into
        one trip the same guard as stages, so the claim stays honest).
        """
        if self._flow_dead:
            return FOREVER
        pin = self.horizon_pin
        if pin is not None:
            return pin
        producers = self.producers
        now = self.engine.cycle
        if producers is None:
            return now + self.latency
        floor = FOREVER
        engine = self.engine
        for proc in producers:
            f = engine.process_floor(proc, memo, depth)
            if f < floor:
                floor = f
                if floor <= now:
                    break
        if floor >= FOREVER:
            return FOREVER
        return floor + self.latency

    def earliest_readable(self, memo: dict | None = None,
                          depth: int = 0) -> int:
        """Lower bound on the next cycle this FIFO can be readable.

        With items present the head's visibility cycle is exact (FIFO
        order: nothing behind the head can overtake it); drained FIFOs
        fall back to the supply horizon. Used by
        :meth:`Engine.process_floor` to bound the wake of a process
        parked on ``CanPop`` conditions.
        """
        if self._ready:
            ready = self._ready[0]
            now = self.engine.cycle
            return ready if ready > now else now
        return self.supply_horizon(memo, depth)

    # ------------------------------------------------------------------
    # Sharded-backend proxy contract (see repro.shard.proxy)
    # ------------------------------------------------------------------
    def pin_horizon(self, cycle: int) -> None:
        """Pin (or raise) the supply horizon to ``cycle``.

        Consumer side of a boundary link: the remote shard published
        that no stage beyond the already-shipped ones can be visible
        before ``cycle``. Pins are monotone — an older pin bounded a
        superset of the still-unknown arrivals, so keeping the max of
        the two is always sound.
        """
        pin = self.horizon_pin
        if pin is None or cycle > pin:
            self.horizon_pin = cycle

    def record_boundary_takes(self) -> None:
        """Start logging the exact cycle of every take."""
        if self._take_log is None:
            self._take_log = []

    def drain_take_log(self) -> list:
        """Return and reset the boundary take log (exchange helper)."""
        log = self._take_log
        self._take_log = []
        return log

    def inject_staged(self, items: Sequence[Any],
                      visible_cycles: Sequence[int]) -> None:
        """Materialise a remote producer's committed stages locally.

        The consumer-side half of a boundary link's supply schedule:
        ``items[i]`` becomes visible at ``visible_cycles[i]`` exactly as
        if the (remote) producer had staged it ``latency`` cycles
        earlier. Unlike :meth:`stage_burst` this bypasses the capacity
        walk — the remote producer already enforced capacity against the
        acked take schedule, and the local container may transiently
        hold more than ``capacity`` items because the takes that
        interleave in *cycle* time have not been simulated yet (the
        time-indexed occupancy log stays exact regardless).

        Soundness relies on the epoch protocol: every visibility cycle
        is at or past the horizon previously pinned on this FIFO, which
        in turn is past the local clock — injections never rewrite the
        simulated past.
        """
        k = len(items)
        if k == 0:
            return
        if self._flow_dead:
            self._reject_flow_dead()
        now = self.engine.cycle
        vis0 = visible_cycles[0]
        if vis0 <= now:
            raise SimulationError(
                f"fifo {self.name!r}: boundary injection visible at "
                f"{vis0} but the local clock already passed it ({now})"
            )
        pin = self.horizon_pin
        if pin is not None and vis0 < pin:
            raise SimulationError(
                f"fifo {self.name!r}: boundary injection visible at "
                f"{vis0} violates the pinned horizon {pin}"
            )
        if k > 1 and any(map(gt, visible_cycles,
                             islice(visible_cycles, 1, None))):
            raise SimulationError(
                f"fifo {self.name!r}: injected cycles not monotone"
            )
        ready_q = self._ready
        if ready_q and vis0 < ready_q[-1]:
            raise SimulationError(
                f"fifo {self.name!r}: boundary injection at {vis0} behind "
                f"already-staged item at {ready_q[-1]}"
            )
        self._staged.extend(items)
        ready_q.extend(visible_cycles)
        latency = self.latency
        stage_cycles = [v - latency for v in visible_cycles]
        occ_stages = self._occ_stages
        if occ_stages and stage_cycles[0] < occ_stages[-1]:
            raise SimulationError(
                f"fifo {self.name!r}: injected stage cycles regress behind "
                f"the occupancy log"
            )
        occ_stages.extend(stage_cycles)
        if len(occ_stages) > _OCC_FOLD_LIMIT:
            self._occ_fold()
        if self._consumer_parked:
            self.engine._schedule_commit(self._ready[0], self)

    def max_occupancy_at(self, cycle: int) -> int:
        """Exact peak occupancy with an explicit sweep end (inclusive).

        The sharded backend's stats merge: each shard's clock stops at
        its own last event, so the per-shard peaks must all be swept to
        the *global* end cycle to match a sequential run's
        :attr:`max_occupancy` (which sweeps to the single engine's
        clock).
        """
        self._check_fold_watermark(cycle)
        return self._occ_sweep(cycle + 1)[1]

    def stats_row(self, end: int | None = None) -> dict[str, int]:
        """This FIFO's ``fifo_stats()`` row. A sharded run passes its
        global ``end`` cycle: counts and peak are then swept to it
        (:meth:`counts_at`, :meth:`max_occupancy_at`), which is what a
        sequential run's raw counters and engine-clock peak read."""
        if end is None:
            pushes, pops, peak = self.pushes, self.pops, self.max_occupancy
        else:
            pushes, pops = self.counts_at(end)
            peak = self.max_occupancy_at(end)
        return {"pushes": pushes, "pops": pops, "max_occupancy": peak,
                "capacity": self.capacity, "latency": self.latency}

    def _check_fold_watermark(self, cycle: int) -> None:
        """Refuse time-filtered queries below the folded log prefix.

        Folds run up to ``min(engine.cycle, stats_fold_limit + 1)``; a
        bulk clock jump (a macro-cruise train committing a long span in
        one event, or a sharded ``run_until`` bound) can land that
        boundary far past any cycle a caller saw earlier. A query below
        the boundary cannot be answered exactly — the folded counts are
        one lump — so failing loudly here is what keeps ``counts_at`` /
        ``max_occupancy_at`` trustworthy instead of silently drifting.
        Sharded backends stay queryable at the global end because their
        ``stats_fold_limit`` watermark never exceeds it.
        """
        if cycle + 1 < self._occ_folded_through:
            raise SimulationError(
                f"fifo {self.name!r}: time-filtered stats at cycle "
                f"{cycle} but the occupancy log is folded through "
                f"{self._occ_folded_through - 1} (raise the engine's "
                "stats_fold_limit before the clock jumps past the "
                "query point)")

    def counts_at(self, cycle: int) -> tuple[int, int]:
        """Exact ``(pushes, pops)`` counting only events at or before
        ``cycle``.

        The raw :attr:`pushes`/:attr:`pops` counts tally every event
        ever executed or committed; a shard that ran ahead of the global
        end cycle may have executed trailing events (in-flight credit
        packets, post-completion forwards) a sequential run never
        reached. Filtering by the per-item cycle logs at the global end
        restores exact equality — sound because folds never cross the
        engine's ``stats_fold_limit`` watermark, which is always at or
        below the global end (queries below an already-folded prefix
        raise instead of returning lumped counts).
        """
        self._check_fold_watermark(cycle)
        pushes = self._occ_folded_stages + bisect_right(self._occ_stages,
                                                        cycle)
        pops = self._occ_folded_takes + bisect_right(self._occ_takes, cycle)
        if self._occ_span is not None:
            floor, period, periods, span_stages, span_takes = self._occ_span
            q = (cycle - floor) // period
            if q < periods:
                # Inside the last shifted span, all of whose events the
                # folded counts already hold: ``q`` whole periods lie at
                # or before ``cycle``, then part of the recorded one.
                at = cycle - (q + 1) * period
                pushes += ((q - periods) * len(span_stages)
                           + bisect_right(span_stages, at))
                pops += ((q - periods) * len(span_takes)
                         + bisect_right(span_takes, at))
        return pushes, pops

    # ------------------------------------------------------------------
    # Handshake helpers: one item per cycle, blocking on full/empty.
    # ------------------------------------------------------------------
    def push(self, item: Any) -> Generator:
        """Generator: block until writable, stage ``item``, spend one cycle."""
        while not self.writable:
            yield self.wait_writable()
        self.stage(item)
        yield TICK

    def pop(self) -> Generator:
        """Generator: block until readable, take one item, spend one cycle."""
        while not self.readable:
            yield self.can_pop
        item = self.take()
        yield TICK
        return item

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def _commit(self, cycle: int) -> None:
        """Wake waiters whose condition has come true with the clock.

        Item visibility and reserved-slot release are computed lazily from
        the current cycle (:attr:`readable` / :attr:`writable`), so commit
        events exist purely to wake blocked processes. They are scheduled
        only when a process parks (``Engine._run_cycle``) or when state
        changes while somebody is parked; if a wake target is still
        unsatisfied (e.g. a second producer refilled the space), re-arm at
        the next deadline.
        """
        if self._consumer_parked:
            if self.readable:
                self.engine._wake(self.can_pop, delay=0)
                watch = self.can_pop.watch
                if watch.proc is not None:
                    self.engine._wake_watcher(watch)
            elif self._ready:
                self.engine._schedule_commit(self._ready[0], self)
        if self.can_push.waiters:
            reserved = self._reserved
            if self.has_space() or (reserved and
                                 reserved[0] <= self.engine.cycle):
                # Same wake timing as a take() in this cycle: producers
                # run next cycle (registered full flag). A reserved slot
                # releasing *this* cycle wakes them for the next one too
                # — the strict trim keeps it counted until then, so the
                # woken producer is the first observer to see it free.
                self.engine._wake(self.can_push, delay=1)
            elif reserved:
                self.engine._schedule_commit(reserved[0], self)

    def _next_commit_cycle(self) -> int | None:
        """Cycle of the earliest pending staged item, if any (test helper)."""
        return self._ready[0] if self._ready else None

    def drain(self) -> list:
        """Remove and return all items (visible and staged), each logged
        as a take; test helper."""
        items = list(self._staged)
        self._staged.clear()
        self._ready.clear()
        self._reserved = ()
        self._reserved_paired = 0
        if items:
            takes = self._occ_takes
            # Keep the log sorted even past already-recorded future takes.
            cyc = max(self.engine.cycle, takes[-1] if takes else 0)
            takes.extend([cyc] * len(items))
        return items

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Fifo({self.name}, {len(self._staged)}/{self.capacity})"
        )
