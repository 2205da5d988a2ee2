"""Boundary-link proxies: a cut link's two halves, one per shard.

A directed link whose transmitting rank and receiving rank live in
different shards is materialised twice — once per shard — and the two
halves are kept coherent purely through the *SupplySchedule contract*
the burst planner already speaks:

* The **transmitting half** (:class:`BoundaryTx`) is the ordinary link
  the local CKS stages into. Each exchange ships the link's own rows past
  a ``shipped`` cursor, each with the exact cycle it turns visible; *acks* (the remote consumer's take
  cycles) are applied with
  :meth:`~repro.simulation.fifo.Fifo.take_burst`, which reproduces the
  per-flit slot-release trajectory — reserved slots, producer wakes at
  ``take + 1``, the planner's ``slot_plan`` release schedule — exactly
  as if the remote CKR were local, and move the cursor back.

* The **receiving half** (:class:`BoundaryRx`) is a closed-producer FIFO
  with no local writer. Shipped stages are injected future-dated
  (:meth:`~repro.simulation.fifo.Fifo.inject_staged`) — committed supply
  the local planner consumes like any other ``present_schedule`` — and
  the link's *horizon* is pinned
  (:meth:`~repro.simulation.fifo.Fifo.pin_horizon`) to the remote
  producer's published sleep floor plus the wire latency. The planning
  cascade naturally stops here: the proxy is just another supply
  schedule, with no consumer/producer CK wired behind it. Its acks come
  from a take log of their own, not from the occupancy log: under the
  engine's ``stats_fold_limit`` a fold may drop takes no exchange has
  acked yet.

Both halves set the link's ``boundary`` mark, which refuses a time
shift (:meth:`~repro.simulation.fifo.Fifo.shift_refusal`).

Each half also publishes a *floor* for the unknown future at every
exchange, computed from the same producer-sleep machinery the planner
uses (:meth:`Engine.process_floor` /
:meth:`Fifo.supply_horizon` / :meth:`Fifo.earliest_readable`), clamped
to the epoch bound: no unshipped stage can be visible before
:attr:`ShipBatch.horizon`, and no unreported take can happen before
:attr:`AckBatch.floor`. Those floors ride inside the batches and are
exactly what the peer shard turns into its next conservative bound.
In-process the batch objects themselves reach the peer; the process
backend pickles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ..core.errors import SimulationError


@dataclass
class ShipBatch:
    """One exchange's worth of committed supply on a boundary link.

    ``items[i]`` becomes visible at the far end at ``cycles[i]``
    (absolute, non-decreasing). ``horizon`` bounds everything *not* in
    the batch: no future stage of the transmitting CKS can be visible
    before it.
    """

    key: tuple[int, int]
    items: tuple
    cycles: tuple
    horizon: int


@dataclass
class AckBatch:
    """One exchange's worth of consumer takes on a boundary link.

    ``cycles`` are the absolute take cycles of the oldest
    still-unacked items (FIFO order, non-decreasing). ``floor`` bounds
    the unreported future: no further take can happen before it, so the
    transmitting shard may safely simulate up to ``floor + 1`` without
    missing a slot-release wake.
    """

    key: tuple[int, int]
    cycles: tuple
    floor: int


class BoundaryTx:
    """Producer-side proxy endpoint of one directed cut link. Only acks
    take from it, oldest first, so the link's rows past ``shipped`` are
    exactly the stages no exchange has shipped yet."""

    __slots__ = ("key", "link", "shipped")

    def __init__(self, key: tuple[int, int], link) -> None:
        self.key = key
        self.link = link
        self.shipped = 0  # leading rows the peer shard already holds
        link.boundary = True

    def apply(self, ack: AckBatch) -> None:
        """Apply the remote consumer's takes to the local link.

        The producing shard never runs past ``ack_floor + 1``, so every
        take here is at or after the local clock; a past-dated one would
        mean a slot-release wake was missed, and ``take_burst`` raises.
        """
        k = len(ack.cycles)
        if k:
            if k > self.shipped:
                raise SimulationError(
                    f"link {self.link.name}: ack of {k} rows but only "
                    f"{self.shipped} were shipped")
            self.link.take_burst(ack.cycles)
            self.shipped -= k

    def collect(self, engine, bound: int, memo: dict) -> ShipBatch:
        """Ship the rows staged since the last exchange and publish the
        supply horizon.

        ``bound`` is the epoch's exclusive end: no local event below it
        remains, so no unshipped stage can land earlier — the published
        horizon is at least ``bound + latency``, and deeper whenever the
        producer-sleep machinery proves the CKS parked beyond the bound
        (a planner-committed window, a firm sleep).
        """
        link = self.link
        shipped = self.shipped
        items = tuple(islice(link._staged, shipped, None))
        cycles = tuple(islice(link._ready, shipped, None))
        self.shipped = shipped + len(items)
        horizon = link.supply_horizon(memo)
        floor = bound + link.latency
        if horizon < floor:
            horizon = floor
        return ShipBatch(self.key, items, cycles, horizon)


class BoundaryRx:
    """Consumer-side proxy endpoint of one directed cut link."""

    __slots__ = ("key", "link", "consumer_proc")

    def __init__(self, key: tuple[int, int], link, consumer_proc) -> None:
        self.key = key
        self.link = link
        self.consumer_proc = consumer_proc
        link.boundary = True
        link.record_boundary_takes()
        # Before the first exchange, nothing staged remotely at cycle 0
        # can be visible before the wire latency.
        link.pin_horizon(link.latency)

    def apply(self, ship: ShipBatch) -> None:
        """Inject shipped supply and advance the pinned horizon."""
        if ship.items:
            self.link.inject_staged(list(ship.items), list(ship.cycles))
        self.link.pin_horizon(ship.horizon)

    def collect(self, engine, bound: int, memo: dict) -> AckBatch:
        """Drain newly executed takes and publish the take floor.

        A future (unreported) take needs the consuming CKR runnable
        *and* an item visible, so the floor is the max of the epoch
        bound, the CKR's process floor, and the FIFO's earliest
        readability — each a lower bound the planner machinery already
        maintains.
        """
        link = self.link
        cycles = tuple(link.drain_take_log())
        floor = link.earliest_readable(memo)
        if floor < bound:
            floor = bound
        proc = self.consumer_proc
        if proc is not None:
            pf = engine.process_floor(proc, memo)
            if pf > floor:
                floor = pf
        return AckBatch(self.key, cycles, floor)
