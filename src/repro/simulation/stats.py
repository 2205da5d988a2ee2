"""Counters a simulation run keeps about itself.

:class:`PlannerStats` and :func:`collect_planner_stats` count what the
burst planner committed.
The §5.3 figures themselves (bandwidth, latency, injection rate) are
computed by :mod:`repro.harness.runners`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PlannerStats:
    """Counters of one burst planner (supply-schedule plane).

    Each :class:`~repro.transport.planner.SupplyPlanner` owns exactly one
    (``planner.stats``) and every counter below is booked there, whichever
    CK it concerns; a sharded run merges one per shard.

    ``attempts``/``windows`` count planning tried/committed from a CK's
    own engine events; ``extensions`` are cascade re-plans that stretched
    an already-committed window (same engine event, new supply); and
    ``coplans`` are windows planned *for* a CK by a peer CK's cascade
    while it was parked or sleeping. ``window_cycles``/``takes``
    cover every committed window regardless of who planned it.

    The steady-state replication plane adds three counters:
    ``pattern_checks`` counts the times a confirmed periodic pattern was
    tried against live supply/slot state, ``replications`` the train
    sessions committed from one, and ``replicated_rounds`` the total
    number of Δ-shifted pattern rounds committed in bulk (the sum of all
    session lengths).

    Macro-cruise (the per-stream fast-forward) adds ``ff_cycles``: the
    sum, over the trains whose sessions and lanes resolved into relay
    chains (the fast-forward armed; the engine dispatched no events
    inside them), of each train's span, its longest per-session
    advance. Concurrent streams arm in trains of their own, so their
    spans add up: ``ff_cycles`` counts stream-cycles, not a share of
    the run's clock, and divided by a run's cycles it exceeds 1 once
    streams overlap (the repo benchmark's ``planner.ff_coverage`` reads
    11.8 on ``shard_uniform``'s 15 concurrent streams). ``ff_jumps``
    counts the analytic jumps that landed (at most one per train), and
    ``ff_chain_hops`` the total relay sessions those jumps spanned, so
    ``mean_ff_chain_len`` reports how deep the chains that actually
    fast-forwarded were (a 4-hop stream resolves as one chain of 11
    relay sessions: the CKR plus both CKS stages at every transit rank,
    between the source's CKS and the destination's CKR).

    ``ff_misses`` counts the trains that probed for a fast-forward and
    ended on a *silent* no-arm outcome — no chain resolved
    (``unresolved``, whether a later sweep of that train could have
    healed the refusal or not) or the chains resolved without a provable
    period (``no-period``) — and ``ff_miss_reason`` carries the outcome
    of one of them in report wording, an ``unresolved`` one naming the
    refused walk's send endpoint (``"no period"``, ``"unresolved —
    rank2.send_ep1: pattern shape (multi-input/target session)"``;
    merged first-non-empty-wins). Named guard refusals of ``ff_apply``
    are not misses: they report themselves.

    Engagement (who was ever asked to plan) adds three: ``cks`` counts
    the CKs the builder put on the burst plane and ``cks_off_route``
    those of them on no declared point-to-point route (built without a
    planner hook); ``live_spans`` counts the times a long vector lane
    raised the planner's live state.
    """

    attempts: int = 0
    windows: int = 0
    window_cycles: int = 0
    takes: int = 0
    extensions: int = 0
    coplans: int = 0
    pattern_checks: int = 0
    replications: int = 0
    replicated_rounds: int = 0
    ff_cycles: int = 0
    ff_jumps: int = 0
    ff_chain_hops: int = 0
    ff_misses: int = 0
    ff_miss_reason: str = ""
    cks: int = 0
    cks_off_route: int = 0
    live_spans: int = 0

    @property
    def hit_rate(self) -> float:
        """Committed windows per planning attempt (own events only)."""
        return self.windows / self.attempts if self.attempts else 0.0

    @property
    def mean_window(self) -> float:
        """Mean committed window length in cycles."""
        committed = (self.windows + self.extensions + self.coplans
                     + self.replications)
        return self.window_cycles / committed if committed else 0.0

    @property
    def replication_hit_rate(self) -> float:
        """Replicated trains committed per confirmed-pattern attempt."""
        return (self.replications / self.pattern_checks
                if self.pattern_checks else 0.0)

    @property
    def mean_train_rounds(self) -> float:
        """Mean committed train length, in pattern rounds per train."""
        return (self.replicated_rounds / self.replications
                if self.replications else 0.0)

    @property
    def mean_ff_chain_len(self) -> float:
        """Mean relay sessions per landed analytic jump (chain depth)."""
        return self.ff_chain_hops / self.ff_jumps if self.ff_jumps else 0.0

    # Cruise induction is deleted; benchmarks/profile/run_profile.py (which
    # this tree may not edit) still reads these two — a [benchmark] PR
    # drops its rows, then these.
    cruise_rounds = property(lambda self: 0)
    cruise_hit_rate = property(lambda self: 0.0)

    def merge(self, other: "PlannerStats") -> "PlannerStats":
        """Field-wise fold: counters add, reason strings first-non-empty.

        Driven by the instance dict (exactly the dataclass fields), so a
        field added or dropped needs no edit here.
        """
        theirs = vars(other)
        return PlannerStats(**{
            name: (mine or theirs[name]) if isinstance(mine, str)
            else mine + theirs[name]
            for name, mine in vars(self).items()})


def collect_planner_stats(transport) -> PlannerStats:
    """The planner counters of a built transport: its planner's own
    ``stats`` (empty without a planner, i.e. per-flit). A sharded run's
    transport facade carries the shards' merged snapshot instead (the
    process backend's planners live in worker processes)."""
    snapshot = getattr(transport, "planner_stats_snapshot", None)
    if snapshot is not None:
        return snapshot
    planner = getattr(transport, "planner", None)
    return planner.stats if planner is not None else PlannerStats()
