"""Fabric partitioning for the sharded simulation backend.

Cuts a :class:`~repro.network.topology.Topology` into ``k`` shards of
ranks. Every connection whose endpoints land in different shards becomes
a *cut edge*; at simulation time each direction of a cut edge turns into
a boundary link whose two halves live in different shards and exchange
committed supply schedules (see :mod:`repro.shard.proxy`). The quality
of a partition is therefore the classic min-cut-under-balance objective:
fewer cut cables means fewer boundary schedules to ship per epoch, and
balanced shard sizes mean balanced per-epoch work.

The default partitioner is deterministic (no RNG): ranks are laid out in
BFS order from rank 0 (which keeps meshes, tori and buses contiguous),
split into ``k`` balanced blocks, and refined by greedy single-rank
moves that strictly reduce the cut weight while keeping every shard
within one rank of perfect balance. Callers may replace the result
wholesale (``rank_lists``).

Every cut edge must be a *latency-carrying* link: the link's wire delay
is the conservative lookahead the epoch synchroniser
(:mod:`repro.shard.timesync`) turns into free parallelism, and a
zero-latency cut would force one-cycle epochs. The simulator's
:func:`~repro.network.link.Link` clamps its FIFO latency to >= 1, so
every topology connection qualifies; :func:`validate_cut` pins that
contract against the active hardware config.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.errors import ConfigurationError, TopologyError
from ..network.topology import Connection, Topology


@dataclass(frozen=True)
class Partition:
    """A k-way split of a topology's ranks.

    ``shards[i]`` is the ascending tuple of ranks owned by shard ``i``;
    ``cut`` lists every connection crossing shard boundaries (the cables
    whose directed links become boundary proxies).
    """

    shards: tuple[tuple[int, ...], ...]
    cut: tuple[Connection, ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self) -> dict[int, int]:
        """Rank -> shard index map."""
        return {
            rank: i for i, ranks in enumerate(self.shards) for rank in ranks
        }


def _bfs_order(topology: Topology) -> list[int]:
    """Deterministic BFS rank order (ties by rank id; components joined)."""
    order: list[int] = []
    seen: set[int] = set()
    for root in range(topology.num_ranks):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in sorted(topology.neighbors_of(u)):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return order


def _edge_weights(topology: Topology) -> dict[tuple[int, int], int]:
    """Cables per rank pair (parallel connections weigh individually)."""
    weights: dict[tuple[int, int], int] = {}
    for conn in topology.connections:
        a, b = conn.a[0], conn.b[0]
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + 1
    return weights


def _cut_connections(topology: Topology,
                     shard_of: dict[int, int]) -> tuple[Connection, ...]:
    return tuple(
        conn for conn in topology.connections
        if shard_of[conn.a[0]] != shard_of[conn.b[0]]
    )


def _refine(topology: Topology, shard_of: dict[int, int], k: int,
            max_passes: int = 8) -> None:
    """Greedy moves and swaps that strictly reduce the cut weight.

    Two admissible step kinds, both strict-improvement-only so the loop
    terminates (the cut weight is a strictly decreasing non-negative
    integer) and fully deterministic (ranks ascending, targets
    ascending):

    * a *single-rank move*, admissible when both shard sizes stay
      within the floor/ceil balance band — only possible at all when
      ``num_ranks % k != 0`` leaves slack in the band;
    * a *balanced pair swap* of two ranks in different shards — the
      Kernighan–Lin-style step that is the only admissible improvement
      at exact balance (where every single move would leave the band).
    """
    n = topology.num_ranks
    lo, hi = n // k, -(-n // k)  # floor / ceil balance band
    weights = _edge_weights(topology)
    sizes = [0] * k
    for shard in shard_of.values():
        sizes[shard] += 1
    # Per-rank weighted adjacency (rank -> [(peer, weight)]).
    adj: dict[int, list[tuple[int, int]]] = {r: [] for r in range(n)}
    for (a, b), w in sorted(weights.items()):
        adj[a].append((b, w))
        adj[b].append((a, w))

    def swap_delta(a: int, b: int) -> int:
        """Cut-weight change if ranks ``a`` and ``b`` trade shards."""
        sa, sb = shard_of[a], shard_of[b]
        delta = 0
        for peer, w in adj[a]:
            other = sa if peer == b else shard_of[peer]
            delta += w * ((sb != other) - (sa != shard_of[peer]))
        for peer, w in adj[b]:
            if peer == a:
                continue  # the a-b edge crosses before and after alike
            delta += w * ((sa != shard_of[peer]) - (sb != shard_of[peer]))
        return delta

    for _ in range(max_passes):
        improved = False
        for rank in range(n):
            cur = shard_of[rank]
            if sizes[cur] <= lo:
                continue  # moving out would unbalance below the floor
            gain_here = sum(w for peer, w in adj[rank]
                            if shard_of[peer] != cur)
            best = None
            for target in range(k):
                if target == cur or sizes[target] >= hi:
                    continue
                gain_there = sum(w for peer, w in adj[rank]
                                 if shard_of[peer] != target)
                if gain_there < gain_here and (
                        best is None or gain_there < best[1]):
                    best = (target, gain_there)
            if best is not None:
                sizes[cur] -= 1
                sizes[best[0]] += 1
                shard_of[rank] = best[0]
                improved = True
        for a in range(n):
            for b in range(a + 1, n):
                if shard_of[a] == shard_of[b]:
                    continue
                if swap_delta(a, b) < 0:
                    shard_of[a], shard_of[b] = shard_of[b], shard_of[a]
                    improved = True
        if not improved:
            break


def partition_topology(
    topology: Topology,
    k: int,
    rank_lists: list[list[int]] | None = None,
) -> Partition:
    """Cut ``topology`` into ``k`` shards.

    Parameters
    ----------
    rank_lists:
        Explicit shard membership (one rank list per shard). Must cover
        every rank exactly once; skips the automatic partitioner
        entirely.
    """
    n = topology.num_ranks
    if not 1 <= k <= n:
        raise TopologyError(
            f"cannot cut {n} rank(s) into {k} shard(s): need 1 <= k <= "
            f"num_ranks"
        )
    if rank_lists is not None:
        if len(rank_lists) != k:
            raise TopologyError(
                f"rank_lists has {len(rank_lists)} shard(s), expected {k}"
            )
        shard_of: dict[int, int] = {}
        for i, ranks in enumerate(rank_lists):
            if not ranks:
                raise TopologyError(f"shard {i} is empty")
            for rank in ranks:
                if not 0 <= rank < n:
                    raise TopologyError(
                        f"shard {i}: rank {rank} out of range [0, {n})"
                    )
                if rank in shard_of:
                    raise TopologyError(
                        f"rank {rank} assigned to shards "
                        f"{shard_of[rank]} and {i}"
                    )
                shard_of[rank] = i
        if len(shard_of) != n:
            missing = sorted(set(range(n)) - set(shard_of))
            raise TopologyError(f"ranks not assigned to any shard: {missing}")
    else:
        order = _bfs_order(topology)
        shard_of = {}
        i = 0
        for shard in range(k):
            size = n // k + (1 if shard < n % k else 0)
            for rank in order[i:i + size]:
                shard_of[rank] = shard
            i += size
        if k > 1:
            _refine(topology, shard_of, k)
    shards = tuple(
        tuple(sorted(r for r, s in shard_of.items() if s == i))
        for i in range(k)
    )
    return Partition(shards=shards,
                     cut=_cut_connections(topology, shard_of))


def validate_cut(partition: Partition, topology: Topology, config) -> None:
    """Pin the cut contract: every cut edge is a physical connection.

    The conservative epoch protocol's lookahead is the cut links' wire
    latency. The latency >= 1 half of the contract is enforced where it
    is real: :class:`~repro.simulation.fifo.Fifo` refuses construction
    with latency < 1 and :func:`~repro.network.link.Link` clamps the
    configured ``link_latency_cycles`` into that range, so any future
    zero-latency link model fails at build time, before a shard plane
    exists. What remains checkable here — and is, loudly — is that the
    partition's cut edges are actual cables of the topology (``config``
    is kept in the signature so call sites state which platform model
    the cut was validated against).
    """
    del config  # latency >= 1 is enforced at Fifo/Link construction
    conns = {conn.normalized() for conn in topology.connections}
    for conn in partition.cut:
        if conn.normalized() not in conns:
            raise ConfigurationError(
                f"cut edge {conn} is not a connection of topology "
                f"{topology.name!r}"
            )
