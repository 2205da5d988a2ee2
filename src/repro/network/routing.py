"""Route generation (§4.3, §4.5).

SMI uses *static* routing: before an application starts, a route generator
computes, for every (rank, destination) pair, which network interface packets
must leave through. The tables are uploaded at runtime — changing topology or
scaling ranks requires only new tables, never a bitstream rebuild.

The paper computes "deadlock-free routing scheme[s]" following Domke et
al. [8]. We provide:

* ``shortest`` — hop-by-hop minimal routing: each rank forwards towards the
  neighbour with the smallest remaining BFS distance (deterministic
  tie-break by neighbour rank, then interface index). Paths are minimal;
  deadlock freedom is *verified* (not guaranteed) via the channel-dependency
  graph below. On the evaluation's linear bus it is provably acyclic.
* ``tree`` — routing restricted to a BFS spanning tree. Paths may be longer,
  but the channel dependency graph of a tree is always acyclic, so this
  scheme is unconditionally deadlock-free (the classic up*/down* fallback).
* ``auto`` — ``shortest`` if its channel-dependency graph is acyclic,
  otherwise ``tree``.

Deadlock freedom is checked with Dally & Seitz's criterion: build the
*channel dependency graph* whose nodes are directed links and whose edges
connect consecutive links on any routed path; routing is deadlock-free iff
this graph is acyclic.

Tables are a function of the wiring alone, so :func:`compute_routes` is
memoised per ``(num_ranks, num_interfaces, connections, scheme,
tree_root)`` — at most :data:`ROUTE_MEMO_SIZE` wirings, oldest first
out, errors never cached. Every call still returns a fresh
:class:`Routes` bound to the caller's :class:`Topology` (its name, its
identity); only ``next_iface`` and the deadlock verdict are shared, so
nothing may write into a ``Routes.next_iface`` table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import networkx as nx

from ..core.errors import RoutingError
from .topology import Topology

#: Adjacency entry: (iface, peer_rank, peer_iface).
AdjEntry = tuple[int, int, int]


def _adjacency(topology: Topology) -> list[list[AdjEntry]]:
    """Per-rank sorted adjacency (iface, peer rank, peer iface)."""
    adj: list[list[AdjEntry]] = [[] for _ in range(topology.num_ranks)]
    for conn in topology.connections:
        (ra, ia), (rb, ib) = conn.a, conn.b
        adj[ra].append((ia, rb, ib))
        adj[rb].append((ib, ra, ia))
    for entries in adj:
        entries.sort()
    return adj


def _bfs_distances(adj: list[list[AdjEntry]], source: int) -> list[int]:
    """Hop distances from ``source`` to every rank (-1 if unreachable)."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for _iface, v, _pi in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _bfs_tree_parent(adj: list[list[AdjEntry]], root: int) -> list[int | None]:
    """Deterministic BFS tree: parent[rank] (None at root / unreachable)."""
    parent: list[int | None] = [None] * len(adj)
    seen = [False] * len(adj)
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for _iface, v, _pi in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    return parent


@dataclass
class Routes:
    """Routing tables: for each rank, the egress interface per destination.

    ``next_iface[rank][dst]`` is the local network interface through which
    ``rank`` forwards packets destined to ``dst`` (``None`` for the local
    rank itself). These are exactly the tables the CKS modules index by
    destination rank (§4.3); CKR port tables are derived at transport-build
    time from the program's port→endpoint assignment.
    """

    topology: Topology
    scheme: str
    next_iface: list[dict[int, int | None]]
    deadlock_free: bool = field(default=False)

    def egress(self, rank: int, dst: int) -> int | None:
        """Interface through which ``rank`` sends packets towards ``dst``."""
        try:
            return self.next_iface[rank][dst]
        except (IndexError, KeyError):
            raise RoutingError(f"no route entry for {rank}->{dst}") from None

    def path(self, src: int, dst: int) -> list[int]:
        """The rank sequence a packet follows from ``src`` to ``dst``."""
        path = [src]
        cur = src
        guard = 0
        while cur != dst:
            iface = self.egress(cur, dst)
            if iface is None:
                raise RoutingError(f"routing loop or dead end at {cur} -> {dst}")
            peer = self.topology.peer(cur, iface)
            if peer is None:
                raise RoutingError(
                    f"table at rank {cur} uses unconnected interface {iface}"
                )
            cur = peer[0]
            path.append(cur)
            guard += 1
            if guard > self.topology.num_ranks:
                raise RoutingError(f"routing loop detected for {src} -> {dst}")
        return path

    def hops(self, src: int, dst: int) -> int:
        """Number of link traversals from ``src`` to ``dst``."""
        return len(self.path(src, dst)) - 1

    def link_path(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Directed links (rank, egress iface) traversed from src to dst."""
        links = []
        cur = src
        while cur != dst:
            iface = self.egress(cur, dst)
            links.append((cur, iface))
            cur = self.topology.peer(cur, iface)[0]
        return links

    def to_dict(self) -> dict:
        """Serializable form (what `smi-routes` writes per rank)."""
        return {
            "scheme": self.scheme,
            "deadlock_free": self.deadlock_free,
            "topology": self.topology.name,
            "tables": [
                {str(dst): iface for dst, iface in table.items()}
                for table in self.next_iface
            ],
        }


def channel_dependency_graph(routes: Routes) -> nx.DiGraph:
    """Dally & Seitz channel dependency graph of all-pairs routed paths."""
    cdg = nx.DiGraph()
    n = routes.topology.num_ranks
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            links = routes.link_path(src, dst)
            for link in links:
                cdg.add_node(link)
            for a, b in zip(links, links[1:]):
                cdg.add_edge(a, b)
    return cdg


def is_deadlock_free(routes: Routes) -> bool:
    """True iff the channel dependency graph is acyclic."""
    cdg = channel_dependency_graph(routes)
    return nx.is_directed_acyclic_graph(cdg)


def _shortest_tables(topology: Topology) -> list[dict[int, int | None]]:
    adj = _adjacency(topology)
    n = topology.num_ranks
    # dist[d][u]: hop distance from u to destination d (undirected graph).
    dist = [_bfs_distances(adj, d) for d in range(n)]
    tables: list[dict[int, int | None]] = []
    for rank in range(n):
        table: dict[int, int | None] = {rank: None}
        for dst in range(n):
            if dst == rank:
                continue
            if dist[dst][rank] < 0:
                raise RoutingError(
                    f"rank {dst} unreachable from rank {rank} in topology "
                    f"{topology.name!r}"
                )
            best: tuple | None = None
            for iface, peer, _pi in adj[rank]:
                d = dist[dst][peer]
                if d < 0:
                    continue
                key = (d, peer, iface)
                if best is None or key < best:
                    best = key
            assert best is not None
            table[dst] = best[2]
        tables.append(table)
    return tables


def _tree_tables(topology: Topology, root: int = 0) -> list[dict[int, int | None]]:
    adj = _adjacency(topology)
    n = topology.num_ranks
    parent = _bfs_tree_parent(adj, root)
    for rank in range(n):
        if rank != root and parent[rank] is None:
            raise RoutingError(
                f"rank {rank} unreachable from root {root} in topology "
                f"{topology.name!r}"
            )

    def iface_towards(rank: int, neighbor: int) -> int:
        for iface, peer, _pi in adj[rank]:
            if peer == neighbor:
                return iface
        raise RoutingError(f"no link {rank} -> {neighbor}")  # pragma: no cover

    # children of each node in the tree
    children: list[list[int]] = [[] for _ in range(n)]
    for rank in range(n):
        p = parent[rank]
        if p is not None:
            children[p].append(rank)

    # subtree membership: for each node, the set of ranks below it
    subtree: list[set[int]] = [set() for _ in range(n)]

    def fill(u: int) -> set[int]:
        s = {u}
        for c in children[u]:
            s |= fill(c)
        subtree[u] = s
        return s

    fill(root)

    tables: list[dict[int, int | None]] = []
    for rank in range(n):
        table: dict[int, int | None] = {rank: None}
        for dst in range(n):
            if dst == rank:
                continue
            # Towards the child whose subtree contains dst, else to parent.
            hop = None
            for c in children[rank]:
                if dst in subtree[c]:
                    hop = c
                    break
            if hop is None:
                hop = parent[rank]
            assert hop is not None
            table[dst] = iface_towards(rank, hop)
        tables.append(table)
    return tables


#: Wiring key -> ``(scheme, next_iface, deadlock_free)``, oldest first,
#: at most :data:`ROUTE_MEMO_SIZE` of them.
_ROUTE_MEMO: dict = {}
ROUTE_MEMO_SIZE = 64


def compute_routes(
    topology: Topology, scheme: str = "auto", tree_root: int = 0
) -> Routes:
    """Generate routing tables for ``topology`` under ``scheme``.

    Raises :class:`RoutingError` if any rank pair is unreachable.
    Memoised per wiring (module docstring): the returned :class:`Routes`
    is new and names ``topology``, its tables are shared.
    """
    key = (topology.num_ranks, topology.num_interfaces,
           tuple(sorted((c.a, c.b) for c in topology.connections)),
           scheme, tree_root)
    memo = _ROUTE_MEMO.get(key)
    if memo is None:
        routes = _compute_routes(topology, scheme, tree_root)
        if len(_ROUTE_MEMO) >= ROUTE_MEMO_SIZE:
            del _ROUTE_MEMO[next(iter(_ROUTE_MEMO))]
        memo = _ROUTE_MEMO[key] = (routes.scheme, routes.next_iface,
                                   routes.deadlock_free)
    return Routes(topology, *memo)


def _compute_routes(topology: Topology, scheme: str,
                    tree_root: int) -> Routes:
    if scheme not in ("auto", "shortest", "tree"):
        raise RoutingError(f"unknown routing scheme {scheme!r}")
    if scheme in ("auto", "shortest"):
        routes = Routes(topology, "shortest", _shortest_tables(topology))
        routes.deadlock_free = is_deadlock_free(routes)
        if scheme == "shortest" or routes.deadlock_free:
            return routes
        # auto: fall back to provably deadlock-free tree routing.
    routes = Routes(topology, "tree", _tree_tables(topology, tree_root))
    routes.deadlock_free = True  # tree CDG is acyclic by construction
    return routes
