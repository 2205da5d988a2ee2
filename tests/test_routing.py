"""Unit + property tests for route generation and deadlock-freedom checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RoutingError
from repro.network.routing import (
    Routes,
    channel_dependency_graph,
    compute_routes,
    is_deadlock_free,
)
from repro.network.topology import (
    Connection,
    Topology,
    bus,
    noctua_bus,
    noctua_torus,
    ring,
    torus2d,
)


def all_pairs_reachable(routes: Routes) -> bool:
    n = routes.topology.num_ranks
    for src in range(n):
        for dst in range(n):
            path = routes.path(src, dst)
            if path[0] != src or path[-1] != dst:
                return False
    return True


def test_bus_shortest_paths_are_linear():
    routes = compute_routes(bus(8), scheme="shortest")
    for src in range(8):
        for dst in range(8):
            assert routes.hops(src, dst) == abs(src - dst)


def test_bus_routing_is_deadlock_free():
    routes = compute_routes(bus(8), scheme="shortest")
    assert is_deadlock_free(routes)


def test_torus_shortest_paths_are_minimal():
    top = noctua_torus()
    routes = compute_routes(top, scheme="shortest")
    hops = top.hop_matrix()
    for src in range(8):
        for dst in range(8):
            assert routes.hops(src, dst) == hops[src][dst]


def test_odd_ring_shortest_cdg_has_cycles():
    # On an odd ring every minimal path is unique, so all distance-2 routes
    # chain around the cycle: the classic cyclic channel dependency that
    # motivates deadlock-free routing schemes [8].
    routes = compute_routes(ring(5), scheme="shortest")
    assert not is_deadlock_free(routes)


def test_checker_detects_forced_clockwise_ring():
    # Hand-built all-clockwise routing on a 4-ring: textbook deadlock cycle.
    top = ring(4)
    tables = []
    for rank in range(4):
        table = {rank: None}
        for dst in range(4):
            if dst != rank:
                table[dst] = 1  # iface 1 always points to (rank+1) % 4
        tables.append(table)
    routes = Routes(top, "clockwise", tables)
    assert all_pairs_reachable(routes)
    assert not is_deadlock_free(routes)


def test_auto_falls_back_to_tree_on_odd_ring():
    routes = compute_routes(ring(5), scheme="auto")
    assert routes.scheme == "tree"
    assert routes.deadlock_free
    assert is_deadlock_free(routes)  # verify the claim with the checker
    assert all_pairs_reachable(routes)


def test_torus_tie_broken_shortest_is_deadlock_free():
    # The generator's deterministic low-rank tie-break acts as an ordering
    # function on the 2x4 and 4x4 tori: the checker proves the resulting
    # minimal routing deadlock-free, so 'auto' keeps minimal paths there.
    for top in (noctua_torus(), torus2d(4, 4)):
        routes = compute_routes(top, scheme="auto")
        assert routes.scheme == "shortest"
        assert is_deadlock_free(routes)


def test_auto_keeps_shortest_on_bus():
    routes = compute_routes(bus(8), scheme="auto")
    assert routes.scheme == "shortest"
    assert routes.deadlock_free


def test_tree_routing_reaches_everything_on_torus():
    routes = compute_routes(noctua_torus(), scheme="tree")
    assert all_pairs_reachable(routes)
    assert is_deadlock_free(routes)


def test_ring_shortest_takes_short_side():
    routes = compute_routes(ring(6), scheme="shortest")
    assert routes.hops(0, 1) == 1
    assert routes.hops(0, 5) == 1  # wraps
    assert routes.hops(0, 3) == 3


def test_egress_none_for_self():
    routes = compute_routes(bus(3))
    assert routes.egress(1, 1) is None


def test_egress_unknown_pair_raises():
    routes = compute_routes(bus(3))
    with pytest.raises(RoutingError):
        routes.egress(0, 17)


def test_unreachable_rank_raises():
    top = Topology(4, [Connection((0, 0), (1, 0)), Connection((2, 0), (3, 0))])
    with pytest.raises(RoutingError, match="unreachable"):
        compute_routes(top, scheme="shortest")
    with pytest.raises(RoutingError, match="unreachable"):
        compute_routes(top, scheme="tree")


def test_unknown_scheme_rejected():
    with pytest.raises(RoutingError, match="unknown routing scheme"):
        compute_routes(bus(3), scheme="warp")


def test_link_path_matches_path():
    top = noctua_bus()
    routes = compute_routes(top)
    links = routes.link_path(0, 4)
    assert len(links) == 4
    ranks = [r for r, _ in links]
    assert ranks == [0, 1, 2, 3]


def test_routes_serialization():
    routes = compute_routes(bus(3))
    data = routes.to_dict()
    assert data["scheme"] == "shortest"
    assert data["deadlock_free"] is True
    assert len(data["tables"]) == 3
    assert data["tables"][0]["1"] == 1  # rank 0 egress iface towards rank 1


def test_cdg_structure_on_bus():
    routes = compute_routes(bus(3))
    cdg = channel_dependency_graph(routes)
    # Bus of 3: channels 0->1, 1->2, 1->0, 2->1 (as (rank, iface) pairs).
    assert cdg.number_of_nodes() == 4
    # Dependencies: (0:1 then 1:1) and (2:0 then 1:0) only.
    assert cdg.number_of_edges() == 2


@st.composite
def random_connected_topology(draw):
    """A random connected topology honouring the 4-interface limit."""
    n = draw(st.integers(min_value=2, max_value=10))
    free = {rank: list(range(4)) for rank in range(n)}
    conns = []
    # Spanning chain guarantees connectivity.
    order = list(range(n))
    for a, b in zip(order, order[1:]):
        ia = free[a].pop(0)
        ib = free[b].pop(0)
        conns.append(Connection((a, ia), (b, ib)))
    # Extra random cables where ports remain.
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        candidates = [r for r in range(n) if free[r]]
        if len(candidates) < 2:
            break
        a = draw(st.sampled_from(candidates))
        b = draw(st.sampled_from([r for r in candidates if r != a]))
        conns.append(Connection((a, free[a].pop(0)), (b, free[b].pop(0))))
    return Topology(n, conns, num_interfaces=4, name="random")


@settings(deadline=None, max_examples=40)
@given(top=random_connected_topology())
def test_property_tree_routing_always_deadlock_free(top):
    routes = compute_routes(top, scheme="tree")
    assert all_pairs_reachable(routes)
    assert is_deadlock_free(routes)


@settings(deadline=None, max_examples=40)
@given(top=random_connected_topology())
def test_property_shortest_routing_minimal_and_loop_free(top):
    routes = compute_routes(top, scheme="shortest")
    hops = top.hop_matrix()
    for src in range(top.num_ranks):
        for dst in range(top.num_ranks):
            # path() raises on loops; hop count must be the BFS distance.
            assert routes.hops(src, dst) == hops[src][dst]


@settings(deadline=None, max_examples=40)
@given(top=random_connected_topology())
def test_property_auto_scheme_is_always_deadlock_free(top):
    routes = compute_routes(top, scheme="auto")
    assert routes.deadlock_free
    assert is_deadlock_free(routes)
    assert all_pairs_reachable(routes)


# ----------------------------------------------------------------------
# Partitioned sub-topologies (sharded backend satellite coverage)
# ----------------------------------------------------------------------
def test_link_path_crossing_a_shard_cut():
    """Every directed link a route traverses across a cut is a boundary
    link of exactly one shard pair, in path order."""
    from repro.shard import partition_topology

    topo = noctua_bus()
    routes = compute_routes(topo, scheme="shortest")
    part = partition_topology(topo, 2)
    shard_of = part.shard_of()
    links = routes.link_path(0, 7)
    assert len(links) == 7  # bus: one link per hop
    crossings = []
    for rank, iface in links:
        peer = topo.peer(rank, iface)
        assert peer is not None
        if shard_of[rank] != shard_of[peer[0]]:
            crossings.append(((rank, iface), peer))
    # A contiguous bus bisection is crossed exactly once, on a cut edge.
    assert len(crossings) == 1
    cut_pairs = {frozenset((c.a[0], c.b[0])) for c in part.cut}
    (src, dst) = crossings[0]
    assert frozenset((src[0], dst[0])) in cut_pairs


def test_link_path_multi_crossing_interleaved_cut():
    """An interleaved (worst-case) cut is crossed on every hop."""
    from repro.shard import partition_topology

    topo = noctua_bus()
    routes = compute_routes(topo, scheme="shortest")
    part = partition_topology(topo, 2,
                              rank_lists=[[0, 2, 4, 6], [1, 3, 5, 7]])
    shard_of = part.shard_of()
    links = routes.link_path(0, 7)
    crossings = sum(
        1 for rank, iface in links
        if shard_of[rank] != shard_of[topo.peer(rank, iface)[0]]
    )
    assert crossings == 7  # every hop of the bus crosses the cut
    assert len(part.cut) == len(topo.connections)


def test_deadlock_freedom_on_torus_and_irregular_cut_graphs():
    """The CDG check stays meaningful on the sub-topology shapes the
    partitioner produces: full tori, and irregular remainders."""
    torus_routes = compute_routes(noctua_torus(), scheme="tree")
    assert is_deadlock_free(torus_routes)
    # The 2x4 torus has wrap links; shortest routing may or may not be
    # acyclic, but auto must always come back deadlock-free.
    auto = compute_routes(noctua_torus(), scheme="auto")
    assert auto.deadlock_free and is_deadlock_free(auto)
    # Irregular "cut remainder" graph: a torus row plus a dangling spur
    # (what a 3-way cut of a 2x4 torus leaves behind).
    irregular = Topology(
        5,
        [
            Connection((0, 1), (1, 3)),
            Connection((1, 1), (2, 3)),
            Connection((2, 1), (0, 3)),  # 3-cycle
            Connection((2, 0), (3, 2)),  # spur
            Connection((3, 0), (4, 2)),
        ],
        name="cut-remainder",
    )
    shortest = compute_routes(irregular, scheme="shortest")
    cdg = channel_dependency_graph(shortest)
    assert cdg.number_of_nodes() > 0
    auto = compute_routes(irregular, scheme="auto")
    assert auto.deadlock_free and is_deadlock_free(auto)


def test_topology_json_round_trip_with_parallel_edges():
    """to_json/from_json keeps duplicate parallel cables (distinct
    interfaces between the same rank pair) and all routing behaviour."""
    topo = Topology(
        3,
        [
            Connection((0, 0), (1, 0)),
            Connection((0, 1), (1, 1)),  # parallel cable, same rank pair
            Connection((1, 2), (2, 0)),
        ],
        num_interfaces=4,
        name="parallel",
    )
    back = Topology.from_json(topo.to_json())
    assert back.num_ranks == topo.num_ranks
    assert back.num_interfaces == topo.num_interfaces
    assert back.name == topo.name
    assert [str(c) for c in back.connections] == \
        [str(c) for c in topo.connections]
    # Parallel edges survive as distinct multigraph edges.
    assert back.graph().number_of_edges(0, 1) == 2
    r_a = compute_routes(topo, scheme="shortest")
    r_b = compute_routes(back, scheme="shortest")
    assert r_a.next_iface == r_b.next_iface
    assert is_deadlock_free(r_a) == is_deadlock_free(r_b)


# ----------------------------------------------------------------------
# The route memo: tables computed once per wiring
# ----------------------------------------------------------------------
def test_equal_wirings_share_tables_but_not_topologies():
    first, second = noctua_torus(), noctua_torus()
    renamed = Topology(8, list(reversed(first.connections)),
                       num_interfaces=4, name="renamed")
    routes = [compute_routes(t) for t in (first, second, renamed)]
    assert routes[0].next_iface is routes[1].next_iface \
        is routes[2].next_iface
    assert [r.topology for r in routes] == [first, second, renamed]
    assert routes[2].to_dict()["topology"] == "renamed"
    assert routes[0] is not routes[1]


def test_schemes_and_tree_roots_are_not_shared():
    top = noctua_torus()
    shortest = compute_routes(top, scheme="shortest")
    tree = compute_routes(top, scheme="tree")
    tree_3 = compute_routes(top, scheme="tree", tree_root=3)
    assert (shortest.scheme, tree.scheme, tree_3.scheme) == \
        ("shortest", "tree", "tree")
    tables = [shortest.next_iface, tree.next_iface, tree_3.next_iface]
    assert len({id(t) for t in tables}) == 3
    assert tree.next_iface != tree_3.next_iface


def test_an_unroutable_wiring_raises_on_every_call():
    top = Topology(4, [Connection((0, 0), (1, 0)), Connection((2, 0), (3, 0))],
                   name="split")
    for _ in range(3):
        with pytest.raises(RoutingError, match="unreachable.*'split'"):
            compute_routes(top, scheme="shortest")


def test_the_memo_is_bounded():
    from repro.network import routing

    # One cable between two ranks, on 81 distinct interface pairs.
    for a in range(9):
        for b in range(9):
            compute_routes(Topology(2, [Connection((0, a), (1, b))],
                                    num_interfaces=9))
    assert len(routing._ROUTE_MEMO) == routing.ROUTE_MEMO_SIZE
