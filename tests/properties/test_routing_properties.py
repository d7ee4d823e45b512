"""Property tests: the router's equal-cost paths against networkx.

networkx is the independent oracle: its ``all_shortest_paths`` on a
graph built from ``topology.links`` minus the failed links, sorted the
way the router sorts (by switch names), must be exactly
``Router.switch_paths`` — and the router must raise ``RoutingError``
exactly where networkx finds no path or no node.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import Router, RoutingError
from repro.network.topology import Topology


@st.composite
def topologies(draw):
    """2–12 switches (named so ``str`` order differs from creation
    order: ``n10`` sorts before ``n2``), any links, connected or not."""
    n = draw(st.integers(2, 12))
    names = [f"n{i}" for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
    ))
    links = {frozenset(p): (names[p[0]], names[p[1]]) for p in pairs}
    return Topology(names, links.values(), {})


def live_graph(topo, failed):
    graph = nx.Graph()
    graph.add_nodes_from(topo.switches())
    graph.add_edges_from(topo.links)
    graph.remove_edges_from(failed)
    return graph


def oracle(graph, a, b):
    """Sorted equal-cost paths, or ``None`` where networkx raises."""
    try:
        paths = [list(p) for p in nx.all_shortest_paths(graph, a, b)]
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return sorted(paths, key=lambda p: [str(s) for s in p])


@given(topologies(), st.data())
@settings(max_examples=200, deadline=None)
def test_switch_paths_are_the_sorted_shortest_paths(topo, data):
    failed = data.draw(st.lists(
        st.sampled_from(topo.links), max_size=3, unique=True,
    )) if topo.links else []
    router = Router(topo)
    for a, b in failed:
        # Either orientation names the same undirected link.
        if data.draw(st.booleans()):
            a, b = b, a
        router.fail_link(a, b)
    graph = live_graph(topo, failed)
    endpoints = st.sampled_from(topo.switches() + ["ghost"])
    for _ in range(4):
        a, b = data.draw(endpoints), data.draw(endpoints)
        if a == b:
            continue
        expected = oracle(graph, a, b)
        if expected is None:
            try:
                router.switch_paths(a, b)
            except RoutingError:
                continue
            raise AssertionError(f"{a!r} -> {b!r} routed, networkx: no path")
        assert router.switch_paths(a, b) == expected


@given(topologies(), st.data())
@settings(max_examples=50, deadline=None)
def test_a_switch_routes_to_itself(topo, data):
    switch = data.draw(st.sampled_from(topo.switches()))
    assert Router(topo).switch_paths(switch, switch) == [[switch]]


@given(topologies(), st.data())
@settings(max_examples=50, deadline=None)
def test_restoring_every_failed_link_restores_every_path(topo, data):
    if not topo.links:
        return
    failed = data.draw(st.lists(
        st.sampled_from(topo.links), min_size=1, max_size=3, unique=True,
    ))
    a, b = data.draw(st.permutations(topo.switches()))[:2]
    router = Router(topo)
    before = oracle(live_graph(topo, []), a, b)
    for link in failed:
        router.fail_link(*link)
    try:
        router.switch_paths(a, b)
    except RoutingError:
        pass
    for link in failed:
        router.restore_link(*link)
    if before is None:
        try:
            router.switch_paths(a, b)
        except RoutingError:
            return
        raise AssertionError("restored router routes an unroutable pair")
    assert router.switch_paths(a, b) == before
