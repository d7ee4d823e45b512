"""Property-based tests for Algorithm 2's resilience guarantee."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import place_slices
from repro.network.topology import Topology


@st.composite
def connected_topology(draw):
    """A small random connected topology."""
    n = draw(st.integers(3, 9))
    # Random spanning tree first (guarantees connectivity)...
    links = {
        frozenset((i, draw(st.integers(0, i - 1)))): None
        for i in range(1, n)
    }
    # ...then sprinkle extra links.
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            links.setdefault(frozenset((a, b)), None)
    return Topology(range(n), [tuple(link) for link in links], {})


def graph_of(topology):
    """A networkx graph built from a topology's links (the path oracle)."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.switches())
    graph.add_edges_from(topology.links)
    return graph


class TestPlacementProperties:
    @given(connected_topology(), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_simple_path_covered(self, topo, num_slices, data):
        adjacency = topo.neighbor_map()
        root = data.draw(st.sampled_from(topo.switches()))
        result = place_slices(adjacency, [root], num_slices, method="dfs")
        # Every simple path from the root long enough to host all slices
        # must execute them in order.
        graph = graph_of(topo)
        for target in graph.nodes:
            if target == root:
                continue
            for path in nx.all_simple_paths(graph, root, target,
                                            cutoff=num_slices + 1):
                if len(path) < num_slices:
                    continue
                assert result.covers_path(path), (path, result.assignments)

    @given(connected_topology(), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_layered_superset_of_dfs(self, topo, num_slices, data):
        adjacency = topo.neighbor_map()
        root = data.draw(st.sampled_from(topo.switches()))
        dfs = place_slices(adjacency, [root], num_slices, method="dfs")
        layered = place_slices(adjacency, [root], num_slices,
                               method="layered")
        for switch, slices in dfs.assignments.items():
            assert set(slices) <= set(layered.slices_at(switch))

    @given(connected_topology(), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_roots_host_slice_zero(self, topo, num_slices, data):
        adjacency = topo.neighbor_map()
        roots = data.draw(
            st.lists(st.sampled_from(topo.switches()), min_size=1,
                     max_size=3, unique=True)
        )
        result = place_slices(adjacency, roots, num_slices, method="dfs")
        for root in roots:
            assert 0 in result.slices_at(root)

    @given(connected_topology(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_depth_bounds_assignment(self, topo, data):
        """Slice d only ever lands within d hops of some root."""
        adjacency = topo.neighbor_map()
        root = data.draw(st.sampled_from(topo.switches()))
        num_slices = 3
        result = place_slices(adjacency, [root], num_slices, method="dfs")
        dist = nx.single_source_shortest_path_length(graph_of(topo), root)
        for switch, slices in result.assignments.items():
            for d in slices:
                assert dist[switch] <= d
