"""Algorithm 2 placement tests."""

import networkx as nx
import pytest

from repro.core.placement import PlacementError, PlacementResult, place_slices
from repro.network.topology import fat_tree, isp_backbone, linear


def adjacency(topology):
    return topology.neighbor_map()


def graph_of(topology):
    """A networkx graph built from a topology's links (the path oracle)."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.switches())
    graph.add_edges_from(topology.links)
    return graph


class TestLinearChain:
    def test_slices_follow_depth(self):
        topo = linear(4)
        result = place_slices(adjacency(topo), ["s0"], num_slices=3,
                              method="dfs")
        assert result.slices_at("s0") == (0,)
        assert result.slices_at("s1") == (1,)
        assert result.slices_at("s2") == (2,)
        assert result.slices_at("s3") == ()

    def test_single_slice_only_edges(self):
        topo = linear(3)
        result = place_slices(adjacency(topo), ["s0"], num_slices=1,
                              method="dfs")
        assert result.assignments == {"s0": (0,)}

    def test_both_ends_monitored(self):
        topo = linear(3)
        result = place_slices(adjacency(topo), ["s0", "s2"], num_slices=2,
                              method="dfs")
        # Middle switch is depth 2 from both ends.
        assert result.slices_at("s1") == (1,)
        assert result.slices_at("s0") == (0,)
        assert result.slices_at("s2") == (0,)


class TestCoverage:
    """Algorithm 2's guarantee: any path from a monitored edge executes
    the whole query in order."""

    @pytest.mark.parametrize("method", ["dfs", "layered"])
    def test_all_simple_paths_covered_fat_tree(self, method):
        topo = fat_tree(4)
        edges = topo.edge_switches
        result = place_slices(adjacency(topo), edges, num_slices=3,
                              method=method)
        graph = graph_of(topo)
        root = edges[0]
        count = 0
        for target in topo.switches():
            if target == root:
                continue
            for path in nx.all_simple_paths(graph, root, target, cutoff=4):
                if len(path) < 3:
                    continue
                assert result.covers_path(path), path
                count += 1
                if count > 300:
                    return

    @pytest.mark.parametrize("method", ["dfs", "layered"])
    def test_isp_rerouting_still_covered(self, method):
        """The Figure 9 scenario: remove a link, the alternate path still
        carries all slices in order."""
        topo = isp_backbone()
        result = place_slices(adjacency(topo), ["Los Angeles"],
                              num_slices=3, method=method)
        graph = graph_of(topo)
        primary = nx.shortest_path(graph, "Los Angeles", "New York")
        assert result.covers_path(primary)
        graph.remove_edge(primary[0], primary[1])
        detour = nx.shortest_path(graph, "Los Angeles", "New York")
        assert result.covers_path(detour)


class TestEngines:
    def test_layered_superset_of_dfs(self):
        topo = fat_tree(4)
        edges = topo.edge_switches
        dfs = place_slices(adjacency(topo), edges, 4, method="dfs")
        layered = place_slices(adjacency(topo), edges, 4, method="layered")
        for switch, slices in dfs.assignments.items():
            assert set(slices) <= set(layered.slices_at(switch))

    def test_engines_agree_on_trees(self):
        # A chain has no cycles, so walks and simple paths coincide.
        topo = linear(6)
        dfs = place_slices(adjacency(topo), ["s0"], 4, method="dfs")
        layered = place_slices(adjacency(topo), ["s0"], 4, method="layered")
        assert dfs.assignments == layered.assignments

    def test_auto_threshold(self):
        small = place_slices(adjacency(linear(3)), ["s0"], 2, method="auto")
        assert small.method == "dfs"
        big_topo = fat_tree(12)  # 180 switches
        big = place_slices(adjacency(big_topo), big_topo.edge_switches, 2,
                           method="auto", dfs_limit_nodes=100)
        assert big.method == "layered"


class TestAccounting:
    def test_total_entries(self):
        topo = linear(3)
        result = place_slices(adjacency(topo), ["s0"], 2, method="dfs")
        # s0 gets slice 0 (say 5 rules), s1 slice 1 (3 rules).
        assert result.total_entries([5, 3]) == 8

    def test_average_entries(self):
        topo = linear(4)
        result = place_slices(adjacency(topo), ["s0"], 2, method="dfs")
        assert result.average_entries([4, 4], topo.num_switches) == 2.0

    def test_rules_length_validated(self):
        topo = linear(2)
        result = place_slices(adjacency(topo), ["s0"], 2, method="dfs")
        with pytest.raises(PlacementError):
            result.total_entries([1])

    def test_placements_counts_pairs(self):
        topo = linear(3)
        result = place_slices(adjacency(topo), ["s0", "s2"], 2, method="dfs")
        assert result.placements() == sum(
            len(v) for v in result.assignments.values()
        )


class TestValidation:
    def test_no_edges_rejected(self):
        with pytest.raises(PlacementError):
            place_slices(adjacency(linear(2)), [], 1)

    def test_unknown_edge_rejected(self):
        with pytest.raises(PlacementError):
            place_slices(adjacency(linear(2)), ["s9"], 1)

    def test_zero_slices_rejected(self):
        with pytest.raises(PlacementError):
            place_slices(adjacency(linear(2)), ["s0"], 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(PlacementError):
            place_slices(adjacency(linear(2)), ["s0"], 1, method="magic")
