"""Topology construction tests.

networkx is the oracle here, not a dependency: the ``_networkx_*``
builders below construct each family the way the package did before it
kept its own adjacency, and the topology must match them in switch
order, neighbour order and link count — the orders Algorithm 2's DFS
walks.
"""

import networkx as nx
import pytest

from repro.network.topology import (
    _ISP_LINKS,
    CALIFORNIA_SITES,
    Topology,
    fat_tree,
    isp_backbone,
    leaf_spine,
    linear,
)


def graph_of(topo):
    """A networkx graph built from a topology's own links."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.switches())
    graph.add_edges_from(topo.links)
    return graph


def _networkx_linear(n):
    graph = nx.Graph()
    names = [f"s{i}" for i in range(n)]
    graph.add_nodes_from(names)
    for a, b in zip(names, names[1:]):
        graph.add_edge(a, b)
    return graph


def _networkx_fat_tree(k):
    half = k // 2
    graph = nx.Graph()
    cores = [f"c{i}" for i in range(half * half)]
    graph.add_nodes_from(cores)
    for pod in range(k):
        aggs = [f"p{pod}a{j}" for j in range(half)]
        edges = [f"p{pod}e{j}" for j in range(half)]
        graph.add_nodes_from(aggs)
        graph.add_nodes_from(edges)
        for edge in edges:
            for agg in aggs:
                graph.add_edge(edge, agg)
        for j, agg in enumerate(aggs):
            for i in range(half):
                graph.add_edge(agg, cores[j * half + i])
    return graph


def _networkx_leaf_spine(spines, leaves):
    graph = nx.Graph()
    spine_names = [f"sp{i}" for i in range(spines)]
    leaf_names = [f"lf{j}" for j in range(leaves)]
    graph.add_nodes_from(spine_names)
    graph.add_nodes_from(leaf_names)
    for leaf in leaf_names:
        for spine in spine_names:
            graph.add_edge(leaf, spine)
    return graph


def _networkx_isp_backbone():
    graph = nx.Graph()
    graph.add_edges_from(_ISP_LINKS)
    return graph


@pytest.mark.parametrize("topo, graph", [
    *[(linear(n), _networkx_linear(n)) for n in range(1, 5)],
    *[(fat_tree(k), _networkx_fat_tree(k)) for k in (2, 4, 8)],
    (leaf_spine(2, 3), _networkx_leaf_spine(2, 3)),
    (isp_backbone(), _networkx_isp_backbone()),
], ids=lambda value: getattr(value, "name", ""))
def test_orders_match_the_networkx_construction(topo, graph):
    assert topo.switches() == list(graph.nodes)
    assert list(topo.neighbor_map().items()) == [
        (node, list(graph.neighbors(node))) for node in graph.nodes
    ]
    assert topo.num_links == graph.number_of_edges()


class TestLinear:
    def test_chain_structure(self):
        topo = linear(4)
        assert topo.num_switches == 4
        assert topo.num_links == 3
        assert topo.neighbors("s1") == ["s0", "s2"] or set(
            topo.neighbors("s1")
        ) == {"s0", "s2"}

    def test_hosts_at_ends(self):
        topo = linear(3, hosts_per_end=2)
        assert set(topo.edge_switches) == {"s0", "s2"}
        assert len(topo.hosts) == 4
        assert topo.attachment("h_src0") == "s0"

    def test_single_switch(self):
        topo = linear(1)
        assert topo.num_switches == 1
        assert topo.edge_switches == ["s0"]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            linear(0)


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_switch_count(self, k):
        # Standard fat-tree: 5k^2/4 switches.
        topo = fat_tree(k)
        assert topo.num_switches == 5 * k * k // 4

    def test_edge_degree(self):
        topo = fat_tree(4)
        # Each edge switch connects to k/2 aggs.
        assert len(topo.neighbors("p0e0")) == 2

    def test_core_degree(self):
        topo = fat_tree(4)
        # Each core connects to one agg per pod.
        assert len(topo.neighbors("c0")) == 4

    def test_all_edges_have_hosts(self):
        topo = fat_tree(4, hosts_per_edge=1)
        assert len(topo.edge_switches) == 8  # k pods * k/2 edges

    def test_connected(self):
        assert nx.is_connected(graph_of(fat_tree(4)))

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)


class TestIspBackbone:
    def test_shape(self):
        topo = isp_backbone()
        assert 20 <= topo.num_switches <= 30
        assert topo.num_links >= topo.num_switches  # meshy, not a tree

    def test_connected(self):
        assert nx.is_connected(graph_of(isp_backbone()))

    def test_california_sites_present(self):
        topo = isp_backbone()
        for city in CALIFORNIA_SITES:
            assert city in topo.switches()

    def test_every_city_has_host(self):
        topo = isp_backbone()
        assert len(topo.edge_switches) == topo.num_switches


class TestTopologyApi:
    def test_unknown_host(self):
        with pytest.raises(KeyError):
            linear(2).attachment("ghost")

    def test_host_on_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            Topology(["a"], [], {"h": "b"})

    @pytest.mark.parametrize("links", [
        [("a", "z")],               # unknown endpoint
        [("a", "a")],               # self-loop
        [("a", "b"), ("b", "a")],   # the same link twice
    ])
    def test_bad_links_rejected(self, links):
        with pytest.raises(ValueError):
            Topology(["a", "b"], links, {})

    def test_links_keep_their_given_order(self):
        topo = Topology(["a", "b", "c"], [("c", "a"), ("a", "b")], {})
        assert topo.links == (("c", "a"), ("a", "b"))
        assert topo.neighbors("a") == ["c", "b"]

    def test_hosts_at(self):
        topo = linear(2, hosts_per_end=2)
        assert topo.hosts_at("s0") == ["h_src0", "h_src1"]

    def test_neighbor_map_complete(self):
        topo = fat_tree(4)
        assert set(topo.neighbor_map()) == set(topo.switches())
