"""Partial deployment (paper §7): only some switches run Newton.

Legacy switches forward traffic (carrying the SP header as opaque bytes)
but host no Newton component.  Placement skips them without advancing the
slice depth, so a sliced query still completes across the Newton-enabled
hops of any path.
"""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.placement import PlacementError, place_slices
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=256,
                     distinct_registers=256)


def q1(threshold=3):
    return (
        Query("pd.q1")
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn_stream(n):
    return Trace([
        Packet(sip=i + 1, dip=9, proto=6, tcp_flags=2, ts=i * 1e-3,
               src_host="h_src0", dst_host="h_dst0")
        for i in range(n)
    ])


class TestPlacementWithTransit:
    def test_transit_nodes_host_nothing(self):
        topo = linear(4)  # s0 - s1 - s2 - s3, with s1 legacy
        result = place_slices(topo.neighbor_map(), ["s0"], num_slices=2,
                              method="dfs", transit=["s1"])
        assert result.slices_at("s0") == (0,)
        assert result.slices_at("s1") == ()
        assert result.slices_at("s2") == (1,)  # depth 2 in Newton hops

    def test_layered_agrees_on_chain(self):
        topo = linear(5)
        kwargs = dict(edge_switches=["s0"], num_slices=3,
                      transit=["s1", "s3"])
        dfs = place_slices(topo.neighbor_map(), method="dfs", **kwargs)
        layered = place_slices(topo.neighbor_map(), method="layered",
                               **kwargs)
        assert dfs.assignments == layered.assignments

    def test_transit_edge_rejected(self):
        topo = linear(2)
        with pytest.raises(PlacementError):
            place_slices(topo.neighbor_map(), ["s0"], 1, transit=["s0"])


class TestLegacySwitches:
    def test_legacy_switch_refuses_rules(self):
        deployment = build_deployment(linear(2),
                                      newton_switches=["s0"])
        with pytest.raises(RuntimeError):
            deployment.controller.install_query(
                q1(), PARAMS, path=["s1"]
            )

    def test_legacy_switch_forwards_without_monitoring(self):
        deployment = build_deployment(linear(2),
                                      newton_switches=["s0"])
        stats = deployment.simulator.run(syn_stream(5))
        assert stats.delivered == 5
        assert stats.reports_total == 0


class TestEndToEnd:
    def test_cqe_across_a_legacy_gap(self):
        """Newton on s0 and s2, legacy s1 in between: the SP header rides
        through and the query completes on the far Newton switch —
        generalising §7's 'adjacent Newton-enabled switches' requirement.
        """
        topo = linear(3)
        deployment = build_deployment(
            topo, num_stages=3, array_size=256,
            newton_switches=["s0", "s2"],
        )
        result = deployment.controller.install_query(
            q1(), PARAMS, topology=topo, edge_switches=["s0"],
            stages_per_switch=3,
        )
        placement = result.placements["pd.q1"]
        assert placement.slices_at("s0") == (0,)
        assert placement.slices_at("s1") == ()
        assert placement.slices_at("s2") == (1,)
        stats = deployment.simulator.run(syn_stream(5))
        assert stats.reports_total == 1
        assert list(stats.reports_by_switch) == ["s2"]
        assert deployment.analyzer.results("pd.q1")[0] == {(9,): 3}

    def test_single_switch_queries_unaffected(self):
        topo = linear(3)
        deployment = build_deployment(
            topo, num_stages=12, array_size=512,
            newton_switches=["s0"],
        )
        deployment.controller.install_query(
            q1(), PARAMS, topology=topo, edge_switches=["s0"],
        )
        deployment.simulator.run(syn_stream(5))
        assert deployment.analyzer.results("pd.q1")[0] == {(9,): 3}
