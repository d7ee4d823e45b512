"""Resilient placement under network dynamics (paper §5.2, Figure 9)."""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, isp_backbone
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=256,
                     distinct_registers=256)


def q1(threshold=3, qid="fo.q1"):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn_stream(src_host, dst_host, n, start=0.0):
    return [
        Packet(sip=i + 1, dip=42, proto=6, tcp_flags=2,
               ts=start + i * 0.001, src_host=src_host, dst_host=dst_host)
        for i in range(n)
    ]


class TestFatTreeFailover:
    def _deployment(self):
        topo = fat_tree(4)
        deployment = build_deployment(topo, num_stages=4, array_size=512,
                                      ecmp=False)
        deployment.controller.install_query(
            q1(), PARAMS, topology=topo, stages_per_switch=4
        )
        return topo, deployment

    def test_monitoring_survives_reroute(self):
        topo, deployment = self._deployment()
        hosts = sorted(topo.hosts)
        src, dst = hosts[0], hosts[-1]
        # Break the primary path's first link; traffic reroutes (Figure 9
        # f1 -> f1'), and the redundant placement still covers it.
        primary = deployment.router.path_for(
            Packet(sip=1, dip=42, proto=6, tcp_flags=2,
                   src_host=src, dst_host=dst)
        )
        deployment.router.fail_link(primary[0], primary[1])
        stats = deployment.simulator.run(Trace(syn_stream(src, dst, 5)))
        assert stats.dropped == 0
        results = deployment.analyzer.results("fo.q1")[0]
        assert (42,) in results and results[(42,)] >= 3

    def test_every_ecmp_path_monitored(self):
        topo = fat_tree(4)
        deployment = build_deployment(topo, num_stages=4, array_size=512,
                                      ecmp=True)
        deployment.controller.install_query(
            q1(threshold=1), PARAMS, topology=topo, stages_per_switch=4
        )
        hosts = sorted(topo.hosts)
        src, dst = hosts[0], hosts[-1]
        # Many flows spread over ECMP paths; each must produce its report.
        packets = [
            Packet(sip=100 + f, dip=42, proto=6, tcp_flags=2,
                   sport=1000 + f, ts=f * 0.001,
                   src_host=src, dst_host=dst)
            for f in range(32)
        ]
        stats = deployment.simulator.run(Trace(packets))
        # Every flow is monitored somewhere (no deferral, no silence)...
        assert stats.reports_total >= 1
        assert stats.deferred == 0
        # ...but register state fragments across the ECMP paths' switches,
        # so at most one crossing fires per distinct reporting switch (the
        # §7 limitation the paper acknowledges for dynamic paths).
        assert stats.reports_total == len(stats.reports_by_switch)


class TestIspFailover:
    def test_california_monitoring_survives_backbone_failure(self):
        topo = isp_backbone()
        deployment = build_deployment(topo, num_stages=4, array_size=512,
                                      ecmp=False)
        deployment.controller.install_query(
            q1(qid="fo.isp"), PARAMS, topology=topo,
            edge_switches=["Los Angeles"], stages_per_switch=4,
        )
        src = "h_Los_Angeles_0"
        dst = "h_New_York_0"
        primary = deployment.router.path_for(
            Packet(proto=6, tcp_flags=2, src_host=src, dst_host=dst)
        )
        deployment.router.fail_link(primary[1], primary[2])
        stats = deployment.simulator.run(Trace(syn_stream(src, dst, 4)))
        assert stats.dropped == 0
        # Reports fire at the threshold crossing (count == 3).
        results = deployment.analyzer.results("fo.isp")[0]
        assert (42,) in results and results[(42,)] >= 3

    def test_rules_multiplexed_not_per_flow(self):
        """Redundant placement is bounded: installing the query once covers
        every flow and path; rule count does not depend on traffic."""
        topo = isp_backbone()
        deployment = build_deployment(topo, num_stages=4, array_size=512)
        result = deployment.controller.install_query(
            q1(qid="fo.isp"), PARAMS, topology=topo,
            edge_switches=["Los Angeles"], stages_per_switch=4,
        )
        before = deployment.controller.rule_count()
        assert before == result.rules_staged
        deployment.simulator.run(
            Trace(syn_stream("h_Los_Angeles_0", "h_Miami_0", 10))
        )
        assert deployment.controller.rule_count() == before
