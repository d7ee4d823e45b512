"""Window (epoch) boundary behaviour.

The 100 ms tumbling window is load-bearing for every result in the paper:
registers reset, thresholds re-arm, reports carry the epoch they belong
to, and deferred CPU execution must close its windows in lockstep with
the data plane.
"""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=256,
                     distinct_registers=256)


def q(threshold=3, qid="wb.q"):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn(sip, ts, dip=9):
    return Packet(sip=sip, dip=dip, proto=6, tcp_flags=2, ts=ts,
                  src_host="h_src0", dst_host="h_dst0")


class TestThresholdRearming:
    def test_count_split_across_windows_never_fires(self):
        """2+2 SYNs straddling a boundary must not cross a threshold of 3."""
        deployment = build_deployment(linear(1), array_size=512)
        deployment.controller.install_query(q(3), PARAMS, path=["s0"])
        packets = [syn(1, 0.08), syn(2, 0.09), syn(3, 0.11), syn(4, 0.12)]
        stats = deployment.simulator.run(Trace(packets))
        assert stats.reports_total == 0

    def test_each_window_reports_independently(self):
        deployment = build_deployment(linear(1), array_size=512)
        deployment.controller.install_query(q(2), PARAMS, path=["s0"])
        packets = (
            [syn(i, 0.01 + i * 1e-3) for i in range(2)]      # window 0
            + [syn(i, 0.51 + i * 1e-3) for i in range(2)]    # window 5
        )
        deployment.simulator.run(Trace(packets))
        results = deployment.analyzer.results("wb.q")
        assert set(results) == {0, 5}
        assert results[0] == results[5] == {(9,): 2}

    def test_report_epoch_matches_packet_window(self):
        deployment = build_deployment(linear(1), array_size=512)
        deployment.controller.install_query(q(1), PARAMS, path=["s0"])
        deployment.simulator.run(Trace([syn(1, 0.73)]))
        report = deployment.analyzer.reports[0]
        assert report.epoch == 7

    def test_exact_boundary_timestamp_belongs_to_next_window(self):
        deployment = build_deployment(linear(1), array_size=512)
        deployment.controller.install_query(q(2), PARAMS, path=["s0"])
        # ts == 0.1 is window 1 by the half-open convention.
        deployment.simulator.run(Trace([syn(1, 0.0999), syn(2, 0.1)]))
        assert deployment.analyzer.results("wb.q") == {}


class TestCqeWindows:
    def test_sliced_query_resets_on_every_switch(self):
        deployment = build_deployment(linear(2), num_stages=3,
                                      array_size=512)
        deployment.controller.install_query(
            q(3), PARAMS, path=["s0", "s1"], stages_per_switch=3
        )
        # Three crossings in window 0, then three more in window 1: both
        # switches' registers must have rolled together.
        first = [syn(i, 0.01 + i * 1e-3) for i in range(3)]
        second = [syn(i, 0.11 + i * 1e-3) for i in range(3)]
        deployment.simulator.run(Trace(first + second))
        results = deployment.analyzer.results("wb.q")
        assert results == {0: {(9,): 3}, 1: {(9,): 3}}


class TestDeferredWindows:
    def test_cpu_windows_close_with_data_plane(self):
        # One-switch path, two-slice query: remainder runs on CPU; its
        # per-window results must land in the right epochs.
        deployment = build_deployment(linear(1), num_stages=3,
                                      array_size=512)
        deployment.controller.install_query(
            q(2), PARAMS, path=["s0"], stages_per_switch=3
        )
        assert deployment.controller.total_slices("wb.q") >= 2
        packets = (
            [syn(i, 0.01 + i * 1e-3) for i in range(2)]
            + [syn(i, 0.21 + i * 1e-3) for i in range(4)]
        )
        deployment.simulator.run(Trace(packets))
        results = deployment.analyzer.results("wb.q")
        assert results[0] == {(9,): 2}
        assert results[2] == {(9,): 4}
        assert 1 not in results or not results[1]


class TestCustomWindowLength:
    def test_window_ms_parameter_respected(self):
        deployment = build_deployment(linear(1), array_size=512,
                                      window_ms=500)
        deployment.controller.install_query(q(2), PARAMS, path=["s0"])
        # 0.08 and 0.3 share a 500 ms window but not a 100 ms one.
        deployment.simulator.run(Trace([syn(1, 0.08), syn(2, 0.3)]))
        assert deployment.analyzer.results("wb.q")[0] == {(9,): 2}
