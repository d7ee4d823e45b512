"""Network simulator tests."""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=128,
                     distinct_registers=128)


def q(threshold=3):
    return (
        Query("sim.q")
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn_trace(n, dip=9, start=0.0):
    return Trace([
        Packet(sip=i + 1, dip=dip, proto=6, tcp_flags=2,
               ts=start + i * 0.001, src_host="h_src0", dst_host="h_dst0")
        for i in range(n)
    ])


class TestForwarding:
    def test_delivery_counts(self):
        dep = build_deployment(linear(2))
        stats = dep.simulator.run(syn_trace(10))
        assert stats.packets == 10
        assert stats.delivered == 10
        assert stats.dropped == 0

    def test_reports_reach_analyzer(self):
        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        stats = dep.simulator.run(syn_trace(5))
        assert stats.reports_total == 1
        assert dep.analyzer.results("sim.q")[0] == {(9,): 3}

    def test_unsorted_trace_rejected(self):
        dep = build_deployment(linear(1))
        packets = [
            Packet(ts=0.5, src_host="h_src0", dst_host="h_dst0"),
            Packet(ts=0.1, src_host="h_src0", dst_host="h_dst0"),
        ]
        with pytest.raises(ValueError):
            dep.simulator.run(packets)

    def test_missing_switch_object_rejected(self):
        from repro.network.simulator import NetworkSimulator

        dep = build_deployment(linear(2))
        with pytest.raises(ValueError):
            NetworkSimulator(dep.topology, {}, dep.router, dep.controller,
                             dep.analyzer, dep.collector, dep.clock)


class TestWindows:
    def test_epoch_rollover_resets_counts(self):
        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(q(threshold=3), PARAMS, path=["s0"])
        first = syn_trace(3)                      # crossing in window 0
        second = syn_trace(3, start=0.15)         # crossing again in window 1
        from repro.traffic.traces import merge_traces

        stats = dep.simulator.run(merge_traces([first, second]))
        assert stats.reports_total == 2
        results = dep.analyzer.results("sim.q")
        assert set(results) == {0, 1}

    def test_epochs_counted(self):
        dep = build_deployment(linear(1))
        stats = dep.simulator.run(syn_trace(2, start=0.25))
        assert stats.epochs >= 3


class TestSpOverhead:
    def test_single_switch_has_no_sp(self):
        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        stats = dep.simulator.run(syn_trace(5))
        assert stats.sp_bytes == 0

    def test_cqe_overhead_below_one_percent(self):
        dep = build_deployment(linear(3), num_stages=3, array_size=256)
        dep.controller.install_query(
            q(), PARAMS, path=["s0", "s1", "s2"], stages_per_switch=3
        )
        trace = Trace([
            Packet(sip=i, dip=9, proto=6, tcp_flags=2, len=1500,
                   ts=i * 0.001, src_host="h_src0", dst_host="h_dst0")
            for i in range(20)
        ])
        stats = dep.simulator.run(trace)
        assert 0 < stats.sp_overhead_ratio < 0.01  # paper: <1% at MTU

    def test_cqe_reports_once(self):
        dep = build_deployment(linear(3), num_stages=3, array_size=256)
        dep.controller.install_query(
            q(threshold=2), PARAMS, path=["s0", "s1", "s2"],
            stages_per_switch=3,
        )
        stats = dep.simulator.run(syn_trace(4))
        assert stats.reports_total == 1
        # The report came from the switch hosting the final slice.
        assert list(stats.reports_by_switch) == ["s1"] or list(
            stats.reports_by_switch
        ) == ["s2"]


class TestStats:
    def test_reports_by_switch_is_a_counter(self):
        from collections import Counter

        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        stats = dep.simulator.run(syn_trace(5))
        assert isinstance(stats.reports_by_switch, Counter)
        assert stats.reports_by_switch["s0"] == 1
        # Missing switches read as zero, Counter-style.
        assert stats.reports_by_switch["s999"] == 0

    def test_reports_total_sums_the_switches(self):
        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        stats = dep.simulator.run(syn_trace(5))
        assert stats.reports_total == sum(
            stats.reports_by_switch.values()) == 1


class TestStaleDeferred:
    def test_removed_query_mid_window_is_dropped_not_crashed(self):
        """Regression: a snapshot entry whose query was removed from the
        controller's registry while still in flight used to raise
        ``KeyError`` from ``cpu_start_for``; it must be dropped and
        accounted instead."""
        dep = build_deployment(linear(1), num_stages=3, array_size=256)
        dep.controller.install_query(
            q(threshold=3), PARAMS, path=["s0"], stages_per_switch=3
        )
        assert dep.controller.total_slices("sim.q") >= 2
        # Simulate the race: the registry entry disappears while switch
        # rules (and therefore in-flight snapshot entries) remain.
        del dep.controller._sub_owner["sim.q"]
        stats = dep.simulator.run(syn_trace(5))
        assert stats.stale_deferred == 5
        assert stats.deferred == 0

    def test_no_stale_entries_on_healthy_run(self):
        dep = build_deployment(linear(1), num_stages=3, array_size=256)
        dep.controller.install_query(
            q(threshold=3), PARAMS, path=["s0"], stages_per_switch=3
        )
        stats = dep.simulator.run(syn_trace(5))
        assert stats.stale_deferred == 0
        assert stats.deferred > 0


class TestDeferral:
    def test_short_path_defers_to_analyzer(self):
        # Query needs 2+ switches, path has 1: remainder runs on CPU.
        dep = build_deployment(linear(1), num_stages=3, array_size=256)
        dep.controller.install_query(
            q(threshold=3), PARAMS, path=["s0"], stages_per_switch=3
        )
        assert dep.controller.total_slices("sim.q") >= 2
        stats = dep.simulator.run(syn_trace(5))
        assert stats.deferred > 0
        # The analyzer completed the query exactly.
        assert dep.analyzer.results("sim.q")[0] == {(9,): 5}

    def test_dropped_on_switch_down(self):
        dep = build_deployment(linear(2))
        dep.switches["s1"].reboot(at=0.0, entries_to_restore=10_000)
        stats = dep.simulator.run(syn_trace(5))
        assert stats.dropped == 5
        assert stats.delivered == 0
