"""End-to-end collection-plane acceptance tests.

A multi-switch CQE deployment reports into the collector; its merged
per-window answers must match a single-switch deployment of the same query
on the same trace — exactly under ``block`` backpressure, and within the
documented loss bound (missing keys <= lost reports, surviving keys exact
after register-readout reconciliation) under injected report loss.
"""

import pytest

from repro.collector import BackpressurePolicy, CollectorConfig
from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import FaultPlan, report_faults
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=1 << 14,
                     distinct_registers=1 << 14)

QID = "e2e.q"
THRESHOLD = 2
WINDOWS = 4
DIPS = list(range(100, 112))


def query():
    return (
        Query(QID)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=THRESHOLD)
    )


def true_count(dip):
    """Packets sent to ``dip`` in every window (by construction)."""
    return THRESHOLD + DIPS.index(dip) % 4


def trace():
    packets = []
    for w in range(WINDOWS):
        for i, dip in enumerate(DIPS):
            for k in range(true_count(dip)):
                packets.append(Packet(
                    sip=1000 + i, dip=dip, proto=6, tcp_flags=2,
                    ts=w * 0.1 + i * 0.004 + k * 0.0002,
                    src_host="h_src0", dst_host="h_dst0",
                ))
    packets.sort(key=lambda p: p.ts)
    return Trace(packets)


def run(n_switches, collector_config=None, num_stages=12,
        stages_per_switch=None, faults=None):
    dep = build_deployment(
        linear(n_switches), num_stages=num_stages, array_size=1 << 14,
        collector_config=collector_config, faults=faults,
    )
    path = [f"s{i}" for i in range(n_switches)]
    dep.controller.install_query(
        query(), PARAMS, path=path, stages_per_switch=stages_per_switch
    )
    stats = dep.simulator.run(trace())
    dep.collector.flush()
    return dep, stats


@pytest.fixture(scope="module")
def baseline():
    """Single-switch ground truth: the whole query on one switch."""
    dep, stats = run(1)
    results = dep.collector.merged_results(QID)
    assert stats.reports_total == WINDOWS * len(DIPS)
    return results


class TestExactUnderBlock:
    def test_cqe_merged_answer_matches_single_switch(self, baseline):
        config = CollectorConfig(
            queue_capacity=8, policy=BackpressurePolicy.BLOCK
        )
        dep, stats = run(3, collector_config=config, num_stages=3,
                         stages_per_switch=3)
        collector = dep.collector
        merged = collector.merged_results(QID)
        assert merged == baseline
        # Every window has every victim, at the clipped crossing count.
        for epoch in range(WINDOWS):
            assert merged[epoch] == {(dip,): THRESHOLD for dip in DIPS}
        # Block backpressure stalled (12 reports/window > capacity 8)
        # but dropped nothing.
        assert collector.dropped == 0
        blocked = collector.metrics.counter(
            "collector_backpressure_blocked_total"
        )
        assert blocked.total > 0
        assert collector.balance()[0] == collector.balance()[1]

    def test_deferred_cpu_tail_completes_short_path(self):
        """Path too short for the data plane: the CPU side finishes the
        query and the merged answer carries exact (unclipped) counts."""
        dep, stats = run(1, num_stages=3, stages_per_switch=3)
        assert dep.controller.total_slices(QID) >= 2
        assert stats.deferred > 0
        merged = dep.collector.merged_results(QID)
        for epoch in range(WINDOWS):
            assert merged[epoch] == {
                (dip,): true_count(dip) for dip in DIPS
            }


class TestLossTolerance:
    LOSS = 0.05

    def test_bounded_recall_and_reconciled_counts(self, baseline):
        config = CollectorConfig(reconcile_loss_threshold=0.0)
        faults = FaultPlan(events=(report_faults(loss=self.LOSS),), seed=23)
        dep, stats = run(3, collector_config=config, num_stages=3,
                         stages_per_switch=3, faults=faults)
        collector = dep.collector
        assert collector.lost > 0  # the shim actually fired
        merged = collector.merged_results(QID)

        found = truth = 0
        for epoch in range(WINDOWS):
            base_keys = set(baseline[epoch])
            got = merged.get(epoch, {})
            # No spurious keys: loss only removes answers.
            assert set(got) <= base_keys
            truth += len(base_keys)
            found += len(set(got) & base_keys)
            for (dip,), count in got.items():
                # Clipped at the crossing <= answer <= register truth.
                assert THRESHOLD <= count <= true_count(dip)

        # Documented bound: one report per key per window, so at most
        # one key vanishes per lost report.
        assert truth - found <= collector.lost
        assert found / truth >= 1 - 2 * self.LOSS

        # Reconciliation lifted surviving keys to the register truth in
        # every window that actually saw loss.
        reconciled = collector.metrics.counter(
            "collector_reconciled_keys_total"
        )
        assert reconciled.total > 0

    def test_merged_answer_does_not_undo_the_loss(self):
        """A fully data-plane query has no deferred share, so the merged
        answer is the collector's own — never the analyzer's lossless
        mirror of the reports the shim destroyed."""
        faults = FaultPlan(events=(report_faults(loss=0.6),), seed=3)
        dep, stats = run(3, num_stages=3, stages_per_switch=3,
                         faults=faults)
        collector = dep.collector
        assert stats.deferred == 0
        assert collector.lost > 0
        assert collector.merged_results(QID) == collector.results(QID)
        mirrored = dep.analyzer.results(QID)
        assert all(len(mirrored[epoch]) == len(DIPS)
                   for epoch in range(WINDOWS))
        assert any(len(collector.results(QID).get(epoch, {})) < len(DIPS)
                   for epoch in range(WINDOWS))

    def test_invariant_holds_under_loss(self):
        faults = FaultPlan(events=(report_faults(
            loss=self.LOSS, duplication=0.05, reorder=0.05,
        ),), seed=31)
        dep, _ = run(3, num_stages=3, stages_per_switch=3, faults=faults)
        collector = dep.collector
        ingested, accounted = collector.balance()
        assert ingested == accounted
        assert collector.pending == 0
