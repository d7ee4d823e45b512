"""ReportCollector unit tests: ingest accounting, window close, lateness,
staleness, and register-readout reconciliation."""

from repro.collector import (
    BackpressurePolicy,
    CollectorConfig,
    FaultInjector,
    QueryRegistration,
    ReportCollector,
)
from repro.core.ops import ControlOp
from repro.core.rules import Report
from repro.resilience import FaultPlan, report_faults

QID = "q.sub"
TOP = "q"


def make_collector(faults=None, **overrides):
    """A collector with one registered query; ``faults`` is a
    ``report_faults(...)`` event for its shim."""
    defaults = dict(queue_capacity=64, policy=BackpressurePolicy.BLOCK)
    defaults.update(overrides)
    collector = ReportCollector(
        config=CollectorConfig(**defaults),
        faults=(FaultInjector(FaultPlan(events=(faults,)))
                if faults is not None else None),
    )
    collector._registrations[QID] = QueryRegistration(
        qid=QID, top_qid=TOP, key_fields=("dip",), result_set=1,
        cpu_start=2, num_primitives=2, tail=(),
    )
    return collector


def report(dip, count=3, epoch=0, switch="s0", ts=0.0):
    return Report(
        qid=QID, switch_id=switch, ts=ts, epoch=epoch,
        payload={"set1_fields": {"dip": dip}, "global_result": count},
    )


def assert_balanced(collector):
    ingested, accounted = collector.balance()
    assert ingested == accounted, (
        f"flow invariant broken: ingested={ingested} accounted={accounted}"
    )


class TestIngestAndClose:
    def test_window_answer_from_reports(self):
        collector = make_collector()
        assert collector.ingest(report(9, count=3))
        assert collector.ingest(report(8, count=5, switch="s1"))
        collector.close_window(0)
        assert collector.results(QID) == {0: {(9,): 3, (8,): 5}}
        assert collector.processed == 2
        assert_balanced(collector)

    def test_multi_switch_max_merge(self):
        collector = make_collector()
        collector.ingest(report(9, count=3, switch="s0"))
        collector.ingest(report(9, count=7, switch="s1"))
        collector.close_window(0)
        assert collector.results(QID)[0] == {(9,): 7}

    def test_unregistered_report_dropped_but_balanced(self):
        collector = make_collector()
        stray = Report(qid="ghost", switch_id="s0", ts=0.0, epoch=0,
                       payload={})
        assert not collector.ingest(stray)
        assert collector.dropped == 1
        assert_balanced(collector)

    def test_windows_counted(self):
        collector = make_collector()
        collector.close_window(0)
        collector.close_window(1)
        counter = collector.metrics.counter("collector_windows_closed_total")
        assert counter.total == 2


class TestBackpressureAccounting:
    def test_drop_newest_is_accounted(self):
        collector = make_collector(
            queue_capacity=1, policy=BackpressurePolicy.DROP_NEWEST
        )
        collector.ingest(report(9))
        assert not collector.ingest(report(8))
        collector.close_window(0)
        assert collector.dropped == 1
        assert collector.results(QID)[0] == {(9,): 3}
        assert_balanced(collector)

    def test_drop_oldest_is_accounted(self):
        collector = make_collector(
            queue_capacity=1, policy=BackpressurePolicy.DROP_OLDEST
        )
        collector.ingest(report(9))
        collector.ingest(report(8))
        collector.close_window(0)
        assert collector.dropped == 1
        assert collector.results(QID)[0] == {(8,): 3}
        assert_balanced(collector)

    def test_drop_newest_attributed_to_query(self):
        collector = make_collector(
            queue_capacity=1, policy=BackpressurePolicy.DROP_NEWEST
        )
        collector.ingest(report(9))
        collector.ingest(report(8))
        counter = collector.metrics.counter(
            "collector_reports_dropped_total"
        )
        assert counter.value(reason="queue-full", switch="s0",
                             qid=TOP) == 1

    def test_drop_oldest_attributed_to_evicted_query(self):
        """The eviction must count against the query whose report was
        lost, not the query whose arrival caused it (they can differ)."""
        collector = make_collector(
            queue_capacity=1, policy=BackpressurePolicy.DROP_OLDEST
        )
        other = "p.sub"
        collector._registrations[other] = QueryRegistration(
            qid=other, top_qid="p", key_fields=("dip",), result_set=1,
            cpu_start=2, num_primitives=2, tail=(),
        )
        victim = Report(qid=other, switch_id="s0", ts=0.0, epoch=0,
                        payload={"set1_fields": {"dip": 7},
                                 "global_result": 1})
        collector.ingest(victim)
        collector.ingest(report(8))  # evicts the 'p' report
        counter = collector.metrics.counter(
            "collector_reports_dropped_total"
        )
        assert counter.value(reason="evicted-oldest", switch="s0",
                             qid="p") == 1
        assert counter.value(reason="evicted-oldest", switch="s0",
                             qid=TOP) == 0
        assert_balanced(collector)

    def test_block_never_drops(self):
        collector = make_collector(queue_capacity=1)
        for dip in range(10):
            assert collector.ingest(report(dip))
        collector.close_window(0)
        assert collector.dropped == 0
        blocked = collector.metrics.counter(
            "collector_backpressure_blocked_total"
        )
        assert blocked.total == 9
        assert len(collector.results(QID)[0]) == 10
        assert_balanced(collector)


class TestLateness:
    def test_late_within_watermark_recomputes_answer(self):
        collector = make_collector(allowed_lateness=1)
        collector.ingest(report(9, count=3, epoch=0))
        collector.close_window(0)
        assert collector.results(QID)[0] == {(9,): 3}
        # A straggler for window 0 lands while window 1 closes: still
        # inside the watermark, so the answer is recomputed.
        collector.ingest(report(8, count=4, epoch=0, switch="s1"))
        collector.close_window(1)
        assert collector.results(QID)[0] == {(9,): 3, (8,): 4}
        assert_balanced(collector)

    def test_late_beyond_watermark_dropped(self):
        collector = make_collector(allowed_lateness=1)
        collector.close_window(0)
        collector.close_window(1)
        collector.close_window(2)
        collector.ingest(report(9, epoch=0))  # 3 windows stale
        collector.close_window(3)
        assert 0 not in collector.results(QID)
        late = collector.metrics.counter(
            "collector_reports_dropped_total"
        ).value(reason="late", qid=TOP)
        assert late == 1
        assert_balanced(collector)

    def test_delayed_record_stays_pending(self):
        collector = make_collector(
            allowed_lateness=2,
            faults=report_faults(delay=1.0, delay_windows=2),
        )
        collector.ingest(report(9, epoch=0))
        collector.close_window(0)
        assert collector.pending == 1
        assert 0 not in collector.results(QID)
        assert_balanced(collector)
        collector.close_window(2)  # arrival epoch reached
        assert collector.pending == 0
        assert collector.results(QID)[0] == {(9,): 3}
        assert_balanced(collector)


class TestFaultTolerance:
    def test_duplicates_collapsed(self):
        collector = make_collector(faults=report_faults(duplication=1.0))
        collector.ingest(report(9, count=3))
        collector.close_window(0)
        assert collector.results(QID)[0] == {(9,): 3}
        duplicates = collector.metrics.counter(
            "collector_reports_duplicate_total"
        )
        assert duplicates.total == 1
        assert_balanced(collector)

    def test_loss_is_counted_not_silent(self):
        collector = make_collector(faults=report_faults(loss=1.0))
        assert not collector.ingest(report(9))
        assert collector.lost == 1
        assert collector.ingested == 0
        assert_balanced(collector)

    def test_flush_delivers_reorder_holdback(self):
        collector = make_collector(faults=report_faults(reorder=1.0))
        collector.ingest(report(9))  # held by the shim
        assert collector.ingested == 0
        collector.flush()
        assert collector.ingested == 1
        assert collector.results(QID) != {}
        assert_balanced(collector)


class TestStaleQueries:
    def test_remove_drops_queued_reports_accounted(self):
        collector = make_collector()
        collector.ingest(report(9))
        collector._registrations.clear()  # query removed mid-window
        collector.close_window(0)
        assert collector.results(QID) == {}
        stale = collector.metrics.counter(
            "collector_reports_dropped_total"
        ).value(reason="stale-query")
        assert stale == 1
        assert_balanced(collector)

    def test_on_remove_forgets_subqueries(self):
        collector = make_collector()
        collector.on_commit(ControlOp("remove", TOP), None)
        assert collector.registration(QID) is None
        assert not collector.ingest(report(9))
        assert_balanced(collector)


class _FakeController:
    """estimate_count / sketch_occupancy stub standing in for the
    register readout."""

    def __init__(self, counts):
        self.counts = counts
        self.probes = []

    def estimate_count(self, qid, key_map):
        self.probes.append((qid, dict(key_map)))
        return self.counts.get(key_map["dip"])

    def sketch_occupancy(self, qid):
        return None


class TestReconciliation:
    def test_readout_replaces_clipped_counts_on_loss(self):
        collector = make_collector(
            queue_capacity=1,
            policy=BackpressurePolicy.DROP_NEWEST,
            reconcile_loss_threshold=0.0,
        )
        controller = _FakeController({9: 42})
        collector.controller = controller
        collector.ingest(report(9, count=3))
        collector.ingest(report(8, count=5))  # dropped -> loss detected
        collector.close_window(0)
        assert collector.results(QID)[0] == {(9,): 42}
        assert controller.probes == [(QID, {"dip": 9})]
        reconciled = collector.metrics.counter(
            "collector_reconciled_keys_total"
        )
        assert reconciled.total == 1
        assert_balanced(collector)

    def test_no_readout_below_threshold(self):
        collector = make_collector(reconcile_loss_threshold=0.5)
        controller = _FakeController({9: 42})
        collector.controller = controller
        collector.ingest(report(9, count=3))
        collector.close_window(0)
        assert collector.results(QID)[0] == {(9,): 3}
        assert controller.probes == []

    def test_disabled_by_default(self):
        collector = make_collector(
            queue_capacity=1, policy=BackpressurePolicy.DROP_NEWEST
        )
        controller = _FakeController({9: 42})
        collector.controller = controller
        collector.ingest(report(9))
        collector.ingest(report(8))
        collector.close_window(0)
        assert controller.probes == []
