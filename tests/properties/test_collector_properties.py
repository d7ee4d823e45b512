"""Property-based tests for the collection plane (hypothesis).

Two invariants the collector documents:

* **counters balance** — ``ingested == processed + dropped + pending``
  for any fault schedule, backpressure policy, and window pattern;
* **block is lossless** — under the ``block`` policy the per-window
  answers equal a loss-free baseline, whatever the arrival order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector import (
    BackpressurePolicy,
    CollectorConfig,
    FaultInjector,
    QueryRegistration,
    ReportCollector,
)
from repro.core.rules import Report
from repro.resilience import FaultPlan, report_faults

QID = "prop.q"


def make_collector(config, faults=None):
    collector = ReportCollector(
        config=config,
        faults=FaultInjector(faults) if faults is not None else None,
    )
    collector._registrations[QID] = QueryRegistration(
        qid=QID, top_qid=QID, key_fields=("dip",), result_set=1,
        cpu_start=1, num_primitives=1, tail=(),
    )
    return collector


def report(dip, count, epoch):
    return Report(
        qid=QID, switch_id=f"s{dip % 3}", ts=epoch * 0.1, epoch=epoch,
        payload={"set1_fields": {"dip": dip}, "global_result": count},
    )


#: (dip, count, epoch-step) triples; epochs are cumulative so the stream
#: is monotone in time like a real mirror session.
arrivals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),     # dip
        st.integers(min_value=1, max_value=100),    # clipped count
        st.integers(min_value=0, max_value=2),      # windows to advance
    ),
    min_size=1,
    max_size=80,
)

seeds = st.integers(min_value=0, max_value=2**16)


def report_plans(**rates):
    """Plans whose one ``reports`` event draws its rates from ``rates``."""
    return st.builds(
        FaultPlan, events=st.tuples(st.builds(report_faults, **rates)),
        seed=seeds,
    )


fault_plans = report_plans(
    loss=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    duplication=st.sampled_from([0.0, 0.2, 1.0]),
    reorder=st.sampled_from([0.0, 0.3, 1.0]),
    delay=st.sampled_from([0.0, 0.25]),
    delay_windows=st.integers(min_value=1, max_value=3),
)

policies = st.sampled_from(BackpressurePolicy.ALL)


def drive(collector, stream):
    """Feed the arrival stream, closing windows as epochs advance."""
    epoch = 0
    for dip, count, step in stream:
        for _ in range(step):
            collector.close_window(epoch)
            epoch += 1
        collector.ingest(report(dip, count, epoch))
    collector.flush()


class TestFlowInvariant:
    @given(stream=arrivals, faults=fault_plans, policy=policies,
           capacity=st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_counters_balance(self, stream, faults, policy, capacity):
        collector = make_collector(CollectorConfig(
            queue_capacity=capacity, policy=policy,
        ), faults)
        drive(collector, stream)
        ingested, accounted = collector.balance()
        assert ingested == accounted
        # After flush, nothing is left on the wire or in the queues.
        assert collector.pending == 0

    @given(stream=arrivals, faults=fault_plans)
    @settings(max_examples=30, deadline=None)
    def test_balance_holds_at_every_window_boundary(self, stream, faults):
        collector = make_collector(CollectorConfig(
            queue_capacity=4, policy=BackpressurePolicy.DROP_OLDEST,
        ), faults)
        epoch = 0
        for dip, count, step in stream:
            for _ in range(step):
                collector.close_window(epoch)
                epoch += 1
                ingested, accounted = collector.balance()
                assert ingested == accounted
            collector.ingest(report(dip, count, epoch))


class TestBlockEqualsBaseline:
    @given(stream=arrivals,
           faults=report_plans(
               duplication=st.sampled_from([0.0, 0.5]),
               reorder=st.sampled_from([0.0, 0.5]),
           ),
           capacity=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_results_match_lossfree_baseline(self, stream, faults,
                                             capacity):
        """Block backpressure plus loss-free faults (duplication and
        reordering only) must produce exactly the answers of an
        unconstrained collector.

        The lateness horizon covers the whole run: the reorder shim can
        hold a record across window closes, and this property is about
        backpressure/merge transparency, not watermark policy (the
        balance property accounts for late drops separately).
        """
        lateness = 2 * len(stream) + 1  # epochs advance <= 2 per arrival
        baseline = make_collector(CollectorConfig(
            queue_capacity=1 << 16, allowed_lateness=lateness,
        ))
        blocked = make_collector(CollectorConfig(
            queue_capacity=capacity, policy=BackpressurePolicy.BLOCK,
            allowed_lateness=lateness,
        ), faults)
        drive(baseline, stream)
        drive(blocked, stream)
        assert blocked.results(QID) == baseline.results(QID)
        assert blocked.dropped == 0
