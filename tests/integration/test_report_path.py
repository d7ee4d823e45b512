"""One report path: switch → collector → analyzer.

The engines hand every report a switch emits to the collector; its
ingest decodes the report once and mirrors it to the analyzer before
the fault shim and backpressure, so the analyzer's copy is lossless
while the collector keeps only what survives.  The analyzer holds no
query registry of its own: it resolves queries through the
controller's installed records, and a commit restarts the deferred CPU
state of the query it touched.
"""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import CompositeQuery, Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import FaultPlan, report_faults
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=512,
                     distinct_registers=512)
SYN, FIN = 2, 1
PATH = ["s0", "s1", "s2"]
WINDOWS = 3
DIPS = range(100, 108)


def counting(qid, flags, threshold=2):
    """Packets per ``dip`` with these TCP flags, reported at
    ``threshold``."""
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=flags)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def packets(flags, dips, count, start, step=0.0005):
    return [
        Packet(sip=1000 + n, dip=dip, proto=6, tcp_flags=flags,
               ts=start + (i * count + n) * step,
               src_host="h_src0", dst_host="h_dst0")
        for i, dip in enumerate(dips)
        for n in range(count)
    ]


def trace():
    """Every window: 3 SYNs and 3 FINs to each of ``DIPS``."""
    out = []
    for window in range(WINDOWS):
        start = window * 0.1
        out += packets(SYN, DIPS, 3, start)
        out += packets(FIN, DIPS, 3, start + 0.001)
    return Trace(sorted(out, key=lambda p: p.ts))


def deploy(engine, faults=None):
    """Two queries on ``linear(3)``: one whole on the ingress switch, one
    sliced across the path."""
    dep = build_deployment(linear(3), engine=engine, faults=faults)
    dep.controller.install_query(counting("rp.whole", SYN), PARAMS,
                                 path=PATH)
    dep.controller.install_query(counting("rp.sliced", FIN), PARAMS,
                                 path=PATH, stages_per_switch=3)
    return dep


def observe(dep):
    """Lists of the report objects the collector's ingest and the
    pipelines' taps are handed, in order."""
    ingested, tapped = [], []
    ingest = dep.collector.ingest

    def counting_ingest(report):
        ingested.append(report)
        return ingest(report)

    dep.collector.ingest = counting_ingest
    for switch in dep.switches.values():
        switch.pipeline.report_sink = tapped.append
    return ingested, tapped


def same_objects(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@pytest.fixture(scope="module")
def runs():
    """Per engine: (deployment, stats, ingested, tapped)."""
    out = {}
    for engine in ("scalar", "vector"):
        dep = deploy(engine)
        ingested, tapped = observe(dep)
        stats = dep.simulator.run(trace())
        out[engine] = (dep, stats, ingested, tapped)
    return out


class TestOneHandOff:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_each_report_reaches_collector_and_analyzer_once(
        self, runs, engine
    ):
        dep, stats, ingested, tapped = runs[engine]
        emitted = stats.reports_total
        assert emitted > 0
        # Reports leave from more than one switch (the sliced query
        # reports from its last slice, downstream of s0).
        assert len([n for n in stats.reports_by_switch.values() if n]) > 1
        assert len(ingested) == emitted
        assert len({id(r) for r in ingested}) == emitted
        assert dep.collector.ingested == emitted
        # The analyzer's copy is the collector's, report for report.
        assert same_objects(dep.analyzer.reports, ingested)
        assert same_objects(tapped, ingested)


class TestMirrorIsLossless:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_analyzer_sees_every_report_collector_the_survivors(
        self, runs, engine
    ):
        faults = FaultPlan(events=(report_faults(loss=0.4),), seed=11)
        dep = deploy(engine, faults=faults)
        ingested, _tapped = observe(dep)
        stats = dep.simulator.run(trace())
        collector = dep.collector
        assert collector.lost > 0
        assert same_objects(dep.analyzer.reports, ingested)
        assert len(ingested) == stats.reports_total
        assert collector.ingested + collector.lost == stats.reports_total
        # Lossless mirror: the analyzer's answers are the fault-free
        # run's; the collector's lost keys.
        clean = runs[engine][0]
        for qid in ("rp.whole", "rp.sliced"):
            assert dep.analyzer.results(qid) == clean.analyzer.results(qid)
        collector.flush()
        clean.collector.flush()
        assert collector.results("rp.whole") \
            != clean.collector.results("rp.whole")


class TestRegistry:
    def test_report_of_a_removed_query_is_kept_raw_and_dropped(self):
        dep = build_deployment(linear(1))
        dep.controller.install_query(counting("rp.gone", SYN), PARAMS,
                                     path=["s0"])
        dep.simulator.run(Trace(packets(SYN, DIPS, 3, 0.0)))
        analyzer, collector = dep.analyzer, dep.collector
        in_flight = analyzer.reports[-1]
        before = analyzer.results("rp.gone")
        assert before[0]
        dropped = collector.metrics.counter(
            "collector_reports_dropped_total"
        )
        assert dropped.value(reason="unregistered") == 0
        dep.controller.remove_query("rp.gone")
        # Still mid-window: the report was in flight when the query went.
        assert collector.ingest(in_flight) is False
        assert analyzer.reports[-1] is in_flight
        assert analyzer.results("rp.gone") == before
        assert dropped.value(reason="unregistered") == 1
        assert collector.balance()[0] == collector.balance()[1]

    def test_update_restarts_a_deferred_query(self):
        """The path is too short for the query, so the CPU runs its
        tail; an update mid-window starts the tail's state afresh — the
        window's answer counts only what came after the commit."""

        def run(update):
            dep = build_deployment(linear(1), num_stages=3)
            query = counting("rp.tail", SYN)
            dep.controller.install_query(query, PARAMS, path=["s0"],
                                         stages_per_switch=3)
            if update:
                dep.simulator.at(0.05, lambda: dep.controller.update_query(
                    counting("rp.tail", SYN), PARAMS, path=["s0"],
                    stages_per_switch=3,
                ))
            stats = dep.simulator.run(Trace(
                packets(SYN, [9], 3, 0.0) + packets(SYN, [9], 2, 0.06)
            ))
            dep.simulator.roll_window()
            assert stats.deferred == 5
            return dep.analyzer.deferred_results("rp.tail")

        assert run(update=False) == {0: {(9,): 5}}
        assert run(update=True) == {0: {(9,): 2}}

    def test_composite_detections_follow_the_update(self):
        syn, fin = counting("rp.c.syn", SYN), counting("rp.c.fin", FIN)

        def composite(join):
            return CompositeQuery(qid="rp.c", description="join",
                                  subqueries=(syn, fin), join=join)

        def both(window):
            return sorted(set(window["rp.c.syn"]) & set(window["rp.c.fin"]))

        def syn_only(window):
            return sorted(window["rp.c.syn"])

        dep = build_deployment(linear(1))
        dep.controller.install_query(composite(both), PARAMS, path=["s0"])
        dep.simulator.run(Trace(sorted(
            packets(SYN, [5, 6], 3, 0.0) + packets(FIN, [5], 3, 0.01),
            key=lambda p: p.ts,
        )))
        assert dep.analyzer.detections("rp.c") == {0: [(5,)]}
        dep.controller.update_query(composite(syn_only), PARAMS,
                                    path=["s0"])
        assert dep.analyzer.detections("rp.c") == {0: [(5,), (6,)]}
        dep.controller.remove_query("rp.c")
        with pytest.raises(KeyError):
            dep.analyzer.detections("rp.c")
