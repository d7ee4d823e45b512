"""Analyzer tests: report decoding, joins, deferred execution."""

import pytest

from repro.core.analyzer import Analyzer, first_incomplete_primitive
from repro.core.compiler import QueryParams, compile_query
from repro.core.library import QueryThresholds, build_query
from repro.core.packet import Packet, Proto, TcpFlags
from repro.core.query import Query, flatten
from repro.core.rules import Report

PARAMS = QueryParams(cm_depth=2, reduce_registers=128,
                     distinct_registers=128)


def q(threshold=3, qid="a.q"):
    return (
        Query(qid)
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def report_for(qid, dip, count, epoch=0, set_id=0):
    payload = {
        "global_result": count,
        f"set{set_id}_fields": {"dip": dip},
        f"set{set_id}_hash": 1,
        f"set{set_id}_state": count,
    }
    payload.setdefault("set0_fields", {})
    payload.setdefault("set1_fields", {})
    return Report(qid=qid, switch_id="s0", ts=0.0, epoch=epoch,
                  payload=payload)


def register(analyzer, query):
    compiled = {
        sub.qid: compile_query(sub, PARAMS) for sub in flatten(query)
    }
    analyzer.register(query, compiled)
    return compiled


class TestReportDecoding:
    def test_results_keyed_by_epoch_and_key(self):
        analyzer = Analyzer()
        query = q()
        register(analyzer, query)
        analyzer.on_report(report_for("a.q", dip=9, count=3))
        analyzer.on_report(report_for("a.q", dip=8, count=3, epoch=1))
        assert analyzer.results("a.q") == {0: {(9,): 3}, 1: {(8,): 3}}

    def test_duplicate_reports_keep_max(self):
        analyzer = Analyzer()
        register(analyzer, q())
        analyzer.on_report(report_for("a.q", dip=9, count=3))
        analyzer.on_report(report_for("a.q", dip=9, count=7))
        assert analyzer.results("a.q")[0] == {(9,): 7}

    def test_unregistered_reports_kept_raw(self):
        analyzer = Analyzer()
        analyzer.on_report(report_for("ghost", dip=1, count=1))
        assert len(analyzer.reports) == 1
        assert analyzer.results("ghost") == {}

    def test_detections_single_chain(self):
        analyzer = Analyzer()
        register(analyzer, q())
        analyzer.on_report(report_for("a.q", dip=9, count=3))
        assert analyzer.detections("a.q") == {0: [(9,)]}

    def test_detections_unknown_query(self):
        with pytest.raises(KeyError):
            Analyzer().detections("nope")

    def test_unregister(self):
        analyzer = Analyzer()
        register(analyzer, q())
        analyzer.unregister("a.q")
        with pytest.raises(KeyError):
            analyzer.detections("a.q")


class TestCompositeJoin:
    def test_q7_detection_from_reports(self):
        th = QueryThresholds(completed_conns=2)
        q7 = build_query("Q7", th)
        analyzer = Analyzer()
        register(analyzer, q7)
        analyzer.on_report(report_for("Q7.syn", dip=5, count=2))
        analyzer.on_report(report_for("Q7.fin", dip=5, count=2))
        analyzer.on_report(report_for("Q7.syn", dip=6, count=2))
        assert analyzer.detections("Q7") == {0: [5]}


class TestDeferred:
    def test_first_incomplete_primitive(self):
        compiled = compile_query(q(), PARAMS)
        assert first_incomplete_primitive(compiled, 0) <= 1
        assert first_incomplete_primitive(
            compiled, compiled.num_stages
        ) == 4

    def test_deferred_execution_produces_results(self):
        analyzer = Analyzer()
        query = q(threshold=2)
        register(analyzer, query)
        # Defer from primitive 0: the analyzer runs the whole chain.
        for i in range(3):
            analyzer.defer("a.q", Packet(sip=i, dip=9, proto=6, tcp_flags=2),
                           start_at=0)
        analyzer.advance_window(0)
        assert analyzer.results("a.q")[0] == {(9,): 3}
        assert analyzer.deferred_packets == 3

    def test_deferred_respects_threshold(self):
        analyzer = Analyzer()
        register(analyzer, q(threshold=5))
        analyzer.defer("a.q", Packet(dip=9, proto=6, tcp_flags=2), 0)
        analyzer.advance_window(0)
        assert analyzer.results("a.q").get(0, {}) == {}

    def test_deferred_share_is_kept_apart_from_reports(self):
        """``results`` mirrors everything; ``deferred_results`` holds only
        what CPU execution produced — through prune and export/absorb."""
        analyzer = Analyzer()
        register(analyzer, q(threshold=2))
        for epoch in (0, 1):
            analyzer.on_report(report_for("a.q", dip=7, count=4, epoch=epoch))
            for i in range(3):
                analyzer.defer(
                    "a.q", Packet(sip=i, dip=9, proto=6, tcp_flags=2), 0
                )
            analyzer.advance_window(epoch)
        assert analyzer.results("a.q")[1] == {(7,): 4, (9,): 3}
        assert analyzer.deferred_results("a.q") == {
            0: {(9,): 3}, 1: {(9,): 3},
        }
        replica = Analyzer()
        replica.absorb_results(analyzer.export_results())
        assert replica.results("a.q") == analyzer.results("a.q")
        assert replica.deferred_results("a.q") == \
            analyzer.deferred_results("a.q")
        analyzer.prune(1)
        assert analyzer.deferred_results("a.q") == {1: {(9,): 3}}
        analyzer.reset()
        assert analyzer.deferred_results("a.q") == {}

    def test_message_count_includes_deferrals(self):
        analyzer = Analyzer()
        register(analyzer, q())
        analyzer.on_report(report_for("a.q", dip=9, count=3))
        analyzer.defer("a.q", Packet(proto=6, tcp_flags=2), 0)
        assert analyzer.message_count == 2

    def test_reset(self):
        analyzer = Analyzer()
        register(analyzer, q())
        analyzer.on_report(report_for("a.q", dip=9, count=3))
        analyzer.reset()
        assert analyzer.message_count == 0
        assert analyzer.results("a.q") == {}
