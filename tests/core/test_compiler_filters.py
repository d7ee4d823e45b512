"""Execution-level tests for the filter lowering paths.

Equality filters fold into ``newton_init`` or use the hash-match trick;
range predicates compile to direct-mode H plus R range entries; mid-query
filters sit behind stateful primitives.  Each path is exercised against a
live pipeline, not just structurally.
"""

import pytest

from repro.core.ast import CmpOp, FieldPredicate
from repro.core.compiler import (
    CompilationError,
    Optimizations,
    QueryParams,
    compile_query,
    slice_compiled,
)
from repro.core.packet import Packet
from repro.core.query import Query
from repro.dataplane.pipeline import NewtonPipeline

PARAMS = QueryParams(cm_depth=1, bf_hashes=1,
                     reduce_registers=128, distinct_registers=128)


def dips(reports):
    """Extract the reduce's dip key from whichever metadata set holds it."""
    out = []
    for report in reports:
        f0 = report.payload["set0_fields"]
        f1 = report.payload["set1_fields"]
        out.append((f1 if "dip" in f1 else f0)["dip"])
    return out


def run_query(query, packets, threshold_reports=True):
    pipeline = NewtonPipeline(num_stages=12, array_size=256)
    compiled = compile_query(query, PARAMS,
                             hash_family=pipeline.hash_family)
    pipeline.stage_slice(slice_compiled(compiled, 12)[0], epoch=1)
    pipeline.commit_epoch(1)
    reports = []
    for packet in packets:
        reports.extend(pipeline.process(packet).reports)
    return reports


class TestRangePredicates:
    def _q(self, pred):
        return (
            Query("rf.q")
            .filter(pred)
            .map("dip")
            .reduce("dip")
            .where(ge=1)
        )

    def test_gt(self):
        query = self._q(FieldPredicate("len", CmpOp.GT, 100))
        reports = run_query(query, [
            Packet(dip=1, len=100, ts=0.0),
            Packet(dip=2, len=101, ts=0.001),
        ])
        assert len(reports) == 1
        assert dips(reports) == [2]

    def test_le(self):
        query = self._q(FieldPredicate("len", CmpOp.LE, 100))
        reports = run_query(query, [
            Packet(dip=1, len=100, ts=0.0),
            Packet(dip=2, len=101, ts=0.001),
        ])
        assert dips(reports) == [1]

    def test_lt_zero_matches_nothing(self):
        query = self._q(FieldPredicate("len", CmpOp.LT, 64))
        # len defaults to 64, so nothing passes len < 64.
        assert run_query(query, [Packet(dip=1)]) == []

    def test_ne(self):
        query = self._q(FieldPredicate("ttl", CmpOp.NE, 64))
        reports = run_query(query, [
            Packet(dip=1, ttl=64, ts=0.0),
            Packet(dip=2, ttl=63, ts=0.001),
            Packet(dip=3, ttl=65, ts=0.002),
        ])
        assert sorted(dips(reports)) == [2, 3]

    def test_range_plus_equality_combined(self):
        query = (
            Query("rf.combo")
            .filter(
                FieldPredicate("proto", CmpOp.EQ, 17),
                FieldPredicate("len", CmpOp.GE, 512),
            )
            .map("dip")
            .reduce("dip")
            .where(ge=1)
        )
        reports = run_query(query, [
            Packet(dip=1, proto=17, len=600, ts=0.0),   # passes both
            Packet(dip=2, proto=6, len=600, ts=0.001),  # wrong proto
            Packet(dip=3, proto=17, len=64, ts=0.002),  # too small
        ])
        assert dips(reports) == [1]


class TestHashTrickEquality:
    def test_non_front_multifield_filter(self):
        """A filter behind a map cannot fold into newton_init; it must use
        the hash-match path and still behave exactly."""
        query = (
            Query("rf.hash")
            .map("sip")
            .filter(proto=17, dport=53)
            .map("dip")
            .reduce("dip")
            .where(ge=1)
        )
        reports = run_query(query, [
            Packet(dip=1, proto=17, dport=53, ts=0.0),
            Packet(dip=2, proto=17, dport=54, ts=0.001),
            Packet(dip=3, proto=6, dport=53, ts=0.002),
        ])
        assert dips(reports) == [1]

    def test_masked_flag_filter_mid_query(self):
        query = (
            Query("rf.mask")
            .map("dip")
            .filter(FieldPredicate("tcp_flags", CmpOp.MASK_EQ, 0x01,
                                   mask=0x01))
            .reduce("dip")
            .where(ge=1)
        )
        reports = run_query(query, [
            Packet(dip=1, proto=6, tcp_flags=0x11, ts=0.0),  # FIN|ACK
            Packet(dip=2, proto=6, tcp_flags=0x10, ts=0.001),  # ACK only
        ])
        assert dips(reports) == [1]


class TestThresholdVariants:
    def test_eq_threshold_fires_once(self):
        query = Query("rf.eq").map("dip").reduce("dip").where(eq=2)
        reports = run_query(query, [
            Packet(dip=7, ts=i * 1e-3) for i in range(5)
        ])
        assert len(reports) == 1
        assert reports[0].global_result == 2

    def test_gt_threshold_crossing(self):
        query = Query("rf.gt").map("dip").reduce("dip").where(gt=2)
        reports = run_query(query, [
            Packet(dip=7, ts=i * 1e-3) for i in range(5)
        ])
        assert len(reports) == 1
        assert reports[0].global_result == 3  # first count exceeding 2

    def test_byte_sum_threshold_dedups(self):
        query = (
            Query("rf.sum").map("dip").reduce("dip", func="sum")
            .where(ge=1000)
        )
        # 300-byte packets: the sum jumps 900 -> 1200 over the threshold,
        # which exact-crossing matching would miss; the flag suite both
        # catches it and reports exactly once.
        reports = run_query(query, [
            Packet(dip=7, len=300, ts=i * 1e-3) for i in range(8)
        ])
        assert len(reports) == 1
        assert reports[0].global_result >= 1000


class TestUnsupportedShapes:
    def test_range_on_multiple_fields_splits_suites(self):
        query = (
            Query("rf.two")
            .filter(
                FieldPredicate("len", CmpOp.GT, 100),
                FieldPredicate("ttl", CmpOp.LT, 32),
            )
            .map("dip")
            .reduce("dip")
            .where(ge=1)
        )
        reports = run_query(query, [
            Packet(dip=1, len=200, ttl=16, ts=0.0),
            Packet(dip=2, len=200, ttl=64, ts=0.001),
            Packet(dip=3, len=64, ttl=16, ts=0.002),
        ])
        assert dips(reports) == [1]
