"""Windowed stream-executor tests: merge, duplicate and tail semantics."""

from repro.collector.executor import apply_tail, merge_records
from repro.collector.records import ReportRecord
from repro.core.ast import (
    CmpOp,
    Distinct,
    FieldPredicate,
    Filter,
    KeyExpr,
    Map,
    Reduce,
    ResultFilter,
)


def record(key, count=1, seq=None, switch="s0", epoch=0):
    seq = seq if seq is not None else hash((switch, key, count)) & 0xFFFF
    return ReportRecord(
        qid="q", switch_id=switch, epoch=epoch, ts=0.0, key=tuple(key),
        count=count, seq=seq, arrival_epoch=epoch,
    )


class TestMerge:
    def test_max_merge_across_switches(self):
        merged, seen = {}, set()
        records = [
            record((1, 9), count=3, switch="s0", seq=1),
            record((1, 9), count=5, switch="s1", seq=1),
            record((1, 9), count=4, switch="s2", seq=1),
        ]
        processed, duplicates = merge_records(records, merged, seen)
        assert merged == {(1, 9): 5}
        assert (processed, duplicates) == (3, 0)

    def test_duplicates_collapsed_by_sequence(self):
        merged, seen = {}, set()
        r = record((1, 9), count=3, seq=7)
        processed, duplicates = merge_records([r, r, r], merged, seen)
        assert merged == {(1, 9): 3}
        assert (processed, duplicates) == (3, 2)

    def test_none_count_is_presence(self):
        merged, seen = {}, set()
        r = ReportRecord(qid="q", switch_id="s0", epoch=0, ts=0.0,
                         key=(4,), count=None, seq=1, arrival_epoch=0)
        merge_records([r], merged, seen)
        assert merged == {(4,): 1}


class TestApplyTail:
    def test_filter_over_named_fields(self):
        tail = [Filter((FieldPredicate("sip", CmpOp.EQ, 1),))]
        out = apply_tail(tail, ("sip", "dip"), {(1, 9): 3, (2, 9): 4})
        assert out == {(1, 9): 3}

    def test_filter_on_absent_field_passes(self):
        # proto was consumed on the data plane; the key doesn't carry it.
        tail = [Filter((FieldPredicate("proto", CmpOp.EQ, 6),))]
        out = apply_tail(tail, ("dip",), {(9,): 3})
        assert out == {(9,): 3}

    def test_map_projects_and_max_merges(self):
        tail = [Map((KeyExpr("dip"),))]
        out = apply_tail(tail, ("sip", "dip"), {(1, 9): 3, (2, 9): 5})
        assert out == {(9,): 5}

    def test_map_with_prefix_mask(self):
        tail = [Map((KeyExpr("dip", mask=0xFFFFFF00),))]
        out = apply_tail(tail, ("dip",), {(0x0A000001,): 2, (0x0A000002,): 7})
        assert out == {(0x0A000000,): 7}

    def test_distinct_collapses_to_presence(self):
        tail = [Distinct((KeyExpr("dip"),))]
        out = apply_tail(tail, ("sip", "dip"), {(1, 9): 3, (2, 9): 8})
        assert out == {(9,): 1}

    def test_reduce_sums_collisions(self):
        tail = [Reduce((KeyExpr("dip"),))]
        out = apply_tail(tail, ("sip", "dip"), {(1, 9): 3, (2, 9): 5})
        assert out == {(9,): 8}

    def test_result_filter_thresholds(self):
        tail = [ResultFilter(op=CmpOp.GE, threshold=4)]
        out = apply_tail(tail, ("dip",), {(9,): 3, (8,): 4})
        assert out == {(8,): 4}

    def test_chained_tail(self):
        tail = [
            Map((KeyExpr("dip"),)),
            Reduce((KeyExpr("dip"),)),
            ResultFilter(op=CmpOp.GE, threshold=6),
        ]
        merged = {(1, 9): 3, (2, 9): 4, (3, 8): 2}
        # map keeps max per dip: {9: 4, 8: 2}; reduce re-keys (no
        # collisions left); threshold 6 removes everything.
        assert apply_tail(tail, ("sip", "dip"), merged) == {}

    def test_empty_tail_is_identity(self):
        merged = {(1,): 3}
        assert apply_tail((), ("dip",), merged) == merged


class TestMergeThenTail:
    def test_window_answer_matches_reference(self):
        tail = [
            Reduce((KeyExpr("dip"),)),
            ResultFilter(op=CmpOp.GE, threshold=5),
        ]
        records = [
            record((i % 7, 9), count=(i % 4) + 1, switch=f"s{i % 3}", seq=i)
            for i in range(300)
        ]
        # Reference, the slow way: max per (sip, dip), summed per dip.
        per_flow = {}
        for r in records:
            per_flow[r.key] = max(per_flow.get(r.key, 0), r.count)
        total = sum(per_flow.values())
        records += records[:50]  # genuine duplicates
        merged, seen = {}, set()
        processed, duplicates = merge_records(records, merged, seen)
        assert merged == per_flow
        assert (processed, duplicates) == (len(records), 50)
        assert apply_tail(tail, ("sip", "dip"), merged) == {(9,): total}

    def test_duplicates_collapse_across_drains_of_one_window(self):
        # The collector drains a window's queue more than once (late
        # records inside the watermark) into the same merged/seen pair.
        merged, seen = {}, set()
        first = record((9,), count=3, seq=1)
        assert merge_records([first], merged, seen) == (1, 0)
        late = [first, record((9,), count=5, seq=2)]
        assert merge_records(late, merged, seen) == (2, 1)
        assert merged == {(9,): 5}

    def test_tail_filters_the_merged_window(self):
        tail = [ResultFilter(op=CmpOp.GE, threshold=10)]
        merged, seen = {}, set()
        merge_records(
            [record((9,), count=3, seq=1), record((8,), count=12, seq=2)],
            merged, seen,
        )
        results = apply_tail(tail, ("dip",), merged)
        assert results == {(8,): 12}
        assert len(merged) - len(results) == 1
