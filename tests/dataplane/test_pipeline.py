"""Pipeline-level tests: dispatch, slices, windows, rollback."""

import pytest

from repro.core.compiler import QueryParams, compile_query, slice_compiled
from repro.core.packet import Packet, Proto, TcpFlags
from repro.core.query import Query
from repro.dataplane.pipeline import NewtonPipeline
from repro.network.snapshot import SnapshotHeader


def q1(threshold=3):
    return (
        Query("p.q1")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def small_params():
    return QueryParams(cm_depth=2, reduce_registers=128,
                       distinct_registers=128)


def syn(sip, dip, ts=0.0):
    return Packet(sip=sip, dip=dip, proto=6, tcp_flags=2, ts=ts)


def place(pipeline, *slices):
    """Stage ``slices`` at the next rule epoch and flip to it, the way
    the control plane installs."""
    epoch = pipeline.rule_epoch + 1
    for query_slice in slices:
        pipeline.stage_slice(query_slice, epoch)
    pipeline.commit_epoch(epoch)


def remove(pipeline, qid):
    """Retire ``qid``, flip, and garbage-collect it; returns the table
    entries removed."""
    epoch = pipeline.rule_epoch + 1
    pipeline.retire_query(qid, epoch)
    pipeline.commit_epoch(epoch)
    return pipeline.gc_retired()


def install(pipeline, query, threshold=3, stages=None):
    compiled = compile_query(query, small_params(),
                             hash_family=pipeline.hash_family)
    slices = slice_compiled(compiled, stages or pipeline.layout.num_stages)
    place(pipeline, *slices)
    return compiled, slices


class TestSingleSwitch:
    def test_report_at_threshold_crossing(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=3))
        reports = []
        for i in range(5):
            result = pipeline.process(syn(sip=i + 1, dip=9))
            reports.extend(result.reports)
        assert len(reports) == 1
        assert reports[0].payload["global_result"] == 3
        assert reports[0].payload["set0_fields"] == {"dip": 9}

    def test_non_matching_traffic_ignored(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1())
        result = pipeline.process(Packet(proto=17, dip=9))
        assert not result.initiated and not result.reports

    def test_window_reset_requires_recrossing(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=2))
        pipeline.process(syn(1, 9))
        assert pipeline.process(syn(2, 9)).reports
        pipeline.advance_window()
        pipeline.process(syn(3, 9))
        assert pipeline.process(syn(4, 9)).reports  # crossing again

    def test_reports_tag_epoch(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=1))
        pipeline.advance_window()
        pipeline.advance_window()
        result = pipeline.process(syn(1, 9))
        assert result.reports[0].epoch == 2


class TestRuleManagement:
    def test_rule_count_and_removal(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        compiled, _ = install(pipeline, q1())
        assert pipeline.rule_count == compiled.rule_count
        removed = remove(pipeline, "p.q1")
        assert removed == compiled.rule_count
        assert pipeline.rule_count == 0

    def test_duplicate_install_rejected(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        compiled = compile_query(q1(), small_params(),
                                 hash_family=pipeline.hash_family)
        query_slice = slice_compiled(compiled, 12)[0]
        epoch = pipeline.rule_epoch + 1
        pipeline.stage_slice(query_slice, epoch)
        with pytest.raises(ValueError):
            pipeline.stage_slice(query_slice, epoch)

    def test_failed_install_rolls_back(self):
        # Arrays too small for the requested slices: nothing must remain.
        pipeline = NewtonPipeline(num_stages=12, array_size=16)
        compiled = compile_query(q1(), small_params(),
                                 hash_family=pipeline.hash_family)
        with pytest.raises(Exception):
            place(pipeline, slice_compiled(compiled, 12)[0])
        assert pipeline.rule_count == 0
        assert not pipeline.installed_qids()

    def test_removal_after_traffic(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=1))
        pipeline.process(syn(1, 9))
        remove(pipeline, "p.q1")
        result = pipeline.process(syn(2, 9))
        assert not result.initiated


class TestEpochVersioning:
    def _staged(self, threshold=1):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        compiled = compile_query(q1(threshold=threshold), small_params(),
                                 hash_family=pipeline.hash_family)
        for s in slice_compiled(compiled, pipeline.layout.num_stages):
            pipeline.stage_slice(s, epoch=1)
        return pipeline, compiled

    def test_staged_rules_invisible_until_flip(self):
        pipeline, compiled = self._staged()
        assert pipeline.staged_rule_count == compiled.rule_count
        result = pipeline.process(syn(1, 9))
        assert not result.initiated, "shadow bank must not serve traffic"
        assert pipeline.commit_epoch(1)
        result = pipeline.process(syn(2, 9))
        assert result.initiated == ["p.q1"]
        assert pipeline.staged_rule_count == 0

    def test_stage_rejects_non_future_epoch(self):
        pipeline, _ = self._staged()
        pipeline.commit_epoch(1)
        compiled = compile_query(q1(threshold=9), small_params(),
                                 hash_family=pipeline.hash_family)
        with pytest.raises(ValueError):
            pipeline.stage_slice(slice_compiled(compiled, 12)[0], epoch=1)

    def test_abort_staged_restores_prior_state(self):
        pipeline, _ = self._staged()
        dropped = pipeline.abort_staged()
        assert dropped > 0
        assert pipeline.staged_rule_count == 0
        assert pipeline.rule_count == 0
        assert pipeline.rule_epoch == 0

    def test_abort_staged_clears_retire_marks(self):
        """An aborted make-before-break update must also unmark the old
        version it intended to retire — it keeps serving."""
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=1))
        epoch = pipeline.rule_epoch + 1
        marked = pipeline.retire_query("p.q1", epoch)
        assert marked > 0
        pipeline.abort_staged()
        # The retire mark is gone: flipping to the next epoch anyway must
        # leave the old version serving, with nothing awaiting GC.
        pipeline.commit_epoch(epoch)
        assert pipeline.retired_rule_count == 0
        result = pipeline.process(syn(1, 9))
        assert result.initiated == ["p.q1"]

    def test_retired_rules_serve_until_gc(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        compiled, _ = install(pipeline, q1(threshold=1))
        epoch = pipeline.rule_epoch + 1
        pipeline.retire_query("p.q1", epoch)
        # Still at the old epoch: the retiring version keeps serving.
        assert pipeline.process(syn(1, 9)).initiated == ["p.q1"]
        pipeline.commit_epoch(epoch)
        assert not pipeline.process(syn(2, 9)).initiated
        # Physically resident (double occupancy) until GC reclaims it.
        assert pipeline.rule_count == compiled.rule_count
        assert pipeline.gc_retired() == compiled.rule_count
        assert pipeline.rule_count == 0

    def test_rollback_epoch_reactivates_old_bank(self):
        pipeline = NewtonPipeline(num_stages=12, array_size=256)
        install(pipeline, q1(threshold=1))
        serving = pipeline.rule_epoch
        pipeline.retire_query("p.q1", serving + 1)
        pipeline.commit_epoch(serving + 1)
        assert not pipeline.process(syn(1, 9)).initiated
        pipeline.rollback_epoch(serving)
        assert pipeline.process(syn(2, 9)).initiated == ["p.q1"]

    def test_ingress_stamp_pins_the_serving_epoch(self):
        """A downstream switch must serve the bank stamped at ingress even
        if it has already flipped further — per-packet atomicity."""
        from repro.dataplane.hashing import HashFamily

        family = HashFamily(99)
        ingress = NewtonPipeline(num_stages=3, array_size=256,
                                 hash_family=family)
        egress = NewtonPipeline(num_stages=3, array_size=256,
                                hash_family=family)
        compiled = compile_query(q1(threshold=1), small_params(),
                                 hash_family=family)
        slices = slice_compiled(compiled, 3)
        assert len(slices) == 2
        place(ingress, slices[0])
        place(egress, slices[1])
        # Egress flips ahead, retiring its half of the query.
        egress.retire_query("p.q1", epoch=2)
        egress.commit_epoch(2)
        snapshot = SnapshotHeader()
        result = ingress.process(syn(1, 9), snapshot)
        assert result.initiated == ["p.q1"]
        assert snapshot.rule_epoch == 1
        # The stamp resolves the retired-but-resident epoch-1 bank.
        downstream = egress.process(syn(1, 9), snapshot,
                                    ingress_edge=False)
        assert downstream.reports, "stamped bank must keep serving"


class TestCrossSwitch:
    def _chain(self, n, stages, threshold=3):
        from repro.dataplane.hashing import HashFamily

        family = HashFamily(99)
        pipelines = [
            NewtonPipeline(switch_id=f"s{i}", num_stages=stages,
                           array_size=256, hash_family=family)
            for i in range(n)
        ]
        compiled = compile_query(q1(threshold), small_params(),
                                 hash_family=family)
        slices = slice_compiled(compiled, stages)
        assert len(slices) == n
        for pipeline, query_slice in zip(pipelines, slices):
            place(pipeline, query_slice)
        return pipelines

    def _walk(self, pipelines, packet):
        header = SnapshotHeader()
        reports = []
        for pipeline in pipelines:
            reports.extend(pipeline.process(packet, header).reports)
        return reports, header

    def test_two_switch_equivalence(self):
        pipelines = self._chain(2, stages=3)
        all_reports = []
        for i in range(5):
            reports, _ = self._walk(pipelines, syn(i + 1, 7))
            all_reports.extend(reports)
        assert len(all_reports) == 1
        # The report comes from the final slice's switch.
        assert all_reports[0].switch_id == "s1"

    def test_header_stripped_after_completion(self):
        pipelines = self._chain(2, stages=3)
        _, header = self._walk(pipelines, syn(1, 7))
        assert len(header) == 0

    def test_missing_second_slice_keeps_cursor(self):
        pipelines = self._chain(2, stages=3)
        header = SnapshotHeader()
        pipelines[0].process(syn(1, 7), header)
        entry = header.get("p.q1")
        assert entry is not None and entry.cursor == 1

    def test_multi_switch_requires_header(self):
        pipelines = self._chain(2, stages=3)
        with pytest.raises(RuntimeError):
            pipelines[0].process(syn(1, 7))  # no SP header available

    def test_no_reinitiation_mid_path(self):
        # The second switch also hosts slice 0 (redundant placement); a
        # packet already carrying cursor 1 must not restart the query.
        from repro.dataplane.hashing import HashFamily

        family = HashFamily(5)
        compiled = compile_query(q1(1), small_params(), hash_family=family)
        slices = slice_compiled(compiled, 3)
        first = NewtonPipeline("a", num_stages=3, array_size=256,
                               hash_family=family)
        second = NewtonPipeline("b", num_stages=3, array_size=256,
                                hash_family=family)
        place(first, slices[0])
        place(second, slices[0], slices[1])  # a redundant copy of slice 0
        header = SnapshotHeader()
        first.process(syn(1, 7), header)
        result = second.process(syn(1, 7), header)
        assert result.continued == ["p.q1"]
        assert not result.initiated
