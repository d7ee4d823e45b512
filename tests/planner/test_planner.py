"""Unit and behavior tests for the dynamic planner stack.

Bottom-up: the compiler's ``refine_query`` remasking, the refinement
ladder, placement skew helpers, admission ``best_fit`` headroom clamps,
the plan driver's failure semantics, and the :class:`DynamicPlanner`
triggers (refine/coarsen/grow/shrink/rebalance) against a real deployed
control plane — every planner step is an ordinary verified 2PC
transaction, so these tests also double-check hitlessness invariants.
"""

from dataclasses import replace

import pytest

from repro.collector.signals import QuerySignals, WindowSignals
from repro.core.admission import AdmissionPlanner
from repro.core.ast import CmpOp, Filter, Map, Reduce
from repro.core.compiler import CompilationError, QueryParams, refine_query
from repro.core.library import build_query
from repro.core.placement import offload_path, report_skew
from repro.core.query import Query
from repro.experiments.common import evaluation_thresholds
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.planner import (
    DynamicPlanner,
    PlanDriver,
    PlanError,
    PlannerConfig,
    RefinementLadder,
)
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=256)


def heavy_hitter(qid="hh"):
    return (Query(qid).filter(proto=6).map("dip")
            .reduce("dip").where(ge=3))


def key_masks(query, primitive_type):
    return [
        k.mask
        for prim in query.primitives if isinstance(prim, primitive_type)
        for k in prim.keys
    ]


class TestRefineQuery:
    def test_remasks_map_and_reduce_keys(self):
        coarse = refine_query(heavy_hitter(), "dip", 0xFF000000)
        assert key_masks(coarse, Map) == [0xFF000000]
        assert key_masks(coarse, Reduce) == [0xFF000000]
        # The original query is untouched.
        assert key_masks(heavy_hitter(), Map) == [None]

    def test_scope_folds_into_leading_filter(self):
        child = refine_query(
            heavy_hitter(), "dip", 0xFFFF0000, qid="hh.r0",
            scope=(0x0A000000, 0xFF000000),
        )
        assert child.qid == "hh.r0"
        leading = child.primitives[0]
        assert isinstance(leading, Filter)
        scoped = [p for p in leading.predicates if p.op is CmpOp.MASK_EQ]
        assert [(p.value, p.mask) for p in scoped] == [
            (0x0A000000, 0xFF000000)
        ]
        # The original equality predicate is preserved ahead of it.
        assert leading.predicates[0].field == "proto"

    def test_scope_without_filter_inserts_one(self):
        bare = Query("b").map("dip").reduce("dip").where(ge=1)
        child = refine_query(bare, "dip", None, qid="b.r0",
                             scope=(0x0A000000, 0xFF000000))
        assert isinstance(child.primitives[0], Filter)

    def test_field_not_in_keys_rejected(self):
        with pytest.raises(CompilationError):
            refine_query(heavy_hitter(), "sip", 0xFF000000)


class TestRefinementLadder:
    def test_ipv4_defaults(self):
        ladder = RefinementLadder.ipv4()
        assert ladder.rungs == (
            0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF,
        )
        assert ladder.max_rung == 3

    def test_none_rung_resolves_to_full_width(self):
        ladder = RefinementLadder("dip", (0xFF000000, None))
        assert ladder.mask_at(1) == 0xFFFFFFFF

    def test_rejects_single_rung_and_non_monotone(self):
        with pytest.raises(ValueError):
            RefinementLadder("dip", (0xFF000000,))
        with pytest.raises(ValueError):
            RefinementLadder("dip", (0xFFFF0000, 0xFF000000))

    def test_zoom_composes_scopes_recursively(self):
        ladder = RefinementLadder.ipv4()
        coarse = ladder.coarse(heavy_hitter())
        child = ladder.zoom(coarse, 0, 0x0A000000, "hh.r0")
        grandchild = ladder.zoom(child, 1, 0x0A010000, "hh.r0.r0")
        scoped = [p for p in grandchild.primitives[0].predicates
                  if p.op is CmpOp.MASK_EQ]
        assert [(p.value, p.mask) for p in scoped] == [
            (0x0A000000, 0xFF000000),  # outer /8 scope survives
            (0x0A010000, 0xFFFF0000),  # inner /16 scope added
        ]
        assert key_masks(grandchild, Reduce) == [0xFFFFFF00]

    def test_zoom_at_full_granularity_rejected(self):
        ladder = RefinementLadder.ipv4()
        with pytest.raises(ValueError):
            ladder.zoom(heavy_hitter(), ladder.max_rung, 0, "x")


class TestPlacementHelpers:
    def test_report_skew(self):
        assert report_skew({}) == 0.0
        assert report_skew({"s0": 0}) == 0.0
        assert report_skew({"s0": 10, "s1": 10}) == pytest.approx(1.0)
        assert report_skew({"s0": 30, "s1": 10, "s2": 20}) \
            == pytest.approx(1.5)

    def test_offload_path_drops_busiest(self):
        path = ("s0", "s1", "s2")
        loads = {"s0": 5, "s1": 100, "s2": 7}
        assert offload_path(path, loads, min_len=1) == ("s0", "s2")

    def test_offload_path_respects_min_len(self):
        assert offload_path(("s0", "s1"), {"s0": 9}, min_len=2) is None

    def test_offload_path_no_loaded_switch(self):
        assert offload_path(("s0", "s1"), {"s9": 4}, min_len=1) is None


class TestBestFit:
    def test_clamped_to_free_headroom(self):
        dep = build_deployment(linear(1), array_size=1 << 12)
        query = build_query("Q1", evaluation_thresholds())
        dep.controller.install_query(query, PARAMS, path=["s0"])
        record = dep.controller.installed["Q1"]
        admission = AdmissionPlanner(dep.switches["s0"], opts=record.opts)
        fit = admission.best_fit(query, PARAMS, ceiling=1 << 20)
        assert fit is not None
        assert fit.reduce_registers > PARAMS.reduce_registers
        # Make-before-break: the staged copy at the chosen size must fit
        # next to the running one, so a real update at that size commits.
        dep.controller.update_query(query, fit, path=["s0"])

    def test_none_when_no_size_fits(self):
        dep = build_deployment(linear(1), array_size=1 << 12)
        query = build_query("Q1", evaluation_thresholds())
        dep.controller.install_query(query, PARAMS, path=["s0"])
        record = dep.controller.installed["Q1"]
        admission = AdmissionPlanner(dep.switches["s0"], opts=record.opts)
        huge = replace(PARAMS, reduce_registers=1 << 11)
        assert admission.best_fit(query, huge, ceiling=1 << 12) is None


class TestPlanDriver:
    class _Boom:
        def __init__(self):
            self.calls = []

        def install_query(self, query, params, opts, **deploy):
            self.calls.append(query.qid)
            if query.qid == "bad":
                raise RuntimeError("verifier said no")

            class R:
                delay_s = 0.001
                rules_staged = 3
                rules_removed = 0
            return R()

    def test_failure_skips_remaining_steps(self):
        from repro.core.ops import ControlOp
        from repro.planner.plan import PlanStep

        controller = self._Boom()
        driver = PlanDriver(controller)
        steps = [
            PlanStep(ControlOp("install", q, heavy_hitter(q), PARAMS),
                     trigger="refine", reason="", seq=i)
            for i, q in enumerate(["ok", "bad", "after"])
        ]
        driver.execute(steps)
        assert [s.status for s in steps] == [
            "committed", "failed", "skipped",
        ]
        assert "verifier said no" in steps[1].error
        # The skipped step never reached the controller.
        assert controller.calls == ["ok", "bad"]


def drive_windows(dep, planner, windows, make_trace):
    """Run per-window segments, stepping the planner between windows."""
    executions = []
    mixed = 0
    for index in range(windows):
        trace = make_trace(index)
        if trace is not None and len(trace):
            stats = dep.simulator.run(trace)
            mixed += stats.mixed_rule_epoch_packets
        dep.simulator.roll_window()
        execution = planner.step()
        if execution is not None:
            executions.append(execution)
    return executions, mixed


def flood_trace(index, window_s=0.1, seed=5):
    start = index * window_s
    return assign_hosts(merge_traces([
        caida_like(800, duration_s=window_s, seed=seed + index,
                   start_s=start),
        syn_flood(n_packets=600, duration_s=window_s,
                  seed=seed + 60 + index, start_s=start),
    ]), [("h_src0", "h_dst0")])


class TestDynamicPlannerLifecycle:
    def _managed(self, config=None, switches=1):
        dep = build_deployment(linear(switches), array_size=1 << 13)
        planner = DynamicPlanner(dep, config or PlannerConfig())
        query = build_query(
            "Q1", replace(evaluation_thresholds(), new_tcp_conns=3)
        )
        planner.manage(query, PARAMS, ladder=RefinementLadder.ipv4(),
                       path=[f"s{i}" for i in range(switches)])
        return dep, planner

    def test_refine_then_coarsen_roundtrip(self):
        dep, planner = self._managed(PlannerConfig(
            occupancy_high=1.1,  # isolate the refine/coarsen triggers
            child_idle_windows=2, cooldown_windows=1,
        ))
        drive_windows(dep, planner, 3, flood_trace)
        children = set(planner.plans["Q1"].children)
        assert children, "the flood's hot /8 must have been zoomed into"
        assert children <= set(dep.controller.installed)
        # Traffic stops entirely; children idle out and are removed via
        # coarsen.  (All generators emit into 10/8, so any TCP traffic
        # would legitimately keep the /8-scoped child alive.)
        executions, mixed = drive_windows(dep, planner, 6, lambda i: None)
        coarsens = [s for e in executions for s in e.steps
                    if s.trigger == "coarsen"]
        assert coarsens and all(s.status == "committed" for s in coarsens)
        assert not planner.plans["Q1"].children
        assert set(dep.controller.installed) == {"Q1"}
        assert mixed == 0

    def test_cooldown_rests_query_between_replans(self):
        dep, planner = self._managed(PlannerConfig(
            occupancy_high=1.1, cooldown_windows=3, child_idle_windows=99,
        ))
        drive_windows(dep, planner, 1, flood_trace)
        parent = planner.plans["Q1"]
        assert parent.children
        resting_epoch = planner.last_epoch + 1
        assert parent.in_cooldown(resting_epoch)
        # A window inside the cooldown decides nothing for the parent.
        signals = WindowSignals(epoch=resting_epoch, queries=(
            QuerySignals(sub_qid="Q1", top_qid="Q1",
                         key_fields=("dip",), occupancy=0.99,
                         reported_keys=5,
                         heavy_keys=(((0xBB000000,), 50),)),
        ))
        execution = planner.step(signals)
        assert [s for s in execution.steps if s.op.qid == "Q1"] == []

    def test_rebalance_moves_slices_off_busiest_switch(self):
        dep = build_deployment(linear(3), array_size=1 << 13)
        planner = DynamicPlanner(dep, PlannerConfig(skew_ratio=1.5))
        query = build_query("Q1", evaluation_thresholds())
        planner.manage(query, PARAMS, path=["s0", "s1", "s2"])
        signals = WindowSignals(
            epoch=1, queries=(),
            reports_by_switch={"s0": 300, "s1": 2, "s2": 1},
        )
        execution = planner.step(signals)
        steps = [s for s in execution.steps if s.trigger == "rebalance"]
        assert len(steps) == 1
        assert steps[0].status == "committed"
        assert list(steps[0].op.deploy["path"]) == ["s1", "s2"]
        assert planner.plans["Q1"].deploy["path"] == ("s1", "s2")
        # The query survived the move and still answers.
        assert "Q1" in dep.controller.installed

    def test_manage_twice_rejected(self):
        dep, planner = self._managed()
        with pytest.raises(ValueError, match="already managed"):
            planner.manage(
                build_query("Q1", evaluation_thresholds()), PARAMS,
                path=["s0"],
            )

    def test_failed_bootstrap_raises_and_installs_nothing(self):
        dep = build_deployment(linear(1), array_size=1 << 12)
        planner = DynamicPlanner(dep)
        query = build_query("Q1", evaluation_thresholds())
        with pytest.raises(PlanError):
            planner.manage(
                query, replace(PARAMS, reduce_registers=1 << 20),
                path=["s0"],
            )
        assert not planner.plans
        assert "Q1" not in dep.controller.installed

    def test_release_with_remove_clears_subtree(self):
        dep, planner = self._managed(PlannerConfig(
            occupancy_high=1.1, child_idle_windows=99,
        ))
        drive_windows(dep, planner, 2, flood_trace)
        assert len(dep.controller.installed) > 1
        planner.release("Q1", remove=True)
        assert planner.plans == {}
        assert dep.controller.installed == {}

    def test_repeat_step_same_window_is_noop(self):
        dep, planner = self._managed()
        drive_windows(dep, planner, 1, flood_trace)
        assert planner.step() is None  # same epoch: already planned
