"""Admission planner tests: predictions must match install reality."""

import pytest

from repro.core.admission import AdmissionPlanner
from repro.core.compiler import QueryParams, compile_query
from repro.core.library import QueryThresholds, build_query
from repro.core.query import Query
from repro.dataplane.module_types import ModuleType
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.verify.program import PipelineModel, demand, rules_of_compiled


def q(qid, threshold=10):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


SMALL = QueryParams(cm_depth=2, bf_hashes=2,
                    reduce_registers=256, distinct_registers=256)


def demand_of(compiled):
    return demand(rules_of_compiled([compiled]), len(compiled.init_entries))


class TestDemand:
    def test_demand_counts_rules_and_registers(self):
        compiled = compile_query(q("ad.q"), SMALL)
        need = demand_of(compiled)
        assert need.init_entries == 1
        assert sum(need.rules.values()) == compiled.num_modules
        assert sum(need.registers.values()) == 2 * 256
        assert need.stages == compiled.num_stages

    def test_passthrough_s_needs_no_registers(self):
        compiled = compile_query(Query("ad.m").map("dip"), SMALL)
        assert demand_of(compiled).registers == {}


class TestSnapshot:
    def test_fresh_switch_fully_free(self):
        deployment = build_deployment(linear(1), table_capacity=256,
                                      array_size=4096)
        model = PipelineModel.of_switch(deployment.switch("s0"))
        assert model.table_capacity - model.init_used == 256
        assert (model.table_capacity, model.rules_used) == (256, {})
        assert (model.array_size, model.registers_used) == (4096, {})

    def test_snapshot_reflects_installs(self):
        deployment = build_deployment(linear(1), array_size=4096)
        deployment.controller.install_query(q("ad.q"), SMALL, path=["s0"])
        model = PipelineModel.of_switch(deployment.switch("s0"))
        assert model.table_capacity - model.init_used == 255
        assert (len(model.rules_used)
                == compile_query(q("ad.q"), SMALL).num_modules)


class TestCheck:
    def test_fitting_query_has_no_violations(self):
        deployment = build_deployment(linear(1), array_size=4096)
        planner = AdmissionPlanner(deployment.switch("s0"))
        assert planner.check(q("ad.q"), SMALL) == []

    def test_register_violation_detected(self):
        deployment = build_deployment(linear(1), array_size=128)
        planner = AdmissionPlanner(deployment.switch("s0"))
        violations = planner.check(q("ad.q"), SMALL)  # 256 > 128
        assert violations and all("registers" in v for v in violations)

    def test_stage_violation_detected(self):
        deployment = build_deployment(linear(1), num_stages=3)
        planner = AdmissionPlanner(deployment.switch("s0"))
        violations = planner.check(q("ad.q"), SMALL)
        assert any("stages" in v for v in violations)

    def test_prediction_matches_install(self):
        """check() == [] iff the controller install succeeds."""
        deployment = build_deployment(linear(1), array_size=700)
        planner = AdmissionPlanner(deployment.switch("s0"))
        installed = 0
        for i in range(6):
            query = q(f"ad.q{i}")
            fits = planner.check(query, SMALL) == []
            try:
                deployment.controller.install_query(query, SMALL,
                                                    path=["s0"])
                ok = True
                installed += 1
            except Exception:
                ok = False
            assert fits == ok, f"prediction diverged at query {i}"
        assert 0 < installed < 6  # the scenario actually exercised both


class TestPlan:
    def test_greedy_admits_until_full(self):
        deployment = build_deployment(linear(1), array_size=1024)
        planner = AdmissionPlanner(deployment.switch("s0"))
        requests = [(q(f"ad.p{i}"), SMALL) for i in range(8)]
        result = planner.plan(requests, degrade=False)
        assert result.admitted and result.rejected
        # All rejections are register-bound in this configuration.
        for admission in result.admissions:
            if not admission.admitted:
                assert all("registers" in v for v in admission.violations)

    def test_degradation_extends_capacity(self):
        # 896 registers: three 256-wide queries leave 128 free — enough
        # for a fourth only if it shrinks its sketches.
        deployment = build_deployment(linear(1), array_size=896)
        planner = AdmissionPlanner(deployment.switch("s0"),
                                   min_registers=32)
        requests = [(q(f"ad.d{i}"), SMALL) for i in range(8)]
        strict = planner.plan(requests, degrade=False)
        degraded = planner.plan(requests, degrade=True)
        assert len(degraded.admitted) > len(strict.admitted)
        assert degraded.degraded  # some queries shrank their sketches

    def test_degraded_params_still_install(self):
        deployment = build_deployment(linear(1), array_size=1024)
        planner = AdmissionPlanner(deployment.switch("s0"),
                                   min_registers=32)
        requests = [(q(f"ad.i{i}"), SMALL) for i in range(8)]
        result = planner.plan(requests, degrade=True)
        for admission in result.admissions:
            if admission.admitted:
                deployment.controller.install_query(
                    q(admission.qid), admission.params, path=["s0"]
                )

    def test_stage_bound_queries_not_degraded(self):
        deployment = build_deployment(linear(1), num_stages=3)
        planner = AdmissionPlanner(deployment.switch("s0"))
        result = planner.plan([(q("ad.s"), SMALL)], degrade=True)
        assert result.rejected == ["ad.s"]
        assert not result.degraded

    def test_composite_queries_planned_whole(self):
        deployment = build_deployment(linear(1), array_size=1 << 14)
        planner = AdmissionPlanner(deployment.switch("s0"))
        q6 = build_query("Q6", QueryThresholds())
        result = planner.plan([(q6, SMALL)])
        assert result.admitted == ["Q6"]
