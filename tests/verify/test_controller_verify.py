"""Install-time verification: the controller gates rules behind the verifier."""

import pytest

from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.query import Query
from repro.dataplane.registers import AllocationError
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.verify import (
    VerificationError,
    VerificationReport,
    VerifierConfig,
    verify_queries,
)


def syn_query(qid="ctl.q", threshold=10):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


SMALL = QueryParams(cm_depth=2, reduce_registers=128, distinct_registers=128)


class TestInstallGate:
    def test_over_subscribed_registers_rejected_before_any_rule(self):
        dep = build_deployment(linear(1), array_size=64)
        with pytest.raises(VerificationError) as exc:
            dep.controller.install_query(syn_query(), QueryParams(),
                                         path=["s0"])
        assert "NV203" in exc.value.report.codes()
        # Rejected before touching the switch: nothing to roll back.
        assert dep.switch("s0").rule_count == 0
        assert "ctl.q" not in dep.controller.installed

    def test_verify_false_still_hits_the_epoch_gate(self):
        # verify=False skips the per-query verifier, but the transaction
        # manager's NV601 staging gate still proves the staging window
        # fits before 2PC touches the data plane.
        dep = build_deployment(linear(1), array_size=64)
        with pytest.raises(VerificationError) as exc:
            dep.controller.install_query(syn_query(), QueryParams(),
                                         path=["s0"], verify=False)
        assert "NV601" in exc.value.report.codes()
        assert dep.switch("s0").rule_count == 0

    def test_epoch_gate_off_dies_at_the_allocator(self, monkeypatch):
        # With both gates out of the way (the product has no switch for
        # the second one) the install reaches the data plane and dies on
        # the allocator instead (and is rolled back there).
        dep = build_deployment(linear(1), array_size=64)
        monkeypatch.setattr("repro.verify.fleet.check_staging_plan",
                            lambda *args: VerificationReport())
        with pytest.raises(AllocationError):
            dep.controller.install_query(syn_query(), QueryParams(),
                                         path=["s0"], verify=False)
        assert dep.switch("s0").rule_count == 0

    def test_warnings_surface_on_install_result(self):
        dep = build_deployment(linear(1), array_size=256)
        params = QueryParams(cm_depth=1, reduce_registers=128,
                             distinct_registers=128)
        result = dep.controller.install_query(syn_query(), params,
                                              path=["s0"])
        assert result.rules_staged > 0
        assert "NV302" in {d.code for d in result.diagnostics}

    def test_clean_install_reports_no_diagnostics(self):
        dep = build_deployment(linear(1), array_size=256)
        result = dep.controller.install_query(syn_query(), SMALL, path=["s0"])
        assert result.rules_staged > 0
        assert result.diagnostics == []


class TestJointAdmission:
    def test_second_query_rejected_at_real_occupancy(self):
        # table_capacity=1: the resident query's S rule plus the newcomer's
        # demand a second state-bank instance in the same stage, and two
        # instances of salu cost exceed the per-stage budget.
        dep = build_deployment(linear(1), table_capacity=1,
                               array_size=1 << 16)
        first = dep.controller.install_query(syn_query("ctl.a"), SMALL,
                                             path=["s0"])
        assert first.rules_staged > 0
        resident_rules = dep.switch("s0").rule_count

        with pytest.raises(VerificationError) as exc:
            dep.controller.install_query(syn_query("ctl.b"), SMALL,
                                         path=["s0"])
        report = exc.value.report
        assert "NV201" in report.codes()
        nv201 = report.by_code("NV201")
        assert any(d.location.switch == "s0" for d in nv201)
        assert any("salu" in d.message for d in nv201)
        # The resident query is untouched.
        assert dep.switch("s0").rule_count == resident_rules
        assert "ctl.a" in dep.controller.installed

    def test_same_set_admitted_on_empty_switch(self):
        # Control: the rejected newcomer installs fine when it is first.
        dep = build_deployment(linear(1), table_capacity=1,
                               array_size=1 << 16)
        result = dep.controller.install_query(syn_query("ctl.b"), SMALL,
                                              path=["s0"])
        assert result.rules_staged > 0

class TestUpdateGate:
    def test_update_query_re_runs_the_verifier_gate(self):
        # Regression: updates go through the same verification gate as
        # installs — an over-subscribing update is rejected with NV203
        # and the old program stays fully resident.
        dep = build_deployment(linear(1), array_size=256)
        dep.controller.install_query(syn_query(), SMALL, path=["s0"])
        resident_rules = dep.switch("s0").rule_count

        huge = QueryParams(cm_depth=2, reduce_registers=100_000,
                           distinct_registers=128)
        with pytest.raises(VerificationError) as exc:
            dep.controller.update_query(syn_query(threshold=99), huge,
                                        path=["s0"])
        assert "NV203" in exc.value.report.codes()
        assert dep.switch("s0").rule_count == resident_rules
        assert "ctl.q" in dep.controller.installed


class TestAccuracyBudgetGate:
    """A declared flow population puts the NV7xx budget in the install
    gate: an under-provisioned sketch aborts in phase 0, before staging."""

    def test_under_provisioned_install_aborts_before_staging(self):
        dep = build_deployment(linear(1), array_size=1 << 13)
        txn = dep.controller.txn
        with pytest.raises(VerificationError) as exc:
            dep.controller.install_query(
                syn_query(), SMALL, path=["s0"],
                verifier_config=VerifierConfig(expected_flows=1500),
            )
        assert exc.value.report.by_code("NV703")
        assert txn.epoch == 0 and dep.controller.rule_count() == 0
        assert [e.state for e in txn.journal.entries()] == ["aborted"]

    def test_budget_findings_come_last_and_only_when_declared(self):
        comps = [compile_query(syn_query(), SMALL, Optimizations.all())]
        assert not verify_queries(comps).by_code("NV703")
        report = verify_queries(
            comps, config=VerifierConfig(expected_flows=1500))
        assert report.diagnostics[-1].code == "NV703"
        quiet = verify_queries(comps, config=VerifierConfig(
            expected_flows=1500, suppress=("NV703",)))
        assert not quiet.by_code("NV703")


class TestOneDemandTallyPerOp:
    """Both gates of an operation — the controller's verification gate
    and the transaction's staging gate — read one ``Demand`` tally per
    distinct slice set, derived once per operation."""

    @staticmethod
    def spy(monkeypatch):
        from repro.core import controller as core_controller
        from repro.verify import program
        from repro.verify.fleet import epochs

        tallied = []

        def demand_of_slices(slices):
            slices = list(slices)
            tallied.append(tuple((qs.qid, qs.slice_index) for qs in slices))
            return program.demand_of_slices(slices)

        for module in (core_controller, epochs):
            monkeypatch.setattr(module, "demand_of_slices", demand_of_slices)
        return tallied

    def test_install_update_remove_on_the_17_query_fleet(self, monkeypatch):
        from repro.experiments.exp_control_scaling import (
            PARAMS,
            resident_specs,
        )
        from repro.network.topology import fat_tree
        from repro.service.service import query_from_spec

        dep = build_deployment(fat_tree(4), num_stages=12,
                               table_capacity=512, array_size=1 << 16)
        controller = dep.controller
        where = {"topology": dep.topology}
        *resident, extra = resident_specs(18)
        for spec in resident:
            controller.install_query(query_from_spec(spec), PARAMS, **where)
        assert len(controller.installed) == 17
        tallied = self.spy(monkeypatch)

        def slice_sets(qid):
            by_switch = controller.installed[qid].by_switch
            return sorted({tuple(entries) for entries in by_switch.values()})

        query = query_from_spec(extra)
        controller.install_query(query, PARAMS, **where)
        assert sorted(tallied) == slice_sets(query.qid)
        assert len(controller.installed[query.qid].by_switch) > len(tallied)

        tallied.clear()
        controller.update_query(query_from_spec(resident[0]), PARAMS,
                                **where)
        qid = query_from_spec(resident[0]).qid
        assert sorted(tallied) == slice_sets(qid)

        tallied.clear()
        controller.remove_query(query.qid)
        assert tallied == []
