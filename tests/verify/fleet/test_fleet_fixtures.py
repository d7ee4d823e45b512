"""Seeded fixtures: one deployment per fleet diagnostic code.

Every NV4xx/NV6xx/NV7xx code has a minimal deployment that provably
triggers it — the analyzer's regression corpus.  Codes are stable; a
test failing here means a diagnostic changed meaning, not just wording.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.query import Query, flatten
from repro.dataplane.module_types import ModuleType
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.verify.fleet import (
    FleetConfig,
    analyze_deployment,
    check_staging_plan,
    exit_code,
)
from repro.verify.accuracy import check_accuracy_budget
from repro.verify.fleet.epochs import (
    check_epoch_hygiene,
    check_staged_bank_layout,
)
from repro.verify.fleet.interference import (
    check_dispatch_starvation,
    check_fleet_occupancy,
)
from repro.verify.fleet.model import STAGED, SwitchView
from repro.verify.program import PipelineModel
from repro.verify.verifier import VerifierConfig

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
#: Fits a 4096-register array once, but not twice: the double-occupancy
#: window of a make-before-break update cannot fit (NV601 fixtures).
SNUG = QueryParams(cm_depth=2, reduce_registers=3000,
                   distinct_registers=128)


def reduce_query(qid, threshold=3, **predicates):
    predicates = predicates or {"proto": 6, "tcp_flags": 2}
    return (
        Query(qid)
        .filter(**predicates)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def deploy(*makes, params=PARAMS, array_size=1 << 13, **kw):
    dep = build_deployment(linear(1), array_size=array_size, **kw)
    for make in makes:
        dep.controller.install_query(make(), params, path=["s0"])
    return dep


def view_of(dep, sid="s0"):
    return SwitchView.of_switch(dep.switch(sid))


def compiled_of(dep):
    return {
        sub_qid: comp
        for record in dep.controller.installed.values()
        for sub_qid, comp in record.compiled.items()
    }


def analyze(dep, **verifier):
    return analyze_deployment(
        dep.switches,
        compiled=compiled_of(dep),
        committed_epoch=dep.controller.txn.epoch,
        config=FleetConfig(verifier=VerifierConfig(**verifier)),
    )


class TestNV401FleetOccupancy:
    def test_fleet_exceeding_the_policy_envelope(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        policy = PipelineModel(num_stages=12, table_capacity=256,
                               array_size=64, label="tight-envelope")
        found = check_fleet_occupancy(view_of(dep), policy)
        assert found and all(d.code == "NV401" for d in found)
        assert all(d.severity.value == "error" for d in found)
        assert "tight-envelope" in found[0].message

    def test_no_policy_means_no_audit(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        assert check_fleet_occupancy(view_of(dep), None) == []

    def test_generous_policy_is_clean(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        policy = PipelineModel(num_stages=12, table_capacity=256,
                               array_size=1 << 20)
        assert check_fleet_occupancy(view_of(dep), policy) == []


class TestNV402HashUnitSharing:
    def test_same_shape_queries_share_physical_units(self):
        dep = deploy(lambda: reduce_query("fl.a"),
                     lambda: reduce_query("fl.b", threshold=5))
        report = analyze(dep)
        nv402 = report.by_code("NV402")
        assert nv402
        assert "seed_index" in nv402[0].message

    def test_disjoint_dispatch_does_not_interfere(self):
        # Same geometry but disjoint traffic (TCP vs UDP): no shared
        # packet ever indexes both sketches.
        dep = deploy(lambda: reduce_query("fl.tcp", proto=6),
                     lambda: reduce_query("fl.udp", proto=17))
        assert analyze(dep).by_code("NV402") == []


class TestNV403DispatchStarvation:
    def test_contained_entry_loses_to_earlier_broader_one(self):
        # fl.broad (all TCP, installed first) fully contains fl.syn
        # (TCP SYN): at equal priority the earlier insertion wins
        # single-winner arbitration and fl.syn never initiates.
        dep = deploy(lambda: reduce_query("fl.broad", proto=6),
                     lambda: reduce_query("fl.syn"))
        found = check_dispatch_starvation(view_of(dep))
        assert any(
            d.code == "NV403" and d.location.qid == "fl.syn"
            and "earlier insertion" in d.message
            for d in found
        )

    def test_disjoint_entries_do_not_starve(self):
        dep = deploy(lambda: reduce_query("fl.tcp", proto=6),
                     lambda: reduce_query("fl.udp", proto=17))
        assert check_dispatch_starvation(view_of(dep)) == []


def first_slice(dep, qid_prefix="fl."):
    record = next(iter(dep.controller.installed.values()))
    return next(iter(record.slices.values()))[0]


class TestNV601StagingWindows:
    def test_error_form_gates_an_unfittable_plan(self):
        # Re-staging the resident query's own slice doubles its register
        # lease past the array: the concrete plan must be refused.
        dep = deploy(lambda: reduce_query("fl.a"), params=SNUG,
                     array_size=4096)
        qs = first_slice(dep)
        epoch = dep.controller.txn.epoch + 1
        report = check_staging_plan(dep.switches, {"s0": [qs]},
                                    target_epoch=epoch)
        nv601 = report.by_code("NV601")
        assert nv601 and all(d.severity.value == "error" for d in nv601)
        assert exit_code(report) == 2

    def test_error_form_admits_a_fitting_plan(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        qs = first_slice(dep)
        report = check_staging_plan(
            dep.switches, {"s0": [qs]},
            target_epoch=dep.controller.txn.epoch + 1,
        )
        assert report.by_code("NV601") == []

    def test_warning_form_flags_unrestageable_residents(self):
        dep = deploy(lambda: reduce_query("fl.a"), params=SNUG,
                     array_size=4096)
        report = analyze(dep)
        nv601 = report.by_code("NV601")
        assert nv601 and all(d.severity.value == "warning" for d in nv601)
        assert "make-before-break" in nv601[0].message

    def test_warning_form_clean_with_headroom(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        assert analyze(dep).by_code("NV601") == []


class TestNV602StagedLayout:
    def test_doctored_staged_bank_violates_figure4(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        pipeline = dep.switch("s0").pipeline
        qs = first_slice(dep)
        pipeline.stage_slice(qs, pipeline.rule_epoch + 1)

        # Collapse a staged S onto its H's stage: S reads the hash
        # result H writes, so same-stage placement breaks the true
        # dependency (NV101) the staged bank must still satisfy.
        for versions in pipeline._slices.values():
            for i, inst in enumerate(versions):
                if inst.epoch_from <= pipeline.rule_epoch:
                    continue
                h_by_step = {
                    spec.step: spec.stage
                    for _, spec, _ in inst.placed
                    if spec.module_type is ModuleType.HASH_CALCULATION
                }
                placed, done = [], False
                for stage, spec, skey in inst.placed:
                    if (not done
                            and spec.module_type is ModuleType.STATE_BANK
                            and not spec.config.passthrough
                            and spec.step - 1 in h_by_step):
                        spec = dc_replace(
                            spec, stage=h_by_step[spec.step - 1]
                        )
                        done = True
                    placed.append((stage, spec, skey))
                versions[i] = dc_replace(inst, placed=tuple(placed))

        found = check_staged_bank_layout(view_of(dep))
        assert found and all(d.code == "NV602" for d in found)
        assert all(d.severity.value == "error" for d in found)

    def test_honest_staged_bank_is_clean(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        pipeline = dep.switch("s0").pipeline
        pipeline.stage_slice(first_slice(dep), pipeline.rule_epoch + 1)
        assert check_staged_bank_layout(view_of(dep)) == []


class TestNV603EpochHygiene:
    def test_epoch_skew_between_switch_and_controller(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        view = view_of(dep)
        found = check_epoch_hygiene(view, committed_epoch=view.rule_epoch + 5)
        assert any(d.code == "NV603" and "disagrees" in d.message
                   for d in found)

    def test_stranded_staged_bank_past_its_commit(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        pipeline = dep.switch("s0").pipeline
        target = pipeline.rule_epoch + 1
        pipeline.stage_slice(first_slice(dep), target)
        # The controller has since committed past the staged target.
        found = check_epoch_hygiene(view_of(dep), committed_epoch=target)
        assert any(d.code == "NV603" and "already" in d.message
                   for d in found)

    def test_uncollected_retired_residue(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        pipeline = dep.switch("s0").pipeline
        gone = pipeline.rule_epoch + 1
        pipeline.retire_query("fl.a", gone)
        pipeline.commit_epoch(gone)  # flip without gc_retired
        found = check_epoch_hygiene(view_of(dep), committed_epoch=gone)
        assert any(d.code == "NV603" and "garbage collector" in d.message
                   for d in found)

    def test_quiescent_switch_is_clean(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        view = view_of(dep)
        assert check_epoch_hygiene(view, committed_epoch=view.rule_epoch) == []


def compile_all(query, params):
    return [
        compile_query(sub, params, Optimizations.all())
        for sub in flatten(query)
    ]


class TestNV7xxAccuracyBudget:
    def test_nv701_overloaded_count_min(self):
        # 1500 declared flows over width 2048: load 0.73 > 0.5 but the
        # row is still wider than N, so this is degradation, not NV703.
        comps = compile_all(
            reduce_query("fl.a"),
            QueryParams(cm_depth=2, reduce_registers=2048,
                        distinct_registers=1 << 15),
        )
        found = check_accuracy_budget(comps, expected_flows=1500)
        codes = {d.code for d in found}
        assert "NV701" in codes and "NV703" not in codes

    def test_nv702_saturated_bloom_filter(self):
        query = (
            Query("fl.d")
            .filter(proto=6)
            .map("sip", "dip")
            .distinct("sip", "dip")
            .reduce("dip")
            .where(ge=3)
        )
        comps = compile_all(
            query,
            QueryParams(cm_depth=2, bf_hashes=3,
                        reduce_registers=1 << 15,
                        distinct_registers=2048),
        )
        found = check_accuracy_budget(comps, expected_flows=10_000)
        nv702 = [d for d in found if d.code == "NV702"]
        assert nv702 and "false-positive" in nv702[0].message

    def test_nv703_pigeonhole_impossible_sketch(self):
        comps = compile_all(
            reduce_query("fl.a"),
            QueryParams(cm_depth=2, reduce_registers=2048,
                        distinct_registers=1 << 15),
        )
        found = check_accuracy_budget(comps, expected_flows=10_000)
        nv703 = [d for d in found if d.code == "NV703"]
        assert nv703 and all(d.severity.value == "error" for d in nv703)

    def test_comfortable_budget_is_clean(self):
        comps = compile_all(
            reduce_query("fl.a"),
            QueryParams(cm_depth=2, reduce_registers=1 << 15,
                        distinct_registers=1 << 15),
        )
        assert check_accuracy_budget(comps, expected_flows=1000) == []

    def test_analyze_threads_the_declared_workload(self):
        dep = deploy(lambda: reduce_query("fl.a"))
        report = analyze(dep, expected_flows=10_000)
        assert report.by_code("NV703")


class TestFleetConfig:
    def test_suppress_drops_codes_fleet_wide(self):
        dep = deploy(lambda: reduce_query("fl.a"),
                     lambda: reduce_query("fl.b", threshold=5))
        noisy = analyze(dep)
        assert noisy.by_code("NV402")
        quiet = analyze(dep, suppress=("NV402",))
        assert quiet.by_code("NV402") == []

    def test_staged_bank_shows_in_the_view(self):
        dep = deploy(lambda: reduce_query("fl.a"), array_size=1 << 15)
        pipeline = dep.switch("s0").pipeline
        pipeline.stage_slice(first_slice(dep), pipeline.rule_epoch + 1)
        view = view_of(dep)
        assert view.banks_with_status(STAGED)


class TestExitCode:
    def test_contract_values(self):
        dep_clean = deploy(lambda: reduce_query("fl.a"),
                           array_size=1 << 15)
        assert exit_code(analyze(dep_clean)) == 0

        dep_warn = deploy(lambda: reduce_query("fl.a"), params=SNUG,
                          array_size=4096)
        report = analyze(dep_warn)
        assert report.errors == [] and report.warnings
        assert exit_code(report) == 1
        assert exit_code(report, werror=True) == 2

        dep_err = deploy(lambda: reduce_query("fl.a"))
        assert exit_code(analyze(dep_err, expected_flows=10_000)) == 2
