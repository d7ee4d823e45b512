"""Recovery manager end-to-end: crash -> detect -> re-stage / re-place."""

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.fleet import build_fleet, fleet_trace
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import (
    DetectorConfig,
    FaultPlan,
    RecoveryConfig,
    ResilienceConfig,
    SwitchState,
    corrupt_registers,
    crash,
    reboot,
    standard_crash,
)
from repro.traffic.generators import syn_flood
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, reduce_registers=256,
                     distinct_registers=256)

#: The paper's Figure 11 query-operation band, in seconds: one recovery
#: re-install is one staged transaction.
BAND_S = (0.005, 0.020)


def syn_query(qid="rz.q", threshold=2):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn_trace(n=60, dt=0.02):
    return Trace([
        Packet(sip=100 + (i % 4), dip=9, proto=6, tcp_flags=2,
               sport=5000 + i, ts=i * dt,
               src_host="h_src0", dst_host="h_dst0")
        for i in range(n)
    ])


def deploy(plan, n=3, engine="scalar", resilience=None):
    dep = build_deployment(
        linear(n), num_stages=3, array_size=512, engine=engine,
        faults=plan, resilience=resilience,
    )
    dep.controller.install_query(
        syn_query(), PARAMS,
        path=[f"s{i}" for i in range(n)], stages_per_switch=3,
    )
    return dep


@pytest.mark.parametrize("engine", ["scalar", "vector"])
class TestReinstall:
    def test_crash_is_detected_and_reinstalled(self, engine):
        plan = FaultPlan(events=(crash("s0", 0.21, down_for=0.15),))
        dep = deploy(plan, engine=engine)
        dep.simulator.run(syn_trace())
        assert dep.detector.state_of("s0") == SwitchState.ALIVE
        [incident] = dep.recovery.records
        assert incident.action == "reinstall"
        assert incident.qids == ("rz.q",)
        assert incident.detect_latency_s > 0

    def test_reinstalled_slices_match_placement(self, engine):
        plan = FaultPlan(events=(crash("s0", 0.21, down_for=0.15),))
        dep = deploy(plan, engine=engine)
        dep.simulator.run(syn_trace())
        record = dep.controller.installed["rz.q"]
        for sid, entries in record.by_switch.items():
            pipeline = dep.switches[sid].pipeline
            for sub_qid, index in entries:
                assert pipeline.hosts_slice(sub_qid, index), (
                    f"slice ({sub_qid}, {index}) missing on {sid}"
                )
            assert dep.switches[sid].staged_rule_count == 0

    def test_monitoring_resumes_after_recovery(self, engine):
        plan = FaultPlan(events=(crash("s0", 0.21, down_for=0.15),))
        dep = deploy(plan, engine=engine)
        dep.simulator.run(syn_trace())
        results = dep.analyzer.results("rz.q")
        # Windows after the recovery window must produce detections again.
        recovered_epoch = dep.recovery.records[0].completed_epoch
        later = [e for e in results if e > recovered_epoch]
        assert later, "no windows observed after recovery"
        assert any(results[e] for e in later), (
            "monitoring never resumed after re-install"
        )

    def test_coverage_gaps_are_epoch_stamped(self, engine):
        plan = FaultPlan(events=(crash("s0", 0.21, down_for=0.15),))
        dep = deploy(plan, engine=engine)
        dep.simulator.run(syn_trace())
        coverage = dep.recovery.coverage
        full, total = coverage.windows("rz.q")
        assert full + coverage.gap_count("rz.q") >= total
        gaps = coverage.gap_epochs("rz.q")
        assert gaps, "crash left no recorded coverage gap"
        # The crash spans windows 2-3 (0.21 .. 0.36).
        assert set(gaps) <= {2, 3}
        assert 0 < coverage.coverage("rz.q") < 1

    def test_plain_reboot_needs_no_reinstall(self, engine):
        # Reboots take DEFAULT_REBOOT_BASE_S (5 s): run a long sparse
        # trace and keep the replacement threshold out of the way.
        plan = FaultPlan(events=(reboot("s0", 0.21, entries=0),))
        dep = deploy(plan, engine=engine, resilience=ResilienceConfig(
            recovery=RecoveryConfig(replace_after_windows=100),
        ))
        dep.simulator.run(syn_trace(n=70, dt=0.1))
        assert dep.detector.state_of("s0") == SwitchState.ALIVE
        # Committed state survived the reboot: no recovery incident.
        assert dep.recovery.records == []


def standard_scenario(engine):
    """Q1 over ``linear(3)``; ``s0`` crashes at 200 ms of a 1 s SYN flood
    and restarts empty 150 ms later.  Returns the deployment and its
    recovered state: per-window results, register banks, rule epochs
    and the packet count."""
    dep = build_fleet(
        3, ["Q1"], QueryParams(cm_depth=2, reduce_registers=1024),
        array_size=1 << 13, engine=engine, faults=standard_crash(11),
    )
    stats = dep.simulator.run(fleet_trace(
        syn_flood(n_packets=3000, duration_s=1.0, seed=11)))
    results = {epoch: sorted(window.items())
               for epoch, window in dep.analyzer.results("Q1").items()}
    epochs = {sid: sw.rule_epoch for sid, sw in dep.switches.items()}
    return dep, (results, dep.register_dumps(), epochs, stats.packets)


class TestStandardCrashScenario:
    def test_engines_recover_the_same_state_inside_the_band(self):
        dep, scalar = standard_scenario("scalar")
        assert standard_scenario("vector")[1] == scalar
        [incident] = dep.recovery.records
        assert incident.action == "reinstall"
        assert BAND_S[0] <= incident.reinstall_delay_s <= BAND_S[1]
        record = dep.controller.installed["Q1"]
        assert all(dep.switches[sid].pipeline.hosts_slice(sub_qid, index)
                   for sid, entries in record.by_switch.items()
                   for sub_qid, index in entries)
        coverage = dep.recovery.coverage
        assert 0 < coverage.coverage("Q1") < 1
        assert coverage.degraded() == {}


class TestReplace:
    def test_permanent_crash_replaces_onto_survivors(self):
        plan = FaultPlan(events=(crash("s0", 0.21),))  # never comes back
        dep = deploy(plan, resilience=ResilienceConfig(
            recovery=RecoveryConfig(replace_after_windows=2),
        ))
        dep.simulator.run(syn_trace())
        [incident] = dep.recovery.records
        assert incident.action == "replace"
        record = dep.controller.installed["rz.q"]
        assert "s0" not in record.by_switch
        assert set(record.by_switch) <= {"s1", "s2"}
        for sid, entries in record.by_switch.items():
            pipeline = dep.switches[sid].pipeline
            assert all(pipeline.hosts_slice(sq, ix) for sq, ix in entries)

    def test_single_survivor_degrades_with_gap_record(self):
        plan = FaultPlan(events=(crash("s0", 0.21),))
        dep = deploy(plan, n=2, resilience=ResilienceConfig(
            recovery=RecoveryConfig(replace_after_windows=2),
        ))
        dep.simulator.run(syn_trace())
        record = dep.controller.installed["rz.q"]
        assert set(record.by_switch) == {"s1"}
        reasons = {g.reason for g in dep.recovery.coverage.gaps("rz.q")}
        assert "single-switch" in reasons

    def test_no_survivor_is_explicit_degradation_not_silence(self):
        plan = FaultPlan(events=(crash("s0", 0.21),))
        dep = deploy(plan, n=1, resilience=ResilienceConfig(
            recovery=RecoveryConfig(replace_after_windows=2),
        ))
        dep.simulator.run(syn_trace())
        coverage = dep.recovery.coverage
        assert coverage.is_degraded("rz.q")
        assert "no-placement" in coverage.degraded()["rz.q"]
        # Every window after degradation is still graded (as a gap).
        assert coverage.gap_count("rz.q") > 0


class TestCorruption:
    def test_register_corruption_records_a_gap(self):
        plan = FaultPlan(
            events=(corrupt_registers("s1", 0.15, fraction=1.0),), seed=3,
        )
        dep = deploy(plan)
        dep.simulator.run(syn_trace())
        gaps = dep.recovery.coverage.gaps("rz.q")
        corrupt = [g for g in gaps if g.reason == "register-corruption"]
        assert corrupt and corrupt[0].epoch == 1
        assert corrupt[0].switch == "s1"
        # Corruption doesn't take the switch down.
        assert dep.detector.state_of("s1") == SwitchState.ALIVE
        assert dep.recovery.records == []


class TestDetectorTuning:
    def test_resilience_config_reaches_detector(self):
        plan = FaultPlan(events=(crash("s0", 0.21, down_for=0.35),))
        dep = deploy(plan, resilience=ResilienceConfig(
            detector=DetectorConfig(suspect_after=2, down_after=4),
        ))
        dep.simulator.run(syn_trace())
        downs = [t for t in dep.detector.transitions
                 if t.new == SwitchState.DOWN]
        # 4 misses at 100 ms windows: close 0.3, 0.4, 0.5, DOWN at 0.6.
        assert downs and downs[0].epoch == 5
