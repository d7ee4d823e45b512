"""Property tests: transaction atomicity under seeded fault schedules.

ISSUE 3 acceptance: after ANY seeded mid-transaction fault schedule
(loss, ack timeout, mid-transaction reboot), every switch is either fully
at the old rule epoch or fully at the new one — with rollback leaving the
prior epoch completely intact — and no packet in the simulator ever
observes a mixed rule set.  Swept over 200+ fault seeds.
"""

import pytest

from repro.core.compiler import QueryParams
from repro.core.query import Query
from repro.ctrlplane import TransactionAborted, TxnConfig
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import FaultPlan, ResilienceConfig, control_faults
from repro.traffic.generators import assign_hosts, syn_flood

PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=128, distinct_registers=128)

#: Aggressive per-message fault rates: with 4 delivery attempts the
#: per-message abort probability is a few percent, so a 200-seed sweep
#: exercises commits, retried commits, aborts, AND rollbacks.
FAULTS = control_faults(loss=0.25, timeout=0.2, reboot_rate=0.1)

N_SEEDS = 200
N_SWITCHES = 3


def q(threshold=3):
    return (
        Query("prop.q")
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def deploy(seed):
    return build_deployment(
        linear(N_SWITCHES), faults=FaultPlan(events=(FAULTS,), seed=seed),
        txn_config=TxnConfig(max_attempts=4),
    )


def assert_atomic(dep, label):
    """Every-switch invariants that must hold after ANY transaction."""
    epochs = {s.rule_epoch for s in dep.switches.values()}
    assert len(epochs) == 1, (
        f"{label}: switches disagree on the rule epoch: {epochs}"
    )
    for sid, switch in dep.switches.items():
        assert switch.staged_rule_count == 0, (
            f"{label}: switch {sid} has staged residue"
        )
        assert switch.retired_rule_count == 0, (
            f"{label}: switch {sid} has un-GCed retired rules"
        )
    installed = "prop.q" in dep.controller.installed
    record = dep.controller.installed.get("prop.q")
    for sid, switch in dep.switches.items():
        hosts_any = bool(switch.pipeline.installed_qids())
        if not installed:
            assert not hosts_any, (
                f"{label}: switch {sid} serves rules of an uninstalled query"
            )
        else:
            expected = sid in record.by_switch
            assert hosts_any == expected, (
                f"{label}: switch {sid} serving={hosts_any}, "
                f"controller says {expected}"
            )


def syn_burst(n, seed):
    return assign_hosts(
        syn_flood(n_packets=n, duration_s=0.05, seed=seed),
        [("h_src0", "h_dst0")],
    )


class TestAtomicityUnderFaults:
    def test_200_seeded_fault_schedules(self):
        committed = aborted = 0
        for seed in range(N_SEEDS):
            dep = deploy(seed)
            try:
                dep.controller.install_query(
                    q(3), PARAMS, path=["s0", "s1", "s2"]
                )
            except TransactionAborted:
                aborted += 1
                assert_atomic(dep, f"seed {seed} install-abort")
                assert dep.controller.rule_count() == 0
                continue
            assert_atomic(dep, f"seed {seed} install")
            rules_before = dep.controller.rule_count()
            epoch_before = dep.controller.txn.epoch
            try:
                dep.controller.update_query(
                    q(9), PARAMS, path=["s0", "s1", "s2"]
                )
                committed += 1
            except TransactionAborted:
                aborted += 1
                # Rollback must leave the prior epoch fully intact.
                assert dep.controller.rule_count() == rules_before, (
                    f"seed {seed}: rollback changed the resident rule set"
                )
                assert dep.controller.txn.epoch == epoch_before
                assert "prop.q" in dep.controller.installed
            assert_atomic(dep, f"seed {seed} update")
        # The sweep must actually exercise both outcomes to mean anything.
        assert committed > 0, "no transaction ever committed"
        assert aborted > 0, (
            "no transaction ever aborted; raise the fault rates"
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_no_packet_observes_a_mixed_rule_set(self, seed):
        """Run traffic THROUGH the faulty update: zero packets may see a
        mixed epoch across their 3-hop path, and — commit or rollback —
        monitoring never gaps (one version is always serving)."""
        dep = deploy(seed)
        try:
            dep.controller.install_query(
                q(3), PARAMS, path=["s0", "s1", "s2"]
            )
        except TransactionAborted:
            return  # nothing installed, nothing to observe
        outcome = {}

        def churn():
            try:
                dep.controller.update_query(
                    q(9), PARAMS, path=["s0", "s1", "s2"]
                )
                outcome["state"] = "committed"
            except TransactionAborted:
                outcome["state"] = "rolled-back"

        dep.simulator.at(0.005, churn)
        stats = dep.simulator.run(syn_burst(1500, seed=seed))
        assert outcome["state"] in ("committed", "rolled-back")
        assert stats.mixed_rule_epoch_packets == 0
        assert stats.initiated_by_query["prop.q"] == stats.packets, (
            f"monitoring gap during a {outcome['state']} update"
        )


class TestUpdateDuringRecovery:
    """ISSUE 5 satellite: an ``update_query`` racing switch recovery must
    land on exactly one epoch — the update's — with no epoch skew, no
    staged/retired residue, and no packet observing a mixed rule set.
    Swept over 200 seeded (crash time, update time) interleavings."""

    N_SEEDS = 200

    @staticmethod
    def recovery_deploy():
        return build_deployment(
            linear(N_SWITCHES),
            resilience=ResilienceConfig(),  # stands up detector + recovery
        )

    @staticmethod
    def traffic(seed):
        return syn_burst(300, seed=seed)

    def run_interleaving(self, seed):
        import random as random_module

        rng = random_module.Random(seed)
        dep = self.recovery_deploy()
        dep.controller.install_query(q(3), PARAMS, path=["s0", "s1", "s2"])
        victim = rng.choice(["s0", "s1", "s2"])
        crash_at = rng.uniform(0.005, 0.02)
        down_for = rng.uniform(0.05, 0.3)
        # The update lands anywhere across the crash/detect/recover span.
        update_at = rng.uniform(0.005, 0.045)
        switch = dep.switches[victim]
        dep.simulator.at(crash_at, lambda: switch.crash(crash_at,
                                                        down_for=down_for))
        outcome = {}

        def update():
            try:
                dep.controller.update_query(
                    q(9), PARAMS, path=["s0", "s1", "s2"]
                )
                outcome["state"] = "committed"
            except TransactionAborted:
                outcome["state"] = "rolled-back"

        dep.simulator.at(update_at, update)
        # 0.05 s of traffic, then idle windows so detection + recovery
        # complete inside the trace.
        trace = self.traffic(seed)
        from repro.core.packet import Packet
        from repro.traffic.traces import Trace, merge_traces
        tail = Trace([Packet(sip=1, dip=2, ts=0.05 + i * 0.1,
                             src_host="h_src0", dst_host="h_dst0")
                      for i in range(8)])
        stats = dep.simulator.run(merge_traces([trace, tail]))
        return dep, stats, outcome

    def test_200_seeded_recovery_interleavings(self):
        committed = 0
        for seed in range(self.N_SEEDS):
            dep, stats, outcome = self.run_interleaving(seed)
            label = f"seed {seed} ({outcome['state']})"
            assert_atomic(dep, label)
            assert stats.mixed_rule_epoch_packets == 0, label
            # Exactly one update transaction ever ran, and if it
            # committed it did so at exactly one epoch.
            updates = [e for e in dep.controller.txn.journal.snapshot()
                       if e["op"] == "update"]
            assert len(updates) == 1, label
            if outcome["state"] == "committed":
                committed += 1
                assert updates[0]["state"] == "committed", label
                epochs = {s.rule_epoch for s in dep.switches.values()}
                assert epochs == {dep.controller.txn.epoch}, label
            # Recovery must never leave the query silently impaired:
            # healthy again, or an explicit degraded/coverage record.
            coverage = dep.recovery.coverage
            qid = "prop.q"
            if not coverage.is_degraded(qid):
                record = dep.controller.installed[qid]
                for sid, entries in record.by_switch.items():
                    pipeline = dep.switches[sid].pipeline
                    for sub_qid, index in entries:
                        assert pipeline.hosts_slice(sub_qid, index), (
                            f"{label}: ({sub_qid},{index}) not resident "
                            f"on {sid} after recovery"
                        )
        assert committed > 0, "no interleaving ever committed the update"
