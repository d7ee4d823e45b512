"""Transaction manager: 2PC phases, retries, rollback, journal, metrics."""

import pytest

from repro.core.compiler import QueryParams
from repro.core.query import Query
from repro.ctrlplane import (
    ChannelLoss,
    FaultyControlChannel,
    TransactionAborted,
    TxnConfig,
)
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import FaultPlan, control_faults
from repro.runtime.channel import ControlChannel
from repro.verify import VerificationError

PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=128, distinct_registers=128)


def q(qid="txn.q", threshold=3):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def deploy(channel=None, switches=3, **kwargs):
    return build_deployment(linear(switches), channel=channel, **kwargs)


class _CommitFailingChannel(FaultyControlChannel):
    """Loses the first ``fail`` unreliable commit flips (prepare is clean)."""

    def __init__(self, fail=100):
        super().__init__(FaultPlan())
        self.fail = fail

    def send(self, operation, rules, switch=None, apply=None,
             overhead_s=None, reliable=False):
        if operation == "commit" and not reliable and self.fail > 0:
            self.fail -= 1
            raise ChannelLoss("commit flip lost", delay_s=0.001)
        return super().send(operation, rules, switch=switch, apply=apply,
                            overhead_s=overhead_s, reliable=reliable)


class _RecordingChannel(ControlChannel):
    """Records the operation of every message a transaction sends."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def transact(self, operation, rules, overhead_s=None):
        self.sent.append(operation)
        return super().transact(operation, rules, overhead_s=overhead_s)


class TestCommitPath:
    def test_install_flips_every_switch_to_one_epoch(self):
        dep = deploy()
        dep.controller.install_query(q(), PARAMS,
                                     path=["s0", "s1", "s2"])
        epochs = {s.rule_epoch for s in dep.switches.values()}
        assert epochs == {1}, "epoch beacon must reach non-participants too"
        assert dep.controller.txn.epoch == 1
        for switch in dep.switches.values():
            assert switch.staged_rule_count == 0
            assert switch.retired_rule_count == 0

    def test_install_journal_and_metrics(self):
        dep = deploy()
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        txn = dep.controller.txn
        entries = txn.journal.entries()
        assert len(entries) == 1
        assert entries[0].op == "install"
        assert entries[0].state == "committed"
        assert entries[0].rules_staged > 0
        counter = txn.registry.counter("txn_transactions_total")
        assert counter.value(op="install", outcome="committed") == 1

    def test_remove_garbage_collects_everything(self):
        dep = deploy()
        dep.controller.install_query(q(), PARAMS, path=["s0", "s1"])
        before = dep.controller.rule_count()
        removal = dep.controller.remove_query("txn.q")
        assert removal.rules_removed == before
        assert dep.controller.rule_count() == 0
        for switch in dep.switches.values():
            assert switch.retired_rule_count == 0

    def test_channel_log_vocabulary(self):
        channel = _RecordingChannel()
        dep = deploy(channel)
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        dep.controller.remove_query("txn.q")
        assert {"install", "commit", "retire", "remove"} <= set(channel.sent)

    def test_update_is_one_transaction(self):
        dep = deploy()
        dep.controller.install_query(q(threshold=3), PARAMS, path=["s0"])
        result = dep.controller.update_query(q(threshold=9), PARAMS,
                                             path=["s0"])
        txn = dep.controller.txn
        assert [e.op for e in txn.journal.entries()] == ["install", "update"]
        assert result.rules_staged > 0
        assert result.rules_removed > 0
        # Same definition size: the swap is rule-count neutral after GC.
        assert dep.switch("s0").rule_count == result.rules_staged
        assert dep.switch("s0").staged_rule_count == 0


class TestFaultTolerance:
    def test_commits_under_heavy_faults(self):
        faults = FaultPlan(events=(control_faults(
            loss=0.25, timeout=0.2, reboot_rate=0.1,
        ),), seed=5)
        dep = deploy(faults=faults, txn_config=TxnConfig(max_attempts=25))
        dep.controller.install_query(q(), PARAMS, path=["s0", "s1", "s2"])
        result = dep.controller.update_query(q(threshold=9), PARAMS,
                                             path=["s0", "s1", "s2"])
        assert result.rules_staged > 0
        assert {s.rule_epoch for s in dep.switches.values()} == {2}
        retries = dep.controller.txn.registry.counter("txn_retries_total")
        assert retries.total > 0, "the fault schedule must have bitten"

    def test_prepare_exhaustion_aborts_cleanly(self):
        faults = FaultPlan(events=(control_faults(loss=1.0),), seed=5)
        dep = deploy(faults=faults, txn_config=TxnConfig(max_attempts=3))
        with pytest.raises(TransactionAborted):
            dep.controller.install_query(q(), PARAMS, path=["s0"])
        assert "txn.q" not in dep.controller.installed
        assert dep.controller.rule_count() == 0
        assert all(s.rule_epoch == 0 for s in dep.switches.values())
        entry = dep.controller.txn.journal.entries()[-1]
        assert entry.state == "aborted"

    def test_commit_exhaustion_rolls_back_to_prior_epoch(self):
        channel = _CommitFailingChannel()
        dep = deploy(channel=channel, txn_config=TxnConfig(max_attempts=3))
        channel.fail = 0  # let the install through
        dep.controller.install_query(q(threshold=3), PARAMS,
                                     path=["s0", "s1"])
        rules_before = dep.controller.rule_count()
        channel.fail = 10_000  # every commit flip now fails
        with pytest.raises(TransactionAborted):
            dep.controller.update_query(q(threshold=9), PARAMS,
                                        path=["s0", "s1"])
        # Prior epoch fully intact: old rules resident and serving, no
        # staged residue, no retire marks, epochs unchanged.
        assert dep.controller.rule_count() == rules_before
        assert all(s.rule_epoch == 1 for s in dep.switches.values())
        assert all(s.staged_rule_count == 0 for s in dep.switches.values())
        assert all(s.retired_rule_count == 0 for s in dep.switches.values())
        assert "txn.q" in dep.controller.installed
        rollbacks = dep.controller.txn.registry.counter(
            "txn_rollbacks_total"
        )
        assert rollbacks.total == 1

    def test_update_failure_keeps_old_version_serving(self):
        """Regression (ISSUE 3 satellite): the pre-transactional
        update_query left the query uninstalled when the install leg
        failed after the remove leg succeeded."""
        lossy = control_faults(loss=1.0)
        dep = deploy(faults=FaultPlan(events=(lossy,), seed=5),
                     txn_config=TxnConfig(max_attempts=2))
        channel = dep.controller.txn.channel
        channel.control = None  # fault-free install
        dep.controller.install_query(q(threshold=3), PARAMS, path=["s0"])
        rules_before = dep.switch("s0").rule_count
        channel.control = lossy
        with pytest.raises(TransactionAborted):
            dep.controller.update_query(q(threshold=9), PARAMS, path=["s0"])
        assert "txn.q" in dep.controller.installed
        assert dep.switch("s0").rule_count == rules_before
        # The old threshold is still what the data plane enforces.
        from repro.core.packet import Packet

        reports = []
        for i in range(4):
            res = dep.switch("s0").process(
                Packet(sip=i + 1, dip=9, proto=6, tcp_flags=2, ts=0.0),
                snapshot=None,
            )
            reports.extend(res.reports)
        assert len(reports) == 1, "old version (threshold 3) still serves"


class TestVerificationGate:
    def test_failing_verification_aborts_before_any_switch(self):
        dep = deploy(array_size=64)
        big = QueryParams(cm_depth=2, reduce_registers=4096)
        with pytest.raises(VerificationError):
            dep.controller.install_query(q(), big, path=["s0"])
        assert dep.controller.rule_count() == 0
        assert all(s.rule_epoch == 0 for s in dep.switches.values())
        entry = dep.controller.txn.journal.entries()[-1]
        assert entry.state == "aborted"
        assert "verification" in entry.error

    def test_update_admission_models_double_occupancy(self):
        """Make-before-break needs BOTH versions resident until GC; the
        gate must reject an update whose shadow bank cannot fit."""
        dep = deploy(array_size=1024)
        tight = QueryParams(cm_depth=2, reduce_registers=768)
        dep.controller.install_query(q(), tight, path=["s0"])
        with pytest.raises(VerificationError):
            dep.controller.update_query(q(threshold=9), tight, path=["s0"])
        assert "txn.q" in dep.controller.installed


class TestConfigValidation:
    def test_txn_config_validation(self):
        with pytest.raises(ValueError):
            TxnConfig(max_attempts=0)
        with pytest.raises(ValueError):
            TxnConfig(backoff_factor=0.5)
        assert TxnConfig().backoff_s(2) > TxnConfig().backoff_s(1)

    def test_plain_channel_still_works(self):
        dep = deploy(channel=ControlChannel())
        result = dep.controller.install_query(q(), PARAMS, path=["s0"])
        assert result.rules_staged > 0
