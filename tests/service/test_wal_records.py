"""One durable WAL record per acknowledged control op.

Each acknowledged install / update / remove / ``POST /plan`` appends one
``op`` record carrying the spec and the epoch it committed; a refused or
aborted op appends none.  A commit made inside a tick (a planner round,
a switch recovery) becomes durable through the tick's snapshot.  Logs
written before ops carried their epoch — with a ``txn`` record per
commit — replay to the same state.
"""

import pytest

from repro.ctrlplane import TxnConfig, WriteAheadLog
from repro.fleet import build_fleet
from repro.resilience import FaultPlan, ResilienceConfig, control_faults, crash
from repro.service import (
    GeneratorSource,
    NewtonService,
    ServiceConfig,
    ServiceError,
)


def config(wal_dir, **overrides):
    return ServiceConfig(switches=2, wal_dir=str(wal_dir), **overrides)


def make_service(wal_dir, deployment=None, **overrides):
    return NewtonService(GeneratorSource(pps=1000, seed=6),
                         config(wal_dir, **overrides), deployment=deployment)


def fleet(cfg, **build):
    """The deployment :func:`~repro.service.service_fleet` builds, plus
    ``build`` (a fault plan, a transaction config, ...)."""
    return build_fleet(
        cfg.switches, num_stages=cfg.num_stages,
        table_capacity=cfg.table_capacity, array_size=cfg.array_size,
        window_ms=cfg.window_ms, engine=cfg.engine, **build,
    )


def records(service, kind=None):
    """The durable records of ``service``'s log, of one kind or all."""
    return [r for r in service.wal.records() if kind in (None, r["kind"])]


class TestOneRecordPerOp:
    def test_each_acknowledged_op_appends_one_op_record(self, tmp_path):
        service = make_service(tmp_path)
        txn = service.deployment.controller.txn
        calls = [
            lambda: service.install({"query": "Q1"}),
            lambda: service.install({"query": "Q4"}),
            lambda: service.update("Q1", {"query": "Q1", "params": {
                "reduce_registers": 4096}}),
            lambda: service.remove("Q4"),
            lambda: service.plan_manage({"query": "Q5"}),
        ]
        epochs = []
        for call in calls:
            before = len(records(service))
            payload = call()
            # Durable before the caller sees the answer, and exactly one.
            after = records(service)
            assert len(after) == before + 1
            assert after[-1]["kind"] == "op"
            assert after[-1]["payload"]["epoch"] == txn.epoch
            assert payload["committed_epoch"] == txn.epoch
            epochs.append(txn.epoch)
        assert epochs == [1, 2, 3, 4, 5]
        ops = [r["payload"] for r in records(service, "op")]
        assert [op["op"] for op in ops] == [
            "install", "install", "update", "remove", "plan"]
        assert ops[2]["qid"] == "Q1" and ops[3] == {
            "op": "remove", "qid": "Q4", "epoch": 4}
        for _ in range(10):
            service.tick()
        assert records(service, "txn") == []
        assert len(records(service, "op")) == 5
        service.drain()

    def test_two_hundred_updates_make_one_append_each(self, tmp_path):
        service = make_service(tmp_path)
        service.install({"query": "Q1"})
        for i in range(200):
            service.update("Q1", {"query": "Q1", "params": {
                "reduce_registers": 2048 if i % 2 else 4096}})
        appends = service.registry.counter("wal_appends_total")
        assert appends.total == 201
        assert appends.value(kind="op") == 201
        service.drain()

    def test_a_refused_op_appends_nothing(self, tmp_path):
        service = make_service(tmp_path, expected_flows=1500)
        service.install({"query": "Q1", "params": {"reduce_registers": 2048}})
        before = records(service)
        with pytest.raises(ServiceError) as exc:
            service.update("Q1", {"query": "Q1",
                                  "params": {"reduce_registers": 1024}})
        assert exc.value.status == 422
        assert records(service) == before
        service.drain()

    def test_an_aborted_op_appends_nothing(self, tmp_path):
        cfg = config(tmp_path)
        lossy = control_faults(loss=1.0)
        deployment = fleet(cfg, faults=FaultPlan(events=(lossy,), seed=5),
                           txn_config=TxnConfig(max_attempts=2))
        channel = deployment.controller.txn.channel
        channel.control = None  # fault-free install
        service = make_service(tmp_path, deployment=deployment)
        service.install({"query": "Q1"})
        before = records(service)
        channel.control = lossy
        with pytest.raises(ServiceError) as exc:
            service.install({"query": "Q4"})
        assert exc.value.status == 503
        assert records(service) == before
        channel.control = None
        service.drain()


class TestCommitsInsideATick:
    def test_a_switch_recovery_is_durable_across_a_restart(self, tmp_path):
        cfg = config(tmp_path)
        faults = FaultPlan(events=(crash("s0", 0.25, down_for=0.15),),
                           seed=3)
        deployment = fleet(cfg, faults=faults, resilience=ResilienceConfig())
        first = make_service(tmp_path, deployment=deployment)
        first.install({"query": "Q1"})
        txn = first.deployment.controller.txn
        installed_at = txn.epoch
        for _ in range(8):
            first.tick()
            if deployment.recovery.records:
                break
        assert deployment.recovery.records, "s0 never recovered"
        # The recovery tick committed a re-stage: a newer epoch than any
        # op record carries, on disk as the tick's snapshot.
        crashed_at = txn.epoch
        assert crashed_at > installed_at
        snapshots = records(first, "snapshot")
        assert snapshots[-1]["payload"]["committed_epoch"] == crashed_at
        assert records(first, "txn") == []
        first.wal.close()  # crash: no drain

        second = make_service(tmp_path)
        assert second.wal_recovery["committed_epoch"] == crashed_at
        assert second.deployment.controller.txn.epoch == crashed_at
        assert {s.rule_epoch for s in
                second.deployment.switches.values()} == {crashed_at}
        assert [second.tick()["mixed_epoch_packets"]
                for _ in range(4)] == [0, 0, 0, 0]
        summary = second.drain()
        assert summary["rule_epochs"] == [crashed_at]
        assert summary["mixed_epoch_packets"] == 0


class TestParentFormatLogs:
    def test_a_txn_epoch_above_every_op_epoch_fast_forwards(self, tmp_path):
        # Before ops carried their epoch, each commit also wrote a ``txn``
        # record; one made inside a tick is the newest epoch on disk.
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append("op", {"op": "install", "spec": {"query": "Q1"}})
            wal.append("txn", {"txn_id": 0, "op": "install", "qid": "Q1",
                               "epoch": 1, "rules_staged": 9,
                               "rules_removed": 0})
            wal.append("txn", {"txn_id": 1, "op": "update", "qid": "Q1",
                               "epoch": 3, "rules_staged": 9,
                               "rules_removed": 9})
        service = make_service(tmp_path)
        rec = service.wal_recovery
        assert rec["replayed_ops"] == 1
        assert rec["committed_epoch"] == 3
        assert {s.rule_epoch for s in
                service.deployment.switches.values()} == {3}
        assert service.health()["queries"] == ["Q1"]
        service.drain()
