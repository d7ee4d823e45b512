"""WAL-backed service restart: crash-resume with no lost queries.

The in-process tests model the crash as abandoning a service instance
without ``drain()`` (SIGKILL never runs destructors; every WAL record is
already fsync'd).  The subprocess test drives the real
``newton-repro serve --wal`` process through an actual SIGKILL and
checks the restart banner and exit status that CI relies on.
"""

import os
import re
import subprocess
import sys
import time

import pytest

from repro.ctrlplane import WriteAheadLog
from repro.service import (
    GeneratorSource,
    NewtonService,
    ServiceConfig,
    ServiceError,
)


def make_service(wal_dir, **overrides):
    return NewtonService(
        GeneratorSource(pps=1000, seed=6),
        ServiceConfig(switches=2, wal_dir=str(wal_dir),
                      wal_snapshot_every=4, **overrides),
    )


def installed_state(service):
    """qid -> (params, compiled artefacts) of everything installed."""
    return {
        qid: (record.params, record.compiled)
        for qid, record in service.deployment.controller.installed.items()
    }


class TestCrashResume:
    def test_fresh_start_recovers_nothing(self, tmp_path):
        service = make_service(tmp_path)
        rec = service.wal_recovery
        assert rec["replayed_ops"] == 0
        assert rec["skipped_ops"] == []
        assert rec["committed_epoch"] == 0
        assert rec["window_epoch"] == 0
        health = service.health()
        assert health["wal"]["path"] == os.path.join(
            str(tmp_path), "wal.jsonl"
        )
        service.drain()

    def test_restart_resumes_at_last_committed_epoch(self, tmp_path):
        first = make_service(tmp_path)
        first.install({"query": "Q1"})
        first.install({"query": "Q4"})
        for _ in range(10):
            first.tick()
        committed_before = first.deployment.controller.txn.epoch
        assert committed_before == 2
        first.wal.close()  # crash: no drain, nothing else runs

        second = make_service(tmp_path)
        rec = second.wal_recovery
        assert rec["replayed_ops"] == 2
        assert rec["skipped_ops"] == []
        # Rule state resumes at the crashed incarnation's committed
        # epoch, and every switch is beaconed there — the first
        # post-restart packet already sees the recovered epoch.
        assert rec["committed_epoch"] == committed_before
        assert second.deployment.controller.txn.epoch == committed_before
        epochs = {
            s.rule_epoch
            for s in second.deployment.switches.values()
        }
        assert epochs == {committed_before}
        # The window clock fast-forwards to the newest snapshot
        # (wal_snapshot_every=4 over 10 windows -> snapshot at epoch 8).
        assert rec["window_epoch"] == 8
        health = second.health()
        assert health["window_epoch"] == 8
        assert health["windows"] == 8
        assert health["queries"] == ["Q1", "Q4"]
        assert health["wal"]["recovery"] == rec

        # The resumed service is fully operational and drains clean.
        for _ in range(4):
            second.tick()
        summary = second.drain()
        assert summary["staged_residue"] == 0
        assert summary["retired_residue"] == 0
        assert summary["rule_epochs"] == [committed_before]
        assert summary["mixed_epoch_packets"] == 0
        assert summary["windows"] == 12

    def test_restart_survives_repeated_crashes(self, tmp_path):
        first = make_service(tmp_path)
        first.install({"query": "Q1"})
        for _ in range(4):
            first.tick()
        first.wal.close()

        second = make_service(tmp_path)
        second.install({"query": "Q4"})
        for _ in range(4):
            second.tick()
        second.wal.close()

        third = make_service(tmp_path)
        assert third.wal_recovery["replayed_ops"] == 2
        assert third.health()["queries"] == ["Q1", "Q4"]
        assert third.health()["window_epoch"] == 8
        summary = third.drain()
        assert summary["staged_residue"] == 0
        assert len(summary["rule_epochs"]) == 1

    def test_restart_after_a_refused_update_equals_the_live_state(
            self, tmp_path):
        # The gate refuses an under-provisioned update (NV703 at 1,500
        # declared flows) before its transaction commits; what keeps
        # running must be what the log replays to — the refused op is
        # not in the log, so the previous definition has to be live.
        first = make_service(tmp_path, expected_flows=1500)
        first.install({"query": "Q1", "params": {"reduce_registers": 2048}})
        first.install({"query": "Q4"})
        for spec in ({"query": "Q1", "params": {"reduce_registers": 1024}},
                     {"query": "Q4", "params": {"reduce_registers": 512}}):
            try:
                first.update(spec["query"], spec)
            except ServiceError as exc:
                assert exc.status == 422
            else:
                raise AssertionError("the gate accepted a narrow sketch")
        with pytest.raises(ServiceError):
            first.plan_manage({"query": "Q5",
                               "params": {"reduce_registers": 1024}})
        first.tick()
        live = installed_state(first)
        assert sorted(live) == ["Q1", "Q4"]
        assert live["Q1"][0].reduce_registers == 2048
        first.wal.close()  # crash

        second = make_service(tmp_path, expected_flows=1500)
        assert second.wal_recovery["replayed_ops"] == 2
        assert second.wal_recovery["skipped_ops"] == []
        assert installed_state(second) == live
        assert second.queries() == first.queries()
        assert (second.deployment.controller.txn.epoch
                == first.deployment.controller.txn.epoch)
        second.drain()

    def test_unreplayable_ops_are_skipped_not_fatal(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("op", {"op": "install", "spec": {"query": "Q1"}})
        # qid/spec mismatch and an unknown verb: both must be recorded
        # as skipped, not crash the recovery.
        wal.append("op", {"op": "update", "qid": "QX",
                          "spec": {"query": "Q1"}})
        wal.append("op", {"op": "frobnicate"})
        wal.close()

        service = make_service(tmp_path)
        rec = service.wal_recovery
        assert rec["replayed_ops"] == 1
        assert [s["op"] for s in rec["skipped_ops"]] == [
            "update", "frobnicate"
        ]
        assert service.health()["queries"] == ["Q1"]
        service.drain()

    @pytest.mark.parametrize("payload, op", [
        ({"op": "install"}, "install"),
        ({"op": "update", "spec": {"query": "Q1"}}, "update"),
        ({"op": "remove"}, "remove"),
        ({"op": "plan", "qid": "Q5"}, "plan"),
        ({"op": "update", "qid": "Q1", "spec": "Q1"}, "update"),
        ({"op": ["install"], "spec": {"query": "Q4"}}, ["install"]),
        (["install", {"query": "Q4"}], None),
        ("install", None),
    ])
    def test_malformed_op_records_are_skipped_not_fatal(self, tmp_path,
                                                         payload, op):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("op", {"op": "install", "spec": {"query": "Q1"}})
        seq = wal.append("op", payload)
        wal.close()

        service = make_service(tmp_path)
        rec = service.wal_recovery
        assert rec["replayed_ops"] == 1
        assert [(s["seq"], s["op"]) for s in rec["skipped_ops"]] == [
            (seq, op)]
        assert service.health()["queries"] == ["Q1"]
        service.drain()

    def test_snapshots_of_the_old_format_replay_the_same(self, tmp_path):
        # Snapshots once carried a per-switch register digest; recovery
        # never read it, so a log that still has one replays unchanged.
        snapshot = {"window_epoch": 4, "committed_epoch": 1, "windows": 4,
                    "packets": 400, "mixed_epoch_packets": 0}
        recovered = []
        for name, extra in (("new", {}), ("old", {"register_digest": {
                "s0": [0, 0], "s1": [0, 0]}})):
            with WriteAheadLog(str(tmp_path / name)) as wal:
                wal.append("op", {"op": "install", "spec": {"query": "Q1"}})
                wal.append("txn", {"txn_id": 0, "op": "install",
                                   "qid": "Q1", "epoch": 1})
                wal.append("snapshot", {**snapshot, **extra})
            service = make_service(tmp_path / name)
            recovery = dict(service.wal_recovery)
            del recovery["recovery_s"]
            health = service.health()
            recovered.append((recovery, installed_state(service),
                              {k: health[k] for k in (
                                  "window_epoch", "windows", "packets",
                                  "queries")}))
            service.drain()
        assert recovered[0] == recovered[1]
        assert recovered[0][0]["window_epoch"] == 4

    def test_recovery_does_not_publish_feed_events(self, tmp_path):
        first = make_service(tmp_path)
        first.install({"query": "Q1"})
        first.wal.close()

        second = make_service(tmp_path)
        sub = second.feed.subscribe()
        # Replayed installs must not re-announce on the report feed;
        # only live operations do.
        assert sub.pop_pending() == []
        second.install({"query": "Q4"})
        assert [e["type"] for e in sub.pop_pending()] == ["query"]
        second.drain()


class TestServeSigkillRestart:
    """SIGKILL the real ``serve --wal`` process; restart must resume at
    the last committed epoch and a later window, and shut down with one
    fleet-wide rule epoch, zero residue and no mixed-epoch packets."""

    @staticmethod
    def _cmd(wal_dir, max_windows):
        return [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--rate", "0", "--pps", "20000",
            "--max-windows", str(max_windows),
            "--queries", "Q1", "Q6",
            "--wal", str(wal_dir), "--wal-snapshot-every", "8",
        ]

    def test_sigkill_then_restart_resumes_clean(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        wal_dir = tmp_path / "wal"

        first = subprocess.Popen(
            self._cmd(wal_dir, max_windows=0), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            for _ in range(20):
                line = first.stdout.readline()
                if "serving on http://" in line:
                    break
            else:
                raise AssertionError("serve never came up")
            time.sleep(0.5)  # tick windows, commit WAL records
        finally:
            first.kill()  # SIGKILL: no drain, no close, no atexit
            first.wait(timeout=30)
            first.stdout.close()

        second = subprocess.Popen(
            self._cmd(wal_dir, max_windows=24), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        out, _ = second.communicate(timeout=180)

        assert second.returncode == 0, out
        recovery = re.search(
            r"wal recovery: (\d+) ops replayed, committed epoch (\d+), "
            r"window epoch (\d+)", out)
        assert recovery is not None, out
        assert int(recovery.group(1)) == 2, "a query was lost"
        assert int(recovery.group(2)) >= 2
        assert int(recovery.group(3)) > 0, "the window clock restarted at 0"
        shutdown = re.search(
            r"shutdown: committed epoch (\d+), rule epochs \[([0-9, ]+)\]",
            out)
        assert shutdown is not None, out
        assert int(shutdown.group(1)) == int(recovery.group(2)), \
            "restart must not burn extra epochs on replay"
        assert "," not in shutdown.group(2), \
            "the switches disagree on the rule epoch"
        assert "staged residue 0" in out
        assert "retired residue 0" in out
        assert "0 mixed-epoch packets" in out
