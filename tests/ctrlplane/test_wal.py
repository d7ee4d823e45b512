"""Write-ahead log: durability discipline, torn tails, fast-forward."""

import json
import os

import pytest

from repro.collector.metrics import MetricsRegistry
from repro.core.compiler import QueryParams
from repro.core.query import Query
from repro.ctrlplane import WalCorruptError, WriteAheadLog
from repro.network.deployment import build_deployment
from repro.network.topology import linear

PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=128, distinct_registers=128)


def q(qid="wal.q", threshold=3):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


class TestAppendReplay:
    def test_round_trip_preserves_order_and_sequence(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            assert wal.append("op", {"op": "install", "spec": {"a": 1}}) == 1
            assert wal.append("txn", {"txn_id": 1, "epoch": 1}) == 2
            assert wal.append("snapshot", {"window_epoch": 4}) == 3

        wal2 = WriteAheadLog(str(tmp_path))
        records = list(wal2.records())
        assert [r["kind"] for r in records] == ["op", "txn", "snapshot"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert records[0]["payload"] == {"op": "install", "spec": {"a": 1}}
        # The sequence continues where the previous incarnation stopped.
        assert wal2.append("op", {"op": "remove", "qid": "x"}) == 4
        wal2.close()

    def test_append_is_on_disk_before_returning(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("op", {"op": "install"})
        # Read the file through a separate descriptor without closing
        # the writer: the record must already be durable.
        with open(wal.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "op"
        wal.close()

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        with pytest.raises(ValueError):
            wal.append("op", {})

    def test_metrics(self, tmp_path):
        reg = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), registry=reg)
        wal.append("op", {})
        wal.append("op", {})
        wal.append("txn", {})
        assert wal._m_appends.value(kind="op") == 2
        assert wal._m_appends.value(kind="txn") == 1
        assert wal._h_fsync.count() == 3
        list(wal.records())
        assert wal._m_replayed.total == 3
        text = reg.render_prometheus()
        assert "wal_appends_total" in text
        assert "wal_fsync_seconds" in text
        wal.close()


class TestTornTail:
    def test_torn_tail_is_truncated_at_open(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append("op", {"op": "install", "spec": {"a": 1}})
            wal.append("txn", {"txn_id": 1})
            path = wal.path
        # Simulate a crash mid-write: a partial record with no newline.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "op", "se')

        reg = MetricsRegistry()
        wal2 = WriteAheadLog(str(tmp_path), registry=reg)
        records = list(wal2.records())
        assert [r["kind"] for r in records] == ["op", "txn"]
        assert wal2._m_torn.total == 1
        # New appends after truncation stay reachable on the next replay
        # (this is why truncation must happen at open, not at read).
        wal2.append("snapshot", {"window_epoch": 2})
        wal2.close()
        records = list(WriteAheadLog(str(tmp_path)).records())
        assert [r["kind"] for r in records] == ["op", "txn", "snapshot"]
        assert [r["seq"] for r in records] == [1, 2, 3]

    def test_unparsable_final_line_is_a_torn_tail(self, tmp_path):
        """Newline-terminated garbage is still only a tail when nothing
        follows it: truncated and counted like a partial record."""
        wal = WriteAheadLog(str(tmp_path))
        wal.append("op", {"n": 1})
        wal.close()
        with open(wal.path, "rb") as fh:
            intact = fh.read()
        with open(wal.path, "ab") as fh:
            fh.write(b"not json at all\n")
        wal2 = WriteAheadLog(str(tmp_path))
        assert [r["payload"] for r in wal2.records()] == [{"n": 1}]
        assert wal2._m_torn.total == 1
        wal2.close()
        with open(wal.path, "rb") as fh:
            assert fh.read() == intact

    def test_corrupt_middle_line_raises_and_truncates_nothing(self, tmp_path):
        """Acknowledged records follow the bad line, so it cannot be a
        torn write: refuse to open (or read) rather than fsync the loss
        of everything behind it."""
        damages = [
            b"not json at all\n",
            b'{"seq": 2, "payload": {}}\n',          # no "kind"
            b'{"kind": "op", "seq": 2, "payl\xff\n',  # a flipped byte
        ]
        for index, damaged in enumerate(damages):
            directory = str(tmp_path / str(index))
            wal = WriteAheadLog(directory)
            wal.append("op", {"n": 1})
            with open(wal.path, "ab") as fh:
                fh.write(damaged)
                fh.write(json.dumps({"kind": "op", "seq": 3,
                                     "payload": {"n": 3}}).encode() + b"\n")
            with open(wal.path, "rb") as fh:
                before = fh.read()
            with pytest.raises(WalCorruptError) as reading:
                list(wal.records())
            wal.close()
            with pytest.raises(WalCorruptError) as opening:
                WriteAheadLog(directory)
            for caught in (reading, opening):
                assert caught.value.path == wal.path
                assert caught.value.line_number == 2
                assert "line 2" in str(caught.value)
            with open(wal.path, "rb") as fh:
                assert fh.read() == before

    def test_serve_refuses_a_corrupt_wal(self, tmp_path, capsys):
        """``serve --wal`` prints the error and exits non-zero instead of
        starting from the two ops before the damage."""
        from repro.cli import main

        with WriteAheadLog(str(tmp_path)) as wal:
            for name in ("Q1", "Q6", "Q4"):
                wal.append("op", {"op": "install", "spec": {"query": name}})
        with open(wal.path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"kind"', b'"k\xffnd"')
        with open(wal.path, "wb") as fh:
            fh.writelines(lines)
        code = main(["serve", "--port", "0", "--max-windows", "1",
                     "--wal", str(tmp_path)])
        assert code == 1
        assert "corrupt at line 2" in capsys.readouterr().err
        with open(wal.path, "rb") as fh:
            assert fh.read() == b"".join(lines)

    def test_empty_directory_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert list(wal.records()) == []
        assert not os.path.exists(wal.path) or \
            os.path.getsize(wal.path) == 0
        wal.close()


class TestFastForward:
    def test_fast_forward_adopts_epoch_and_rebeacons(self):
        dep = build_deployment(linear(3))
        dep.controller.install_query(q("wal.ff"), PARAMS,
                                     path=["s0", "s1", "s2"])
        txn = dep.controller.txn
        assert txn.epoch == 1
        committed = txn.fast_forward(7)
        assert committed == 7
        assert txn.epoch == 7
        assert {s.rule_epoch for s in dep.switches.values()} == {7}

    def test_fast_forward_never_rolls_back(self):
        dep = build_deployment(linear(2))
        dep.controller.install_query(q("wal.ff2"), PARAMS,
                                     path=["s0", "s1"])
        txn = dep.controller.txn
        assert txn.fast_forward(0) == 1
        assert txn.epoch == 1
        assert {s.rule_epoch for s in dep.switches.values()} == {1}
