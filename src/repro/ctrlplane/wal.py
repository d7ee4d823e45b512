"""Durable write-ahead log for the control plane.

The in-memory :class:`~repro.ctrlplane.journal.TransactionJournal` is an
observability surface; it dies with the process.  The WAL makes the
control plane's *decisions* durable: every committed 2PC transaction,
every service-level query operation (the declarative spec a restart
needs to replay it), and periodic state snapshots append fsync'd
JSON-line records to ``wal.jsonl`` in the WAL directory.  A service
started with ``newton-repro serve --wal DIR`` can be SIGKILLed mid-run
and restarted into the last committed epoch with no lost queries and no
mixed-epoch packets (see :meth:`NewtonService._recover_from_wal`).

Record format — one JSON object per line, sorted keys::

    {"kind": "op",       "seq": 3, "payload": {"op": "install", "spec": ...}}
    {"kind": "txn",      "seq": 4, "payload": {"txn_id": 2, "epoch": 2, ...}}
    {"kind": "snapshot", "seq": 9, "payload": {"window_epoch": 16, ...}}

Durability discipline: records are written, flushed, and ``fsync``'d
before :meth:`append` returns — a record is either fully on disk or not
written at all.  A crash can therefore leave at most one *torn* final
line; opening the log truncates it, which corresponds to an operation
whose caller never saw it acknowledged.  Only the final line can be a
torn write, so an unparsable line with anything after it is corruption of
acknowledged history: opening or reading the log raises
:class:`WalCorruptError` and leaves the file untouched.

The log is append-only and single-writer.  Snapshots do not truncate it
(runs are bounded and records are small); a restart replays ops in
sequence and fast-forwards execution state from the last snapshot.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.collector.metrics import LATENCY_BUCKETS_S, MetricsRegistry

__all__ = ["WalCorruptError", "WriteAheadLog"]

_WAL_FILENAME = "wal.jsonl"


class WalCorruptError(RuntimeError):
    """An unparsable WAL line that is not the final one: acknowledged
    records follow it, so it cannot be the torn write of a crash."""

    def __init__(self, path: str, line_number: int):
        super().__init__(
            f"write-ahead log {path} is corrupt at line {line_number} "
            f"(not a torn tail: records follow it); refusing to start "
            f"from a shorter history"
        )
        self.path = path
        self.line_number = line_number


class WriteAheadLog:
    """Append-only fsync'd JSON-line log in ``directory``.

    Opening the log replays nothing by itself — call :meth:`records`
    (or :meth:`replay`) to read what a previous incarnation wrote; new
    :meth:`append` calls continue the sequence after the last durable
    record.
    """

    def __init__(self, directory: str,
                 registry: Optional[MetricsRegistry] = None):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, _WAL_FILENAME)
        registry = registry or MetricsRegistry()
        self._m_appends = registry.counter(
            "wal_appends_total",
            "Records appended (and fsync'd) to the write-ahead log",
        )
        self._m_replayed = registry.counter(
            "wal_replay_entries_total",
            "Records replayed from the write-ahead log at startup",
        )
        self._m_torn = registry.counter(
            "wal_torn_records_total",
            "Torn (partially written) trailing records discarded at replay",
        )
        self._h_fsync = registry.histogram(
            "wal_fsync_seconds", LATENCY_BUCKETS_S,
            "Latency of one WAL append (write + flush + fsync)",
        )
        # A torn tail must be truncated *before* appending: new records
        # written after it would read as mid-file corruption.
        valid_end = self._seq = 0
        for valid_end, record in self._scan():
            self._seq = max(self._seq, int(record.get("seq", 0)))
        if os.path.exists(self.path) and \
                valid_end < os.path.getsize(self.path):
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
                fh.flush()
                os.fsync(fh.fileno())
            self._m_torn.inc()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _scan(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(end offset, record)`` of every durable record, in order.

        Stops at an unparsable or ``kind``-less *final* line — records are
        appended and fsync'd one at a time, so that is the only line a
        crash can tear; the same anywhere else raises.
        """
        if not os.path.exists(self.path):
            return
        end = 0
        with open(self.path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        record = json.loads(line)
                    except ValueError:  # bad JSON or bad UTF-8
                        record = None
                    if not (line.endswith(b"\n") and isinstance(record, dict)
                            and "kind" in record):
                        if fh.read(1):
                            raise WalCorruptError(self.path, number)
                        return
                    yield end + len(line), record
                end += len(line)

    # ------------------------------------------------------------------ #
    # Writing                                                            #
    # ------------------------------------------------------------------ #

    def append(self, kind: str, payload: Dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        The record is on disk (written + flushed + fsync'd) when this
        returns — the caller may acknowledge the operation.
        """
        if self._fh.closed:
            raise ValueError("write-ahead log is closed")
        self._seq += 1
        record = {"kind": kind, "seq": self._seq, "payload": payload}
        started = time.perf_counter()
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._h_fsync.observe(time.perf_counter() - started)
        self._m_appends.inc(kind=kind)
        return self._seq

    # ------------------------------------------------------------------ #
    # Reading                                                            #
    # ------------------------------------------------------------------ #

    def records(self) -> Iterator[Dict[str, Any]]:
        """Iterate the durable records in append order (metered)."""
        for _end, record in self._scan():
            self._m_replayed.inc(kind=str(record["kind"]))
            yield record

    def replay(self) -> List[Dict[str, Any]]:
        """All durable records as a list (convenience over `records`)."""
        return list(self.records())

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
