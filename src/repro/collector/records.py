"""Report records — the collection plane's unit of work.

A :class:`ReportRecord` is a mirrored monitoring message
(:class:`~repro.core.rules.Report`) decoded into the fields the stream
executor needs: the query id, the result-key tuple, the (threshold-
clipped) count, and provenance (switch, epoch, timestamp, sequence
number).  Decoding happens once at ingest, against the registration the
controller pushed at install time, so the hot window-close path never
touches raw payload dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.rules import Report

__all__ = ["ReportRecord", "QueryRegistration"]

Key = Tuple[int, ...]


@dataclass(frozen=True)
class QueryRegistration:
    """What the collector must know about one installed (sub-)query."""

    qid: str
    #: Top-level query this sub-query belongs to.
    top_qid: str
    #: Field order of the result key in report payloads.
    key_fields: Tuple[str, ...]
    #: Metadata set whose fields carry the result keys.
    result_set: int
    #: First primitive index the CPU tail must execute (everything before
    #: it ran on the data plane along the installed path).
    cpu_start: int
    #: Total primitives in the compiled chain (tail empty when
    #: ``cpu_start == num_primitives``).
    num_primitives: int
    #: The CPU-resident primitive tail itself (``primitives[cpu_start:]``).
    tail: Tuple[object, ...] = ()


@dataclass(frozen=True)
class ReportRecord:
    """One decoded report in flight through the collection plane."""

    qid: str
    switch_id: object
    #: Window the report's counts belong to (stamped by the switch).
    epoch: int
    ts: float
    key: Key
    #: Threshold-clipped count carried by the report (None for
    #: presence-only reports, e.g. distinct crossings).
    count: Optional[int]
    #: Ingest sequence number — lets the executor collapse duplicates.
    seq: int = 0
    #: Window in which the record reaches the collector; the fault shim
    #: pushes this past ``epoch`` to model in-flight delay.
    arrival_epoch: int = 0

    @staticmethod
    def decode(report: Report, registration: "QueryRegistration",
               seq: int = 0) -> "ReportRecord":
        """Decode a raw mirrored message against its registration."""
        fields = report.keys_of_set(registration.result_set)
        key = tuple(
            fields.get(name, 0) for name in registration.key_fields
        )
        count = report.global_result
        return ReportRecord(
            qid=report.qid,
            switch_id=report.switch_id,
            epoch=report.epoch,
            ts=report.ts,
            key=key,
            count=None if count is None else int(count),
            seq=seq,
            arrival_epoch=report.epoch,
        )

    def delayed(self, windows: int) -> "ReportRecord":
        """Copy arriving ``windows`` later (fault shim)."""
        return replace(self, arrival_epoch=self.arrival_epoch + windows)
