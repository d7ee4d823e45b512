"""Fault-injection shim for the collection plane.

Mirrored reports ride a best-effort path from the switch ASIC to the
controller (mirror session → DMA ring → UDP socket); under burst they are
lost, duplicated, reordered, or delayed.  The shim models those faults at
ingest, seeded and deterministic, so tests can assert exact loss
tolerance properties:

* **loss** — the record vanishes before the queue (counted, not silent);
* **duplication** — the record is delivered twice (the executor collapses
  duplicates by sequence number);
* **reorder** — the record is swapped with the next arrival from the same
  shim (FIFO order broken, window membership preserved);
* **delay** — the record's arrival slips one or more windows; arrivals
  beyond the executor's lateness watermark are dropped as *late*.

All probabilities are per-record: the ``reports`` event of a
:class:`~repro.resilience.FaultPlan`, drawn from a generator seeded
with the plan's ``seed``.  A zero rate draws nothing, so an all-zero
event is the identity: every record passes through untouched, in order.
A collector without a ``reports`` event holds no injector at all.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.collector.records import ReportRecord

if TYPE_CHECKING:  # pragma: no cover - the plan layer sits above this one
    from repro.resilience.faults import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a plan's ``reports`` event to the ingest stream."""

    def __init__(self, faults: "FaultPlan"):
        rates = faults.event("reports")
        if rates is None:
            raise ValueError("fault plan has no reports event")
        self.rates = rates
        self._rng = random.Random(faults.seed)
        self._held: Optional[ReportRecord] = None
        self.lost = 0
        self.duplicated = 0
        self.reordered = 0
        self.delayed = 0

    def apply(self, record: ReportRecord) -> List[ReportRecord]:
        """Transform one arriving record into 0..n delivered records."""
        rates, rng = self.rates, self._rng
        if rates.loss and rng.random() < rates.loss:
            self.lost += 1
            return []
        if rates.delay and rng.random() < rates.delay:
            self.delayed += 1
            record = record.delayed(rates.delay_windows)
        out: List[ReportRecord] = [record]
        if rates.duplication and rng.random() < rates.duplication:
            self.duplicated += 1
            out.append(record)
        if rates.reorder:
            out = self._reorder(out)
        return out

    def _reorder(self, arriving: List[ReportRecord]) -> List[ReportRecord]:
        """Swap records with a one-element hold-back buffer."""
        out: List[ReportRecord] = []
        for record in arriving:
            if self._held is not None:
                # Release the held record *after* the newcomer: the pair
                # is delivered out of order.
                out.append(record)
                out.append(self._held)
                self._held = None
                self.reordered += 1
            elif self._rng.random() < self.rates.reorder:
                self._held = record
            else:
                out.append(record)
        return out

    def flush(self) -> List[ReportRecord]:
        """Release any record still held for reordering (end of run)."""
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]
