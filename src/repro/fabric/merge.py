"""Shard-aware merging: per-worker outcomes → single-process results.

The fabric's exactly-once construction makes every merge a plain sum or
union:

* **Simulation stats** — per-packet counters are counted only by each
  packet's flow-hash primary shard, and per-query counters (reports,
  initiations, deferrals, SP bytes) only by the query's owner shard, so
  field-wise summation reproduces the single-process totals exactly.
  ``epochs`` is replicated (every shard runs the same windows) and is
  asserted equal instead of summed.

* **Report streams** — each query's reports are emitted entirely by its
  owner shard, in the same order as single-process execution, and
  :func:`record_reports` takes them where every report passes: the
  collector's ingest.  The only cross-shard freedom is the
  *interleaving between different queries'* reports, so both sides of
  any comparison are put in the canonical order ``(epoch, ts, qid,
  switch, payload)`` — a deterministic total order under which the
  merged stream is bit-identical to baseline.

* **Register dumps** — query placement slices each state-bank array
  into per-sub-query ranges, and only a query's owner writes its
  ranges; everywhere else the replicas hold zeros.  Elementwise
  summation therefore reconstructs the exact single-process arrays
  (valid for fault-free runs; a seeded corruption fault mutates every
  replica and is excluded from identity claims).

* **Collector / analyzer results** — keyed ``(sub_qid, epoch)``;
  sub-query ids are disjoint across shards (whole queries are owned),
  so absorption (``export_results`` → ``absorb_results`` on both) is a
  disjoint dict union into the parent replica.

* **Metrics** — :meth:`MetricsRegistry.merge` sums counters and
  histograms label-set by label-set.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.collector.collector import ReportCollector
from repro.collector.metrics import MetricsRegistry
from repro.core.rules import Report
from repro.network.simulator import SimulationStats

__all__ = [
    "ReportSig",
    "canonical_reports",
    "merge_metrics",
    "merge_register_arrays",
    "merge_stats",
    "record_reports",
]

#: One recorded report: (switch, qid, ts, epoch, sorted payload items).
ReportSig = Tuple[str, str, float, int, Tuple]

#: Register files: switch id → one cell array per state bank.
RegisterArrays = Dict[str, Tuple[np.ndarray, ...]]


def record_reports(collector: ReportCollector) -> List[ReportSig]:
    """Record each report handed to ``collector`` — the one report path,
    so every report a switch emits — as a :data:`ReportSig` appended to
    the returned list: the stream both sides of an identity check feed
    to :func:`canonical_reports`."""
    recorded: List[ReportSig] = []
    ingest = collector.ingest

    def recording(report: Report) -> bool:
        recorded.append((
            str(report.switch_id), report.qid, float(report.ts),
            int(report.epoch), tuple(sorted(report.payload.items())),
        ))
        return ingest(report)

    collector.ingest = recording  # type: ignore[method-assign]
    return recorded


def merge_stats(per_shard: Sequence[SimulationStats]) -> SimulationStats:
    """Field-wise sum of per-shard stats (``epochs`` asserted equal)."""
    if not per_shard:
        raise ValueError("nothing to merge")
    epochs = {s.epochs for s in per_shard}
    if len(epochs) != 1:
        raise AssertionError(
            f"shards disagree on window count: {sorted(epochs)} — the "
            f"replicas did not run the same trace"
        )
    merged = SimulationStats(epochs=epochs.pop())
    for stats in per_shard:
        merged.packets += stats.packets
        merged.delivered += stats.delivered
        merged.dropped += stats.dropped
        merged.deferred += stats.deferred
        merged.stale_deferred += stats.stale_deferred
        merged.sp_bytes += stats.sp_bytes
        merged.payload_bytes += stats.payload_bytes
        merged.mixed_rule_epoch_packets += stats.mixed_rule_epoch_packets
        merged.reports_by_switch += Counter(stats.reports_by_switch)
        merged.initiated_by_query += Counter(stats.initiated_by_query)
    return merged


def canonical_reports(
    streams: Iterable[Sequence[ReportSig]],
) -> Tuple[ReportSig, ...]:
    """Merge report streams into the canonical deterministic order.

    Apply the same function to a single-process run's recorded stream
    before comparing: per-query order is already identical, and this
    fixes the one degree of freedom sharding introduces (the
    interleaving *between* queries).
    """
    merged: List[ReportSig] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda r: (r[3], r[2], r[1], r[0], r[4]))
    return tuple(merged)


def merge_register_arrays(
    per_shard: Sequence[RegisterArrays],
) -> RegisterArrays:
    """Elementwise sum of per-shard register arrays, per switch and bank."""
    if not per_shard:
        raise ValueError("nothing to merge")
    shapes = {tuple(sorted(d)) for d in per_shard}
    if len(shapes) != 1:
        raise AssertionError("shards disagree on the switch set")
    out: RegisterArrays = {}
    for sid in per_shard[0]:
        banks = [d[sid] for d in per_shard]
        n_banks = {len(b) for b in banks}
        if len(n_banks) != 1:
            raise AssertionError(f"shards disagree on {sid}'s bank count")
        out[sid] = tuple(
            np.sum(bank_arrays, axis=0) for bank_arrays in zip(*banks)
        )
    return out


def merge_metrics(registries: Sequence[MetricsRegistry]) -> MetricsRegistry:
    """Sum per-shard registries into a fresh one (inputs untouched)."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged
