"""The report collector — Newton's controller-side collection plane.

Sits between the switches' mirror sessions and the query results (paper
Figure 1's "stream processor" box): every mirrored report is decoded into
a :class:`~repro.collector.records.ReportRecord` at ingest, mirrored to
the analyzer (its lossless copy), queued in a bounded per-switch queue
(:mod:`repro.collector.queue`), optionally mangled by the fault shim
(:mod:`repro.collector.faults`), and processed in per-window batches by
the stream executor (:mod:`repro.collector.executor`) when the shared
window clock closes an epoch.

Loss tolerance: when a window's observed report loss exceeds
``CollectorConfig.reconcile_loss_threshold``, the collector falls back to
the control channel — it re-reads the query's Count-Min rows via
:meth:`NewtonController.estimate_count` for every surviving key and
replaces the clipped report counts with the register truth (the paper's
"the CPU can alleviate the inaccuracy" recovery).  Keys whose *every*
report was lost cannot be recovered this way; the documented bound is
therefore a recall floor of ``1 - loss_rate`` per window with exact
counts for all surviving keys.

Everything the collector does is visible in its
:class:`~repro.collector.metrics.MetricsRegistry`; drops are accounted,
never silent, and the flow invariant

    ingested == processed + dropped + pending

holds at every window boundary (property-tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.collector.executor import apply_tail, merge_records
from repro.collector.faults import FaultInjector
from repro.collector.metrics import (
    BATCH_BUCKETS,
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.collector.queue import BackpressurePolicy, BoundedReportQueue
from repro.collector.records import QueryRegistration, ReportRecord
from repro.collector.signals import (
    HEAVY_KEYS_PER_QUERY,
    QuerySignals,
    WindowSignals,
)
from repro.core.analyzer import (
    first_incomplete_primitive,
    result_key_fields,
    result_set_id,
)
from repro.core.query import flatten
from repro.core.rules import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import Analyzer
    from repro.core.controller import NewtonController

__all__ = ["CollectorConfig", "ReportCollector"]

Key = Tuple[int, ...]

#: Closed windows whose :class:`WindowSignals` stay queryable (the
#: planner reads the most recent few).
_SIGNALS_HORIZON = 16


@dataclass(frozen=True)
class CollectorConfig:
    """Tuning knobs of the collection plane."""

    #: Per-switch queue capacity (reports).
    queue_capacity: int = 4096
    #: Full-queue policy: block | drop-newest | drop-oldest.
    policy: str = BackpressurePolicy.BLOCK
    #: How many windows a report's epoch may trail the closing epoch
    #: before it is discarded as late (the lateness watermark).
    allowed_lateness: int = 1
    #: Window loss fraction above which the register-readout
    #: reconciliation kicks in (1.0 disables it).
    reconcile_loss_threshold: float = 1.0

    def __post_init__(self) -> None:
        BackpressurePolicy.validate(self.policy)
        if self.allowed_lateness < 0:
            raise ValueError("allowed_lateness must be >= 0")
        if not 0.0 <= self.reconcile_loss_threshold <= 1.0:
            raise ValueError("reconcile_loss_threshold outside [0, 1]")


@dataclass
class _OpenWindow:
    """Accumulating state of one (qid, epoch) not yet past the watermark."""

    merged: Dict[Key, int] = field(default_factory=dict)
    seen: Set[Tuple[object, int]] = field(default_factory=set)


class ReportCollector:
    """Streaming report collector with backpressure and loss tolerance."""

    def __init__(
        self,
        config: Optional[CollectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.config = config or CollectorConfig()
        self.metrics = metrics or MetricsRegistry()
        #: Report-path fault shim applied at ingest; ``None``: no faults.
        self.faults = faults
        self.controller: Optional["NewtonController"] = None
        self.analyzer: Optional["Analyzer"] = None
        self._queues: Dict[object, BoundedReportQueue] = {}
        self._registrations: Dict[str, QueryRegistration] = {}
        self._open: Dict[Tuple[str, int], _OpenWindow] = {}
        self._results: Dict[Tuple[str, int], Dict[Key, int]] = {}
        self._signals: Dict[int, WindowSignals] = {}
        self._seq = 0
        self._closed_epoch = -1
        #: Per-window ingest accounting for the reconciliation trigger.
        self._window_offered = 0
        self._window_lost = 0
        self._window_dropped = 0

        m = self.metrics
        self._c_ingested = m.counter(
            "collector_reports_ingested_total",
            "reports offered to the collection plane (post-fault-shim)",
        )
        self._c_lost = m.counter(
            "collector_reports_lost_total",
            "reports lost in flight (fault shim), per query",
        )
        self._c_dropped = m.counter(
            "collector_reports_dropped_total",
            "reports dropped by backpressure or lateness, per reason",
        )
        self._c_blocked = m.counter(
            "collector_backpressure_blocked_total",
            "producer stalls under the block policy, per switch",
        )
        self._c_processed = m.counter(
            "collector_reports_processed_total",
            "reports consumed by the windowed executor, per query",
        )
        self._c_duplicates = m.counter(
            "collector_reports_duplicate_total",
            "duplicate reports collapsed by the executor, per query",
        )
        self._c_windows = m.counter(
            "collector_windows_closed_total", "window boundaries processed"
        )
        self._c_reconciled = m.counter(
            "collector_reconciled_keys_total",
            "keys whose clipped count was replaced by register readout",
        )
        self._g_depth = m.gauge(
            "collector_queue_depth", "reports waiting, per switch queue"
        )
        self._h_depth = m.histogram(
            "collector_queue_depth_at_close", DEPTH_BUCKETS,
            "queue depth sampled at every window close, per switch",
        )
        self._h_batch = m.histogram(
            "collector_window_batch_reports", BATCH_BUCKETS,
            "reports per window batch, per query",
        )
        self._h_latency = m.histogram(
            "collector_window_close_seconds", LATENCY_BUCKETS_S,
            "wall-clock time spent closing one window",
        )
        self._g_occupancy = m.gauge(
            "collector_sketch_occupancy",
            "nonzero fraction of the final reduce's most-loaded "
            "Count-Min row at the last window close, per sub-query",
        )
        self._g_heavy = m.gauge(
            "collector_heavy_keys",
            "keys at/above the report threshold in the last closed "
            "window, per sub-query",
        )

    # ------------------------------------------------------------------ #
    # Lifecycle (driven by the controller)                                #
    # ------------------------------------------------------------------ #

    def on_commit(self, op, record) -> None:
        """Controller commit listener: swap ``op.qid``'s registrations.

        Dropping the outgoing sub-queries and registering the new ones in
        one call mirrors the control plane's atomic epoch flip: no
        mirrored report ever finds the registry mid-swap.  Reports of a
        removed or outgoing version that are still queued decode against
        the new registration when the sub-query ids coincide and are
        dropped (accounted) at the next window close when they do not.
        What the controller knows at commit time — where each sub-query's
        slices landed — determines how far the data plane runs and
        therefore where the CPU tail starts.
        """
        for sub_qid in [
            qid for qid, reg in self._registrations.items()
            if reg.top_qid == op.qid
        ]:
            del self._registrations[sub_qid]
        if record is None:
            return
        for sub in flatten(record.query):
            sub_slices = record.slices[sub.qid]
            installed = {
                index
                for entries in record.by_switch.values()
                for (sub_qid, index) in entries
                if sub_qid == sub.qid
            }
            executed = (max(installed) + 1) if installed else 0
            stage_limit = (
                sub_slices[0].num_stages * executed if sub_slices else 0
            )
            compiled = record.compiled[sub.qid]
            cpu_start = first_incomplete_primitive(compiled, stage_limit)
            self._registrations[sub.qid] = QueryRegistration(
                qid=sub.qid,
                top_qid=op.qid,
                key_fields=result_key_fields(sub),
                result_set=result_set_id(compiled),
                cpu_start=cpu_start,
                num_primitives=len(sub.primitives),
                tail=tuple(sub.primitives[cpu_start:]),
            )

    def registration(self, sub_qid: str) -> Optional[QueryRegistration]:
        return self._registrations.get(sub_qid)

    # ------------------------------------------------------------------ #
    # Ingest                                                              #
    # ------------------------------------------------------------------ #

    def ingest(self, report: Report) -> bool:
        """Offer one mirrored report; returns True iff it was queued.

        The one report hand-off: the report is decoded once, then
        mirrored to the analyzer — before the fault shim and
        backpressure, so the analyzer's copy is lossless — with its
        record, or with none for an unregistered query.  Unregistered
        queries' reports are dropped (accounted as
        ``reason="unregistered"``) — the controller removed the query
        while reports were still in flight.
        """
        registration = self._registrations.get(report.qid)
        record = None
        if registration is not None:
            self._seq += 1
            record = ReportRecord.decode(report, registration, seq=self._seq)
        if self.analyzer is not None:
            self.analyzer.on_report(report, record)
        if registration is None:
            # Still counted as ingested so the flow invariant
            # (ingested == processed + dropped + pending) survives a
            # query being removed while its reports are in flight.
            self._window_offered += 1
            self._c_ingested.inc(switch=report.switch_id, qid=report.qid)
            self._c_dropped.inc(reason="unregistered")
            return False
        faults = self.faults
        if faults is None:
            return self._deliver(record)
        lost_before = faults.lost
        delivered = faults.apply(record)
        if faults.lost > lost_before:
            self._window_lost += 1
            self._c_lost.inc(qid=registration.top_qid)
        accepted_any = False
        for delivered_record in delivered:
            accepted_any |= self._deliver(delivered_record)
        return accepted_any

    def _deliver(self, record: ReportRecord) -> bool:
        """Count one post-shim record as ingested and offer it to its
        switch queue."""
        registration = self._registrations.get(record.qid)
        top_qid = registration.top_qid if registration else record.qid
        self._window_offered += 1
        self._c_ingested.inc(switch=record.switch_id, qid=top_qid)
        queue = self._queues.get(record.switch_id)
        if queue is None:
            queue = BoundedReportQueue(
                capacity=self.config.queue_capacity,
                policy=self.config.policy,
            )
            self._queues[record.switch_id] = queue
        stats = queue.stats
        blocked_before = stats.blocked
        dropped_old_before = stats.dropped_oldest
        accepted = queue.push(record)
        if not accepted:
            self._window_dropped += 1
            self._c_dropped.inc(
                reason="queue-full", switch=record.switch_id, qid=top_qid
            )
        if stats.dropped_oldest > dropped_old_before:
            # Attribute the eviction to the *evicted* record's query —
            # it may belong to a different query than the incoming one,
            # and per-query drop counts feed degraded-mode coverage.
            evicted = queue.last_evicted
            evicted_reg = (
                self._registrations.get(evicted.qid) if evicted else None
            )
            evicted_top = (
                evicted_reg.top_qid if evicted_reg is not None
                else (evicted.qid if evicted is not None else top_qid)
            )
            self._window_dropped += 1
            self._c_dropped.inc(
                reason="evicted-oldest", switch=record.switch_id,
                qid=evicted_top,
            )
        if stats.blocked > blocked_before:
            self._c_blocked.inc(switch=record.switch_id)
        self._g_depth.set(queue.depth, switch=record.switch_id)
        return accepted

    # ------------------------------------------------------------------ #
    # Window close (driven by the shared WindowClock)                     #
    # ------------------------------------------------------------------ #

    def close_window(self, epoch: int) -> None:
        """Drain, batch, execute, and (if needed) reconcile one window.

        Called with the *closing* epoch while that window's registers are
        still live on the switches, so reconciliation can read them.
        """
        started = time.perf_counter()
        self._c_windows.inc()
        released: List[ReportRecord] = []
        for sid, queue in self._queues.items():
            self._h_depth.observe(queue.depth, switch=sid)
            released.extend(queue.drain(upto_epoch=epoch))
            self._g_depth.set(queue.depth, switch=sid)
        self._process(released, epoch)
        self._reconcile(epoch)
        self._capture_signals(released, epoch)
        self._expire(epoch)
        self._closed_epoch = max(self._closed_epoch, epoch)
        self._window_offered = 0
        self._window_lost = 0
        self._window_dropped = 0
        self._h_latency.observe(time.perf_counter() - started)

    def flush(self) -> None:
        """End of run: deliver held/delayed records and close them out.

        Windows close one epoch at a time up to the latest pending
        arrival, so lateness is judged exactly as it would have been had
        the clock kept ticking — a delayed record inside the watermark is
        processed, one beyond it is dropped late, and nothing stays
        queued.
        """
        if self.faults is not None:
            for record in self.faults.flush():
                self._deliver(record)
        horizon = self._closed_epoch + self.config.allowed_lateness + 1
        for queue in self._queues.values():
            pending_horizon = queue.max_arrival_epoch()
            if pending_horizon is not None:
                horizon = max(horizon, pending_horizon)
        for epoch in range(self._closed_epoch + 1, horizon + 1):
            self.close_window(epoch)

    def _process(self, released: List[ReportRecord], epoch: int) -> None:
        watermark = epoch - self.config.allowed_lateness
        batches: Dict[Tuple[str, int], List[ReportRecord]] = {}
        for record in released:
            registration = self._registrations.get(record.qid)
            if registration is None:
                self._c_dropped.inc(reason="stale-query")
                continue
            if record.epoch < watermark and (
                (record.qid, record.epoch) not in self._open
            ):
                self._c_dropped.inc(reason="late", qid=registration.top_qid)
                continue
            batches.setdefault((record.qid, record.epoch), []).append(record)
        for (qid, record_epoch), records in batches.items():
            registration = self._registrations[qid]
            window = self._open.setdefault(
                (qid, record_epoch), _OpenWindow()
            )
            processed, duplicates = merge_records(
                records, window.merged, window.seen
            )
            self._c_processed.inc(processed, qid=registration.top_qid)
            if duplicates:
                self._c_duplicates.inc(
                    duplicates, qid=registration.top_qid
                )
            self._h_batch.observe(len(records), qid=registration.top_qid)
            # The tail is a pure function of the merged map, so a late
            # batch simply recomputes the window's answer.
            self._results[(qid, record_epoch)] = apply_tail(
                registration.tail, registration.key_fields,
                dict(window.merged),
            )

    def _reconcile(self, epoch: int) -> None:
        """Replace clipped counts with register readout when the window's
        loss exceeds the configured threshold (only the closing epoch's
        registers are still live)."""
        threshold = self.config.reconcile_loss_threshold
        if threshold >= 1.0 or self.controller is None:
            return
        attempts = self._window_offered + self._window_lost
        failures = self._window_lost + self._window_dropped
        if attempts == 0 or failures / attempts <= threshold:
            return
        for (qid, record_epoch), results in self._results.items():
            if record_epoch != epoch or not results:
                continue
            registration = self._registrations.get(qid)
            if registration is None or registration.tail:
                continue  # tail outputs are not register-addressable
            for key in list(results):
                key_map = dict(zip(registration.key_fields, key))
                try:
                    estimate = self.controller.estimate_count(qid, key_map)
                except KeyError:
                    break  # query removed mid-flight
                if estimate is not None and estimate > results[key]:
                    results[key] = int(estimate)
                    self._c_reconciled.inc(qid=registration.top_qid)

    def _capture_signals(self, released: List[ReportRecord],
                         epoch: int) -> None:
        """Distil the closed window into the planner's feedback record.

        Runs inside :meth:`close_window`, i.e. while the closing window's
        registers are still live on the switches — the only point where
        the sketch-occupancy readout reflects this window's traffic.
        """
        by_switch: Dict[str, int] = {}
        for record in released:
            if record.epoch == epoch:
                sid = str(record.switch_id)
                by_switch[sid] = by_switch.get(sid, 0) + 1
        queries: List[QuerySignals] = []
        for sub_qid in sorted(self._registrations):
            registration = self._registrations[sub_qid]
            bucket = self._results.get((sub_qid, epoch), {})
            occupancy: Optional[float] = None
            if self.controller is not None:
                try:
                    occupancy = self.controller.sketch_occupancy(sub_qid)
                except KeyError:
                    continue  # removed mid-flight; skip this window
            if occupancy is None and not bucket:
                # Nothing observable here: either the sub-query has no
                # data-plane reduce and saw no reports, or (fabric) this
                # replica does not own it.  Skipping keeps per-shard
                # gauge label sets disjoint so the merge is exact.
                continue
            heavy = tuple(sorted(
                bucket.items(), key=lambda kv: (-kv[1], kv[0])
            )[:HEAVY_KEYS_PER_QUERY])
            signals = QuerySignals(
                sub_qid=sub_qid,
                top_qid=registration.top_qid,
                key_fields=registration.key_fields,
                occupancy=occupancy,
                reported_keys=len(bucket),
                heavy_keys=heavy,
            )
            queries.append(signals)
            if occupancy is not None:
                self._g_occupancy.set(
                    occupancy, qid=registration.top_qid, sub=sub_qid
                )
            self._g_heavy.set(
                len(bucket), qid=registration.top_qid, sub=sub_qid
            )
        self._keep_signals(WindowSignals(
            epoch=epoch, queries=tuple(queries),
            reports_by_switch=by_switch,
        ))

    def _keep_signals(self, signals: WindowSignals) -> None:
        """Retain ``signals`` and expire those past the horizon."""
        self._signals[signals.epoch] = signals
        horizon = signals.epoch - _SIGNALS_HORIZON
        for stale in [e for e in self._signals if e < horizon]:
            del self._signals[stale]

    def window_signals(self, epoch: int) -> Optional[WindowSignals]:
        """Feedback signals of one closed window (None once expired)."""
        return self._signals.get(epoch)

    def latest_signals(self) -> Optional[WindowSignals]:
        """The most recently captured window's signals."""
        if not self._signals:
            return None
        return self._signals[max(self._signals)]

    def absorb_signals(self, signals: WindowSignals) -> None:
        """Install a merged fleet-wide signals record (fabric parent).

        The sharded facade merges per-shard signals with
        :func:`repro.collector.signals.merge_window_signals` and feeds
        the result here so the planner reads one authoritative view.
        """
        self._keep_signals(signals)

    def export_signals(self) -> Dict[int, WindowSignals]:
        """Copy of the retained per-epoch signals (a shard's share)."""
        return dict(self._signals)

    def clear_signals(self) -> None:
        self._signals.clear()

    def _expire(self, epoch: int) -> None:
        """Drop open-window state past the lateness watermark so memory
        stays bounded by the lateness horizon, not the run length."""
        watermark = epoch - self.config.allowed_lateness
        for key in [k for k in self._open if k[1] < watermark]:
            del self._open[key]

    # ------------------------------------------------------------------ #
    # Results                                                             #
    # ------------------------------------------------------------------ #

    def results(self, sub_qid: str) -> Dict[int, Dict[Key, int]]:
        """Per-epoch key→count answers assembled from reports alone."""
        out: Dict[int, Dict[Key, int]] = {}
        for (qid, epoch), bucket in self._results.items():
            if qid == sub_qid:
                out[epoch] = dict(bucket)
        return out

    def export_results(self) -> Dict[Tuple[str, int], Dict[Key, int]]:
        """Copy of every retained ``(sub_qid, epoch)`` answer bucket."""
        return {key: dict(b) for key, b in self._results.items()}

    def absorb_results(
        self, results: Dict[Tuple[str, int], Dict[Key, int]]
    ) -> None:
        """Take over another replica's exported buckets (the fabric's
        control replica absorbing an owner shard's answers)."""
        self._results.update(results)

    def prune_results(self, before_epoch: int) -> int:
        """Discard per-window answers for epochs ``< before_epoch``.

        Batch experiments keep every window's answer around for the final
        report; a long-running service drains each window as it closes and
        must prune what it has already published, or ``_results`` grows
        with uptime.  Returns the number of (qid, epoch) buckets dropped.
        """
        stale = [k for k in self._results if k[1] < before_epoch]
        for key in stale:
            del self._results[key]
        return len(stale)

    def merged_results(self, sub_qid: str) -> Dict[int, Dict[Key, int]]:
        """Collector answers composed with the analyzer's deferred-CPU
        results: one per-window answer per query (max-merge, the same
        rule both sides already apply internally).  Only the deferred
        share: the analyzer's lossless mirror of every raw report would
        hand back what loss, backpressure and lateness took away."""
        out = self.results(sub_qid)
        if self.analyzer is not None:
            deferred = self.analyzer.deferred_results(sub_qid)
            for epoch, bucket in deferred.items():
                target = out.setdefault(epoch, {})
                for key, count in bucket.items():
                    if count > target.get(key, 0):
                        target[key] = count
        return out

    # ------------------------------------------------------------------ #
    # Accounting (flow invariant)                                         #
    # ------------------------------------------------------------------ #

    @property
    def ingested(self) -> int:
        """Reports offered to the queues (fault-shim survivors)."""
        return self._c_ingested.total

    @property
    def processed(self) -> int:
        """Reports consumed by the windowed executor (incl. duplicates)."""
        return self._c_processed.total

    @property
    def dropped(self) -> int:
        """Reports dropped anywhere: backpressure, lateness, staleness."""
        return self._c_dropped.total

    @property
    def pending(self) -> int:
        """Reports still queued (delayed past the last closed window)."""
        return sum(q.pending() for q in self._queues.values())

    @property
    def lost(self) -> int:
        """Reports destroyed in flight by the fault shim."""
        return self._c_lost.total

    def queue_stats(self) -> Dict[object, "object"]:
        return {sid: q.stats for sid, q in self._queues.items()}

    def balance(self) -> Tuple[int, int]:
        """(ingested, processed + dropped + pending) — equal when the
        collection plane has accounted for every report it was offered."""
        return self.ingested, self.processed + self.dropped + self.pending
