"""Collection plane: streaming report collector with backpressure,
loss tolerance, and per-query metrics (controller side of paper §3/§5.2).

The subsystem turns the switches' mirrored monitoring messages into
first-class runtime objects and processes them end to end::

    Switch ──report──▶ ingest ──▶ bounded per-switch queue
                         │            │ (block / drop-newest / drop-oldest)
       analyzer ◀────────┘            │
    (decoded, lossless mirror)        │
                  window clock ──▶ windowed stream executor ──▶ results
                                      │
                     register readout reconciliation (loss recovery)
                                      │
                              metrics registry

See :mod:`repro.collector.collector` for the orchestrating class and
``docs/architecture.md`` ("Collection plane") for the design notes.
"""

from repro.collector.collector import CollectorConfig, ReportCollector
from repro.collector.executor import apply_tail, merge_records
from repro.collector.faults import FaultInjector
from repro.collector.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.collector.queue import (
    BackpressurePolicy,
    BoundedReportQueue,
    QueueStats,
)
from repro.collector.records import QueryRegistration, ReportRecord
from repro.collector.signals import (
    QuerySignals,
    WindowSignals,
    merge_window_signals,
)

__all__ = [
    "BackpressurePolicy",
    "BoundedReportQueue",
    "CollectorConfig",
    "Counter",
    "FaultInjector",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryRegistration",
    "QuerySignals",
    "QueueStats",
    "ReportCollector",
    "ReportRecord",
    "WindowSignals",
    "apply_tail",
    "merge_records",
    "merge_window_signals",
]
