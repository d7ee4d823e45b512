"""Packet-level network simulator.

Walks each packet of a trace hop by hop through the Newton pipelines along
its forwarding path, carrying the result snapshot header between switches
(cross-switch query execution, §5.1).  At the egress switch the SP header
is stripped: completed queries have already reported; incomplete ones are
deferred to the software analyzer (§5.2).

Packet execution itself is delegated to a pluggable
:class:`~repro.engine.base.ExecutionEngine` (``engine="scalar"`` for the
per-packet reference path, ``"vector"`` for the columnar batched one);
the simulator keeps ownership of scheduling, window synchronisation, and
component wiring, so both engines observe identical semantics.

The simulator also owns window synchronisation: when a packet's timestamp
crosses a 100 ms boundary, the shared :class:`~repro.runtime.clock.
WindowClock` fires (closing the collector's and the analyzer's window —
in that order, so the collector's register-readout reconciliation still
sees live registers) and every switch's registers reset.

Mirrored reports are no longer just counted: when a collection plane is
attached, every :class:`~repro.core.rules.Report` a switch emits is handed
to the collector's ingest path as a first-class record.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.analyzer import Analyzer
from repro.core.controller import NewtonController
from repro.core.packet import Packet
from repro.dataplane.switch import Switch
from repro.engine.base import ExecutionEngine, get_engine
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.runtime.clock import WindowClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.collector import ReportCollector
    from repro.runtime.sanitizer import Sanitizer

__all__ = ["NetworkSimulator", "SimulationStats"]


@dataclass
class SimulationStats:
    """Aggregate outcome of one trace run."""

    packets: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Mirrored monitoring messages, per reporting switch.
    reports_by_switch: "Counter[Hashable]" = field(default_factory=Counter)
    #: Packets whose query remainder went to the analyzer (§5.2).
    deferred: int = 0
    #: Deferred snapshot entries dropped because their query was removed
    #: mid-window while the entry was still in flight.
    stale_deferred: int = 0
    #: Total SP header bytes carried across links.
    sp_bytes: int = 0
    #: Total payload bytes forwarded (for overhead ratios).
    payload_bytes: int = 0
    epochs: int = 0
    #: Packets that observed different rule-bank epochs for the same query
    #: across their path — the atomicity violation the transactional
    #: control plane must keep at zero (every packet sees one consistent
    #: rule set, even mid-flip).
    mixed_rule_epoch_packets: int = 0
    #: Packets that initiated each query at their ingress switch — the
    #: coverage signal update benchmarks diff against the matching traffic
    #: to count monitoring-gap packets.
    initiated_by_query: "Counter[str]" = field(default_factory=Counter)

    @property
    def reports_total(self) -> int:
        """Mirrored reports across all switches."""
        return sum(self.reports_by_switch.values())

    #: Backwards-compatible alias (pre-collection-plane name).
    @property
    def total_reports(self) -> int:
        return self.reports_total

    @property
    def monitoring_messages(self) -> int:
        return self.reports_total + self.deferred

    @property
    def sp_overhead_ratio(self) -> float:
        """SP bandwidth overhead relative to forwarded traffic."""
        if self.payload_bytes == 0:
            return 0.0
        return self.sp_bytes / self.payload_bytes


class NetworkSimulator:
    """Drives traces through a Newton deployment."""

    def __init__(
        self,
        topology: Topology,
        switches: Dict[Hashable, Switch],
        router: Optional[Router] = None,
        controller: Optional[NewtonController] = None,
        analyzer: Optional[Analyzer] = None,
        window_ms: int = 100,
        collector: Optional["ReportCollector"] = None,
        clock: Optional[WindowClock] = None,
        engine: Union[str, ExecutionEngine, None] = "scalar",
        sanitizer: Optional["Sanitizer"] = None,
    ):
        missing = [s for s in topology.switches() if s not in switches]
        if missing:
            raise ValueError(f"no Switch object for topology nodes: {missing}")
        self.topology = topology
        self.switches = switches
        self.router = router or Router(topology)
        self.controller = controller
        self.analyzer = analyzer
        self.collector = collector
        self.clock = clock or WindowClock(window_ms=window_ms)
        # Close order matters: the collector reconciles against registers
        # that the switches reset right after the close, and the analyzer
        # publishes its deferred-CPU window results last.
        if collector is not None:
            self.clock.subscribe(collector.close_window)
        if analyzer is not None:
            self.clock.subscribe(analyzer.advance_window)
        self.window_s = self.clock.window_s
        self.engine = get_engine(engine)
        #: Runtime invariant checker (observe-only; ``None`` = disabled).
        self.sanitizer = sanitizer
        #: Fabric-plane shard context (``None`` outside sharded runs).
        #: When set, both engines consult ``shard.owns_packet`` /
        #: ``shard.owned_mask`` so each packet's per-packet statistics
        #: (packets / delivered / dropped / payload bytes) are counted by
        #: exactly one shard — the flow-hash primary — and the merged
        #: :class:`SimulationStats` sums are exactly-once by construction.
        self.shard: Optional[object] = None
        self._epoch = 0
        #: Current trace time: the timestamp of the last packet handed to
        #: the engine (``-inf`` before the first).  Guards :meth:`at`
        #: against scheduling into the past.
        self._now = float("-inf")
        #: Control-plane callbacks scheduled against trace time, fired
        #: just before the first packet at or past their timestamp — how
        #: experiments inject rule operations mid-trace.
        self._scheduled: List[Tuple[float, int, Callable[[], None]]] = []
        self._schedule_seq = 0

    # ------------------------------------------------------------------ #

    def at(self, ts: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at trace time ``ts``.

        Callbacks fire in timestamp order (insertion order breaks ties)
        between packets during :meth:`run` — e.g. a controller
        ``update_query`` mid-trace to measure monitoring gaps.

        Scheduling before the current trace time is rejected: the moment
        has already been executed, so the callback could only fire late —
        silently, and at a batch-dependent point under the vectorized
        engine.  (Re-scheduling from inside a callback at the callback's
        own timestamp remains valid.)
        """
        if ts < self._now:
            raise ValueError(
                f"cannot schedule a callback at trace time {ts}: the "
                f"trace has already advanced to {self._now}"
            )
        heapq.heappush(
            self._scheduled, (ts, self._schedule_seq, callback)
        )
        self._schedule_seq += 1

    def _fire_scheduled(self, now: float) -> None:
        while self._scheduled and self._scheduled[0][0] <= now:
            _, _, callback = heapq.heappop(self._scheduled)
            callback()

    # ------------------------------------------------------------------ #
    # Engine contract: everything an engine may ask of the simulator     #
    # (besides ``epoch`` and the component attributes)                   #
    # ------------------------------------------------------------------ #

    def advance(self, ts: float) -> None:
        """Bring the simulation to trace time ``ts``, the timestamp of
        the packet(s) an engine is about to execute: fire the callbacks
        due at or before it, close every window that ended before it,
        and record it as the current trace time."""
        if self._scheduled and self._scheduled[0][0] <= ts:
            self._fire_scheduled(ts)
        # WindowClock.epoch_of, inlined: this runs once per scalar packet.
        pkt_epoch = int(ts / self.window_s)
        if pkt_epoch != self._epoch:
            if pkt_epoch < self._epoch:
                raise ValueError(
                    "trace packets must be sorted by timestamp"
                )
            while self._epoch < pkt_epoch:
                self._roll()
        self._now = ts

    def next_scheduled_ts(self) -> Optional[float]:
        """Timestamp of the earliest pending callback (engines split
        batches here so callbacks fire between packets, never within)."""
        return self._scheduled[0][0] if self._scheduled else None

    def finish(self, stats: SimulationStats) -> SimulationStats:
        """End an engine run: fire every remaining callback, close the
        window in progress, and stamp the window count on ``stats``."""
        self._fire_scheduled(float("inf"))
        self._close_window()
        stats.epochs = self._epoch + 1
        return stats

    def run(self, packets: Iterable[Packet]) -> SimulationStats:
        """Forward a time-ordered packet stream; returns aggregate stats.

        ``packets`` may be a plain iterable of packets, a ``Trace``, or a
        :class:`~repro.traffic.columnar.ColumnarTrace`; the configured
        execution engine consumes whichever representation suits it.
        """
        stats = SimulationStats()
        result = self.engine.run(self, packets, stats)
        if self.sanitizer is not None:
            self.sanitizer.check_coverage(result)
        return result

    # ------------------------------------------------------------------ #
    # Window synchronisation                                              #
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """The window epoch the simulator is currently executing."""
        return self._epoch

    def roll_window(self) -> int:
        """Force-close the current window and advance to the next epoch.

        During :meth:`run` windows close lazily: window *k* only closes
        when the first packet of window *k+1* arrives.  Long-running
        drivers (the service plane) feed one window's worth of packets
        per tick and need the window closed *now* so reports fan out with
        bounded latency rather than one window late.  Returns the epoch
        that was closed.
        """
        closed = self._epoch
        self._roll()
        # Packets of the closed window can no longer be accepted; pin the
        # trace clock to the new window's start so `at()` and the next
        # `run()` agree on what "now" means.
        self._now = max(self._now, self.clock.close_time(closed))
        return closed

    def _close_window(self) -> None:
        # Idempotent: every engine run() ends by closing the in-progress
        # window, so a driver that feeds one window per run() (the service
        # plane) would otherwise close each epoch twice — draining the
        # collector and grading resilience health against a phantom
        # duplicate window.
        if self.clock.epoch <= self._epoch:
            self.clock.close(self._epoch)

    def _roll(self) -> None:
        self._close_window()
        for switch in self.switches.values():
            switch.advance_window()
        self._epoch += 1
