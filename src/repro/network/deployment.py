"""One-call construction of a full Newton deployment.

Gathers the pieces every experiment needs — switches on a topology, a
shared hash family, the analyzer wired as report sink, a controller, the
collection plane, and a simulator — so examples and benchmarks stay
focused on the experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.collector import CollectorConfig, ReportCollector
from repro.core.analyzer import Analyzer
from repro.core.controller import NewtonController
from repro.ctrlplane import TransactionManager, TxnConfig
from repro.dataplane.hashing import HashFamily
from repro.dataplane.layout import LayoutKind
from repro.dataplane.switch import Switch
from repro.network.routing import Router
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.resilience import (
    CoverageTracker,
    FailureDetector,
    FaultPlan,
    RecoveryManager,
    ResilienceConfig,
)
from repro.runtime.channel import ControlChannel
from repro.runtime.clock import WindowClock
from repro.runtime.sanitizer import Sanitizer

__all__ = ["Deployment", "build_deployment", "sanitize_enabled"]


def sanitize_enabled() -> bool:
    """Whether ``NEWTON_SANITIZE`` asks for runtime invariant checks."""
    value = os.environ.get("NEWTON_SANITIZE", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


@dataclass
class Deployment:
    """A ready-to-run Newton installation over a topology."""

    topology: Topology
    switches: Dict[Hashable, Switch]
    router: Router
    analyzer: Analyzer
    controller: NewtonController
    simulator: NetworkSimulator
    collector: ReportCollector
    clock: WindowClock
    #: Resilience plane; populated when ``faults`` or ``resilience`` is
    #: passed to :func:`build_deployment`, else ``None``.
    detector: Optional[FailureDetector] = None
    recovery: Optional[RecoveryManager] = None
    faults: Optional[FaultPlan] = None
    #: Runtime invariant checker; set when sanitizing is on, else ``None``.
    sanitizer: Optional[Sanitizer] = None

    def switch(self, switch_id: Hashable) -> Switch:
        return self.switches[switch_id]

    # What drivers (service, planner, benchmarks) need beyond the
    # components.  The sharded fabric deployment overrides ``prune``,
    # ``register_arrays``, ``fabric_status`` and ``close``.

    def prune(self, before_epoch: int) -> None:
        """Discard windowed answers for epochs ``< before_epoch``."""
        self.collector.prune_results(before_epoch)
        self.analyzer.prune(before_epoch)

    def register_arrays(self) -> Dict[str, Tuple[np.ndarray, ...]]:
        """A copy of every switch's state-bank register files."""
        return {
            str(sid): tuple(
                bank.array.dump()
                for bank in switch.pipeline.layout.state_banks()
            )
            for sid, switch in self.switches.items()
        }

    def register_dumps(self) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
        """:meth:`register_arrays` as comparable tuples of ints."""
        return {
            sid: tuple(tuple(cells.tolist()) for cells in banks)
            for sid, banks in self.register_arrays().items()
        }

    def fabric_status(self) -> Dict[str, Any]:
        """JSON-safe execution-backend status (``/healthz``)."""
        return {"workers": 1, "backend": "single-process"}

    def close(self) -> None:
        """Release what the deployment owns beyond memory (the sharded
        one's worker processes; nothing here)."""

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def build_deployment(
    topology: Topology,
    num_stages: int = 12,
    table_capacity: int = 256,
    array_size: int = 4096,
    window_ms: int = 100,
    hash_seed: int = 0x5EED,
    channel: Optional[ControlChannel] = None,
    ecmp: bool = True,
    newton_switches=None,
    collector_config: Optional[CollectorConfig] = None,
    txn_config: Optional[TxnConfig] = None,
    engine: str = "scalar",
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
    sanitize: Optional[bool] = None,
) -> Deployment:
    """Instantiate Newton switches on every topology node and wire them up.

    All switches share one :class:`HashFamily` so cross-switch query slices
    index their registers consistently (a CQE prerequisite), and one
    :class:`WindowClock` so the analyzer's deferred CPU execution and the
    collection plane close windows at the same instant.

    ``newton_switches`` restricts the Newton component to a subset of the
    topology (partial deployment, paper §7); the rest become legacy
    forwarders.  ``None`` (the default) enables Newton everywhere.

    ``collector_config`` tunes the collection plane (backpressure policy,
    queue capacity, fault injection, loss reconciliation).

    ``channel`` may be a :class:`~repro.ctrlplane.FaultyControlChannel`
    to exercise the transactional control plane under seeded faults;
    ``txn_config`` tunes its retry/backoff policy.

    ``engine`` selects the packet-execution engine (``"scalar"`` or
    ``"vector"``; see :mod:`repro.engine`).

    ``sanitize`` enables the runtime invariant sanitizer
    (:mod:`repro.runtime.sanitizer`) on every switch and the simulator;
    ``None`` (the default) defers to the ``NEWTON_SANITIZE`` environment
    variable.  Sanitized runs are bit-identical to unsanitized ones —
    violations accumulate on :attr:`Deployment.sanitizer` only.

    ``faults`` takes a declarative :class:`~repro.resilience.FaultPlan`:
    its report-loss events merge into the collector config, its control
    events replace ``channel`` with a faulty one (unless an explicit
    channel was passed), and its timed switch events are armed on the
    simulator.  Passing ``faults`` or ``resilience`` also stands up the
    resilience plane (failure detector + recovery manager, subscribed to
    window closes after the collector and analyzer).
    """
    family = HashFamily(hash_seed)
    clock = WindowClock(window_ms=window_ms)
    analyzer = Analyzer(window_ms=window_ms)
    if faults is not None:
        report_faults = faults.collector_faults()
        if report_faults is not None:
            base = collector_config or CollectorConfig()
            collector_config = dc_replace(base, faults=report_faults)
        if channel is None:
            channel = faults.build_channel()
    collector = ReportCollector(config=collector_config)
    collector.analyzer = analyzer
    enabled = (
        set(topology.switches()) if newton_switches is None
        else set(newton_switches)
    )
    switches = {
        sid: Switch(
            sid,
            num_stages=num_stages,
            layout_kind=LayoutKind.COMPACT,
            table_capacity=table_capacity,
            array_size=array_size,
            hash_family=family,
            report_sink=analyzer.on_report,
            newton_enabled=sid in enabled,
        )
        for sid in topology.switches()
    }
    if sanitize is None:
        sanitize = sanitize_enabled()
    sanitizer = Sanitizer() if sanitize else None
    if sanitizer is not None:
        for switch in switches.values():
            switch.pipeline.sanitizer = sanitizer
    router = Router(topology, ecmp=ecmp)
    channel = channel or ControlChannel()
    controller = NewtonController(
        switches, channel=channel, analyzer=analyzer,
        collector=collector,
        txn=TransactionManager(switches, channel, config=txn_config),
    )
    simulator = NetworkSimulator(
        topology,
        switches,
        router=router,
        controller=controller,
        analyzer=analyzer,
        window_ms=window_ms,
        collector=collector,
        clock=clock,
        engine=engine,
        sanitizer=sanitizer,
    )
    detector = recovery = None
    if faults is not None or resilience is not None:
        cfg = resilience or ResilienceConfig()
        # Subscribed after the simulator wires collector + analyzer so a
        # window is collected and graded before recovery reacts to it.
        detector = FailureDetector(
            switches, clock, config=cfg.detector,
            registry=collector.metrics,
        )
        recovery = RecoveryManager(
            controller, detector, clock,
            coverage=CoverageTracker(registry=collector.metrics),
            config=cfg.recovery, registry=collector.metrics,
        )
        clock.subscribe(detector.on_window_close)
        clock.subscribe(recovery.on_window_close)
        if faults is not None:
            faults.schedule(
                simulator, switches, on_corrupt=recovery.note_corruption
            )
    return Deployment(
        topology=topology,
        switches=switches,
        router=router,
        analyzer=analyzer,
        controller=controller,
        simulator=simulator,
        collector=collector,
        clock=clock,
        detector=detector,
        recovery=recovery,
        faults=faults,
        sanitizer=sanitizer,
    )
