"""Execution-engine interface.

An engine owns the packet-forwarding inner loop of a
:class:`~repro.network.simulator.NetworkSimulator` run: everything between
"here is a time-ordered packet source" and "here are the filled-in
:class:`SimulationStats`".  The simulator keeps ownership of scheduling
(:meth:`at` callbacks), window synchronisation, and the component wiring;
engines drive those hooks but never reimplement them, which is what keeps
the two engines' observable semantics identical.

The whole simulator contract an engine may use: ``sim.advance(ts)``
before executing the packet(s) at ``ts`` (fires due callbacks, rolls
windows, sets trace time), ``sim.next_scheduled_ts()`` and ``sim.epoch``
to find where a batch must be cut, ``sim.finish(stats)`` to end the run,
and the component attributes (``switches``, ``router``, ``topology``,
``collector``, ``analyzer``, ``controller``, ``sanitizer``, ``shard``,
``window_s``).  The collector, analyzer and controller are always there;
only ``sanitizer`` and ``shard`` may be ``None``.  Nothing
underscore-prefixed and no ``None`` test of a required component —
``tests/test_layering.py`` holds engines to both.

Reports take one path: switch → :func:`hand_off` → ``sim.collector``,
whose ``ingest`` decodes each report once and mirrors it to
``sim.analyzer`` (paper Figure 1: the switch mirrors its monitoring
messages to one software analyzer).  Engines hand reports off in
emission order — per packet, per hop, per program — and give them to
nothing else.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Type, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rules import Report
    from repro.network.simulator import NetworkSimulator, SimulationStats
    from repro.traffic.columnar import PacketSource

__all__ = ["ExecutionEngine", "ENGINES", "get_engine", "hand_off"]


class ExecutionEngine(ABC):
    """Strategy object that executes a packet source against a deployment."""

    #: Stable identifier used on CLIs and in benchmark output.
    name: str = "abstract"

    @abstractmethod
    def run(self, sim: "NetworkSimulator", packets: "PacketSource",
            stats: "SimulationStats") -> "SimulationStats":
        """Forward every packet of ``packets`` through ``sim``.

        Must ``sim.advance`` to every packet's timestamp before
        executing it, fill in ``stats`` and return ``sim.finish(stats)``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def hand_off(sim: "NetworkSimulator", sid: Hashable,
             reports: Iterable["Report"]) -> None:
    """Give the reports switch ``sid`` emitted to the collector, in
    order.  A pipeline's ``report_sink`` tap, when something set one,
    sees each report just before."""
    tap = sim.switches[sid].pipeline.report_sink
    collector = sim.collector
    for report in reports:
        if tap is not None:
            tap(report)
        collector.ingest(report)


#: Engine registry (name -> class), populated at import time below.
ENGINES: Dict[str, Type[ExecutionEngine]] = {}


def get_engine(spec: Union[str, ExecutionEngine]) -> ExecutionEngine:
    """Resolve an engine name (or pass through an instance).

    ``"scalar"`` gives the per-packet reference engine; ``"vector"``
    gives the columnar batched engine.
    """
    if isinstance(spec, ExecutionEngine):
        return spec
    if not ENGINES:
        _register()
    try:
        cls = ENGINES[spec]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(
            f"unknown execution engine {spec!r}; available: {known}"
        ) from None
    return cls()


def _register() -> None:
    # Imported lazily so base.py stays import-cycle free.
    from repro.engine.scalar import ScalarEngine
    from repro.engine.vector import VectorizedEngine

    ENGINES.setdefault(ScalarEngine.name, ScalarEngine)
    ENGINES.setdefault(VectorizedEngine.name, VectorizedEngine)
