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
``window_s``).  Nothing underscore-prefixed — ``tests/test_layering.py``
holds engines to that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Type, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.simulator import NetworkSimulator, SimulationStats
    from repro.traffic.columnar import PacketSource

__all__ = ["ExecutionEngine", "ENGINES", "get_engine"]


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


#: Engine registry (name -> class), populated at import time below.
ENGINES: Dict[str, Type[ExecutionEngine]] = {}


def get_engine(spec: Union[str, ExecutionEngine, None]) -> ExecutionEngine:
    """Resolve an engine name (or pass through an instance).

    ``None`` and ``"scalar"`` give the per-packet reference engine;
    ``"vector"`` gives the columnar batched engine.
    """
    if spec is None:
        spec = "scalar"
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
