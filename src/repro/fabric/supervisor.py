"""Fabric-plane supervision: crash detection, respawn, degrade policy.

Worker processes die — OOM kills, segfaulting native deps, operator
``kill -9`` — and before this module the facade would simply hang on
the next queue operation.  Supervision splits into two halves:

* **Detection** lives in the backends (:mod:`repro.fabric.sharded`):
  every RPC and chunk-feed call is bounded by a fixed timeout and
  raises a typed :class:`WorkerDiedError` carrying the shard index,
  instead of blocking forever on a pipe or queue whose peer is
  gone.  A dead process is detected within one poll interval (the
  liveness check runs every ``poll_interval_s``); a live-but-wedged
  worker is declared dead when the op exceeds its total timeout.

* **Policy** lives in :class:`WorkerSupervisor`: each shard gets a
  respawn budget (``max_respawns``).  While budget remains, the facade
  respawns the worker and replays the declarative control-op stream —
  workers are full replicas, so replay reconstructs bit-identical rule
  state, and re-feeding the retained window stream reconstructs the
  in-flight register state.  Once the budget is exhausted the shard is
  **degraded**: its queries are repartitioned onto survivors, its
  flow-hash primacy is adopted by an heir, and the measurement gap is
  recorded through the resilience plane's ``CoverageTracker``.

The supervisor also owns the fleet-facing telemetry:
``fabric_worker_restarts_total`` (per shard) and the per-shard
``fabric_worker_state`` gauge (1 running, 0 down, -1 degraded),
registered on the control replica's registry so ``/metrics`` and
``merged_metrics()`` export them alongside the shard metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.collector.metrics import MetricsRegistry

__all__ = ["SupervisorConfig", "WorkerDiedError", "WorkerSupervisor",
           "STATE_RUNNING", "STATE_DOWN", "STATE_DEGRADED"]

#: ``fabric_worker_state`` gauge values.
STATE_RUNNING = 1
STATE_DOWN = 0
STATE_DEGRADED = -1


class WorkerDiedError(RuntimeError):
    """A fabric worker process died or wedged mid-operation.

    Raised by the multiprocess backend instead of hanging; carries the
    shard index (so the supervisor knows *which* replica to respawn),
    the phase that detected the death, and the ``perf_counter`` stamp
    at detection — where a respawn event's latency starts.
    """

    def __init__(self, shard: int, message: str, phase: str = ""):
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard
        self.phase = phase
        self.detected_at = time.perf_counter()


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness polling and the respawn-vs-degrade policy."""

    #: Liveness-check cadence while waiting: a dead process is detected
    #: within one interval; a hung one only at the full timeout.
    poll_interval_s: float = 0.05
    #: Respawn attempts per shard before degrading onto survivors.
    max_respawns: int = 3

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


class WorkerSupervisor:
    """Respawn budgets, shard states, and recovery telemetry.

    The facade performs the actual respawn/replay (it owns the backends
    and the op log); the supervisor decides whether a failed shard may
    respawn, tracks per-shard state, and records every recovery event
    with ``perf_counter`` stamps, so detect and respawn latency can be
    read off :attr:`events` without instrumenting the facade.
    """

    def __init__(self, shards: int, config: Optional[SupervisorConfig],
                 registry: MetricsRegistry):
        self.config = config or SupervisorConfig()
        self.shards = shards
        self.respawns: Dict[int, int] = {i: 0 for i in range(shards)}
        self.states: Dict[int, int] = {
            i: STATE_RUNNING for i in range(shards)
        }
        #: Recovery log: one dict per respawn / degrade event.
        self.events: List[Dict[str, object]] = []
        self._c_restarts = registry.counter(
            "fabric_worker_restarts_total",
            "Fabric worker respawns after a detected death, per shard",
        )
        self._g_state = registry.gauge(
            "fabric_worker_state",
            "Per-shard worker state (1 running, 0 down, -1 degraded)",
        )
        for i in range(shards):
            self._g_state.set(STATE_RUNNING, shard=i)

    # ------------------------------------------------------------------ #
    # Policy                                                             #
    # ------------------------------------------------------------------ #

    def allow_respawn(self, shard: int) -> bool:
        """True while the shard's respawn budget remains (consumes one)."""
        if self.respawns[shard] >= self.config.max_respawns:
            return False
        self.respawns[shard] += 1
        return True

    # ------------------------------------------------------------------ #
    # State transitions                                                  #
    # ------------------------------------------------------------------ #

    def note_down(self, shard: int) -> None:
        self.states[shard] = STATE_DOWN
        self._g_state.set(STATE_DOWN, shard=shard)

    def note_respawn(self, shard: int, detected_at: float,
                     error: str = "") -> None:
        now = time.perf_counter()
        self.states[shard] = STATE_RUNNING
        self._g_state.set(STATE_RUNNING, shard=shard)
        self._c_restarts.inc(shard=shard)
        self.events.append({
            "kind": "respawn",
            "shard": shard,
            "error": error,
            "detected_at": detected_at,
            "respawned_at": now,
            "respawn_s": now - detected_at,
        })

    def note_degraded(self, shard: int, reason: str,
                      detected_at: float,
                      moved_qids: tuple = ()) -> None:
        now = time.perf_counter()
        self.states[shard] = STATE_DEGRADED
        self._g_state.set(STATE_DEGRADED, shard=shard)
        self.events.append({
            "kind": "degrade",
            "shard": shard,
            "error": reason,
            "detected_at": detected_at,
            "degraded_at": now,
            "moved_qids": tuple(moved_qids),
        })

    # ------------------------------------------------------------------ #
    # Read-outs                                                          #
    # ------------------------------------------------------------------ #

    def restarts_total(self) -> int:
        return sum(self.respawns.values())

    def degraded_shards(self) -> List[int]:
        return sorted(
            i for i, s in self.states.items() if s == STATE_DEGRADED
        )

    def status(self) -> Dict[str, object]:
        """JSON-safe shard status for ``/healthz``."""
        names = {STATE_RUNNING: "running", STATE_DOWN: "down",
                 STATE_DEGRADED: "degraded"}
        return {
            "shards": self.shards,
            "states": {
                str(i): names[s] for i, s in sorted(self.states.items())
            },
            "respawns": {
                str(i): n for i, n in sorted(self.respawns.items()) if n
            },
            "degraded": self.degraded_shards(),
        }
