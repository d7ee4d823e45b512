"""Failure detection riding the epoch-beacon / window-clock machinery.

Every window close doubles as a heartbeat round: the detector probes each
switch's liveness (``Switch.heartbeat`` — ``None`` while the data plane
is down, else the switch's boot id) and runs a per-switch state machine

    ALIVE -> SUSPECT -> DOWN -> RECOVERING -> ALIVE

with a configurable miss threshold and a phi-style suspicion level
(normalised so ``phi >= 1.0`` is the DOWN threshold).  A beat carrying a
*newer boot id* than the last acknowledged one short-circuits straight
to DOWN: the switch crashed and restarted with empty banks, even if no
window close happened to fall inside the outage itself.

The detector only observes and classifies; acting on DOWN switches is
the :class:`~repro.resilience.recovery.RecoveryManager`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional

from repro.collector.metrics import MetricsRegistry
from repro.runtime.clock import WindowClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.switch import Switch

__all__ = ["SwitchState", "SwitchHealth", "DetectorConfig", "FailureDetector",
           "HealthTransition"]


class SwitchState:
    """Health states of one switch (see module docstring)."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DOWN = "down"
    RECOVERING = "recovering"

    ALL = (ALIVE, SUSPECT, DOWN, RECOVERING)


@dataclass(frozen=True)
class DetectorConfig:
    """Heartbeat thresholds (in consecutive missed window closes)."""

    #: Misses before ALIVE degrades to SUSPECT.
    suspect_after: int = 1
    #: Misses before the switch is declared DOWN.
    down_after: int = 2

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be at least 1")
        if self.down_after < self.suspect_after:
            raise ValueError("down_after must be >= suspect_after")


@dataclass
class SwitchHealth:
    """Live health record of one switch."""

    switch_id: Hashable
    state: str = SwitchState.ALIVE
    #: Consecutive missed heartbeats.
    misses: int = 0
    #: Last acknowledged boot id (generation number).
    boot_id: int = 0
    #: True once a beat arrived with a newer boot id: the switch is
    #: reachable again but restarted empty — recovery can proceed.
    restarted: bool = False
    #: Epoch at which the DOWN transition fired (None while not down).
    down_since_epoch: Optional[int] = None
    #: Trace time of the DOWN transition.
    down_at_s: Optional[float] = None

    def phi(self, config: DetectorConfig) -> float:
        """Suspicion level; crosses 1.0 exactly at the DOWN threshold."""
        if self.state in (SwitchState.DOWN, SwitchState.RECOVERING):
            return 1.0
        return self.misses / float(config.down_after)


@dataclass(frozen=True)
class HealthTransition:
    """One state-machine edge, as announced to subscribers."""

    switch_id: Hashable
    old: str
    new: str
    epoch: int
    at_s: float


class FailureDetector:
    """Per-switch heartbeat monitor driven by the shared window clock."""

    def __init__(
        self,
        switches: Dict[Hashable, "Switch"],
        clock: WindowClock,
        config: Optional[DetectorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.switches = switches
        self.clock = clock
        self.config = config or DetectorConfig()
        self.registry = registry or MetricsRegistry()
        self._health: Dict[Hashable, SwitchHealth] = {
            sid: SwitchHealth(sid, boot_id=sw.boot_id)
            for sid, sw in switches.items()
        }
        self._listeners: List[Callable[[HealthTransition], None]] = []
        self.transitions: List[HealthTransition] = []
        m = self.registry
        self._c_misses = m.counter(
            "resilience_heartbeat_misses_total",
            "missed heartbeats (window closes with the switch down)",
        )
        self._c_transitions = m.counter(
            "resilience_health_transitions_total",
            "switch health state-machine edges, by target state",
        )
        self._g_phi = m.gauge(
            "resilience_suspicion_phi",
            "phi-style suspicion level per switch (1.0 = DOWN threshold)",
        )

    # ------------------------------------------------------------------ #

    def subscribe(self, listener: Callable[[HealthTransition], None]) -> None:
        """Register a callback fired on every state transition."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def health(self, switch_id: Hashable) -> SwitchHealth:
        return self._health[switch_id]

    def health_map(self) -> Dict[Hashable, SwitchHealth]:
        return dict(self._health)

    def state_of(self, switch_id: Hashable) -> str:
        return self._health[switch_id].state

    # ------------------------------------------------------------------ #

    def on_window_close(self, epoch: int) -> None:
        """Heartbeat round: probe every switch at the close boundary."""
        now = self.clock.close_time(epoch)
        for sid, switch in self.switches.items():
            beat = switch.heartbeat(now)
            self._observe(sid, beat, epoch, now)

    def _observe(self, sid: Hashable, beat: Optional[int], epoch: int,
                 now: float) -> None:
        health = self._health[sid]
        cfg = self.config
        if beat is None:
            health.misses += 1
            self._c_misses.inc(switch=sid)
            if health.state == SwitchState.RECOVERING:
                self._transition(health, SwitchState.DOWN, epoch, now)
            elif (health.state in (SwitchState.ALIVE, SwitchState.SUSPECT)
                    and health.misses >= cfg.down_after):
                health.down_since_epoch = epoch
                health.down_at_s = now
                self._transition(health, SwitchState.DOWN, epoch, now)
            elif (health.state == SwitchState.ALIVE
                    and health.misses >= cfg.suspect_after):
                self._transition(health, SwitchState.SUSPECT, epoch, now)
        elif beat != health.boot_id:
            # The switch restarted with empty banks: reachable, but its
            # queries are gone.  Classify DOWN immediately (skipping the
            # miss thresholds) and flag it recoverable.
            health.boot_id = beat
            health.restarted = True
            health.misses = 0
            if health.state != SwitchState.DOWN:
                if health.down_since_epoch is None or health.state in (
                    SwitchState.ALIVE, SwitchState.SUSPECT
                ):
                    health.down_since_epoch = epoch
                    health.down_at_s = now
                self._transition(health, SwitchState.DOWN, epoch, now)
        else:
            health.misses = 0
            if health.state in (SwitchState.SUSPECT, SwitchState.DOWN):
                # A planned outage (reboot) ended: committed state was
                # restored as part of the outage, nothing to re-stage.
                if health.state == SwitchState.DOWN:
                    health.down_since_epoch = None
                    health.down_at_s = None
                self._transition(health, SwitchState.ALIVE, epoch, now)
        self._g_phi.set(health.phi(cfg), switch=sid)

    # ------------------------------------------------------------------ #
    # Driven by the recovery manager                                      #
    # ------------------------------------------------------------------ #

    def mark_recovering(self, sid: Hashable, epoch: int) -> None:
        health = self._health[sid]
        now = self.clock.close_time(epoch)
        self._transition(health, SwitchState.RECOVERING, epoch, now)

    def mark_alive(self, sid: Hashable, epoch: int) -> None:
        health = self._health[sid]
        health.misses = 0
        health.restarted = False
        health.down_since_epoch = None
        health.down_at_s = None
        now = self.clock.close_time(epoch)
        self._transition(health, SwitchState.ALIVE, epoch, now)

    def mark_down(self, sid: Hashable, epoch: int) -> None:
        health = self._health[sid]
        now = self.clock.close_time(epoch)
        if health.down_since_epoch is None:
            health.down_since_epoch = epoch
            health.down_at_s = now
        self._transition(health, SwitchState.DOWN, epoch, now)

    def _transition(self, health: SwitchHealth, new: str, epoch: int,
                    now: float) -> None:
        if health.state == new:
            return
        event = HealthTransition(
            switch_id=health.switch_id, old=health.state, new=new,
            epoch=epoch, at_s=now,
        )
        health.state = new
        self.transitions.append(event)
        self._c_transitions.inc(to=new, switch=health.switch_id)
        for listener in self._listeners:
            listener(event)
