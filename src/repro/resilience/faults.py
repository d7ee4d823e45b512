"""One seeded, declarative fault schedule for the whole deployment.

A :class:`FaultPlan` is the only way to describe faults: switch crashes,
planned reboots and register corruption at given trace times, plus the
per-message control-channel and per-record report-path rates.
``build_deployment(..., faults=plan)`` (or the CLI's ``--fault-plan
plan.json``) puts each event on the subsystem it hits:

===========  ========================================================
kind          effect
===========  ========================================================
``crash``     ``Switch.crash`` at ``at``: rules + registers lost,
              down for ``down_for`` seconds (forever when omitted)
``reboot``    ``Switch.reboot`` at ``at``: planned outage, committed
              state restored, staged banks wiped
``corrupt``   seeded register-bank corruption at ``at``
``control``   per-message loss/timeout/reboot rates on the control
              channel (a :class:`~repro.ctrlplane.FaultyControlChannel`)
``reports``   per-record loss/duplication/reorder/delay on the
              collector's ingest path (a
              :class:`~repro.collector.faults.FaultInjector`)
===========  ========================================================

A plan holds at most one ``control`` and one ``reports`` event: their
rates hold for the whole run.  Both shims are seeded with the plan's
``seed``; they draw from different generators, so one seed serves both.
Everything is deterministic per ``seed``; timed events fire through
``NetworkSimulator.at`` so both execution engines split batches at the
same instants and stay bit-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, Hashable, Optional, Tuple

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "crash",
    "reboot",
    "corrupt_registers",
    "control_faults",
    "report_faults",
    "standard_crash",
]

_KINDS = ("crash", "reboot", "corrupt", "control", "reports")
_SWITCH_KINDS = ("crash", "reboot", "corrupt")
#: Kinds whose one event sets rates for the whole run.
_RATE_KINDS = ("control", "reports")
_RATES = ("fraction", "loss_rate", "timeout_rate", "reboot_rate", "loss",
          "duplication", "reorder", "delay")


@dataclass(frozen=True)
class FaultEvent:
    """One declared fault (see module table); build via the helpers."""

    kind: str
    switch: Optional[Hashable] = None
    at: float = 0.0
    #: crash: outage length (None = never comes back on its own).
    down_for: Optional[float] = None
    #: reboot: table entries restored (drives the outage length).
    entries: int = 0
    #: corrupt: fraction of each allocation's cells overwritten.
    fraction: float = 0.5
    #: control rates (per message).
    loss_rate: float = 0.0
    timeout_rate: float = 0.0
    reboot_rate: float = 0.0
    #: report rates (per record).
    loss: float = 0.0
    duplication: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_windows: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind in _SWITCH_KINDS and self.switch is None:
            raise ValueError(f"{self.kind} fault needs a switch")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        # One draw per control message partitions the unit interval.
        total = self.loss_rate + self.timeout_rate + self.reboot_rate
        if total > 1.0:
            raise ValueError(
                f"control fault rates must sum to at most 1, got {total}"
            )
        if self.delay_windows < 1:
            raise ValueError("delay_windows must be >= 1")


def crash(switch: Hashable, at: float,
          down_for: Optional[float] = None) -> FaultEvent:
    """Unplanned failure: rules and registers lost at ``at``."""
    return FaultEvent(kind="crash", switch=switch, at=at, down_for=down_for)


def reboot(switch: Hashable, at: float, entries: int = 0) -> FaultEvent:
    """Planned reconfiguration outage (Sonata-style) at ``at``."""
    return FaultEvent(kind="reboot", switch=switch, at=at, entries=entries)


def corrupt_registers(switch: Hashable, at: float,
                      fraction: float = 0.5) -> FaultEvent:
    """Seeded register-bank corruption at ``at``."""
    return FaultEvent(kind="corrupt", switch=switch, at=at,
                      fraction=fraction)


def control_faults(loss: float = 0.0, timeout: float = 0.0,
                   reboot_rate: float = 0.0) -> FaultEvent:
    """Per-message control-channel fault rates for the whole run."""
    return FaultEvent(kind="control", loss_rate=loss, timeout_rate=timeout,
                      reboot_rate=reboot_rate)


def report_faults(loss: float = 0.0, duplication: float = 0.0,
                  reorder: float = 0.0, delay: float = 0.0,
                  delay_windows: int = 1) -> FaultEvent:
    """Per-record report-path fault rates for the whole run."""
    return FaultEvent(kind="reports", loss=loss, duplication=duplication,
                      reorder=reorder, delay=delay,
                      delay_windows=delay_windows)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of faults for one deployment."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for kind in _RATE_KINDS:
            if sum(event.kind == kind for event in self.events) > 1:
                raise ValueError(f"a fault plan holds at most one {kind} "
                                 f"event")

    def event(self, kind: str) -> Optional[FaultEvent]:
        """The plan's one ``control`` or ``reports`` event, if any."""
        return next((e for e in self.events if e.kind == kind), None)

    @property
    def hits_switches(self) -> bool:
        """Whether any event crashes, reboots or corrupts a switch."""
        return any(event.kind in _SWITCH_KINDS for event in self.events)

    def schedule(
        self,
        simulator,
        switches: Dict[Hashable, object],
        on_corrupt: Optional[Callable[[Hashable, float], None]] = None,
    ) -> int:
        """Arm every timed event on the simulator; returns events armed.

        ``on_corrupt`` is called (switch id, trace time) right after a
        corruption fires so degraded-mode accounting can stamp the
        affected window.
        """
        armed = 0
        for index, event in enumerate(self.events):
            if event.kind not in _SWITCH_KINDS:
                continue
            switch = switches.get(event.switch)
            if switch is None:
                raise KeyError(f"fault names unknown switch {event.switch!r}")
            if event.kind == "crash":
                simulator.at(event.at, lambda s=switch, e=event:
                             s.crash(e.at, down_for=e.down_for))
            elif event.kind == "reboot":
                simulator.at(event.at, lambda s=switch, e=event:
                             s.reboot(e.at, e.entries))
            else:  # corrupt
                rng = random.Random(self.seed * 1_000_003 + index)
                def _corrupt(s=switch, e=event, r=rng):
                    s.corrupt_registers(e.fraction, r)
                    if on_corrupt is not None:
                        on_corrupt(e.switch, e.at)
                simulator.at(event.at, _corrupt)
            armed += 1
        return armed

    # -- (de)serialisation for the CLI ---------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        """Per event: every field off its dataclass default, plus
        ``kind``, ``at`` and ``fraction``, which written plans have
        always carried."""
        return {
            "seed": self.seed,
            "events": [
                {f.name: getattr(event, f.name) for f in fields(event)
                 if f.name in ("kind", "at", "fraction")
                 or getattr(event, f.name) != f.default}
                for event in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        events = []
        for raw in data.get("events", []):  # type: ignore[union-attr]
            if "kind" not in raw:
                raise ValueError(f"fault event missing 'kind': {raw!r}")
            try:
                events.append(FaultEvent(**raw))
            except TypeError as exc:  # a field FaultEvent does not have
                raise ValueError(f"bad fault event {raw!r}: {exc}") from exc
        return cls(events=tuple(events), seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def standard_crash(seed: int, at: float = 0.2,
                   down_for: Optional[float] = 0.15) -> FaultPlan:
    """The standard crash scenario: the ingress switch ``s0`` fails
    ``at`` seconds into the trace and restarts empty ``down_for`` later
    (``None``: stays down)."""
    return FaultPlan(events=(crash("s0", at, down_for=down_for),), seed=seed)
