"""One seeded, declarative fault schedule for the whole deployment.

Before this module, injecting faults meant wiring three ad-hoc shims by
hand: :class:`repro.collector.faults.FaultConfig` (report loss),
:class:`repro.ctrlplane.FaultyControlChannel` (control-message loss),
and manual ``Switch.reboot`` calls.  A :class:`FaultPlan` consolidates
them — plus the new crash and register-corruption faults — into one
declarative event list that ``build_deployment(..., faults=plan)`` (or
the CLI's ``--fault-plan plan.json``) compiles onto the right subsystem:

===========  ========================================================
kind          effect
===========  ========================================================
``crash``     ``Switch.crash`` at ``at``: rules + registers lost,
              down for ``down_for`` seconds (forever when omitted)
``reboot``    ``Switch.reboot`` at ``at``: planned outage, committed
              state restored, staged banks wiped
``corrupt``   seeded register-bank corruption at ``at``
``control``   per-message loss/timeout/reboot rates on the control
              channel (a :class:`FaultyControlChannel`)
``reports``   per-record loss/duplication/reorder/delay on the
              collector's ingest path
===========  ========================================================

Everything is deterministic per ``seed``; timed events fire through
``NetworkSimulator.at`` so both execution engines split batches at the
same instants and stay bit-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.collector.faults import FaultConfig
from repro.ctrlplane import FaultyControlChannel
from repro.ctrlplane import FaultPlan as ChannelFaultPlan

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
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("corruption fraction outside [0, 1]")


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

    # -- compilation onto the subsystems -------------------------------- #

    def collector_faults(self) -> Optional[FaultConfig]:
        """Merge ``reports`` events into one collector fault shim."""
        merged: Optional[FaultConfig] = None
        for event in self.events:
            if event.kind != "reports":
                continue
            merged = FaultConfig(
                loss=event.loss, duplication=event.duplication,
                reorder=event.reorder, delay=event.delay,
                delay_windows=event.delay_windows,
                seed=self.seed + 1,
            )
        return merged

    def channel_plan(self) -> Optional[ChannelFaultPlan]:
        for event in self.events:
            if event.kind != "control":
                continue
            return ChannelFaultPlan(
                loss_rate=event.loss_rate,
                timeout_rate=event.timeout_rate,
                reboot_rate=event.reboot_rate,
                seed=self.seed + 2,
            )
        return None

    def build_channel(self) -> Optional[FaultyControlChannel]:
        plan = self.channel_plan()
        if plan is None:
            return None
        return FaultyControlChannel(fault_plan=plan)

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
        return {
            "seed": self.seed,
            "events": [
                {k: v for k, v in asdict(event).items()
                 if v not in (None, 0, 0.0, 1) or k in ("kind", "at")}
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
