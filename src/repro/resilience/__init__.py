"""Resilience plane: failure detection, recovery, degraded-mode accounting.

The paper's controller assumes switches stay up; this package makes the
reproduction survive the cases a Tofino deployment actually hits —
switch crashes and reboots, lossy control channels, dropped reports,
corrupted register banks.  Four pieces:

- :class:`FailureDetector` — per-switch heartbeats riding the shared
  window clock, with a phi-style suspicion state machine
  (ALIVE → SUSPECT → DOWN → RECOVERING).
- :class:`RecoveryManager` — re-installs lost slices through the 2PC
  transaction manager, re-places onto survivors when a switch stays
  down, and explicitly degrades (never silently drops) queries that
  cannot be recovered.
- :class:`CoverageTracker` — per-query coverage gauges and epoch-stamped
  gap records mergeable with collector results.
- :class:`FaultPlan` — one seeded declarative fault schedule replacing
  the three ad-hoc injection shims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.coverage import (
    RECOVERY_WINDOW_BUCKETS,
    CoverageTracker,
    GapRecord,
)
from repro.resilience.faults import (
    FaultEvent,
    FaultPlan,
    control_faults,
    corrupt_registers,
    crash,
    reboot,
    report_faults,
    standard_crash,
)
from repro.resilience.health import (
    DetectorConfig,
    FailureDetector,
    HealthTransition,
    SwitchHealth,
    SwitchState,
)
from repro.resilience.recovery import (
    RecoveryConfig,
    RecoveryManager,
    RecoveryRecord,
)

__all__ = [
    "CoverageTracker",
    "DetectorConfig",
    "FailureDetector",
    "FaultEvent",
    "FaultPlan",
    "GapRecord",
    "HealthTransition",
    "RECOVERY_WINDOW_BUCKETS",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryRecord",
    "ResilienceConfig",
    "SwitchHealth",
    "SwitchState",
    "control_faults",
    "corrupt_registers",
    "crash",
    "reboot",
    "report_faults",
    "standard_crash",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the whole resilience plane (detector + recovery)."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
