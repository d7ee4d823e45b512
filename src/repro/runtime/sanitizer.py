"""Runtime invariant sanitizer: the fleet analyzer's assumptions, checked.

The static analyzer proves properties of a *model* of the deployment;
``--sanitize`` / ``NEWTON_SANITIZE=1`` compiles the same assumptions
into runtime checks enforced while packets execute, so the model is
continuously validated against the simulation:

* ``register-oob``     — an S module indexed its register slice outside
  ``[0, slice_size)`` (the array silently wraps by modulo; the analyzer
  assumes H ranges bound every index).
* ``mixed-epoch``      — one packet executed under different rule-bank
  epochs on different hops (the 2PC snapshot-consistency invariant).
* ``hash-collision``   — two *different* queries hashed the same packed
  key through the same physical :class:`~repro.dataplane.hashing.HashUnit`
  in one packet/batch — the runtime counterpart of NV304/NV402.
* ``coverage``         — the engine's packet accounting leaked:
  ``packets != delivered + dropped``.

The sanitizer is strictly observe-only: violations accumulate on the
:class:`Sanitizer` object, never on
:class:`~repro.network.simulator.SimulationStats`, and no check alters
control flow — a sanitized run is bit-identical to an unsanitized one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.hashing import HashUnit
    from repro.dataplane.modules import ExecutionEnv
    from repro.network.simulator import SimulationStats

__all__ = ["Sanitizer", "SanitizerViolation", "CHECKS"]

#: The invariant families the sanitizer enforces.
CHECKS = ("register-oob", "mixed-epoch", "hash-collision", "coverage")

#: Detailed violation records kept per run (counters are unbounded).
DETAIL_LIMIT = 64


@dataclass(frozen=True)
class SanitizerViolation:
    """One observed invariant violation."""

    check: str
    message: str
    switch: Optional[object] = None
    qid: Optional[str] = None
    count: int = 1

    def render(self) -> str:
        where: List[str] = []
        if self.switch is not None:
            where.append(f"switch={self.switch}")
        if self.qid is not None:
            where.append(str(self.qid))
        prefix = f"[{' '.join(where)}] " if where else ""
        times = f" (x{self.count})" if self.count != 1 else ""
        return f"SANITIZER {self.check} {prefix}{self.message}{times}"


class Sanitizer:
    """Accumulates runtime invariant violations; never raises, never
    mutates simulation state."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.violations: List[SanitizerViolation] = []

    # -- recording ------------------------------------------------------ #

    def record(self, check: str, message: str, *,
               switch: Optional[object] = None,
               qid: Optional[str] = None, count: int = 1) -> None:
        if check not in CHECKS:
            raise ValueError(f"unknown sanitizer check {check!r}")
        self.counts[check] += count
        if len(self.violations) < DETAIL_LIMIT:
            self.violations.append(SanitizerViolation(
                check=check, message=message, switch=switch, qid=qid,
                count=count,
            ))

    # -- per-check helpers ---------------------------------------------- #

    def note_hash(self, env: "ExecutionEnv", qid: str, unit: "HashUnit",
                  oper_keys: bytes) -> None:
        """Track one H execution; flag cross-query reuse of the unit.

        Two queries collide when, within one packet, they push the *same
        packed key bytes* through the *same physical unit* — their sketch
        cells are then identical, coupling their errors (NV304/NV402's
        runtime counterpart).  Same-query reuse (Count-Min rows, CQE
        re-execution) is by design and not a violation.
        """
        if env.hash_seen is None:
            env.hash_seen = {}
        group = (unit.seed, unit.range_size, oper_keys)
        owners = env.hash_seen.setdefault(group, set())
        if qid not in owners and owners:
            self.record(
                "hash-collision",
                (
                    f"queries {sorted(owners)} and {qid!r} hashed the "
                    f"same key through hash unit (seed={unit.seed:#x}, "
                    f"range={unit.range_size}) in one packet"
                ),
                switch=env.switch_id, qid=qid, count=len(owners),
            )
        owners.add(qid)

    def check_coverage(self, stats: "SimulationStats") -> None:
        """Packet accounting must balance: packets == delivered + dropped."""
        packets, delivered, dropped = (
            stats.packets, stats.delivered, stats.dropped)
        if packets != delivered + dropped:
            self.record(
                "coverage",
                (
                    f"coverage accounting leaked: {packets} packets != "
                    f"{delivered} delivered + {dropped} dropped"
                ),
                count=abs(packets - delivered - dropped) or 1,
            )

    # -- reporting ------------------------------------------------------ #

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def clean(self) -> bool:
        return self.total == 0

    def summary(self) -> Dict[str, int]:
        return {check: self.counts.get(check, 0) for check in CHECKS}

    def render(self) -> str:
        if self.clean:
            return "sanitizer: clean (0 violations)"
        lines = [v.render() for v in self.violations]
        hidden = self.total - sum(v.count for v in self.violations)
        if hidden > 0:
            lines.append(f"... {hidden} more violation(s) not detailed")
        per_check = ", ".join(
            f"{check}={count}" for check, count in sorted(
                self.counts.items()
            )
        )
        lines.append(f"sanitizer: {self.total} violation(s) ({per_check})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sanitizer total={self.total}>"
