"""Module layouts (paper §4.2).

A *module layout* fixes, at P4-compile time, which module instances live in
which physical stages.  Two layouts are modelled:

* **naive** — one module per stage, cycling K, H, S, R.  This is the
  baseline of Table 3 and Figure 15: it wastes every resource the resident
  module does not use (e.g. at most 25% of the pipeline's registers can
  ever be reached).
* **compact** — one module of *each* type per stage.  The write-read
  dependencies that would forbid this (Figure 4) are eliminated by the two
  independent metadata sets plus the global result field, so a stage can
  host set-1's H next to set-2's K, and so on.

The layout also owns the per-stage resource audit: instantiating a layout
verifies each stage's modules fit :data:`~repro.dataplane.resources.STAGE_CAPACITY`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dataplane.module_types import MODULE_ORDER, ModuleType
from repro.dataplane.modules import (
    DEFAULT_REGISTER_ARRAY_SIZE,
    ModuleInstance,
    build_module,
)
from repro.dataplane.resources import (
    MODULE_COSTS,
    STAGE_CAPACITY,
    ResourceVector,
)
from repro.dataplane.tables import DEFAULT_TABLE_CAPACITY

__all__ = [
    "LayoutKind",
    "ModuleLayout",
]

class LayoutKind:
    NAIVE = "naive"
    COMPACT = "compact"


class ModuleLayout:
    """A concrete arrangement of module instances across stages."""

    def __init__(
        self,
        num_stages: int,
        kind: str = LayoutKind.COMPACT,
        table_capacity: int = DEFAULT_TABLE_CAPACITY,
        array_size: int = DEFAULT_REGISTER_ARRAY_SIZE,
    ):
        if num_stages <= 0:
            raise ValueError(f"layout needs at least one stage, got {num_stages}")
        if kind not in (LayoutKind.NAIVE, LayoutKind.COMPACT):
            raise ValueError(f"unknown layout kind: {kind}")
        self.num_stages = num_stages
        self.kind = kind
        self.table_capacity = table_capacity
        self.array_size = array_size
        self._stages: List[Dict[ModuleType, ModuleInstance]] = []
        self._build()
        self._audit_resources()

    def _build(self) -> None:
        next_id = 0
        for stage in range(self.num_stages):
            slots: Dict[ModuleType, ModuleInstance] = {}
            if self.kind == LayoutKind.COMPACT:
                types: Iterable[ModuleType] = MODULE_ORDER
            else:
                types = (MODULE_ORDER[stage % len(MODULE_ORDER)],)
            for mtype in types:
                slots[mtype] = build_module(
                    mtype,
                    instance_id=next_id,
                    stage=stage,
                    capacity=self.table_capacity,
                    array_size=self.array_size,
                )
                next_id += 1
            self._stages.append(slots)

    def _audit_resources(self) -> None:
        for stage, slots in enumerate(self._stages):
            usage = ResourceVector.total(MODULE_COSTS[t] for t in slots)
            if not usage.fits_within(STAGE_CAPACITY):
                raise ValueError(
                    f"stage {stage} modules exceed stage capacity: "
                    f"{usage.as_dict()} > {STAGE_CAPACITY.as_dict()}"
                )

    # ------------------------------------------------------------------ #

    def stage_slots(self, stage: int) -> Dict[ModuleType, ModuleInstance]:
        if stage < 0 or stage >= self.num_stages:
            raise IndexError(
                f"stage {stage} out of range for {self.num_stages}-stage layout"
            )
        return self._stages[stage]

    def module_at(self, stage: int, mtype: ModuleType) -> Optional[ModuleInstance]:
        """The module in one slot; ``None`` where the layout has none
        (past its last stage included)."""
        return self._slot_modules.get((stage, mtype))

    @cached_property
    def _slot_modules(self) -> Dict[Tuple[int, ModuleType], ModuleInstance]:
        """``(stage, module type)`` -> module: one lookup per rule where
        rules are placed, removed and compiled."""
        return {
            (stage, mtype): module
            for stage, slots in enumerate(self._stages)
            for mtype, module in slots.items()
        }

    def modules(self) -> List[ModuleInstance]:
        return [m for slots in self._stages for m in slots.values()]

    def state_banks(self) -> List[ModuleInstance]:
        return [bank for bank in self.bank_at if bank is not None]

    @cached_property
    def bank_at(self) -> Tuple[Optional[ModuleInstance], ...]:
        """Each stage's S module (``None`` where the layout has none),
        indexed by stage: the modules never change after the build, and
        the register readout looks banks up at every window close."""
        return tuple(slots.get(ModuleType.STATE_BANK) for slots in self._stages)

    def stage_usage(self, stage: int) -> ResourceVector:
        """Resource usage of one stage's resident modules."""
        return ResourceVector.total(
            MODULE_COSTS[t] for t in self.stage_slots(stage)
        )

    def total_usage(self) -> ResourceVector:
        return ResourceVector.total(
            self.stage_usage(stage) for stage in range(self.num_stages)
        )

    @property
    def modules_per_stage(self) -> int:
        return len(MODULE_ORDER) if self.kind == LayoutKind.COMPACT else 1

    def describe(self) -> str:
        rows = []
        for stage, slots in enumerate(self._stages):
            names = ", ".join(sorted(m.symbol for m in slots))
            rows.append(f"stage {stage}: [{names}]")
        return "\n".join(rows)
