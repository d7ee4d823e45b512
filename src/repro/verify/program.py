"""The verifier's view of a rule program and its target pipeline.

The analyzer never talks to a switch: it works over compiled artifacts
(:class:`~repro.core.compiler.CompiledQuery`, the per-switch
:class:`~repro.core.rules.QuerySlice` partitions) plus a
:class:`PipelineModel` describing the pipeline the rules are bound for —
stage count, table capacity, register-array size, and any resources already
in use.  Models are cheap value objects: lint builds a default Tofino-shaped
one, a transaction snapshots each target switch once.

This module also owns the one answer to "do these rules fit beside what
is resident?": :func:`demand` tallies what a rule set costs,
:meth:`PipelineModel.of_switch` reads what a live switch has in use, and
:meth:`PipelineModel.fit` compares the two.  NV201/NV203, both NV601
forms and the admission planner are all phrased over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Tuple,
)

from repro.core.compiler import CompiledQuery
from repro.core.rules import (
    ModuleRuleSpec,
    NewtonInitEntry,
    QuerySlice,
    SConfig,
)
from repro.dataplane.module_types import ModuleType
from repro.dataplane.resources import TOFINO_STAGES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.switch import Switch

__all__ = ["Demand", "PipelineModel", "RuleView", "Violation", "demand",
           "demand_of_slices", "rules_of_compiled", "rules_of_slices"]

#: Mirrors :data:`repro.dataplane.tables.DEFAULT_TABLE_CAPACITY` without
#: pulling the table implementation into the analyzer.
_DEFAULT_TABLE_CAPACITY = 256
_DEFAULT_ARRAY_SIZE = 4096


@dataclass(frozen=True)
class RuleView:
    """One placed module rule as the resource pass sees it."""

    qid: str
    stage: int
    module_type: ModuleType
    spec: ModuleRuleSpec

    @staticmethod
    def of(spec: ModuleRuleSpec, stage_base: int = 0) -> "RuleView":
        return RuleView(
            qid=spec.qid,
            stage=spec.stage - stage_base,
            module_type=spec.module_type,
            spec=spec,
        )


#: One physical table: ``(local stage, module type)``.
Slot = Tuple[int, ModuleType]


@dataclass
class Demand:
    """What a rule set asks of one pipeline (see :func:`demand`)."""

    #: slot -> module rules to insert into that slot's table.
    rules: Dict[Slot, int] = field(default_factory=dict)
    #: stage -> registers to lease from the stage's state-bank array.
    registers: Dict[int, int] = field(default_factory=dict)
    #: ``newton_init`` dispatch rows.
    init_entries: int = 0
    #: Pipeline depth the rules address (highest stage + 1).
    stages: int = 0

    # The two orders the fit checks walk the tally in.  Like the tally
    # they belong to the rule set, not to a pipeline: derived once per
    # demand and reused for every switch it is judged against.

    @cached_property
    def slots(self) -> Tuple[Tuple[Slot, int], ...]:
        """``(slot, rules demanded)``, by stage then module symbol."""
        return tuple(sorted(
            self.rules.items(),
            key=lambda item: (item[0][0], item[0][1].symbol),
        ))

    @cached_property
    def stage_tally(self) -> Tuple[Tuple[int, Tuple[Tuple[Slot, int], ...]],
                                   ...]:
        """Per stage the demand touches, *every* module type's slot with
        the rules demanded there (0 where none): what NV201's per-stage
        instance arithmetic adds the resident rules to."""
        return tuple(
            (stage, tuple(
                ((stage, mtype), self.rules.get((stage, mtype), 0))
                for mtype in ModuleType
            ))
            for stage in sorted({stage for stage, _ in self.rules})
        )


def demand(rules: Iterable[RuleView], init_entries: int = 0) -> Demand:
    """Tally placed rules (and a dispatch-row count) into a :class:`Demand`.

    The only place that knows what a rule costs: one table row each, plus
    ``slice_size`` registers for a stateful (non-passthrough) S rule.
    """
    out = Demand(init_entries=init_entries)
    for view in rules:
        slot = (view.stage, view.module_type)
        out.rules[slot] = out.rules.get(slot, 0) + 1
        out.stages = max(out.stages, view.stage + 1)
        config = view.spec.config
        if (view.module_type is ModuleType.STATE_BANK
                and isinstance(config, SConfig)
                and not config.passthrough):
            out.registers[view.stage] = (
                out.registers.get(view.stage, 0) + config.slice_size
            )
    return out


@dataclass(frozen=True)
class Violation:
    """One capacity a :class:`Demand` exceeds on a :class:`PipelineModel`.

    ``kind`` is ``"stages"``, ``"registers"`` (``stage`` set), ``"rules"``
    (``stage`` and ``module_type`` set) or ``"init"``; ``need`` is what
    the demand asks for and ``free`` what the pipeline has left (for
    ``"stages"``: the pipeline depth).
    """

    kind: str
    need: int
    free: int
    stage: Optional[int] = None
    module_type: Optional[ModuleType] = None

    def __str__(self) -> str:
        if self.kind == "stages":
            return f"needs {self.need} stages, pipeline has {self.free}"
        if self.kind == "registers":
            return (f"registers at stage {self.stage} exhausted "
                    f"({self.free} left, needs {self.need})")
        if self.kind == "rules":
            assert self.module_type is not None
            return (f"{self.module_type.symbol} table at stage {self.stage} "
                    f"full ({self.free} rules left, needs {self.need})")
        return (f"newton_init full ({self.free} slots left, "
                f"needs {self.need})")


@dataclass
class PipelineModel:
    """Capacities and current occupancy of one target pipeline.

    ``rules_used``, ``registers_used`` and ``init_used`` describe what is
    already resident — zero for a lint run, the live occupancy for an
    install-time check — so every verdict accounts for every co-installed
    query.  :meth:`fit` is the one answer to "does this demand fit beside
    what is resident?"; admission, the controller gate and the staging
    gate all ask it.
    """

    num_stages: int = TOFINO_STAGES
    table_capacity: int = _DEFAULT_TABLE_CAPACITY
    array_size: int = _DEFAULT_ARRAY_SIZE
    #: slot -> module rules already installed.
    rules_used: Dict[Slot, int] = field(default_factory=dict)
    #: stage -> registers already leased from the stage's state bank.
    registers_used: Dict[int, int] = field(default_factory=dict)
    #: ``newton_init`` rows already in use.
    init_used: int = 0
    label: str = "pipeline"

    @staticmethod
    def of_switch(switch: "Switch") -> "PipelineModel":
        """Snapshot a simulated switch: every resident bank — active,
        staged and retired — counted.

        Rules per slot are the pipeline's live record
        (``NewtonPipeline.slot_rules``), register leases each state
        bank's own count, so a snapshot costs a copy, not a walk.
        """
        pipeline = switch.pipeline
        layout = pipeline.layout
        registers_used: Dict[int, int] = {}
        for stage, bank in enumerate(layout.bank_at):
            if bank is not None:
                used = bank.array.size - bank.array.free_registers()
                if used:
                    registers_used[stage] = used
        return PipelineModel(
            num_stages=layout.num_stages,
            table_capacity=layout.table_capacity,
            array_size=layout.array_size,
            rules_used=dict(pipeline.slot_rules),
            registers_used=registers_used,
            init_used=len(pipeline.newton_init),
            label=f"switch {pipeline.switch_id}",
        )

    def state(self) -> Hashable:
        """Everything a verdict against this model reads but its label:
        capacities and what is resident.  Models with equal states give
        any demand the same findings, up to the wording that names the
        pipeline — so a clean verdict holds for every switch in the
        state, and only a state with findings is judged per switch."""
        return (self.num_stages, self.table_capacity, self.array_size,
                frozenset(self.rules_used.items()),
                frozenset(self.registers_used.items()), self.init_used)

    def fit(self, need: Demand) -> List[Violation]:
        """Every capacity ``need`` exceeds beside what is resident.

        Empty means it fits: registers per stage array, rows per slot
        table, ``newton_init`` rows and pipeline depth, in that order.
        """
        out: List[Violation] = []
        for stage in sorted(need.registers):
            free = self.array_size - self.registers_used.get(stage, 0)
            if need.registers[stage] > free:
                out.append(Violation("registers", need.registers[stage],
                                     free, stage))
        for slot, count in need.slots:
            free = self.table_capacity - self.rules_used.get(slot, 0)
            if count > free:
                out.append(Violation("rules", count, free, *slot))
        free = self.table_capacity - self.init_used
        if need.init_entries > free:
            out.append(Violation("init", need.init_entries, free))
        if need.stages > self.num_stages:
            out.append(Violation("stages", need.stages, self.num_stages))
        return out

    def charge(self, need: Demand) -> None:
        """Count ``need`` as resident (the next demand stacks on it)."""
        for slot, count in need.rules.items():
            self.rules_used[slot] = self.rules_used.get(slot, 0) + count
        for stage, count in need.registers.items():
            self.registers_used[stage] = (
                self.registers_used.get(stage, 0) + count
            )
        self.init_used += need.init_entries


def rules_of_compiled(compiled: Iterable[CompiledQuery]) -> List[RuleView]:
    """Flatten compiled queries into placed-rule views at global stages."""
    return [
        RuleView.of(spec)
        for comp in compiled
        for spec in comp.specs
    ]


def rules_of_slices(slices: Iterable[QuerySlice]) -> List[RuleView]:
    """Flatten per-switch slices into rule views at *local* stages."""
    return [
        RuleView.of(spec, stage_base=query_slice.stage_base)
        for query_slice in slices
        for spec in query_slice.specs
    ]


def demand_of_slices(slices: Iterable[QuerySlice]) -> Demand:
    """What staging ``slices`` asks of any switch: their rules at local
    stages plus their dispatch rows."""
    slices = list(slices)
    return demand(rules_of_slices(slices),
                  sum(len(qs.init_entries) for qs in slices))


def init_entries_of(
    compiled: Iterable[CompiledQuery],
) -> List[NewtonInitEntry]:
    return [entry for comp in compiled for entry in comp.init_entries]
