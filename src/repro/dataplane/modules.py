"""The four reconfigurable Newton modules (paper §4.1, Figure 2).

Each module instance is one P4 table (plus, for S, one register array)
pre-loaded into a pipeline stage.  Its behaviour for a given query step is
entirely determined by the :class:`~repro.core.rules.ModuleRuleSpec`
installed in its rule table — installing, removing, or swapping rules is
what makes Newton queries reconfigurable at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.fields import GLOBAL_FIELDS
from repro.core.rules import (
    HashMode,
    HConfig,
    KConfig,
    MatchSource,
    ModuleRuleSpec,
    RConfig,
    Report,
    SConfig,
)
from repro.dataplane.hashing import HashFamily
from repro.dataplane.module_types import ModuleType
from repro.dataplane.phv import PhvContext
from repro.dataplane.registers import RegisterArray
from repro.dataplane.tables import DEFAULT_TABLE_CAPACITY, ExactMatchTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.sanitizer import Sanitizer

__all__ = [
    "ExecutionEnv",
    "ModuleInstance",
    "KeySelectionModule",
    "HashCalculationModule",
    "StateBankModule",
    "ResultProcessModule",
    "build_module",
    "DEFAULT_REGISTER_ARRAY_SIZE",
]

#: Default registers per S-module array; the paper sweeps 256–4096 (§6.3).
DEFAULT_REGISTER_ARRAY_SIZE = 4096


@dataclass
class ExecutionEnv:
    """Per-packet ambient context threaded through module execution."""

    fields: Dict[str, int]
    ts: float
    epoch: int
    switch_id: object
    hash_family: HashFamily
    #: Monitoring messages emitted while executing this packet.
    reports: List[Report] = field(default_factory=list)
    #: Runtime invariant checker (observe-only; ``None`` when disabled).
    sanitizer: Optional["Sanitizer"] = None
    #: Per-packet hash-unit usage, lazily created by the sanitizer:
    #: (seed, range, packed key) -> query ids that hashed it.
    hash_seen: Optional[Dict[Tuple[int, int, bytes], Set[str]]] = None

    def emit(self, qid: str, ctx: PhvContext) -> None:
        report = Report(
            qid=qid,
            switch_id=self.switch_id,
            ts=self.ts,
            epoch=self.epoch,
            payload=ctx.report_payload(),
        )
        self.reports.append(report)


class ModuleInstance:
    """Base class: one reconfigurable module in one pipeline stage."""

    module_type: ModuleType = None  # type: ignore[assignment]

    def __init__(self, instance_id: int, stage: int,
                 capacity: int = DEFAULT_TABLE_CAPACITY):
        self.instance_id = instance_id
        self.stage = stage
        self.rules: ExactMatchTable[ModuleRuleSpec] = ExactMatchTable(
            name=f"{self.module_type.symbol}{instance_id}@stage{stage}",
            capacity=capacity,
        )

    # -- rule management (the runtime-reconfigurable surface) ----------- #

    def install(self, spec: ModuleRuleSpec,
                key: Optional[Tuple] = None) -> None:
        """Install a rule under ``key`` (default: the spec's own key).

        The transactional control plane tags keys with the rule-bank
        epoch so the old and new versions of a query can be resident
        simultaneously during a make-before-break update.
        """
        if spec.module_type is not self.module_type:
            raise ValueError(
                f"cannot install {spec.module_type.symbol} rule into "
                f"{self.module_type.symbol} module"
            )
        self.rules.insert(key if key is not None else spec.key, spec)

    def remove(self, key: Tuple) -> ModuleRuleSpec:
        return self.rules.remove(key)

    def lookup(self, key: Tuple) -> Optional[ModuleRuleSpec]:
        return self.rules.lookup(key)

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    # -- execution ------------------------------------------------------ #

    def execute(self, spec: ModuleRuleSpec, ctx: PhvContext,
                env: ExecutionEnv, key: Optional[Tuple] = None) -> None:
        """Run the rule; ``key`` names the storage slot it was installed
        under (epoch-tagged by the transactional control plane)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} id={self.instance_id} stage={self.stage} "
            f"rules={self.rule_count}>"
        )


class KeySelectionModule(ModuleInstance):
    """K: bit-mask header fields into the metadata set's operation keys."""

    module_type = ModuleType.KEY_SELECTION

    def execute(self, spec: ModuleRuleSpec, ctx: PhvContext,
                env: ExecutionEnv, key: Optional[Tuple] = None) -> None:
        config: KConfig = spec.config  # type: ignore[assignment]
        mset = ctx.set(spec.set_id)
        masks = config.mask_map()
        mset.oper_keys = GLOBAL_FIELDS.pack(env.fields, masks)
        mset.oper_fields = GLOBAL_FIELDS.selected_values(env.fields, masks)


class HashCalculationModule(ModuleInstance):
    """H: hash the operation keys (or forward a field in direct mode)."""

    module_type = ModuleType.HASH_CALCULATION

    def execute(self, spec: ModuleRuleSpec, ctx: PhvContext,
                env: ExecutionEnv, key: Optional[Tuple] = None) -> None:
        config: HConfig = spec.config  # type: ignore[assignment]
        mset = ctx.set(spec.set_id)
        if config.mode == HashMode.DIRECT:
            mset.hash_result = env.fields.get(config.direct_field or "", 0)
        else:
            unit = env.hash_family.unit(config.seed_index, config.range_size)
            mset.hash_result = unit(mset.oper_keys)
            if env.sanitizer is not None:
                env.sanitizer.note_hash(env, spec.qid, unit, mset.oper_keys)


class StateBankModule(ModuleInstance):
    """S: register array + stateful ALU indexed by the hash result."""

    module_type = ModuleType.STATE_BANK

    def __init__(self, instance_id: int, stage: int,
                 capacity: int = DEFAULT_TABLE_CAPACITY,
                 array_size: int = DEFAULT_REGISTER_ARRAY_SIZE):
        super().__init__(instance_id, stage, capacity)
        self.array = RegisterArray(array_size)

    def install(self, spec: ModuleRuleSpec,
                key: Optional[Tuple] = None,
                offset: Optional[int] = None) -> None:
        """Install the rule and lease its register slice: at ``offset``,
        where the placement plan put it, or first fit without one."""
        config: SConfig = spec.config  # type: ignore[assignment]
        storage_key = key if key is not None else spec.key
        super().install(spec, key=storage_key)
        if not config.passthrough:
            try:
                if offset is None:
                    self.array.allocate(storage_key, config.slice_size)
                else:
                    self.array.lease(storage_key, config.slice_size, offset)
            except Exception:
                # Keep rule table and register allocations consistent.
                self.rules.remove(storage_key)
                raise

    def remove(self, key: Tuple) -> ModuleRuleSpec:
        spec = super().remove(key)
        config: SConfig = spec.config  # type: ignore[assignment]
        if not config.passthrough and self.array.allocation(key) is not None:
            self.array.release(key)
        return spec

    def reset_window(self) -> None:
        """Zero every register (100 ms window rollover, paper §6)."""
        self.array.reset_all()

    def execute(self, spec: ModuleRuleSpec, ctx: PhvContext,
                env: ExecutionEnv, key: Optional[Tuple] = None) -> None:
        config: SConfig = spec.config  # type: ignore[assignment]
        mset = ctx.set(spec.set_id)
        if config.passthrough:
            mset.state_result = mset.hash_result
            return
        if mset.hash_result is None:
            raise RuntimeError(
                f"S module executed before H produced a hash result "
                f"(query {spec.qid} step {spec.step})"
            )
        if env.sanitizer is not None:
            alloc = self.array.allocation(key if key is not None
                                          else spec.key)
            if alloc is not None and not 0 <= mset.hash_result < alloc.size:
                env.sanitizer.record(
                    "register-oob",
                    (
                        f"S index {mset.hash_result} outside the "
                        f"{alloc.size}-register slice (step {spec.step}); "
                        f"the array wraps it by modulo"
                    ),
                    switch=env.switch_id, qid=spec.qid,
                )
        old, new = self.array.execute(
            key if key is not None else spec.key,
            mset.hash_result, config.op, config.operand(env.fields)
        )
        mset.state_result = old if config.output_old else new


class ResultProcessModule(ModuleInstance):
    """R: ternary match on a result, then report / fold / stop."""

    module_type = ModuleType.RESULT_PROCESS

    def execute(self, spec: ModuleRuleSpec, ctx: PhvContext,
                env: ExecutionEnv, key: Optional[Tuple] = None) -> None:
        from repro.dataplane.alu import apply_result

        config: RConfig = spec.config  # type: ignore[assignment]
        mset = ctx.set(spec.set_id)
        value = (
            mset.state_result
            if config.source == MatchSource.STATE
            else ctx.global_result
        )
        action = config.action_for(value)
        ctx.global_result = apply_result(
            action.result_op, ctx.global_result, mset.state_result
        )
        if action.report:
            env.emit(spec.qid, ctx)
        if action.stop:
            ctx.stopped = True


_MODULE_CLASSES = {
    ModuleType.KEY_SELECTION: KeySelectionModule,
    ModuleType.HASH_CALCULATION: HashCalculationModule,
    ModuleType.STATE_BANK: StateBankModule,
    ModuleType.RESULT_PROCESS: ResultProcessModule,
}


def build_module(module_type: ModuleType, instance_id: int, stage: int,
                 capacity: int = DEFAULT_TABLE_CAPACITY,
                 array_size: int = DEFAULT_REGISTER_ARRAY_SIZE) -> ModuleInstance:
    """Factory for module instances (S gets its register array sized)."""
    cls = _MODULE_CLASSES[module_type]
    if module_type is ModuleType.STATE_BANK:
        return cls(instance_id, stage, capacity, array_size)  # type: ignore[call-arg]
    return cls(instance_id, stage, capacity)
