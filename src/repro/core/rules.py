"""Module rules — the unit of Newton's runtime reconfigurability.

Sonata and Marple compile queries into *P4 programs*; Newton compiles them
into *table rules* for pre-loaded modules (paper §3).  This module defines
those rules:

* per-module configurations (:class:`KConfig`, :class:`HConfig`,
  :class:`SConfig`, :class:`RConfig`) installed into a module instance's
  exact-match table keyed by (query id, step),
* :class:`NewtonInitEntry`, the ternary dispatch rule of ``newton_init``,
* :class:`ModuleRuleSpec`, the compiler's placed-rule output consumed by
  the controller, and
* :class:`Report`, the mirrored message an R ``report`` action uploads to
  the software analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.fields import GLOBAL_FIELDS
from repro.dataplane.alu import ResultOp, StatefulOp
from repro.dataplane.module_types import ModuleType

__all__ = [
    "KConfig",
    "HConfig",
    "HashMode",
    "SConfig",
    "OperandSource",
    "RAction",
    "RMatchEntry",
    "RConfig",
    "MatchSource",
    "NewtonInitEntry",
    "ModuleRuleSpec",
    "Report",
    "ALL_STATE_RESULTS",
]

#: Upper bound for "match anything" R entries: register values are 32-bit.
ALL_STATE_RESULTS = (0, (1 << 32) - 1)


@dataclass(frozen=True)
class KConfig:
    """Key-selection rule: bit-masks concealing unneeded global fields.

    ``masks`` maps field name -> mask.  Unlisted (or zero-masked) fields are
    concealed.  Prefix masks implement "getting the IP prefix"; shifted
    masks implement "discretizing the delay" (paper §4.1).
    """

    masks: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        for name, mask in self.masks:
            fld = GLOBAL_FIELDS.get(name)
            if mask < 0 or mask > fld.max_value:
                raise ValueError(f"mask {mask:#x} out of range for field {name}")

    @staticmethod
    def select(*names: str, **masked: int) -> "KConfig":
        """Full-width selection of ``names`` plus explicit masks in ``masked``."""
        masks = [(n, GLOBAL_FIELDS.get(n).max_value) for n in names]
        masks.extend((n, m) for n, m in masked.items())
        return KConfig(masks=tuple(sorted(masks)))

    def mask_map(self) -> Dict[str, int]:
        return dict(self.masks)

    @property
    def selected_fields(self) -> Tuple[str, ...]:
        return tuple(name for name, mask in self.masks if mask)


class HashMode:
    """H-module operating modes (paper §4.1)."""

    HASH = "hash"      # seeded hash of the operation keys, reduced to range
    DIRECT = "direct"  # forward a field value as the hash result


@dataclass(frozen=True)
class HConfig:
    """Hash-calculation rule: algorithm selection + output range."""

    mode: str = HashMode.HASH
    #: Index into the switch's hash family ("the hash algorithms" knob).
    seed_index: int = 0
    #: Output range of the hash result; doubles as the register-slice size.
    range_size: int = 1 << 16
    #: Field forwarded in DIRECT mode.
    direct_field: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in (HashMode.HASH, HashMode.DIRECT):
            raise ValueError(f"unknown hash mode: {self.mode}")
        if self.mode == HashMode.DIRECT and not self.direct_field:
            raise ValueError("DIRECT mode requires direct_field")
        if self.range_size <= 0:
            raise ValueError("hash range must be positive")


class OperandSource:
    """Where the S module's ALU operand comes from."""

    CONST = "const"   # immediate from the rule (e.g. +1 for counting)
    FIELD = "field"   # a packet field (e.g. +len for byte counting)


@dataclass(frozen=True)
class SConfig:
    """State-bank rule: stateful ALU + operand + register slice.

    ``passthrough`` realises the stateless use of S shown in Figure 3's
    filter example: the hash result is transmitted to the state result
    without touching registers.
    """

    op: StatefulOp = StatefulOp.ADD
    operand_source: str = OperandSource.CONST
    operand_const: int = 1
    operand_field: Optional[str] = None
    #: Registers leased from the array for this rule (hash range must match).
    slice_size: int = 1 << 12
    passthrough: bool = False
    #: Output the pre-operation register value instead of the post value.
    #: ``OR`` with ``output_old`` is the test-and-set a Bloom filter needs
    #: to distinguish first-seen keys.
    output_old: bool = False

    def __post_init__(self) -> None:
        if self.operand_source not in (OperandSource.CONST, OperandSource.FIELD):
            raise ValueError(f"unknown operand source: {self.operand_source}")
        if self.operand_source == OperandSource.FIELD and not self.operand_field:
            raise ValueError("FIELD operand source requires operand_field")
        if self.operand_const < 0:
            # Registers are unsigned, and the batch ALU's grouped scans
            # (RegisterArray.execute_many) rely on it.
            raise ValueError("operand_const must be non-negative")
        if self.slice_size <= 0 and not self.passthrough:
            raise ValueError("slice_size must be positive for stateful rules")

    def operand(self, fields: Dict[str, int]) -> int:
        if self.operand_source == OperandSource.CONST:
            return self.operand_const
        return fields.get(self.operand_field or "", 0)


@dataclass(frozen=True)
class RAction:
    """Action bound to one R ternary entry.

    Order of effects when the entry matches: fold the state result into the
    global result via ``result_op``, then ``report`` (mirror the metadata
    snapshot), then ``stop`` the query for this packet if set.
    """

    result_op: ResultOp = ResultOp.NOP
    report: bool = False
    stop: bool = False


@dataclass(frozen=True)
class RMatchEntry:
    """Range entry of R's ternary match over a result value."""

    lo: int
    hi: int
    action: RAction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty match range [{self.lo}, {self.hi}]")

    def matches(self, value: int) -> bool:
        return self.lo <= value <= self.hi


class MatchSource:
    """Which result the R module matches on."""

    STATE = "state"    # this suite's state result (Figure 2)
    GLOBAL = "global"  # the cross-suite global result (§4.3 example, R1)


@dataclass(frozen=True)
class RConfig:
    """Result-process rule: ternary range match + per-entry actions."""

    source: str = MatchSource.STATE
    entries: Tuple[RMatchEntry, ...] = ()
    default: RAction = field(default_factory=RAction)

    def __post_init__(self) -> None:
        if self.source not in (MatchSource.STATE, MatchSource.GLOBAL):
            raise ValueError(f"unknown match source: {self.source}")

    def action_for(self, value: Optional[int]) -> RAction:
        """First matching entry's action, else the default."""
        if value is not None:
            for entry in self.entries:
                if entry.matches(value):
                    return entry.action
        return self.default


@dataclass(frozen=True)
class NewtonInitEntry:
    """Ternary dispatch entry of ``newton_init``.

    Matches the five-tuple plus TCP flags (paper §4.1) and tags the packet
    with a query program id.  Opt.1 folds a query's leading filter into
    this entry's match.
    """

    qid: str
    match: Tuple[Tuple[str, int, int], ...]  # (field, value, mask)
    priority: int = 0

    #: newton_init matches the five-tuple plus TCP flags, nothing else.
    ALLOWED_FIELDS = frozenset(
        {"sip", "dip", "proto", "sport", "dport", "tcp_flags"}
    )

    def __post_init__(self) -> None:
        for name, value, mask in self.match:
            if name not in self.ALLOWED_FIELDS:
                raise ValueError(
                    f"newton_init matches five-tuple + tcp_flags only, "
                    f"got {name!r}"
                )
            width_mask = GLOBAL_FIELDS.get(name).max_value
            if not 0 <= mask <= width_mask:
                raise ValueError(
                    f"mask {mask:#x} out of range for field {name!r} "
                    f"(width mask {width_mask:#x})"
                )
            if not 0 <= value <= width_mask:
                raise ValueError(
                    f"value {value:#x} out of range for field {name!r} "
                    f"(width mask {width_mask:#x})"
                )
            if value & ~mask:
                # A ternary entry only compares masked bits; value bits
                # outside the mask silently never participate and almost
                # always indicate a mis-built filter.
                raise ValueError(
                    f"value {value:#x} sets bits outside mask {mask:#x} "
                    f"for field {name!r}; the entry would never match the "
                    f"intended packets"
                )

    @staticmethod
    def build(qid: str, match: Dict[str, Tuple[int, int]],
              priority: int = 0) -> "NewtonInitEntry":
        packed = tuple(sorted((k, v, m) for k, (v, m) in match.items()))
        return NewtonInitEntry(qid=qid, match=packed, priority=priority)

    def match_map(self) -> Dict[str, Tuple[int, int]]:
        return {name: (value, mask) for name, value, mask in self.match}


#: Config payload of a module rule (one of the four config classes).
ModuleConfig = object


@dataclass(frozen=True)
class ModuleRuleSpec:
    """A placed module rule: which module instance runs which config.

    The compiler emits one spec per (query, step); the controller turns the
    spec into a rule-table insertion on the hosting switch.  ``stage`` and
    ``set_id`` come from Algorithm 1's composition; ``suite_index`` tracks
    which sketch row of a multi-suite primitive the rule belongs to.
    """

    qid: str
    step: int
    module_type: ModuleType
    set_id: int
    stage: int
    config: ModuleConfig
    suite_index: int = 0
    primitive_index: int = 0

    @property
    def key(self) -> Tuple[str, int]:
        """Key under which this rule is stored in the module's table."""
        return (self.qid, self.step)


@dataclass(frozen=True)
class QuerySlice:
    """A contiguous stage-range of a compiled query bound for one switch.

    Cross-switch query execution (paper §5.1) slices a compiled schedule
    into parts of at most ``num_stages`` stages; ``stage_base`` is the
    first global stage of this slice, so a hosting switch maps rule stage
    ``spec.stage - stage_base`` onto its local pipeline.
    """

    qid: str
    slice_index: int
    total_slices: int
    stage_base: int
    num_stages: int
    specs: Tuple[ModuleRuleSpec, ...]
    init_entries: Tuple[NewtonInitEntry, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            local = spec.stage - self.stage_base
            if local < 0 or local >= self.num_stages:
                raise ValueError(
                    f"rule at global stage {spec.stage} outside slice "
                    f"[{self.stage_base}, {self.stage_base + self.num_stages})"
                )
        if self.init_entries and self.slice_index != 0:
            raise ValueError("only slice 0 carries newton_init entries")

    @property
    def rule_count(self) -> int:
        """Table entries this slice installs (module rules + dispatch)."""
        return len(self.specs) + len(self.init_entries)

    @property
    def is_final(self) -> bool:
        return self.slice_index == self.total_slices - 1


@dataclass(frozen=True)
class Report:
    """One mirrored monitoring message (R ``report`` action)."""

    qid: str
    switch_id: object
    ts: float
    epoch: int
    payload: Dict[str, object]

    def keys_of_set(self, set_id: int) -> Dict[str, int]:
        return dict(self.payload.get(f"set{set_id}_fields", {}))

    @property
    def global_result(self):
        return self.payload.get("global_result")
