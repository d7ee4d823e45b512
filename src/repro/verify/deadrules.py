"""Dead-rule elimination hints (codes NV501–NV502).

An R module's ternary range entries match a *result value* whose feasible
range is often far smaller than the 32-bit register width: a passthrough S
forwards a hash bounded by the H rule's ``range_size``, a Bloom-filter OR
over constant ``c`` can only yield 0 or ``c``, a MAX over constant ``c``
never drops below ``c``.  This pass derives a conservative feasible
interval for each result value by abstract interpretation over the placed
rules and flags entries that cannot match any feasible value — rules that
waste TCAM entries and usually indicate a threshold computed against the
wrong operand:

* **NV501** — a STATE-source R entry disjoint from the feasible interval
  of the state result produced by its metadata set's S rule.
* **NV502** — a GLOBAL-source R entry disjoint from the feasible interval
  of the global result folded by the preceding R rules.

Both are warnings: the interval model is sound but deliberately coarse
(every interval is a superset of the reachable values), so a flagged entry
is *certainly* unreachable under the model's single-query view, yet the
fix is a query rewrite rather than a rejected install.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.compiler import CompiledQuery
from repro.core.fields import GLOBAL_FIELDS
from repro.core.rules import (
    HashMode,
    HConfig,
    MatchSource,
    ModuleRuleSpec,
    OperandSource,
    RConfig,
    SConfig,
)
from repro.dataplane.alu import REGISTER_MAX, ResultOp, StatefulOp
from repro.dataplane.module_types import ModuleType
from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = ["check_dead_rules"]

Interval = Tuple[int, int]

_FULL: Interval = (0, REGISTER_MAX)


def _hash_interval(spec_index: int, specs: Sequence[ModuleRuleSpec],
                   set_id: int) -> Interval:
    """Feasible hash-result interval feeding the S rule at ``spec_index``."""
    for prior in reversed(specs[:spec_index]):
        if (prior.module_type is ModuleType.HASH_CALCULATION
                and prior.set_id == set_id
                and isinstance(prior.config, HConfig)):
            config = prior.config
            if config.mode == HashMode.DIRECT and config.direct_field:
                return (0, GLOBAL_FIELDS.get(config.direct_field).max_value)
            return (0, config.range_size - 1)
    return _FULL


def _state_interval(spec_index: int,
                    specs: Sequence[ModuleRuleSpec]) -> Interval:
    """Feasible state-result interval after the S rule at ``spec_index``."""
    spec = specs[spec_index]
    config = spec.config
    if not isinstance(config, SConfig):
        return _FULL
    if config.passthrough:
        return _hash_interval(spec_index, specs, spec.set_id)
    if config.operand_source == OperandSource.FIELD:
        return _FULL  # packet-dependent operand: no useful bound
    c = config.operand_const
    if config.op is StatefulOp.ADD:
        return _FULL if config.output_old else (min(c, REGISTER_MAX), REGISTER_MAX)
    if config.op is StatefulOp.OR:
        # The slice is only ever OR'd with ``c``: registers hold 0 or c.
        return (0, c) if config.output_old else (c, c)
    if config.op is StatefulOp.MAX:
        return _FULL if config.output_old else (min(c, REGISTER_MAX), REGISTER_MAX)
    return _FULL  # READ: whatever the slice holds


def _fold(global_iv: Optional[Interval], state_iv: Interval,
          ops: List[ResultOp]) -> Optional[Interval]:
    """Hull of the global interval after one R rule whose firing entry is
    statically unknown: any of ``ops`` may apply."""
    candidates: List[Optional[Interval]] = []
    for op in ops:
        if op is ResultOp.NOP:
            candidates.append(global_iv)
        elif op is ResultOp.PASS or global_iv is None:
            # apply_result loads the state result when global is unset.
            candidates.append(state_iv)
        elif op is ResultOp.ADD:
            candidates.append((
                min(global_iv[0] + state_iv[0], REGISTER_MAX),
                min(global_iv[1] + state_iv[1], REGISTER_MAX),
            ))
        elif op is ResultOp.SUB:
            candidates.append((
                max(global_iv[0] - state_iv[1], 0),
                max(global_iv[1] - state_iv[0], 0),
            ))
        elif op is ResultOp.MIN:
            candidates.append((
                min(global_iv[0], state_iv[0]),
                min(global_iv[1], state_iv[1]),
            ))
        elif op is ResultOp.MAX:
            candidates.append((
                max(global_iv[0], state_iv[0]),
                max(global_iv[1], state_iv[1]),
            ))
    known = [c for c in candidates if c is not None]
    if not known:
        return None
    return (min(lo for lo, _ in known), max(hi for _, hi in known))


def check_dead_rules(compiled: CompiledQuery) -> List[Diagnostic]:
    """NV501/NV502 over one compiled query's R entries."""
    out: List[Diagnostic] = []
    specs = sorted(compiled.specs, key=lambda s: s.step)

    # Latest feasible state interval per metadata set, walked in step order.
    state_iv: dict = {}
    global_iv: Optional[Interval] = None  # None until some R folds a value

    for index, spec in enumerate(specs):
        if spec.module_type is ModuleType.STATE_BANK:
            state_iv[spec.set_id] = _state_interval(index, specs)
            continue
        if spec.module_type is not ModuleType.RESULT_PROCESS:
            continue
        config = spec.config
        if not isinstance(config, RConfig):
            continue
        set_iv: Interval = state_iv.get(spec.set_id, _FULL)
        if config.source == MatchSource.STATE:
            feasible: Optional[Interval] = set_iv
            code, what = "NV501", "state result"
        else:
            feasible = global_iv
            code, what = "NV502", "global result"
        if feasible is not None:
            for entry_index, entry in enumerate(config.entries):
                if entry.hi < feasible[0] or entry.lo > feasible[1]:
                    out.append(Diagnostic(
                        severity=Severity.WARNING,
                        code=code,
                        message=(
                            f"R entry [{entry.lo}, {entry.hi}] (index "
                            f"{entry_index}) can never match: the {what} "
                            f"is confined to [{feasible[0]}, "
                            f"{feasible[1]}] by the preceding rules"
                        ),
                        location=Location(
                            qid=spec.qid, step=spec.step, stage=spec.stage
                        ),
                    ))
        ops = [entry.action.result_op for entry in config.entries]
        ops.append(config.default.result_op)
        global_iv = _fold(global_iv, set_iv, ops)
    return out
