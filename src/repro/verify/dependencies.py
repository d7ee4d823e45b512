"""Stage-schedule soundness: container dependencies + compact layout.

Codes NV101–NV104.  This is the machine-checked Figure 4, deliberately
*independent* of the scheduler in :mod:`repro.core.compiler`: it re-derives
each placed rule's PHV container reads and writes from the rule itself
(module type, metadata set, configuration) and checks every ordered pair,
so a scheduler bug cannot hide behind its own bookkeeping.

Containers follow the paper's two-metadata-set design (§4.2): per set, K
writes the operation keys, H reads them (unless forwarding a field in
DIRECT mode) and writes the hash result, S reads the hash result and
writes the state result, R reads the state result plus the shared global
result and writes the global result.

For placed rules ``i`` before ``j`` in logical (step) order:

* **NV101** — true dependency (``j`` reads what ``i`` writes): ``i`` must
  sit in a strictly earlier stage.
* **NV102** — anti dependency (``i`` reads what ``j`` overwrites): ``i``
  must not sit in a later stage than ``j``.
* **NV103** — output dependency (both write the same container): ``i``
  must sit in a strictly earlier stage, or the later write is lost.
* **NV104** — compact-layout violation: a stage offers exactly one module
  slot per type, so one query may install at most one rule per
  (stage, module type).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.compiler import CompiledQuery
from repro.core.rules import HashMode, HConfig, ModuleRuleSpec
from repro.dataplane.module_types import ModuleType
from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = ["check_dependencies", "containers_of"]

_KEYS, _HASH, _STATE, _GLOBAL = "keys", "hash", "state", "global"

Container = Tuple


def containers_of(spec: ModuleRuleSpec) -> Tuple[FrozenSet, FrozenSet]:
    """(reads, writes) of one placed rule, in PHV containers."""
    sid = spec.set_id
    mtype = spec.module_type
    if mtype is ModuleType.KEY_SELECTION:
        return frozenset(), frozenset({(_KEYS, sid)})
    if mtype is ModuleType.HASH_CALCULATION:
        config = spec.config
        direct = (
            isinstance(config, HConfig) and config.mode == HashMode.DIRECT
        )
        reads = frozenset() if direct else frozenset({(_KEYS, sid)})
        return reads, frozenset({(_HASH, sid)})
    if mtype is ModuleType.STATE_BANK:
        return frozenset({(_HASH, sid)}), frozenset({(_STATE, sid)})
    if mtype is ModuleType.RESULT_PROCESS:
        return (
            frozenset({(_STATE, sid), (_GLOBAL,)}),
            frozenset({(_GLOBAL,)}),
        )
    raise ValueError(f"unknown module type {mtype!r}")


def check_dependencies(compiled: CompiledQuery) -> List[Diagnostic]:
    """NV101–NV104 over one compiled query's placed rules."""
    out: List[Diagnostic] = []
    specs = sorted(compiled.specs, key=lambda s: s.step)
    deps = [containers_of(spec) for spec in specs]

    # NV104: one rule per (stage, module type).
    slots: Dict[Tuple[int, ModuleType], ModuleRuleSpec] = {}
    for spec in specs:
        key = (spec.stage, spec.module_type)
        first = slots.get(key)
        if first is not None:
            out.append(Diagnostic(
                severity=Severity.ERROR,
                code="NV104",
                message=(
                    f"steps {first.step} and {spec.step} both need the "
                    f"{spec.module_type.symbol} slot of stage {spec.stage}; "
                    f"the compact layout offers one module per type per "
                    f"stage"
                ),
                location=Location(
                    qid=spec.qid, step=spec.step, stage=spec.stage
                ),
            ))
        else:
            slots[key] = spec

    for j, later in enumerate(specs):
        reads_j, writes_j = deps[j]
        for i in range(j):
            earlier = specs[i]
            reads_i, writes_i = deps[i]
            if writes_i & reads_j and not earlier.stage < later.stage:
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="NV101",
                    message=(
                        f"true dependency violated: step {later.step} "
                        f"({later.module_type.symbol}, stage {later.stage}) "
                        f"reads {_names(writes_i & reads_j)} written by "
                        f"step {earlier.step} "
                        f"({earlier.module_type.symbol}, stage "
                        f"{earlier.stage}); the reader must be in a "
                        f"strictly later stage"
                    ),
                    location=_at(later),
                ))
            if reads_i & writes_j and not earlier.stage <= later.stage:
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="NV102",
                    message=(
                        f"anti dependency violated: step {earlier.step} "
                        f"({earlier.module_type.symbol}, stage "
                        f"{earlier.stage}) reads "
                        f"{_names(reads_i & writes_j)} that step "
                        f"{later.step} ({later.module_type.symbol}, stage "
                        f"{later.stage}) overwrites in an earlier stage"
                    ),
                    location=_at(later),
                ))
            if writes_i & writes_j and not earlier.stage < later.stage:
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="NV103",
                    message=(
                        f"output dependency violated: steps {earlier.step} "
                        f"and {later.step} both write "
                        f"{_names(writes_i & writes_j)} but stage order "
                        f"({earlier.stage} vs {later.stage}) does not "
                        f"preserve logical order"
                    ),
                    location=_at(later),
                ))
    return out


def _at(spec: ModuleRuleSpec) -> Location:
    return Location(qid=spec.qid, step=spec.step, stage=spec.stage)


def _names(containers: FrozenSet) -> str:
    parts = []
    for container in sorted(containers, key=str):
        if len(container) == 1:
            parts.append(container[0])
        else:
            parts.append(f"{container[0]}[set{container[1]}]")
    return ", ".join(parts)
