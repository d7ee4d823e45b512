"""Resource admission: can this rule set actually fit the pipeline?

Codes NV201–NV203.  Newton's modules are pre-loaded, so installing a rule
never synthesises hardware — but the *rule set* still has a hardware
budget.  Each (stage, module type) slot is one physical module instance
costing :data:`~repro.dataplane.resources.MODULE_COSTS` out of
:data:`~repro.dataplane.resources.STAGE_CAPACITY`; its table multiplexes
up to ``table_capacity`` rules.  When the rules demanded at one slot
exceed that, the stage would need another instance of the module — and the
pass charges it, which is where the seven per-category budgets (Table 3's
columns) start to overflow:

* **NV201** — per-stage resource over-subscription, reported with a
  per-category breakdown (only the categories that overflow).
* **NV202** — the rule set needs more stages than the pipeline offers;
  installable only by slicing across switches (CQE, §5.1), so a warning.
* **NV203** — per-stage register over-subscription: stateful S rules
  lease more registers than the stage's state-bank array holds.

The tally of what the rules cost and the register inequality are the
shared :func:`~repro.verify.program.demand` and
:meth:`~repro.verify.program.PipelineModel.fit`; what is particular to
this pass is NV201's instance/category arithmetic and the wording.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.core.compiler import CompiledQuery
from repro.dataplane.resources import (
    MODULE_COSTS,
    RESOURCE_CATEGORIES,
    STAGE_CAPACITY,
)
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.program import Demand, PipelineModel, RuleView, demand

__all__ = ["check_demand", "check_resources", "check_stage_budget"]

#: ``MODULE_COSTS`` / ``STAGE_CAPACITY`` as rows in category order.
_COSTS = {
    mtype: tuple(getattr(cost, category) for category in RESOURCE_CATEGORIES)
    for mtype, cost in MODULE_COSTS.items()
}
_CAPACITY = tuple(
    getattr(STAGE_CAPACITY, category) for category in RESOURCE_CATEGORIES
)


def check_stage_budget(
    compiled: Sequence[CompiledQuery], model: PipelineModel
) -> List[Diagnostic]:
    """NV202: queries whose schedule exceeds the pipeline's stage count."""
    out: List[Diagnostic] = []
    for comp in compiled:
        if comp.num_stages > model.num_stages:
            slices = math.ceil(comp.num_stages / model.num_stages)
            out.append(Diagnostic(
                severity=Severity.WARNING,
                code="NV202",
                message=(
                    f"query needs {comp.num_stages} stages but the "
                    f"pipeline has {model.num_stages}; deployment requires "
                    f"cross-switch execution over >= {slices} switches "
                    f"(or analyzer offload for the remainder)"
                ),
                location=Location(qid=comp.qid),
            ))
    return out


def check_resources(
    rules: Iterable[RuleView],
    model: PipelineModel,
    switch: object = None,
) -> List[Diagnostic]:
    """NV201 + NV203 for a rule set bound to one pipeline.

    ``rules`` carry *local* stages for the target pipeline; the model's
    ``rules_used``/``registers_used`` describe what is already resident so
    candidate and installed queries are admitted jointly.
    """
    return check_demand(demand(rules), model, switch=switch)


def check_demand(
    need: Demand,
    model: PipelineModel,
    switch: object = None,
) -> List[Diagnostic]:
    """:func:`check_resources` of an already tallied rule set.

    The tally is a property of the rules, not of the pipeline: a slice
    staged on eight switches is demanded once and judged eight times.
    """
    out: List[Diagnostic] = []

    # NV201: instances demanded per slot -> per-category stage usage,
    # over the stages the demand touches (a stage it leaves alone holds
    # at most one instance per module type, which always fits).
    for stage, tally in need.stage_tally:
        usage = [0.0] * len(RESOURCE_CATEGORIES)
        demanded: List[str] = []
        for slot, count in tally:
            count += model.rules_used.get(slot, 0)
            if not count:
                continue
            mtype = slot[1]
            instances = math.ceil(count / model.table_capacity)
            for index, cost in enumerate(_COSTS[mtype]):
                usage[index] += instances * cost
            if instances > 1:
                demanded.append(
                    f"{count} {mtype.symbol} rules need {instances} "
                    f"instances ({model.table_capacity} rules each)"
                )
        over = {
            category: (used, cap)
            for category, used, cap in zip(RESOURCE_CATEGORIES, usage,
                                           _CAPACITY)
            if used > cap
        }
        if over:
            breakdown = ", ".join(
                f"{category} {used:g}/{cap:g}"
                for category, (used, cap) in sorted(over.items())
            )
            detail = f" ({'; '.join(demanded)})" if demanded else ""
            out.append(Diagnostic(
                severity=Severity.ERROR,
                code="NV201",
                message=(
                    f"stage {stage} over-subscribed on {model.label}: "
                    f"{breakdown}{detail}"
                ),
                location=Location(stage=stage, switch=switch),
            ))

    # NV203: register leases per stage vs the state-bank array.
    for short in model.fit(need):
        if short.kind != "registers":
            continue
        out.append(Diagnostic(
            severity=Severity.ERROR,
            code="NV203",
            message=(
                f"stage {short.stage} register over-subscription on "
                f"{model.label}: stateful rules lease "
                f"{model.array_size - short.free + short.need} "
                f"registers, the state-bank array holds "
                f"{model.array_size}"
            ),
            location=Location(stage=short.stage, switch=switch),
        ))
    return out
