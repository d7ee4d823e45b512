"""The static rule verifier: every pass, one report.

:func:`verify_queries` analyses compiled artifacts *before* any rule
reaches a switch — the controller runs it by default on install, ``repro
lint`` runs it from the command line, and the compiler can run the
dependency pass as a post-condition self-check.  :func:`verify_demand`
runs the resource admission pass against one concrete switch once the
controller has partitioned a query (so occupancy and per-switch layouts
are respected).

Severity policy: ERROR diagnostics make :attr:`VerificationReport.ok`
false and the controller refuse the install; WARNING/INFO diagnostics are
surfaced but do not block.  Individual codes can be suppressed via
:attr:`VerifierConfig.suppress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.compiler import CompiledQuery
from repro.verify.accuracy import check_accuracy_budget
from repro.verify.deadrules import check_dead_rules
from repro.verify.dependencies import check_dependencies
from repro.verify.diagnostics import Diagnostic, VerificationReport
from repro.verify.program import (
    Demand,
    PipelineModel,
    init_entries_of,
    rules_of_compiled,
)
from repro.verify.resources import (
    check_demand,
    check_resources,
    check_stage_budget,
)
from repro.verify.shadowing import (
    check_init_shadowing,
    check_r_entry_shadowing,
)
from repro.verify.sketch import (
    check_hash_seed_collisions,
    check_sketch_params,
)

__all__ = ["VerifierConfig", "verify_queries", "verify_demand"]


@dataclass(frozen=True)
class VerifierConfig:
    """Declared workload and per-code suppression.

    The accuracy bounds are constants of :mod:`repro.verify.sketch` and
    :mod:`repro.verify.accuracy`.
    """

    #: Declared expected flow cardinality; ``None`` skips NV7xx.
    expected_flows: Optional[int] = None
    #: Diagnostic codes to drop from reports (e.g. ("NV302",)).
    suppress: Tuple[str, ...] = field(default=())

    def filter(self, found: Iterable[Diagnostic]) -> List[Diagnostic]:
        return [d for d in found if d.code not in self.suppress]


def verify_queries(
    candidates: Sequence[CompiledQuery],
    context: Sequence[CompiledQuery] = (),
    model: Optional[PipelineModel] = None,
    config: Optional[VerifierConfig] = None,
    checked: Optional[Mapping[str, Sequence[Diagnostic]]] = None,
) -> VerificationReport:
    """Run every static pass over ``candidates``.

    ``context`` holds already-accepted queries: cross-query passes (init
    shadowing, hash-seed collisions) judge each candidate against the
    other candidates and the context, and report only findings anchored
    to a candidate — pre-existing context findings are not re-litigated,
    so context × context pairs are never visited.  Pass a
    :class:`PipelineModel` to also run resource admission at global
    stages (what lint does); the controller instead admits the slices
    per target switch (:func:`verify_demand`).  With
    ``config.expected_flows`` declared, the NV7xx accuracy budget runs
    last, over the candidates.  ``checked`` holds the dependency findings
    (:func:`~repro.verify.dependencies.check_dependencies`) the caller
    already derived, by qid; any other candidate is checked here.
    """
    config = config or VerifierConfig()
    report = VerificationReport()
    checked = checked or {}

    # Per-query artifact passes: candidates only.
    for comp in candidates:
        found = checked.get(comp.qid)
        report.extend(config.filter(
            check_dependencies(comp) if found is None else found
        ))
        report.extend(config.filter(check_r_entry_shadowing(comp)))
        report.extend(config.filter(check_dead_rules(comp)))
    report.extend(config.filter(check_sketch_params(candidates)))

    # Cross-query passes: each candidate against the candidates after it
    # and the context — never context against context.
    candidate_qids = {comp.qid for comp in candidates}
    context = [c for c in context if c.qid not in candidate_qids]
    report.extend(config.filter(check_init_shadowing(
        init_entries_of(candidates), init_entries_of(context)
    )))
    report.extend(config.filter(
        check_hash_seed_collisions(candidates, context)
    ))

    # Resource admission at global stages.  Each candidate is admitted
    # standalone: whether several candidates *co-reside* on one pipeline
    # is a placement decision, checked per target switch at install time
    # by :func:`verify_demand`.
    if model is not None:
        report.extend(config.filter(check_stage_budget(candidates, model)))
        for comp in candidates:
            report.extend(config.filter(check_resources(
                rules_of_compiled([comp]), model
            )))

    # Accuracy budget at the declared workload (NV7xx): candidates only.
    if config.expected_flows is not None:
        report.extend(config.filter(check_accuracy_budget(
            candidates, expected_flows=config.expected_flows,
        )))
    return report


def verify_demand(
    need: Demand,
    model: PipelineModel,
    switch: object = None,
    config: Optional[VerifierConfig] = None,
) -> VerificationReport:
    """Resource admission of candidate slices against one concrete switch.

    ``need`` is :func:`~repro.verify.program.demand_of_slices` of the
    slices bound for the switch — a property of the slices, so the
    controller tallies each distinct slice set once, however many
    switches host it.  ``model`` should be
    :meth:`PipelineModel.of_switch` of the target so already-resident
    rules and leased registers count toward capacity.
    """
    config = config or VerifierConfig()
    report = VerificationReport()
    report.extend(config.filter(check_demand(need, model, switch=switch)))
    return report
