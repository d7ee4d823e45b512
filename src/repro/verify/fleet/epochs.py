"""Epoch-transition safety (codes NV601–NV603).

Make-before-break updates stage a complete new rule bank *next to* the
live one (double occupancy) and only then flip the epoch.  That is the
window where a deployment that fits steady-state can still wedge: the
staged bank may not fit beside the live bank, or may be internally
ill-formed in ways per-query verification never sees because it checks
global stages, not the concrete residue on one switch.

* **NV601** — staging-window double occupancy.  Two forms share the
  code: :func:`check_staging_plan` proves a *concrete* transaction's
  staged slices fit the free registers / table rows / ``newton_init``
  capacity of every target switch (ERROR — the transaction would die
  mid-flight and roll back); :func:`check_prospective_staging` asks,
  for every active bank, whether a make-before-break re-stage of that
  bank would fit beside today's residents (WARNING — the deployment is
  one routine update away from a staging failure).  Both judge a
  :class:`~repro.verify.program.PipelineModel` of the switch with its
  :meth:`~repro.verify.program.PipelineModel.fit`; neither tallies
  occupancy itself.
* **NV602** — a staged bank violates Figure-4 layout (module ordering /
  same-stage dependency rules) while co-resident with the live epoch:
  the dependency pass re-run over the staged residue.
* **NV603** — epoch hygiene: staged banks stranded past the committed
  transaction epoch, retired residue the garbage collector never
  reclaimed, or a switch whose rule epoch disagrees with the
  controller's committed epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.compiler import CompiledQuery, Optimizations, QueryParams
from repro.core.rules import ModuleRuleSpec, QuerySlice
from repro.verify.dependencies import check_dependencies
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.fleet.model import (
    ACTIVE,
    RETIRED,
    STAGED,
    BankView,
    SwitchView,
)
from repro.verify.program import (
    Demand,
    PipelineModel,
    Violation,
    demand,
    demand_of_slices,
)
from repro.verify.resources import check_resources

__all__ = [
    "StagingNeed",
    "fresh_slices",
    "check_staging_plan_view",
    "check_prospective_staging",
    "check_staged_bank_layout",
    "check_epoch_hygiene",
]


def _pseudo_compiled(qid: str, specs: Sequence[ModuleRuleSpec],
                     stage_base: int) -> CompiledQuery:
    """Rebuild a minimal compiled artifact from placed specs.

    The dependency pass reads spec ordering, stages, set ids and module
    types — all preserved in the placed rules — so a reconstructed
    artifact is a faithful input for Figure-4 layout checking.
    """
    ordered = tuple(sorted(specs, key=lambda s: s.step))
    num_stages = (
        max(s.stage for s in ordered) - stage_base + 1 if ordered else 0
    )
    num_primitives = (
        max(s.primitive_index for s in ordered) + 1 if ordered else 0
    )
    return CompiledQuery(
        qid=qid,
        specs=ordered,
        init_entries=(),
        num_stages=num_stages,
        num_primitives=num_primitives,
        params=QueryParams(),
        optimizations=Optimizations.all(),
    )


def _anchored(banks: Sequence[BankView],
              anchors: Optional[AbstractSet[str]]) -> Sequence[BankView]:
    """``banks``, or those of the ``anchors`` sub-queries when given."""
    if anchors is None:
        return banks
    return [bank for bank in banks if bank.qid in anchors]


def check_staged_bank_layout(
    view: SwitchView, anchors: Optional[AbstractSet[str]] = None,
) -> List[Diagnostic]:
    """NV602: Figure-4 dependency re-check over every staged bank."""
    out: List[Diagnostic] = []
    for bank in _anchored(view.banks_with_status(STAGED), anchors):
        specs = tuple(rule.spec for rule in bank.rules)
        if not specs:
            continue
        pseudo = _pseudo_compiled(bank.qid, specs, stage_base=0)
        for found in check_dependencies(pseudo):
            out.append(Diagnostic(
                severity=Severity.ERROR,
                code="NV602",
                message=(
                    f"staged bank (slice {bank.slice_index}, epoch "
                    f"{bank.epoch_from}) violates module layout while "
                    f"co-resident with the live epoch: {found.message}"
                ),
                location=Location(qid=bank.qid, step=found.location.step,
                                  switch=view.switch_id),
            ))
    return out


def check_prospective_staging(
    view: SwitchView, model: PipelineModel,
    anchors: Optional[AbstractSet[str]] = None,
) -> List[Diagnostic]:
    """NV601 (warning form): can every active bank still be re-staged?

    Simulates the double-occupancy window of a routine make-before-break
    update of each active bank — its own rules staged *on top of*
    everything resident (``model``: the switch's occupancy) — and flags
    the banks that no longer fit.
    """
    out: List[Diagnostic] = []
    for bank in _anchored(view.banks_with_status(ACTIVE), anchors):
        if not bank.rules:
            continue
        for found in check_resources(bank.rules, model,
                                     switch=view.switch_id):
            out.append(Diagnostic(
                severity=Severity.WARNING,
                code="NV601",
                message=(
                    f"a make-before-break update of query {bank.qid!r} "
                    f"would not fit its double-occupancy staging window: "
                    f"{found.message}"
                ),
                location=Location(qid=bank.qid, step=found.location.step,
                                  stage=found.location.stage,
                                  switch=view.switch_id),
            ))
        for short in model.fit(demand((), bank.init_count)):
            out.append(Diagnostic(
                severity=Severity.WARNING,
                code="NV601",
                message=(
                    f"a make-before-break update of query {bank.qid!r} "
                    f"needs {short.need} staged newton_init "
                    f"entries but only {short.free} TCAM rows "
                    f"are free"
                ),
                location=Location(qid=bank.qid, switch=view.switch_id),
            ))
    return out


def _does_not_fit(short: Violation, model: PipelineModel, qids: str) -> str:
    """NV601 error-form wording of one shortfall of the staging window."""
    if short.kind == "registers":
        return (
            f"stage {short.stage} has {short.free} free registers but the "
            f"staged bank(s) [{qids}] lease {short.need} — the "
            f"double-occupancy make-before-break window over-subscribes "
            f"the state bank"
        )
    if short.kind == "rules":
        # One physical module instance per slot multiplexes at most
        # ``table_capacity`` rules; the staged rows must fit beside the
        # resident ones for the duration of the double-occupancy window.
        assert short.module_type is not None
        return (
            f"stage {short.stage} {short.module_type.symbol} table holds "
            f"{model.table_capacity - short.free} resident rules and the "
            f"staged bank adds {short.need}, exceeding the "
            f"{model.table_capacity}-row instance during double occupancy"
        )
    if short.kind == "init":
        return (
            f"newton_init has {short.free} free TCAM rows but the staged "
            f"bank(s) add {short.need} dispatch entries"
        )
    return (
        f"the staged bank(s) [{qids}] address {short.need} stages but "
        f"the pipeline has {short.free}"
    )


@dataclass(frozen=True)
class StagingNeed:
    """What one set of not-yet-staged slices asks of *any* switch.

    A property of the slices alone — their :class:`Demand` and their
    Figure-4 layout findings — so a transaction that stages the same
    slices on many switches (redundant placement) derives it once and
    only :meth:`~repro.verify.program.PipelineModel.fit` runs per switch.
    """

    demand: Demand
    #: Comma-joined owners, as the NV601 wording names them.
    qids: str
    #: NV602 findings: ``(qid, slice index, step, dependency message)``.
    layout: Tuple[Tuple[str, int, Optional[int], str], ...]

    @staticmethod
    def of(slices: Sequence[QuerySlice],
           checked: Optional[Mapping[str, Sequence[Diagnostic]]] = None,
           ) -> "StagingNeed":
        """``checked`` maps a sub-query id to the dependency findings of
        the compiled query its slices were cut from.  A slice that is the
        whole query stages exactly the specs those findings judged, so it
        reuses them; any other slice gets its own pass."""
        checked = checked or {}
        return StagingNeed(
            demand=demand_of_slices(slices),
            qids=", ".join(sorted({qs.qid for qs in slices})),
            layout=tuple(
                (qs.qid, qs.slice_index, found.location.step, found.message)
                for qs in slices
                for found in (
                    checked[qs.qid]
                    if qs.total_slices == 1 and qs.qid in checked
                    else check_dependencies(
                        _pseudo_compiled(qs.qid, qs.specs, stage_base=0))
                )
            ),
        )


def fresh_slices(switch: object, slices: Sequence[QuerySlice],
                 target_epoch: int) -> Tuple[QuerySlice, ...]:
    """The slices of a plan this switch has not yet staged at
    ``target_epoch`` (idempotent retries are skipped), one per
    ``(qid, slice_index)``.

    The data plane stages each slice at most once per epoch
    (``has_staged`` idempotency), so a plan that lists a slice twice — a
    retried or planner-composed operation — must not double-count its
    register/rule demand and veto a staging window that in fact fits.
    """
    pipeline = getattr(switch, "pipeline", switch)
    fresh: Dict[Tuple[str, int], QuerySlice] = {}
    for qs in slices:
        if not pipeline.has_staged(qs.qid, qs.slice_index, target_epoch):
            fresh.setdefault((qs.qid, qs.slice_index), qs)
    return tuple(fresh.values())


def check_staging_plan_view(
    sid: object,
    model: PipelineModel,
    need: StagingNeed,
) -> List[Diagnostic]:
    """NV601 (error form) + NV602 for one switch's share of a staging plan.

    Proves the transaction's staged slices (``need``: what the switch's
    :func:`fresh_slices` ask for) fit switch ``sid``'s *free* capacity
    (``model``: its occupancy right now) — registers per stage array,
    rows per (stage, module) table, and ``newton_init`` TCAM rows —
    before the 2PC prepare phase touches the data plane.
    """
    out = [
        Diagnostic(
            severity=Severity.ERROR,
            code="NV601",
            message=("staging window does not fit: "
                     + _does_not_fit(short, model, need.qids)),
            location=Location(stage=short.stage, switch=sid),
        )
        for short in model.fit(need.demand)
    ]
    for qid, slice_index, step, message in need.layout:
        out.append(Diagnostic(
            severity=Severity.ERROR,
            code="NV602",
            message=(
                f"staged slice {slice_index} violates module "
                f"layout: {message}"
            ),
            location=Location(qid=qid, step=step, switch=sid),
        ))
    return out


def check_epoch_hygiene(
    view: SwitchView, committed_epoch: Optional[int] = None,
    anchors: Optional[AbstractSet[str]] = None,
) -> List[Diagnostic]:
    """NV603: stranded staged banks, un-collected residue, epoch skew
    (the switch-wide findings always; with ``anchors``, the per-bank
    ones of those sub-queries only)."""
    out: List[Diagnostic] = []

    if committed_epoch is not None and view.rule_epoch != committed_epoch:
        out.append(Diagnostic(
            severity=Severity.WARNING,
            code="NV603",
            message=(
                f"switch rule epoch {view.rule_epoch} disagrees with the "
                f"controller's committed epoch {committed_epoch}; the "
                f"switch serves a different rule-bank generation than "
                f"the control plane believes"
            ),
            location=Location(switch=view.switch_id),
        ))

    future_epochs = sorted({
        bank.epoch_from for bank in view.banks_with_status(STAGED)
    })
    if len(future_epochs) > 1:
        out.append(Diagnostic(
            severity=Severity.WARNING,
            code="NV603",
            message=(
                f"staged banks target {len(future_epochs)} distinct "
                f"future epochs {future_epochs}; at most one transaction "
                f"should be in flight per switch"
            ),
            location=Location(switch=view.switch_id),
        ))
    if committed_epoch is not None:
        for bank in _anchored(view.banks_with_status(STAGED), anchors):
            if bank.epoch_from <= committed_epoch:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV603",
                    message=(
                        f"staged bank (slice {bank.slice_index}) targets "
                        f"epoch {bank.epoch_from} which has already "
                        f"committed; the transaction that staged it "
                        f"never completed or aborted cleanly"
                    ),
                    location=Location(qid=bank.qid, switch=view.switch_id),
                ))

    retired = view.banks_with_status(RETIRED)
    if retired:
        residue = sum(
            len(bank.rules) + bank.init_count for bank in retired
        )
        qids = ", ".join(sorted({bank.qid for bank in retired}))
        out.append(Diagnostic(
            severity=Severity.WARNING,
            code="NV603",
            message=(
                f"{len(retired)} retired bank(s) [{qids}] still hold "
                f"{residue} table row(s) past their epoch_until; the "
                f"garbage collector has not reclaimed them"
            ),
            location=Location(switch=view.switch_id),
        ))
    return out
