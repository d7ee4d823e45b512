"""Whole-deployment analysis: every fleet pass, one report.

:func:`analyze_deployment` is the static entry point — it snapshots
every switch into a :class:`~repro.verify.fleet.model.SwitchView`, runs
the NV4xx interference and NV6xx epoch-safety passes, and (when the
compiled artifacts are supplied) re-runs the per-query verifier — NV7xx
accuracy included, at a declared workload — over the *joint* installed
set so cross-query findings the install-time gate scoped per-candidate
resurface fleet-wide; :func:`analyze_fleet` takes all three inputs off a
live deployment, and :func:`analyze_op` narrows the same passes to what
one committed operation touched — the per-operation audit, held equal to
the whole walk by the test suite.

:func:`check_staging_plan` is the transactional entry point — the
:class:`~repro.ctrlplane.txn.TransactionManager` calls it between
verification and 2PC prepare to statically prove the staging window fits
double occupancy on every target switch (NV601/NV602 as errors).

:func:`exit_code` fixes the CLI contract both ``lint`` and ``analyze``
print machine-readable reports under: ``0`` clean, ``1`` warnings only,
``2`` errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.compiler import CompiledQuery
from repro.core.rules import QuerySlice
from repro.verify.diagnostics import VerificationReport
from repro.verify.fleet.epochs import (
    StagingNeed,
    check_epoch_hygiene,
    check_prospective_staging,
    check_staged_bank_layout,
    check_staging_plan_view,
    fresh_slices,
)
from repro.verify.fleet.interference import (
    check_dispatch_starvation,
    check_fleet_occupancy,
    check_hash_unit_sharing,
)
from repro.verify.fleet.model import SwitchView
from repro.verify.program import PipelineModel
from repro.verify.verifier import VerifierConfig, verify_queries

if TYPE_CHECKING:
    from repro.network.deployment import Deployment

__all__ = ["FleetConfig", "analyze_deployment", "analyze_fleet",
           "analyze_op", "check_staging_plan", "exit_code"]


@dataclass(frozen=True)
class FleetConfig:
    """Policy envelope, plus the verifier configuration the joint re-run
    uses — its declared workload (NV7xx) and its suppressed codes, which
    filter every fleet pass too."""

    #: Optional budget envelope for NV401 occupancy auditing.
    policy: Optional[PipelineModel] = None
    verifier: VerifierConfig = field(default_factory=VerifierConfig)


def analyze_deployment(
    switches: Mapping[object, object],
    compiled: Optional[Mapping[str, CompiledQuery]] = None,
    committed_epoch: Optional[int] = None,
    config: Optional[FleetConfig] = None,
    anchors: Optional[AbstractSet[str]] = None,
) -> VerificationReport:
    """Run every fleet pass over a live (or snapshotted) deployment.

    ``switches`` maps switch id to switch (or bare pipeline); ``compiled``
    optionally maps sub-query id to its compiled artifact (enabling the
    joint per-query re-verification, NV7xx included);
    ``committed_epoch`` is the control plane's committed transaction
    epoch, used for NV603 skew detection.

    ``anchors`` (sub-query ids) narrows the report to the findings
    located at those sub-queries, plus the switch-wide ones of the
    switches given: the anchored banks and dispatch rows against
    everything resident beside them, and the anchored artifacts verified
    with the rest of ``compiled`` as context — what one operation on
    those sub-queries can have changed (:func:`analyze_op`).
    """
    config = config or FleetConfig()
    keep = config.verifier.filter
    report = VerificationReport()

    for switch in switches.values():
        view = SwitchView.of_switch(switch)
        occupancy = PipelineModel.of_switch(switch)
        report.extend(keep(check_fleet_occupancy(view, config.policy)))
        report.extend(keep(check_hash_unit_sharing(view, anchors)))
        report.extend(keep(check_dispatch_starvation(view, anchors)))
        report.extend(keep(
            check_prospective_staging(view, occupancy, anchors)
        ))
        report.extend(keep(check_staged_bank_layout(view, anchors)))
        report.extend(keep(
            check_epoch_hygiene(view, committed_epoch, anchors)
        ))

    if compiled:
        artifacts = [
            comp for sub_qid, comp in compiled.items()
            if anchors is None or sub_qid in anchors
        ]
        context = [
            comp for sub_qid, comp in compiled.items()
            if anchors is not None and sub_qid not in anchors
        ]
        report.extend(verify_queries(artifacts, context=context,
                                     config=config.verifier).diagnostics)
    return report


def _installed_artifacts(deployment: Deployment) -> Dict[str, CompiledQuery]:
    """Every installed sub-query's artifact, in installation order."""
    return {
        sub_qid: compiled
        for record in deployment.controller.installed.values()
        for sub_qid, compiled in record.compiled.items()
    }


def analyze_fleet(deployment: Deployment,
                  config: Optional[FleetConfig] = None) -> VerificationReport:
    """:func:`analyze_deployment` of a live deployment: its switches,
    everything its controller has installed, at its committed epoch."""
    controller = deployment.controller
    return analyze_deployment(
        deployment.switches,
        compiled=_installed_artifacts(deployment),
        committed_epoch=controller.txn.epoch,
        config=config,
    )


def analyze_op(deployment: Deployment, qid: str,
               config: Optional[FleetConfig] = None) -> VerificationReport:
    """The share of :func:`analyze_fleet` one committed operation on the
    installed query ``qid`` can have changed: the switches that host it,
    findings located at its sub-queries.

    The whole walk rejects a fleet whose every earlier operation passed
    this audit exactly when this audit rejects the latest one — errors
    are located at the query that carries them — so it is what a
    per-operation audit runs; ``newton-repro analyze`` keeps the walk.
    """
    controller = deployment.controller
    record = controller.installed[qid]
    return analyze_deployment(
        {sid: switch for sid, switch in deployment.switches.items()
         if sid in record.by_switch},
        compiled=_installed_artifacts(deployment),
        committed_epoch=controller.txn.epoch,
        config=config,
        anchors=frozenset(record.compiled),
    )


def check_staging_plan(
    switches: Mapping[object, object],
    plan: Mapping[object, Sequence[QuerySlice]],
    target_epoch: int,
    occupancy: Optional[Mapping[object, PipelineModel]] = None,
    needs: Optional[Mapping[Tuple[Tuple[str, int], ...], StagingNeed]] = None,
) -> VerificationReport:
    """Statically prove a transaction's staging windows fit (NV6xx).

    ``plan`` maps switch id to the query slices the transaction intends
    to stage there; ``occupancy`` holds the snapshots the caller already
    took of those switches (the transaction manager's — one per switch
    per transaction), any other is taken here.  ``needs`` holds the
    :class:`StagingNeed` of each slice set the caller already derived,
    keyed by ``(qid, slice_index)`` names; any other slice set is
    derived here.  Every finding is an ERROR: the transaction would fail
    mid-prepare and roll back, so the gate refuses it up front.
    """
    report = VerificationReport()
    occupancy = occupancy or {}
    # One transaction stages one version of a slice, so within a plan
    # (qid, slice_index) names it: switches asked for the same fresh
    # slices share one demand tally and one layout pass.
    needs = dict(needs or {})
    # And switches in one occupancy state share a clean verdict (see
    # PipelineModel.state); a state with findings is judged per switch.
    clean: Set[Tuple[Tuple[Tuple[str, int], ...], Hashable]] = set()
    for sid, slices in plan.items():
        if not slices:
            continue
        model = occupancy.get(sid) or PipelineModel.of_switch(switches[sid])
        fresh = fresh_slices(switches[sid], slices, target_epoch)
        named = tuple((qs.qid, qs.slice_index) for qs in fresh)
        state = (named, model.state())
        if state in clean:
            continue
        if named not in needs:
            needs[named] = StagingNeed.of(fresh)
        found = check_staging_plan_view(sid, model, needs[named])
        if found:
            report.extend(found)
        else:
            clean.add(state)
    return report


def exit_code(report: VerificationReport, werror: bool = False) -> int:
    """The documented CLI contract: 0 clean, 1 warnings only, 2 errors."""
    if report.errors or (werror and report.warnings):
        return 2
    if report.warnings:
        return 1
    return 0
