"""Cross-query interference over resident state (codes NV401–NV403).

Per-query admission is sound for one query at a time; these passes look
at what several admitted queries do to *each other* once co-resident on
one switch:

* **NV401** — fleet occupancy versus a deployment policy: the union of
  every resident bank (active + staged + un-collected retired residue)
  exceeds a :class:`~repro.verify.program.PipelineModel` the operator
  declared as the budget envelope.  The simulator's own allocator makes
  physical over-subscription impossible, so this is an *audit* pass: it
  fires when the fleet outgrows a tighter headroom target (e.g. "keep
  25% of every stage free for emergency installs").
* **NV402** — two co-resident banks of different queries drive the same
  physical :class:`~repro.dataplane.hashing.HashUnit` (same
  ``(seed_index, range_size)``) while their dispatch entries overlap:
  every shared packet indexes both sketches at correlated positions.
  Broader than NV304 (which also requires identical key masks) because
  unit reuse alone already couples collision *patterns* across queries.
* **NV403** — concrete-table dispatch starvation: a ``newton_init``
  entry fully contained in another query's entry that wins single-winner
  TCAM arbitration (higher priority, or equal priority and earlier
  insertion).  Multi-match dispatch still runs both here, but on
  single-winner hardware the contained query never initiates — the
  runtime counterpart of NV002, now aware of insertion-order tie-breaks.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.fleet.model import RETIRED, DispatchView, SwitchView
from repro.verify.program import PipelineModel, RuleView
from repro.verify.resources import check_resources
from repro.verify.shadowing import ternary_contains, ternary_intersects

__all__ = [
    "check_fleet_occupancy",
    "check_hash_unit_sharing",
    "check_dispatch_starvation",
]


def check_fleet_occupancy(
    view: SwitchView, policy: Optional[PipelineModel]
) -> List[Diagnostic]:
    """NV401: all-resident occupancy versus the declared policy envelope."""
    if policy is None:
        return []
    rules: List[RuleView] = [
        rule for bank in view.banks for rule in bank.rules
    ]
    out: List[Diagnostic] = []
    for found in check_resources(rules, policy, switch=view.switch_id):
        out.append(Diagnostic(
            severity=Severity.ERROR,
            code="NV401",
            message=(
                f"fleet occupancy exceeds the deployment policy "
                f"({policy.label}): {found.message}"
            ),
            location=found.location,
        ))
    return out


def check_hash_unit_sharing(
    view: SwitchView, anchors: Optional[AbstractSet[str]] = None,
) -> List[Diagnostic]:
    """NV402: co-resident banks of different queries share a HashUnit.

    With ``anchors`` (sub-query ids), only the findings located at one
    of them — the same ones, in the same order, the whole walk reports
    there: pairs with no anchored end are never visited, pairs whose
    earlier bank is not anchored still mark their fingerprint seen.
    """
    out: List[Diagnostic] = []
    banks = [b for b in view.banks if b.resident]
    sigs = [set(b.hash_signatures()) for b in banks]
    dispatch: Dict[str, List[DispatchView]] = {}
    for entry in view.dispatch:
        if entry.status != RETIRED:
            dispatch.setdefault(entry.qid, []).append(entry)
    scoped = [] if anchors is None else [
        j for j, b in enumerate(banks) if b.qid in anchors
    ]
    seen: Set[Tuple[str, str, int, int, object]] = set()
    for i, a in enumerate(banks):
        if not sigs[i]:
            continue
        anchored = anchors is None or a.qid in anchors
        later = range(i + 1, len(banks)) if anchored else (
            j for j in scoped if j > i
        )
        for j in later:
            b = banks[j]
            if a.qid == b.qid:
                continue
            shared = sigs[i] & sigs[j]
            if not shared:
                continue
            if not any(
                ternary_intersects(ea.match, eb.match)
                for ea in dispatch.get(a.qid, ())
                for eb in dispatch.get(b.qid, ())
            ):
                continue
            for seed_index, range_size in sorted(shared):
                fingerprint = (
                    min(a.qid, b.qid), max(a.qid, b.qid),
                    seed_index, range_size, view.switch_id,
                )
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                if not anchored:
                    continue
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV402",
                    message=(
                        f"queries {a.qid!r} ({a.status}) and {b.qid!r} "
                        f"({b.status}) both drive hash unit "
                        f"(seed_index={seed_index}, range={range_size}) "
                        f"while their dispatch entries overlap; shared "
                        f"packets index both sketches at correlated "
                        f"positions — give one query a different "
                        f"seed_index"
                    ),
                    location=Location(qid=a.qid, switch=view.switch_id),
                ))
    return out


def check_dispatch_starvation(
    view: SwitchView, anchors: Optional[AbstractSet[str]] = None,
) -> List[Diagnostic]:
    """NV403: contained dispatch entries starved on single-winner TCAM
    (with ``anchors``: the entries of those sub-queries only)."""
    out: List[Diagnostic] = []
    live = [d for d in view.dispatch if d.status != RETIRED]
    for inner in live:
        if anchors is not None and inner.qid not in anchors:
            continue
        for outer in live:
            if outer is inner or outer.qid == inner.qid:
                continue
            if not ternary_contains(outer.match, inner.match):
                continue
            if not outer.beats(inner):
                continue
            how = (
                "at higher priority"
                if outer.priority > inner.priority
                else "by earlier insertion at equal priority"
            )
            out.append(Diagnostic(
                severity=Severity.WARNING,
                code="NV403",
                message=(
                    f"dispatch entry of query {inner.qid!r} (priority "
                    f"{inner.priority}, seq {inner.seq}) is fully "
                    f"contained in query {outer.qid!r}'s entry, which "
                    f"wins {how}; on single-winner TCAM hardware "
                    f"{inner.qid!r} never initiates on this switch"
                ),
                location=Location(qid=inner.qid, switch=view.switch_id),
            ))
            break  # one starvation finding per contained entry
    return out
