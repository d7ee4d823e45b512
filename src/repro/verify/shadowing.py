"""Ternary shadowing and overlap analysis (codes NV001–NV003).

``newton_init`` is a TCAM: per-field (value, mask) matching with
priorities.  This reproduction dispatches with *multi-match* semantics
(every matching entry initiates its query — paper §4.1, Concurrency), so
overlap between queries is by design; what silently corrupts monitoring
is an entry that can never contribute:

* **NV001** — an entry fully shadowed by another entry *of the same
  query* at equal or higher priority.  Dispatch de-duplicates per query
  id, so the shadowed entry matches nothing new; it burns TCAM space and
  its removal is a silent no-op.
* **NV002** — an entry fully contained in a *strictly higher-priority*
  entry of a different query.  Multi-match dispatch still runs both, but
  on single-winner TCAM hardware the lower-priority query would never
  see a packet — a portability trap flagged as a warning.
* **NV003** — an R ternary range entry fully covered by the union of the
  entries before it.  ``RConfig.action_for`` is first-match-wins, so the
  entry's action (e.g. the ``report`` that makes the query observable)
  can never fire.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.compiler import CompiledQuery
from repro.core.fields import GLOBAL_FIELDS
from repro.core.rules import NewtonInitEntry, RConfig
from repro.dataplane.module_types import ModuleType
from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = [
    "check_init_shadowing",
    "check_r_entry_shadowing",
    "ternary_contains",
    "ternary_intersects",
]

_Match = Tuple[Tuple[str, int, int], ...]  # (field, value, mask)


def _mask_maps(match: _Match) -> Tuple[Dict[str, int], Dict[str, int]]:
    values = {name: value & mask for name, value, mask in match}
    masks = {name: mask for name, value, mask in match}
    return values, masks


def ternary_contains(outer: _Match, inner: _Match) -> bool:
    """Whether ``outer``'s match set is a superset of ``inner``'s.

    Every packet matching ``inner`` also matches ``outer`` iff, for every
    field, ``outer`` only constrains bits ``inner`` also constrains and
    agrees with it on those bits.
    """
    return _contains(outer, *_mask_maps(inner))


def _contains(outer: _Match, inner_values: Dict[str, int],
              inner_masks: Dict[str, int]) -> bool:
    """:func:`ternary_contains` with the inner entry's maps in hand."""
    for name, value, mask in outer:
        inner_mask = inner_masks.get(name, 0)
        if mask & ~inner_mask:
            return False  # outer constrains a bit inner leaves free
        if (value ^ inner_values.get(name, 0)) & mask:
            return False  # they disagree on a shared constrained bit
    return True


def ternary_intersects(a: _Match, b: _Match) -> bool:
    """Whether some packet matches both ternary entries."""
    b_values, b_masks = _mask_maps(b)
    for name, value, mask in a:
        shared = mask & b_masks.get(name, 0)
        if (value ^ b_values.get(name, 0)) & shared:
            return False
    return True


def check_init_shadowing(
    entries: Sequence[NewtonInitEntry],
    context: Sequence[NewtonInitEntry] = (),
) -> List[Diagnostic]:
    """NV001/NV002 findings anchored to ``entries``.

    Each entry is judged against every other entry and all of
    ``context`` (the dispatch rows of already-accepted queries, which
    are never reported on themselves): the walk is entries × (entries +
    context), not the square of everything co-installed.
    """
    out: List[Diagnostic] = []
    others = (*entries, *context)
    for i, entry in enumerate(entries):
        entry_maps = _mask_maps(entry.match)
        for j, other in enumerate(others):
            if i == j:
                continue
            if not _contains(other.match, *entry_maps):
                continue
            if other.qid == entry.qid:
                # Same query: dispatch de-duplicates per qid, so any other
                # entry containing this one makes it dead weight.  When the
                # two are identical, flag only the later one.
                if not ternary_contains(entry.match, other.match) or j < i:
                    out.append(Diagnostic(
                        severity=Severity.ERROR,
                        code="NV001",
                        message=(
                            f"newton_init entry {_describe(entry)} is fully "
                            f"shadowed by entry {_describe(other)} of the "
                            f"same query; it can never dispatch a packet"
                        ),
                        location=Location(qid=entry.qid),
                    ))
                    break
            elif other.priority > entry.priority:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV002",
                    message=(
                        f"newton_init entry {_describe(entry)} is fully "
                        f"contained in higher-priority entry "
                        f"{_describe(other)} of query {other.qid!r}; "
                        f"single-match TCAM dispatch would starve "
                        f"{entry.qid!r}"
                    ),
                    location=Location(qid=entry.qid),
                ))
                break
    return out


def _describe(entry: NewtonInitEntry) -> str:
    if not entry.match:
        return "{*}"
    parts = []
    for name, value, mask in entry.match:
        width_mask = GLOBAL_FIELDS.get(name).max_value
        if mask == width_mask:
            parts.append(f"{name}={value}")
        else:
            parts.append(f"{name}&{mask:#x}={value:#x}")
    return "{" + ", ".join(parts) + "}"


def _covered(lo: int, hi: int,
             earlier: Iterable[Tuple[int, int]]) -> bool:
    """Whether [lo, hi] is fully covered by the union of ``earlier``."""
    remaining = [(lo, hi)]
    for elo, ehi in earlier:
        next_remaining: List[Tuple[int, int]] = []
        for rlo, rhi in remaining:
            if ehi < rlo or elo > rhi:
                next_remaining.append((rlo, rhi))
                continue
            if rlo < elo:
                next_remaining.append((rlo, elo - 1))
            if rhi > ehi:
                next_remaining.append((ehi + 1, rhi))
        remaining = next_remaining
        if not remaining:
            return True
    return not remaining


def check_r_entry_shadowing(
    compiled: CompiledQuery,
) -> List[Diagnostic]:
    """NV003 over every R config of one compiled query."""
    out: List[Diagnostic] = []
    for spec in compiled.specs:
        if spec.module_type is not ModuleType.RESULT_PROCESS:
            continue
        config = spec.config
        if not isinstance(config, RConfig):
            continue
        for index, entry in enumerate(config.entries):
            earlier = [(e.lo, e.hi) for e in config.entries[:index]]
            if earlier and _covered(entry.lo, entry.hi, earlier):
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="NV003",
                    message=(
                        f"R match entry [{entry.lo}, {entry.hi}] "
                        f"(index {index}) is fully covered by earlier "
                        f"entries; its action can never fire"
                    ),
                    location=Location(
                        qid=spec.qid, step=spec.step, stage=spec.stage
                    ),
                ))
    return out
