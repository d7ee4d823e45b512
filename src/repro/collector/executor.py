"""Windowed stream executor — the CPU half of a query, over reports.

The data plane reports a key the moment its aggregate crosses the
threshold, carrying a *clipped* count (paper §5.2); redundant placement
and duplication faults can deliver the same crossing more than once.  The
executor turns a window's worth of report records into the query's
per-window answer:

1. **collapse** duplicates (by ingest sequence number) and multi-switch
   repeats of the same key (max-merge, the same rule the analyzer applies
   to raw reports);
2. **run the CPU-resident primitive tail** — whatever part of the query
   the installed path could not host, located with
   :func:`~repro.core.analyzer.first_incomplete_primitive` /
   :meth:`~repro.core.controller.NewtonController.cpu_start_for` —
   over the merged per-key stream: filters evaluate against the named key
   fields, ``Map`` re-projects, ``Distinct`` dedups, ``Reduce``
   re-aggregates, ``ResultFilter`` thresholds.

The collector's window close calls :func:`merge_records` (one pass over
the window's records with hoisted locals) and then :func:`apply_tail`
once over the merged map: O(records) merge + O(keys) tail.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.ast import Distinct, Filter, Map, Reduce, ResultFilter
from repro.collector.records import ReportRecord

__all__ = ["merge_records", "apply_tail"]

Key = Tuple[int, ...]


def apply_tail(
    tail: Sequence[object],
    key_fields: Tuple[str, ...],
    merged: Dict[Key, int],
) -> Dict[Key, int]:
    """Run the window-level primitive tail over a merged per-key map.

    ``merged`` maps result-key tuples (ordered as ``key_fields``) to
    counts.  Filters that reference fields absent from the key pass
    (those fields were consumed on the data plane); projections re-key by
    position.
    """
    fields = key_fields
    items = merged
    for prim in tail:
        if not items:
            break
        if isinstance(prim, Filter):
            items = {
                key: count
                for key, count in items.items()
                if _passes(prim, dict(zip(fields, key)), fields)
            }
        elif isinstance(prim, Map):
            fields, items = _project(prim.keys, fields, items, combine=max)
        elif isinstance(prim, Distinct):
            new_fields, projected = _project(
                prim.keys, fields, items, combine=max
            )
            fields = new_fields
            items = {key: 1 for key in projected}
        elif isinstance(prim, Reduce):
            fields, items = _project(prim.keys, fields, items, combine=_add)
        elif isinstance(prim, ResultFilter):
            items = {
                key: count for key, count in items.items()
                if prim.evaluate_count(count)
            }
        else:  # pragma: no cover - defensive
            raise TypeError(
                f"unsupported tail primitive {type(prim).__name__}"
            )
    return items


def _add(a: int, b: int) -> int:
    return a + b


def _passes(prim: Filter, view: Dict[str, int],
            key_fields: Tuple[str, ...]) -> bool:
    """Evaluate a filter against the key's named fields; predicates over
    fields the key does not carry pass (already applied on-path)."""
    available = set(key_fields)
    for predicate in prim.predicates:
        if predicate.field not in available:
            continue
        if not predicate.evaluate(view):
            return False
    return True


def _project(
    key_exprs, fields: Tuple[str, ...], items: Dict[Key, int], combine,
) -> Tuple[Tuple[str, ...], Dict[Key, int]]:
    """Re-key ``items`` onto the expressions' fields, combining collisions."""
    names = tuple(expr.field for expr in key_exprs)
    positions: List[Optional[int]] = []
    masks: List[int] = []
    for expr in key_exprs:
        try:
            positions.append(fields.index(expr.field))
        except ValueError:
            positions.append(None)  # field not carried: projects to 0
        masks.append(expr.effective_mask)
    out: Dict[Key, int] = {}
    for key, count in items.items():
        new_key = tuple(
            (key[pos] & masks[i]) if pos is not None else 0
            for i, pos in enumerate(positions)
        )
        if new_key in out:
            out[new_key] = combine(out[new_key], count)
        else:
            out[new_key] = count
    return names, out


def merge_records(
    records: Iterable[ReportRecord],
    merged: Dict[Key, int],
    seen: Set[Tuple[object, int]],
) -> Tuple[int, int]:
    """Max-merge records into ``merged`` in one hoisted-locals pass,
    collapsing duplicates via ``seen``; returns (processed, duplicates)."""
    duplicates = 0
    processed = 0
    get = merged.get
    add_seen = seen.add
    for record in records:
        processed += 1
        token = (record.switch_id, record.seq)
        if token in seen:
            duplicates += 1
            continue
        add_seen(token)
        key = record.key
        count = record.count if record.count is not None else 1
        current = get(key)
        if current is None or count > current:
            merged[key] = count
    return processed, duplicates
