"""Software analyzer.

The endpoint of Newton's mirrored monitoring messages (paper Figure 1).
It indexes data-plane reports per query and window, runs the CPU-side join
of composite queries, and executes *deferred* query remainders — the §5.2
fallback when a query requires more switches than the forwarding path has
hops.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.ast import Distinct, Map, Reduce
from repro.core.compiler import CompiledQuery
from repro.core.groundtruth import QueryStreamState
from repro.core.packet import Packet
from repro.core.query import CompositeQuery, Query, QueryLike, flatten
from repro.core.rules import Report
from repro.dataplane.module_types import ModuleType

__all__ = [
    "Analyzer",
    "first_incomplete_primitive",
    "result_key_fields",
    "result_set_id",
]

Key = Tuple[int, ...]
#: (sub_qid, epoch) -> {key: count}
Buckets = Dict[Tuple[str, int], Dict[Key, int]]


def first_incomplete_primitive(compiled: CompiledQuery,
                               stage_limit: int) -> int:
    """Index of the first primitive not fully executed in ``stage_limit``
    stages — where the CPU must take over under deferred execution."""
    pending = [
        spec.primitive_index
        for spec in compiled.specs
        if spec.stage >= stage_limit
    ]
    if not pending:
        return compiled.num_primitives
    return min(pending)


@dataclass
class _RegisteredQuery:
    query: QueryLike
    #: sub-qid -> compiled form (single-chain queries register themselves).
    compiled: Dict[str, CompiledQuery]
    #: sub-qid -> key extraction order for report payloads.
    key_fields: Dict[str, Tuple[str, ...]]
    #: sub-qid -> which metadata set carries the result keys.
    result_set: Dict[str, int]


class Analyzer:
    """Collects reports, joins composites, and runs deferred remainders."""

    def __init__(self, window_ms: int = 100):
        self.window_ms = window_ms
        self._registered: Dict[str, _RegisteredQuery] = {}
        self._sub_to_top: Dict[str, str] = {}
        #: Every answer seen: from mirrored reports (losslessly) and from
        #: deferred CPU execution.
        self._results: Buckets = defaultdict(dict)
        #: The deferred-execution share of ``_results`` on its own: what
        #: the collection plane composes its report-derived answers with
        #: (composing with ``_results`` would undo its loss model).
        self._deferred_results: Buckets = {}
        self._deferred_states: Dict[str, QueryStreamState] = {}
        self._deferred_epoch = 0
        self.reports: List[Report] = []
        self.deferred_packets = 0

    # ------------------------------------------------------------------ #
    # Registration                                                        #
    # ------------------------------------------------------------------ #

    def register(self, query: QueryLike,
                 compiled: Dict[str, CompiledQuery]) -> None:
        """Associate a query (and its compiled sub-queries) for decoding."""
        top_qid = query.qid
        key_fields: Dict[str, Tuple[str, ...]] = {}
        result_set: Dict[str, int] = {}
        for sub in flatten(query):
            if sub.qid not in compiled:
                raise KeyError(f"missing compiled form for {sub.qid!r}")
            key_fields[sub.qid] = result_key_fields(sub)
            result_set[sub.qid] = result_set_id(compiled[sub.qid])
            self._sub_to_top[sub.qid] = top_qid
        self._registered[top_qid] = _RegisteredQuery(
            query=query,
            compiled=dict(compiled),
            key_fields=key_fields,
            result_set=result_set,
        )

    def unregister(self, qid: str) -> None:
        reg = self._registered.pop(qid, None)
        if reg is None:
            return
        for sub in flatten(reg.query):
            self._sub_to_top.pop(sub.qid, None)
            self._deferred_states.pop(sub.qid, None)

    def on_commit(self, op, record) -> None:
        """Controller commit listener: swap ``op.qid``'s registration."""
        self.unregister(op.qid)
        if record is not None:
            self.register(record.query, record.compiled)

    # ------------------------------------------------------------------ #
    # Report ingestion                                                    #
    # ------------------------------------------------------------------ #

    def on_report(self, report: Report) -> None:
        """Sink for data-plane mirrored messages."""
        self.reports.append(report)
        top = self._sub_to_top.get(report.qid)
        if top is None:
            return  # unregistered query: keep the raw report only
        reg = self._registered[top]
        fields = report.keys_of_set(reg.result_set[report.qid])
        key = tuple(
            fields.get(name, 0) for name in reg.key_fields[report.qid]
        )
        count = report.global_result
        bucket = self._results[(report.qid, report.epoch)]
        if count is None:
            bucket[key] = max(bucket.get(key, 0), 1)
        else:
            bucket[key] = max(bucket.get(key, 0), int(count))

    # ------------------------------------------------------------------ #
    # Deferred execution (paper §5.2)                                     #
    # ------------------------------------------------------------------ #

    def defer(self, sub_qid: str, packet: Packet, start_at: int) -> None:
        """Continue ``sub_qid`` on CPU for a packet the path could not
        finish; ``start_at`` is the first primitive still to run."""
        self.deferred_packets += 1
        state = self._deferred_states.get(sub_qid)
        if state is None:
            top = self._sub_to_top.get(sub_qid)
            if top is None:
                return
            reg = self._registered[top]
            sub = next(
                q for q in flatten(reg.query) if q.qid == sub_qid
            )
            state = QueryStreamState(sub, start_at=start_at)
            self._deferred_states[sub_qid] = state
        state.process(packet)

    def advance_window(self, epoch: Optional[int] = None) -> None:
        """Close the current window for deferred CPU execution."""
        closing = self._deferred_epoch if epoch is None else epoch
        for sub_qid, state in self._deferred_states.items():
            truth = state.finish_window(closing)
            bucket = self._results[(sub_qid, closing)]
            deferred = self._deferred_results.setdefault(
                (sub_qid, closing), {}
            )
            for key in truth.keys:
                count = truth.counts.get(key, 1)
                bucket[key] = max(bucket.get(key, 0), count)
                deferred[key] = max(deferred.get(key, 0), count)
        self._deferred_epoch = closing + 1

    # ------------------------------------------------------------------ #
    # Results                                                             #
    # ------------------------------------------------------------------ #

    def results(self, sub_qid: str) -> Dict[int, Dict[Key, int]]:
        """Per-epoch key→count results of one (sub-)query."""
        out: Dict[int, Dict[Key, int]] = {}
        for (qid, epoch), bucket in self._results.items():
            if qid == sub_qid:
                out[epoch] = dict(bucket)
        return out

    def deferred_results(self, sub_qid: str) -> Dict[int, Dict[Key, int]]:
        """The share of :meth:`results` that deferred CPU execution
        produced — no mirrored report contributes."""
        return {
            epoch: dict(bucket)
            for (qid, epoch), bucket in self._deferred_results.items()
            if qid == sub_qid
        }

    def epochs(self, qid: str) -> Set[int]:
        reg = self._registered.get(qid)
        if reg is None:
            return set()
        subs = [q.qid for q in flatten(reg.query)]
        return {
            epoch
            for (sub, epoch) in self._results
            if sub in subs
        }

    def detections(self, qid: str) -> Dict[int, List]:
        """Final per-epoch detections of a registered query.

        Single-chain queries yield their reported keys; composites run
        their CPU join over the sub-query results.
        """
        reg = self._registered.get(qid)
        if reg is None:
            raise KeyError(f"query {qid!r} is not registered")
        out: Dict[int, List] = {}
        if isinstance(reg.query, CompositeQuery):
            for epoch in sorted(self.epochs(qid)):
                window = {
                    sub.qid: self._results.get((sub.qid, epoch), {})
                    for sub in reg.query.subqueries
                }
                out[epoch] = reg.query.join(window)
        else:
            for epoch in sorted(self.epochs(qid)):
                bucket = self._results.get((qid, epoch), {})
                out[epoch] = sorted(bucket)
        return out

    @property
    def message_count(self) -> int:
        """Monitoring messages received (mirrored reports + deferrals)."""
        return len(self.reports) + self.deferred_packets

    def prune(self, before_epoch: int) -> int:
        """Discard windowed results and raw reports older than
        ``before_epoch`` — required for long-running drivers, which would
        otherwise accumulate every window's state for the whole uptime.
        Returns the number of (qid, epoch) buckets dropped."""
        stale = [k for k in self._results if k[1] < before_epoch]
        for key in stale:
            del self._results[key]
            self._deferred_results.pop(key, None)
        self.reports = [r for r in self.reports if r.epoch >= before_epoch]
        return len(stale)

    def export_results(self) -> Tuple[Buckets, Buckets]:
        """Copy of every retained ``(sub_qid, epoch)`` answer bucket and
        of the deferred share, as :meth:`absorb_results` takes them."""
        return ({key: dict(b) for key, b in self._results.items()},
                {key: dict(b) for key, b in self._deferred_results.items()})

    def absorb_results(self, exported: Tuple[Buckets, Buckets]) -> None:
        """Take over another replica's exported buckets (the fabric's
        control replica absorbing an owner shard's answers)."""
        results, deferred = exported
        self._results.update(results)
        self._deferred_results.update(deferred)

    def reset(self) -> None:
        self._results.clear()
        self._deferred_results.clear()
        self._deferred_states.clear()
        self.reports.clear()
        self.deferred_packets = 0
        self._deferred_epoch = 0


def result_key_fields(query: Query) -> Tuple[str, ...]:
    """Field order of the query's final aggregation key."""
    for prim in reversed(query.primitives):
        if isinstance(prim, (Reduce, Distinct, Map)):
            return tuple(expr.field for expr in prim.keys)
    return ()


def result_set_id(compiled: CompiledQuery) -> int:
    """Metadata set whose fields carry the result keys in reports."""
    from repro.core.rules import SConfig

    last: Optional[int] = None
    fallback = 0
    for spec in compiled.specs:
        if spec.module_type is ModuleType.STATE_BANK:
            fallback = spec.set_id
            config = spec.config
            if isinstance(config, SConfig) and not config.passthrough:
                last = spec.set_id
    return fallback if last is None else last
