"""Software analyzer.

The endpoint of Newton's mirrored monitoring messages (paper Figure 1):
the collector's ingest hands it every report, decoded once.  It indexes
them per query and window, runs the CPU-side join
of composite queries, and executes *deferred* query remainders — the §5.2
fallback when a query requires more switches than the forwarding path has
hops.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.ast import Distinct, Map, Reduce
from repro.core.compiler import CompiledQuery
from repro.core.groundtruth import QueryStreamState
from repro.core.packet import Packet
from repro.core.query import CompositeQuery, Query, QueryLike, flatten
from repro.core.rules import Report
from repro.dataplane.module_types import ModuleType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.collector.records import ReportRecord
    from repro.core.controller import NewtonController

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


class Analyzer:
    """Keeps the mirrored reports, joins composites, and runs deferred
    remainders.

    Reports arrive from the collector's ingest, already decoded
    (:meth:`on_report`); queries resolve through the controller's
    ``installed`` records — the controller sets :attr:`controller` when
    it is built with this analyzer.
    """

    def __init__(self) -> None:
        self.controller: Optional["NewtonController"] = None
        #: Every answer seen: from mirrored reports (losslessly) and from
        #: deferred CPU execution.
        self._results: Buckets = defaultdict(dict)
        #: The deferred-execution share of ``_results`` on its own: what
        #: the collection plane composes its report-derived answers with
        #: (composing with ``_results`` would undo its loss model).
        self._deferred_results: Buckets = {}
        #: sub-qid -> (top-level qid, CPU state of its deferred remainder).
        self._deferred_states: Dict[str, Tuple[str, QueryStreamState]] = {}
        self.reports: List[Report] = []
        self.deferred_packets = 0

    def on_commit(self, op, record) -> None:
        """Controller commit listener: a query installed, replaced or
        removed restarts its sub-queries' deferred CPU state."""
        for sub_qid in [sub for sub, (top, _state)
                        in self._deferred_states.items() if top == op.qid]:
            del self._deferred_states[sub_qid]

    def _query(self, qid: str) -> Optional[QueryLike]:
        """The installed top-level query ``qid`` (None if not installed)."""
        if self.controller is None:
            return None
        record = self.controller.installed.get(qid)
        return None if record is None else record.query

    # ------------------------------------------------------------------ #
    # Report ingestion                                                    #
    # ------------------------------------------------------------------ #

    def on_report(self, report: Report,
                  record: Optional["ReportRecord"] = None) -> None:
        """The collector's mirror of one report: kept raw, and counted
        under its query and window when ``record`` (its decoded form)
        is given — ``None`` for a query that is not installed."""
        self.reports.append(report)
        if record is None:
            return
        bucket = self._results[(record.qid, record.epoch)]
        count = 1 if record.count is None else record.count
        bucket[record.key] = max(bucket.get(record.key, 0), count)

    # ------------------------------------------------------------------ #
    # Deferred execution (paper §5.2)                                     #
    # ------------------------------------------------------------------ #

    def defer(self, sub_qid: str, packet: Packet, start_at: int) -> None:
        """Continue ``sub_qid`` on CPU for a packet the path could not
        finish; ``start_at`` is the first primitive still to run."""
        self.deferred_packets += 1
        entry = self._deferred_states.get(sub_qid)
        if entry is None:
            installed = self.controller.installed if self.controller else {}
            found = next((
                (top_qid, sub)
                for top_qid, record in installed.items()
                for sub in flatten(record.query) if sub.qid == sub_qid
            ), None)
            if found is None:
                return
            entry = (found[0], QueryStreamState(found[1], start_at=start_at))
            self._deferred_states[sub_qid] = entry
        entry[1].process(packet)

    def advance_window(self, epoch: int) -> None:
        """Close window ``epoch`` for deferred CPU execution."""
        for sub_qid, (_top, state) in self._deferred_states.items():
            truth = state.finish_window(epoch)
            bucket = self._results[(sub_qid, epoch)]
            deferred = self._deferred_results.setdefault(
                (sub_qid, epoch), {}
            )
            for key in truth.keys:
                count = truth.counts.get(key, 1)
                bucket[key] = max(bucket.get(key, 0), count)
                deferred[key] = max(deferred.get(key, 0), count)

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
        query = self._query(qid)
        if query is None:
            return set()
        subs = {q.qid for q in flatten(query)}
        return {
            epoch
            for (sub, epoch) in self._results
            if sub in subs
        }

    def detections(self, qid: str) -> Dict[int, List]:
        """Final per-epoch detections of an installed query.

        Single-chain queries yield their reported keys; composites run
        their CPU join over the sub-query results.
        """
        query = self._query(qid)
        if query is None:
            raise KeyError(f"query {qid!r} is not installed")
        out: Dict[int, List] = {}
        if isinstance(query, CompositeQuery):
            for epoch in sorted(self.epochs(qid)):
                window = {
                    sub.qid: self._results.get((sub.qid, epoch), {})
                    for sub in query.subqueries
                }
                out[epoch] = query.join(window)
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
