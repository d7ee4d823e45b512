"""Vectorized (columnar batch) execution engine.

Packets run in :class:`~repro.traffic.columnar.ColumnarTrace` batches.
Each chunk is split into sub-batches at the points where control-plane
effects can interleave with the data plane:

* a 100 ms window boundary (register reset + collector/analyzer close),
* a scheduled :meth:`NetworkSimulator.at` callback (which may mutate
  rules — so a rule-epoch flip also lands on a sub-batch edge).

Inside a sub-batch nothing external can happen, so the per-switch rule
state is frozen and the compiled rule programs (:mod:`repro.engine.
program`) run each installed query over whole packet columns at once.
``newton_init`` dispatch is per ingress switch; execution is per query:
the programs one query compiled to on different switches are the same
ops over different register arrays whenever the switches hold the same
version of it, so they run once over the switches' packets together and
only the state bank is visited switch by switch.
State-bank updates go through :meth:`RegisterArray.execute_many`, whose
grouped scans (rows radix-grouped by register, linear in the batch) are
bit-identical to the sequential ALU.  Hashing follows
the sketch shape: each K packs its key column into ``uint64`` words and
deduplicates it once into a :class:`~repro.dataplane.hashing.KeyGroup`
that every H behind it shares, and each H resolves only the distinct
keys through its seed's cross-window memo
(:func:`~repro.dataplane.hashing.hash_rows`; one blake2b per never-seen
key) — the two hot loops of the scalar path.  Rows are forwarded per
path group; among equal-cost paths the router picks, one flow-hash
column per host pair (:meth:`Router.path_choices`).

Batches whose rule state the compiler cannot express (multi-slice CQE
queries) fall back to the scalar reference engine
packet by packet, trading speed, never correctness.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.base import ExecutionEngine
from repro.engine.program import (
    SwitchPrograms,
    compile_switch_programs,
    execute_program,
)
from repro.engine.scalar import ScalarEngine
from repro.network.routing import RoutingError
from repro.traffic.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarTrace,
    iter_column_chunks,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rules import Report
    from repro.dataplane.switch import Switch
    from repro.network.simulator import NetworkSimulator, SimulationStats
    from repro.runtime.sanitizer import Sanitizer
    from repro.traffic.columnar import PacketSource

__all__ = ["VectorizedEngine"]


class VectorizedEngine(ExecutionEngine):
    """Columnar batched execution with scalar fallback."""

    name = "vector"

    def __init__(self, batch_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self._scalar = ScalarEngine()
        #: switch id -> ((rule_epoch, mutation_seq), compiled programs)
        self._programs: Dict[Hashable,
                             Tuple[Tuple[int, int], SwitchPrograms]] = {}

    # ------------------------------------------------------------------ #

    def run(self, sim: "NetworkSimulator", packets: "PacketSource",
            stats: "SimulationStats") -> "SimulationStats":
        window_s = sim.window_s
        for chunk in iter_column_chunks(packets, self.batch_size):
            ts = chunk.ts
            # Same truncation toward zero as ``sim.advance``'s
            # ``int(ts / window_s)``: a ts in (-window, 0) belongs to
            # window 0 for both engines, anything earlier is an epoch
            # regression for both.
            epoch_col = (ts / window_s).astype(np.int64)
            n = len(chunk)
            pos = 0
            while pos < n:
                sim.advance(float(ts[pos]))
                end = self._split_at(sim, ts, epoch_col, pos)
                sub = chunk.slice(pos, end)
                if self._supported(sim):
                    self._run_batch(sim, sub, stats)
                    # Nothing is due and no window ends inside a
                    # sub-batch: this only moves trace time to its end.
                    sim.advance(float(ts[end - 1]))
                else:
                    for i in range(len(sub)):
                        self._scalar.step(sim, sub.packet_at(i), stats)
                pos = end
        return sim.finish(stats)

    def _split_at(self, sim: "NetworkSimulator", ts: np.ndarray,
                  epoch_col: np.ndarray, pos: int) -> int:
        """End (exclusive) of the homogeneous sub-batch starting at ``pos``.

        Linear masks instead of ``searchsorted`` on purpose: the scalar
        loop tolerates timestamps that are unsorted *within* a window
        (only an epoch regression raises), and the vector engine must
        accept exactly the same traces.
        """
        splits = epoch_col[pos:] != sim.epoch
        pending = sim.next_scheduled_ts()
        if pending is not None:
            splits = splits | (ts[pos:] >= pending)
        hits = np.flatnonzero(splits)
        if len(hits) == 0:
            return len(ts)
        # splits[0] is always False: the window was just synced to
        # ts[pos] and every callback at or before it already fired.
        return pos + int(hits[0])

    # ------------------------------------------------------------------ #
    # Rule-program compilation (bundle cached per rule state, programs   #
    # per installed version)                                             #
    # ------------------------------------------------------------------ #

    def _programs_for(self, sim: "NetworkSimulator",
                      sid: Hashable) -> SwitchPrograms:
        pipeline = sim.switches[sid].pipeline
        key = (pipeline.rule_epoch, pipeline.mutation_seq)
        cached = self._programs.get(sid)
        if cached is not None and cached[0] == key:
            return cached[1]
        bundle = compile_switch_programs(
            pipeline, None if cached is None else cached[1]
        )
        self._programs[sid] = (key, bundle)
        return bundle

    def _supported(self, sim: "NetworkSimulator") -> bool:
        for sid in self._programs.keys() - sim.switches.keys():
            del self._programs[sid]
        for sid, switch in sim.switches.items():
            if not switch.newton_enabled:
                continue
            if not self._programs_for(sim, sid).supported:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Batched forwarding                                                 #
    # ------------------------------------------------------------------ #

    def _run_batch(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                   stats: "SimulationStats") -> None:
        n = len(batch)
        # Fabric-plane primary mask: rows whose per-packet stats this
        # shard owns (``None`` outside sharded runs = own every row).
        # Execution covers every row, but all per-hop accounting
        # (drops / delivery / payload bytes) is primary-only, and every
        # program here is single-slice and ingress-executed (that is
        # what ``_supported`` guarantees), so non-primary rows never
        # need the path walk at all — only their ingress switch.  The
        # ECMP machinery therefore runs on this shard's ~1/W primary
        # slice, which is what makes sharded routing cost scale.
        primary: Optional[np.ndarray] = (
            None if sim.shard is None else sim.shard.owned_mask(batch)
        )
        stats.packets += n if primary is None else int(primary.sum())
        len_col = batch.columns["len"]
        ts = batch.ts
        ingress_rows: Dict[Hashable, List[np.ndarray]] = {}
        if primary is None:
            walk = None
        else:
            walk = np.flatnonzero(primary)
            self._collect_ingress(
                sim, batch, np.flatnonzero(~primary), ingress_rows
            )
        # Hop-by-hop forwarding per path group: reboot drops and the
        # delivered/payload accounting only depend on the path and the
        # timestamps, never on pipeline state (all programs here are
        # single-slice, so downstream hops carry an empty SP header and
        # contribute zero sp_bytes — exactly like the scalar loop).
        for path, rows in self._path_groups(sim, batch, walk):
            alive = np.ones(len(rows), dtype=bool)
            for hop, sid in enumerate(path):
                switch = sim.switches[sid]
                if switch.has_outage:
                    forwarding = _forwarding_mask(switch, ts[rows])
                    blocked = alive & ~forwarding
                    dropped = int(blocked.sum())
                    if dropped:
                        # Sharded: per-switch drop counters hold this
                        # shard's primary rows only (they sum to the
                        # single-process counts across the fabric).
                        switch.dropped_packets += dropped
                        stats.dropped += dropped
                        alive &= forwarding
                if hop == 0 and switch.newton_enabled:
                    ingress_rows.setdefault(sid, []).append(rows[alive])
                if hop + 1 < len(path):
                    stats.payload_bytes += int(len_col[rows[alive]].sum())
                if not alive.any():
                    break
            else:
                stats.delivered += int(alive.sum())
        # Ingress pipeline execution: dispatch per switch, one program
        # run per query and shape over every switch's rows.
        pending: List[Tuple[int, int, Hashable, "Report"]] = []
        self._run_ingress(sim, batch, ingress_rows, stats, pending)
        self._emit_reports(sim, stats, pending)

    def _collect_ingress(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                         rows: np.ndarray,
                         ingress_rows: Dict[Hashable, List[np.ndarray]]) -> None:
        """Route ``rows`` to their ingress switch only (no path walk).

        Sharded runs use this for non-primary rows: their pipelines must
        still execute at the ingress edge (owned-query state is keyed by
        flow, not by primary shard), but all downstream accounting
        belongs to the primary shard, so the full forwarding walk — and
        with it the ECMP machinery — is skipped.
        """
        if len(rows) == 0:
            return
        src = batch.src_host_ids
        if len(batch.host_table) == 0 or int(src[rows].min()) < 0:
            raise RoutingError(
                "packet carries no src/dst host; set Packet.src_host/dst_host"
            )
        ts = batch.ts
        hosts, inverse = np.unique(src[rows], return_inverse=True)
        for hi in range(len(hosts)):
            sel = rows[inverse == hi]
            sid = sim.topology.attachment(batch.host_table[int(hosts[hi])])
            switch = sim.switches[sid]
            if switch.has_outage:
                sel = sel[_forwarding_mask(switch, ts[sel])]
            if switch.newton_enabled and len(sel):
                ingress_rows.setdefault(sid, []).append(sel)

    def _path_groups(
        self, sim: "NetworkSimulator", batch: ColumnarTrace,
        subset: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[Sequence[Hashable], np.ndarray]]:
        """Yield ``(path, ascending row indices)`` per forwarding path.

        ``subset`` restricts the walk to those batch rows (sharded runs
        route only their primary slice); yielded indices are always
        batch-global.
        """
        src = batch.src_host_ids
        dst = batch.dst_host_ids
        if subset is not None:
            if len(subset) == 0:
                return
            src = src[subset]
            dst = dst[subset]
        if len(batch.host_table) == 0 or int(min(src.min(), dst.min())) < 0:
            raise RoutingError(
                "packet carries no src/dst host; set Packet.src_host/dst_host"
            )
        stride = np.int64(len(batch.host_table) + 1)
        pair = src * stride + dst
        pair_values, pair_inverse = np.unique(pair, return_inverse=True)
        router = sim.router
        for gi in range(len(pair_values)):
            local = np.flatnonzero(pair_inverse == gi)
            rows = local if subset is None else subset[local]
            src_host = batch.host_table[int(src[local[0]])]
            dst_host = batch.host_table[int(dst[local[0]])]
            src_switch = sim.topology.attachment(src_host)
            dst_switch = sim.topology.attachment(dst_host)
            paths = router.switch_paths(src_switch, dst_switch)
            if len(paths) == 1 or not router.ecmp:
                yield paths[0], rows
                continue
            per_row = router.path_choices(batch.columns, rows, len(paths))
            for pi in range(len(paths)):
                sel = rows[per_row == pi]
                if len(sel):
                    yield paths[pi], sel

    def _run_ingress(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                     ingress_rows: Dict[Hashable, List[np.ndarray]],
                     stats: "SimulationStats",
                     pending: List[Tuple[int, int, Hashable, "Report"]]) -> None:
        """Dispatch every ingress switch's rows, then run each query once.

        Packets from different path groups can collide on the same
        register cells, so each switch must see its packets in global
        (row) order: a switch's rows are sorted before dispatch, and a
        run concatenates its members whole, one switch after the other.
        """
        # Switches whose newton_init tables (and shard filters) are equal
        # share one evaluation of the match masks.
        tables: Dict[Hashable, List[Tuple]] = {}
        for sid in sorted(ingress_rows, key=str):
            rows = np.sort(np.concatenate(ingress_rows[sid]))
            bundle = self._programs_for(sim, sid)
            if len(rows) and bundle.entries:
                tables.setdefault(
                    (bundle.entries, sim.switches[sid].pipeline.query_filter),
                    [],
                ).append((sid, bundle, rows))
        # qid -> runs; a run is the (switch id, program, global rows,
        # dispatch ranks) of every switch holding a program of one shape.
        runs: Dict[str, List[List[Tuple]]] = {}
        for (entries, owned_queries), hosts in tables.items():
            big = np.int64(len(entries))
            ranks = _dispatch_ranks(
                entries, owned_queries, batch.columns,
                np.concatenate([rows for _sid, _bundle, rows in hosts]),
            )
            start = 0
            for sid, bundle, rows in hosts:
                for qid, rank in ranks.items():
                    program = bundle.programs.get(qid)
                    if program is None:
                        continue
                    rank = rank[start:start + len(rows)]
                    sel = np.flatnonzero(rank < big)
                    if len(sel) == 0:
                        continue
                    stats.initiated_by_query[qid] += len(sel)
                    member = (sid, program, rows[sel], rank[sel])
                    # A scan, not a dict: a query has one or two shapes,
                    # and comparing them is cheaper than hashing one.
                    for members in runs.setdefault(qid, []):
                        if members[0][1].shape == program.shape:
                            members.append(member)
                            break
                    else:
                        runs[qid].append([member])
                start += len(rows)
        sanitizer = sim.sanitizer
        # switch id -> hash unit -> qid -> {(global row, key bytes)} hashed.
        hashed: Dict[Hashable, Dict[Tuple[int, int], Dict[str, set]]] = {}
        for qid, of_query in runs.items():
            for members in of_query:
                sids, programs, row_parts, rank_parts = zip(*members)
                pipelines = [sim.switches[sid].pipeline for sid in sids]
                bounds = [0]
                for part in row_parts:
                    bounds.append(bounds[-1] + len(part))
                rows = np.concatenate(row_parts)
                rank = np.concatenate(rank_parts)
                reports: List[Tuple[int, "Report"]] = []
                hash_trace: Optional[List] = (
                    [] if sanitizer is not None else None
                )
                execute_program(
                    programs, bounds,
                    {name: batch.columns[name][rows]
                     for name in programs[0].fields_needed},
                    batch.ts[rows],
                    [pipeline.epoch for pipeline in pipelines],
                    [pipeline.switch_id for pipeline in pipelines],
                    reports, sanitizer=sanitizer, hash_trace=hash_trace,
                )
                for unit_key, local_idx, group in hash_trace or ():
                    touched = rows[local_idx].tolist()
                    keys = [group.raw[i] for i in group.inverse.tolist()]
                    cuts = np.searchsorted(local_idx, bounds).tolist()
                    for sid, lo, hi in zip(sids, cuts, cuts[1:]):
                        if lo < hi:
                            hashed.setdefault(sid, {}).setdefault(
                                unit_key, {}
                            ).setdefault(qid, set()).update(
                                zip(touched[lo:hi], keys[lo:hi])
                            )
                for local, report in reports:
                    pending.append((
                        int(rows[local]), int(rank[local]),
                        sids[bisect_right(bounds, local) - 1], report,
                    ))
        for sid in sorted(hashed, key=str):
            _check_hash_collisions(sanitizer, sid, hashed[sid])

    def _emit_reports(self, sim: "NetworkSimulator",
                      stats: "SimulationStats",
                      pending: List[Tuple[int, int, Hashable, "Report"]]) -> None:
        """Deliver reports in the order the scalar loop would have.

        Sorted by (packet row, dispatch rank); the sort is stable, so
        multiple reports of one program keep their emission order.  Per
        packet, all analyzer sinks fire before the collector ingests —
        same relative order as ``process()`` + the forwarding loop.
        """
        pending.sort(key=lambda item: (item[0], item[1]))
        i = 0
        total = len(pending)
        while i < total:
            j = i
            row = pending[i][0]
            while j < total and pending[j][0] == row:
                j += 1
            for _row, _rank, sid, report in pending[i:j]:
                sink = sim.switches[sid].pipeline.report_sink
                if sink is not None:
                    sink(report)
                stats.reports_by_switch[sid] += 1
            if sim.collector is not None:
                for _row, _rank, _sid, report in pending[i:j]:
                    sim.collector.ingest(report)
            i = j


def _dispatch_ranks(
    entries: Sequence[Tuple[str, Tuple[Tuple[str, int, int], ...]]],
    owned_queries: Optional[frozenset],
    columns: Dict[str, np.ndarray], rows: np.ndarray,
) -> Dict[str, np.ndarray]:
    """``newton_init`` over ``rows`` of ``columns``: per matching qid, the
    index of each row's first (highest-priority) matching entry, or
    ``len(entries)`` for none — mirrors ``lookup_all`` + the ``seen`` qid
    dedupe.  The index is also the cross-query report ordering rank.
    """
    big = np.int64(len(entries))
    cols: Dict[str, np.ndarray] = {}
    ranks: Dict[str, np.ndarray] = {}
    for position, (qid, match) in enumerate(entries):
        # Shard execution filter: non-owned queries never dispatch
        # here (``enumerate`` keeps the owned entries' ranks — and
        # therefore the cross-query report order — unchanged).
        if owned_queries is not None and qid not in owned_queries:
            continue
        matched = np.ones(len(rows), dtype=bool)
        for name, value, mask in match:
            column = cols.get(name)
            if column is None:
                column = cols[name] = columns[name][rows]
            matched &= (column & mask) == (value & mask)
        if not matched.any():
            continue
        entry_rank = np.where(matched, np.int64(position), big)
        rank = ranks.get(qid)
        if rank is None:
            ranks[qid] = entry_rank
        else:
            np.minimum(rank, entry_rank, out=rank)
    return ranks


def _forwarding_mask(switch: "Switch", ts: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Switch.is_forwarding` over a timestamp column.

    Searches the switch's merged outage intervals (same structure the
    scalar path bisects) — O(log n) per batch, never a scan of the raw
    reboot history.
    """
    intervals = switch.outage_intervals()
    if not intervals:
        return np.ones(len(ts), dtype=bool)
    starts = np.array([s for s, _ in intervals])
    ends = np.array([e for _, e in intervals])
    idx = np.searchsorted(starts, ts, side="right") - 1
    inside = (idx >= 0) & (ts < ends[np.clip(idx, 0, len(ends) - 1)])
    return ~inside


def _check_hash_collisions(
    sanitizer: "Sanitizer",
    sid: Hashable,
    hashed: Dict[Tuple[int, int], Dict[str, set]],
) -> None:
    """Cross-query hash-unit collision scan over one ingress batch.

    Mirrors the scalar sanitizer exactly: for each physical unit, two
    queries collide on a packet when both hashed the *same key bytes*
    through it, so the hit count of a query pair is the size of the
    intersection of their ``(row, key)`` sets — the scalar per-packet
    pair count.
    """
    for (seed, range_size), per_qid in hashed.items():
        qids = sorted(per_qid)
        for i, qa in enumerate(qids):
            for qb in qids[i + 1:]:
                hits = len(per_qid[qa] & per_qid[qb])
                if hits:
                    sanitizer.record(
                        "hash-collision",
                        (
                            f"queries [{qa!r}] and {qb!r} hashed the "
                            f"same key through hash unit "
                            f"(seed={seed:#x}, range={range_size}) in "
                            f"one batch"
                        ),
                        switch=sid, qid=qb, count=hits,
                    )
