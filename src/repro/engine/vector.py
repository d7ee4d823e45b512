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
version of it, so they make one *run* over the switches' packets
together.  Hashing follows the sketch shape: each K packs its key column
into ``uint64`` words and deduplicates it once into a
:class:`~repro.dataplane.hashing.KeyGroup` that every H behind it
shares, and each H resolves only the distinct keys through its seed's
cross-window memo (:func:`~repro.dataplane.hashing.hash_rows`: one
C-level lookup pass, one copy of a seed-keyed blake2b per never-seen
key) — the two hot loops of the scalar path.

The runs of a sub-batch are not executed one after the other either:
every run of at most ``_STACK_ROWS`` rows joins the sub-batch's *stack*,
whose runs :func:`execute_program` advances in lockstep rounds that
share their kernel calls (:mod:`repro.engine.program`).  At ingress the
stack is every small run of the sub-batch; downstream, every small run
of one slice cursor's layout segment.  Rows are forwarded per path
group; among equal-cost paths the router picks, one flow-hash column per
host pair (:meth:`Router.path_choices`).

Cross-switch (CQE) queries stay on the batch path: the SP header rides
as columns.  A slice-0 run returns its rows' :class:`~repro.engine.
program.RowContext` (active flag, global result, both metadata sets);
the rows of a sliced query still active carry it, with the rule epoch
their ingress switch stamped, to the next slice — run at the first hop
of the row's path whose switch holds that slice's version for the
stamped epoch (a hop holding none, a legacy switch included, leaves the
cursor where it is), one program run per query and shape there too, the
runs of one layout segment stacked.
Entries are stripped where they complete or stop; SP bytes are 12 per
entry per link it rode, and whatever is still in flight at the egress
of a delivered packet is deferred to the analyzer, per packet in
dispatch order — the accounting of the scalar forwarding loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.base import ExecutionEngine
from repro.engine.program import (
    ProgramRun,
    RowContext,
    RuleProgram,
    SwitchPrograms,
    compile_switch_programs,
    concat_contexts,
    execute_program,
)
from repro.network.routing import RoutingError
from repro.network.snapshot import SP_HEADER_BYTES
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

#: A program run of at most this many rows joins its sub-batch's stack,
#: whose runs advance in lockstep and share their kernel calls; a longer
#: run is a stack of its own — its calls are long enough that their fixed
#: cost is no longer most of them, and stacking it measured slower
#: (EXPERIMENTS.md "Stacked execution").
_STACK_ROWS = 4096


class VectorizedEngine(ExecutionEngine):
    """Columnar batched execution of every installed query, sliced or not."""

    name = "vector"

    def __init__(self, batch_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size
        #: switch id -> ((rule_epoch, mutation_seq), compiled programs)
        self._programs: Dict[Hashable,
                             Tuple[Tuple[int, int], SwitchPrograms]] = {}

    # ------------------------------------------------------------------ #

    def run(self, sim: "NetworkSimulator", packets: "PacketSource",
            stats: "SimulationStats") -> "SimulationStats":
        # Forget the bundles of switches that left the simulator.
        for sid in self._programs.keys() - sim.switches.keys():
            del self._programs[sid]
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
                self._run_batch(sim, chunk.slice(pos, end), stats)
                # Nothing is due and no window ends inside a sub-batch:
                # this only moves trace time to its end.
                sim.advance(float(ts[end - 1]))
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

    # ------------------------------------------------------------------ #
    # Batched forwarding                                                 #
    # ------------------------------------------------------------------ #

    def _run_batch(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                   stats: "SimulationStats") -> None:
        n = len(batch)
        # Fabric-plane primary mask: rows whose per-packet stats this
        # shard owns (``None`` outside sharded runs = own every row).
        # Every row is walked — a shard runs the downstream slices of
        # the rows it is not primary for, since its owned queries'
        # state is keyed by flow, not by primary shard — but drops,
        # delivery and payload bytes are counted for primary rows only.
        primary: Optional[np.ndarray] = (
            None if sim.shard is None else sim.shard.owned_mask(batch)
        )
        stats.packets += n if primary is None else int(primary.sum())
        len_col = batch.columns["len"]
        ts = batch.ts
        routes = _Routes(n)
        ingress_rows: Dict[Hashable, List[np.ndarray]] = {}
        # Hop-by-hop forwarding per path group: reboot drops and the
        # delivered/payload accounting only depend on the path and the
        # timestamps, never on pipeline state.
        for path, rows in self._path_groups(sim, batch):
            own = None if primary is None else primary[rows]
            reach = np.full(len(rows), len(path), dtype=np.int64)
            alive = np.ones(len(rows), dtype=bool)
            for hop, sid in enumerate(path):
                switch = sim.switches[sid]
                if switch.has_outage:
                    forwarding = _forwarding_mask(switch, ts[rows])
                    blocked = alive & ~forwarding
                    reach[blocked] = hop
                    dropped = _count(blocked, own)
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
                    paid = alive if own is None else alive & own
                    stats.payload_bytes += int(len_col[rows[paid]].sum())
                if not alive.any():
                    break
            else:
                stats.delivered += _count(alive, own)
            routes.groups.append((path, rows, reach))
        # Pipeline execution: dispatch per ingress switch, one program
        # run per query and shape over every switch's rows, then the
        # in-flight slices hop by hop.
        pending: List[Tuple[int, int, int, Hashable, "Report"]] = []
        parked = self._run_ingress(sim, batch, ingress_rows, routes, stats,
                                   pending)
        self._emit_reports(sim, stats, pending)
        self._egress(sim, batch, routes, parked, stats)

    def _path_groups(
        self, sim: "NetworkSimulator", batch: ColumnarTrace,
    ) -> Iterator[Tuple[Sequence[Hashable], np.ndarray]]:
        """Yield ``(path, ascending row indices)`` per forwarding path."""
        src = batch.src_host_ids
        dst = batch.dst_host_ids
        if len(batch.host_table) == 0 or int(min(src.min(), dst.min())) < 0:
            raise RoutingError(
                "packet carries no src/dst host; set Packet.src_host/dst_host"
            )
        stride = np.int64(len(batch.host_table) + 1)
        pair = src * stride + dst
        pair_values, pair_inverse = np.unique(pair, return_inverse=True)
        router = sim.router
        for gi in range(len(pair_values)):
            rows = np.flatnonzero(pair_inverse == gi)
            src_host = batch.host_table[int(src[rows[0]])]
            dst_host = batch.host_table[int(dst[rows[0]])]
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
                     routes: "_Routes", stats: "SimulationStats",
                     pending: List[Tuple[int, int, int, Hashable, "Report"]],
                     ) -> List["_Parked"]:
        """Dispatch every ingress switch's rows, run each query once, then
        continue the sliced queries downstream; returns the SP entries
        still in flight at the end of their paths.

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
                    _join(runs.setdefault(qid, []),
                          (sid, program, rows[sel], rank[sel]))
                start += len(rows)
        # switch id -> hash unit -> qid -> {(global row, key bytes)} hashed.
        hashed: Dict[Hashable, Dict[Tuple[int, int], Dict[str, set]]] = {}
        # qid -> SP entries leaving the ingress switch.
        flights: Dict[str, List[_Flight]] = {}
        jobs = [_Job(members, 0) for of_query in runs.values()
                for members in of_query]
        for job, rows, rank, ctx in self._execute(sim, batch, jobs, pending,
                                                  hashed):
            sids, programs, row_parts, _ranks = zip(*job.members)
            if all(program.total_slices == 1 for program in programs):
                continue
            totals = _per_member(
                [program.total_slices for program in programs], row_parts)
            carry = np.flatnonzero(ctx.act & (totals > 1))
            if len(carry):
                flights.setdefault(programs[0].qid, []).append(_Flight(
                    rows[carry], rank[carry],
                    np.zeros(len(carry), dtype=np.int64),
                    _per_member(
                        [sim.switches[sid].rule_epoch for sid in sids],
                        row_parts)[carry],
                    _per_member([p.epoch_from for p in programs],
                                row_parts)[carry],
                    totals[carry], ctx.take(carry),
                ))
        parked: List[_Parked] = []
        for qid, flight in flights.items():
            cursor = 1
            while flight:
                flight = self._run_slice(sim, batch, routes, qid, cursor,
                                         flight, stats, pending, hashed,
                                         parked)
                cursor += 1
        for sid in sorted(hashed, key=str):
            _check_hash_collisions(sim.sanitizer, sid, hashed[sid])
        return parked

    def _run_slice(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                   routes: "_Routes", qid: str, cursor: int,
                   flight: List["_Flight"], stats: "SimulationStats",
                   pending: List[Tuple[int, int, int, Hashable, "Report"]],
                   hashed: Dict[Hashable, Dict[Tuple[int, int],
                                               Dict[str, set]]],
                   parked: List["_Parked"]) -> List["_Flight"]:
        """Run slice ``cursor`` of ``qid`` for every row that carries it.

        Each row runs it at the first hop past the last one it ran a
        slice at whose switch holds the version of the rule epoch its
        ingress switch stamped; a hop holding none leaves the cursor
        where it is, as :meth:`NewtonPipeline.process` does.  A row with
        no such hop before its path ends (or it is dropped) keeps the
        entry to the end — it is parked.  Every register array sees its
        rows in row order: a slice's version is executed at this cursor
        only.  Returns the entries still in flight after it.
        """
        # Rows whose contexts are laid out alike sit side by side, and
        # each layout's rows share one context.
        flight = sorted(flight, key=lambda part: repr(part.ctx.layout()))
        rows, rank, hop, stamp, first, total = (
            np.concatenate(column) for column in zip(*(
                (part.rows, part.rank, part.hop, part.stamp, part.first,
                 part.total) for part in flight)))
        contexts: List[RowContext] = []
        starts: List[int] = []
        layout_parts: List[np.ndarray] = []
        for _layout, group in groupby(flight, lambda part: part.ctx.layout()):
            parts = list(group)
            size = sum(len(part.rows) for part in parts)
            starts.append(sum(len(part) for part in layout_parts))
            layout_parts.append(np.full(size, len(contexts)))
            contexts.append(concat_contexts([part.ctx for part in parts]))
        layout_of = np.concatenate(layout_parts)
        members, member, at_hop = self._next_hops(
            sim, routes, qid, cursor, rows, stamp, hop)
        idle = np.flatnonzero(member < 0)
        if len(idle):
            # The entry rides every remaining link of the path walked.
            _path_id, reach, length = routes.per_row()
            reach = reach[rows[idle]]
            length = length[rows[idle]]
            stats.sp_bytes += SP_HEADER_BYTES * int(
                np.minimum(reach, length - 1).sum())
            parked.append(_Parked(rows[idle], rank[idle], qid, cursor,
                                  reach == length))
        # Segments of one layout in row order: one segment unless two
        # upstream definitions meet here.
        going = np.flatnonzero(member >= 0)
        going = going[np.argsort(rows[going], kind="stable")]
        cuts = np.flatnonzero(np.diff(layout_of[going])) + 1
        onward: List[_Flight] = []
        for segment in np.split(going, cuts):
            if len(segment) == 0:
                continue
            lid = int(layout_of[segment[0]])
            runs: List[List[Tuple]] = []
            for index in np.unique(member[segment]).tolist():
                sel = segment[member[segment] == index]   # row order
                sid, program = members[index]
                _join(runs, (sid, program, rows[sel], rank[sel], sel))
            jobs = []
            for run in runs:
                local = np.concatenate([m[4] for m in run])
                jobs.append(_Job([m[:4] for m in run], at_hop[local],
                                 contexts[lid].take(local - starts[lid]),
                                 local))
            for job, _rows, _rank, ctx in self._execute(
                    sim, batch, jobs, pending, hashed):
                local = job.local
                assert local is not None
                ran = _per_member([m[1].epoch_from for m in job.members],
                                  [m[2] for m in job.members])
                routes.mark_mixed(rows[local[ran != first[local]]])
                done = ~ctx.act | (cursor + 1 >= total[local])
                # An entry is stripped at the hop that completes it.
                stats.sp_bytes += SP_HEADER_BYTES * int(
                    at_hop[local[done]].sum())
                keep = np.flatnonzero(~done)
                if len(keep):
                    kept = local[keep]
                    onward.append(_Flight(
                        rows[kept], rank[kept], at_hop[kept], stamp[kept],
                        first[kept], total[kept], ctx.take(keep),
                    ))
        return onward

    def _next_hops(
        self, sim: "NetworkSimulator", routes: "_Routes", qid: str,
        cursor: int, rows: np.ndarray, stamp: np.ndarray, hop: np.ndarray,
    ) -> Tuple[List[Tuple[Hashable, RuleProgram]], np.ndarray, np.ndarray]:
        """Where each of ``rows`` runs slice ``cursor`` of ``qid``: the
        ``(switch id, program)`` members, each row's member index (-1
        for none) and hop.  Rows of one path, stamp and last hop go
        together; the hop is the first past the last whose switch holds
        the version, if the row was not dropped before it."""
        members: List[Tuple[Hashable, RuleProgram]] = []
        member = np.full(len(rows), -1, dtype=np.int64)
        at_hop = np.zeros(len(rows), dtype=np.int64)
        path_id, reach, _length = routes.per_row()
        reach = reach[rows]
        found: Dict[Tuple[Hashable, int], Optional[int]] = {}
        combos, inverse = np.unique(
            np.stack([path_id[rows], stamp, hop]), axis=1,
            return_inverse=True,
        )
        inverse = inverse.reshape(-1)
        for ci in range(combos.shape[1]):
            group, epoch, last = (int(v) for v in combos[:, ci])
            path = routes.groups[group][0]
            for h in range(last + 1, len(path)):
                sid = path[h]
                if (sid, epoch) not in found:
                    found[(sid, epoch)] = self._member(
                        sim, sid, qid, cursor, epoch, members)
                index = found[(sid, epoch)]
                if index is not None:
                    sel = np.flatnonzero((inverse == ci) & (reach > h))
                    member[sel] = index
                    at_hop[sel] = h
                    break
        return members, member, at_hop

    def _member(self, sim: "NetworkSimulator", sid: Hashable, qid: str,
                cursor: int, epoch: int,
                members: List[Tuple[Hashable, RuleProgram]]
                ) -> Optional[int]:
        """Index into ``members`` of the program switch ``sid`` runs for
        slice ``cursor`` of ``qid`` under rule epoch ``epoch`` (appended
        on first sight), or ``None`` when it holds no such version.
        Stamps one version is valid at share its member: a version's
        register arrays must see all their rows in row order."""
        switch = sim.switches[sid]
        if not switch.newton_enabled:
            return None
        installed = switch.pipeline.version_for(qid, cursor, epoch)
        if installed is None:
            return None
        program = self._programs_for(sim, sid).slices[
            (qid, cursor, installed.epoch_from)]
        for index, (other_sid, other) in enumerate(members):
            if other_sid == sid and other is program:
                return index
        members.append((sid, program))
        return len(members) - 1

    def _execute(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                 jobs: Sequence["_Job"],
                 pending: List[Tuple[int, int, int, Hashable, "Report"]],
                 hashed: Dict[Hashable, Dict[Tuple[int, int],
                                             Dict[str, set]]],
                 ) -> Iterator[Tuple["_Job", np.ndarray, np.ndarray,
                                     RowContext]]:
        """Run ``jobs`` through :func:`execute_program` — those of at most
        ``_STACK_ROWS`` rows as one stack, each longer one alone — queue
        their reports, note their hashes, and yield each job with its
        rows, their ranks and its final context."""
        sizes = [sum(len(member[2]) for member in job.members)
                 for job in jobs]
        stack = [job for job, size in zip(jobs, sizes) if size <= _STACK_ROWS]
        alone = [[job] for job, size in zip(jobs, sizes)
                 if size > _STACK_ROWS]
        for part in ([stack] if stack else []) + alone:
            made = [self._program_run(sim, batch, job) for job in part]
            contexts = execute_program([run for run, _rows, _rank in made],
                                       sim.sanitizer)
            for job, (run, rows, rank), ctx in zip(part, made, contexts):
                _collect(job, run, rows, rank, pending, hashed)
                yield job, rows, rank, ctx
            # Before the next run gathers its columns: one run's arrays
            # alive at a time, as when every run ran alone.
            del made, contexts

    def _program_run(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                     job: "_Job") -> Tuple[ProgramRun, np.ndarray,
                                           np.ndarray]:
        """``job`` as a :class:`ProgramRun`, with its rows (the members'
        concatenated) and their ranks."""
        sids, programs, row_parts, rank_parts = zip(*job.members)
        rows = np.concatenate(row_parts)
        pipelines = [sim.switches[sid].pipeline for sid in sids]
        bounds = [0]
        for part in row_parts:
            bounds.append(bounds[-1] + len(part))
        run = ProgramRun(
            programs, bounds,
            {name: batch.columns[name][rows]
             for name in programs[0].fields_needed},
            batch.ts[rows],
            [pipeline.epoch for pipeline in pipelines],
            [pipeline.switch_id for pipeline in pipelines],
            context=job.context,
            hash_trace=[] if sim.sanitizer is not None else None,
        )
        return run, rows, np.concatenate(rank_parts)

    def _emit_reports(
        self, sim: "NetworkSimulator", stats: "SimulationStats",
        pending: List[Tuple[int, int, int, Hashable, "Report"]],
    ) -> None:
        """Deliver reports in the order the scalar loop would have.

        Sorted by (packet row, hop, dispatch rank); the sort is stable,
        so multiple reports of one program keep their emission order.
        Per packet and hop, all analyzer sinks fire before the collector
        ingests — same relative order as ``process()`` + the forwarding
        loop.
        """
        pending.sort(key=itemgetter(0, 1, 2))
        i = 0
        total = len(pending)
        while i < total:
            j = i
            row, hop = pending[i][0], pending[i][1]
            while (j < total and pending[j][0] == row
                   and pending[j][1] == hop):
                j += 1
            for _row, _hop, _rank, sid, report in pending[i:j]:
                sink = sim.switches[sid].pipeline.report_sink
                if sink is not None:
                    sink(report)
                stats.reports_by_switch[sid] += 1
            if sim.collector is not None:
                for _row, _hop, _rank, _sid, report in pending[i:j]:
                    sim.collector.ingest(report)
            i = j

    def _egress(self, sim: "NetworkSimulator", batch: ColumnarTrace,
                routes: "_Routes", parked: List["_Parked"],
                stats: "SimulationStats") -> None:
        """``newton_fin`` for every delivered packet: count the ones that
        ran one query under two rule epochs, and hand each unfinished SP
        entry to the analyzer — per packet, in dispatch order."""
        if routes.mixed is not None:
            path_id, reach, length = routes.per_row()
            mixed = np.flatnonzero(routes.mixed & (reach == length))
            stats.mixed_rule_epoch_packets += len(mixed)
            sanitizer = sim.sanitizer
            for row in mixed.tolist() if sanitizer is not None else ():
                sanitizer.record(
                    "mixed-epoch",
                    (
                        f"packet at ts={float(batch.ts[row]):.6f} executed "
                        f"under different rule-bank epochs along its path "
                        f"{list(routes.groups[path_id[row]][0])}"
                    ),
                )
        entries = sorted(
            (row, rank, entry.qid, entry.cursor)
            for entry in parked
            for row, rank in zip(entry.rows[entry.delivered].tolist(),
                                 entry.rank[entry.delivered].tolist())
        )
        if sim.analyzer is None or sim.controller is None:
            stats.deferred += len(entries)
            return
        starts: Dict[Tuple[str, int], Optional[int]] = {}
        for row, _rank, qid, cursor in entries:
            if (qid, cursor) not in starts:
                try:
                    starts[(qid, cursor)] = sim.controller.cpu_start_for(
                        qid, cursor)
                except KeyError:
                    # The query was removed mid-window while this entry
                    # was still in flight: drop it, never crash the run.
                    starts[(qid, cursor)] = None
            start = starts[(qid, cursor)]
            if start is None:
                stats.stale_deferred += 1
                continue
            stats.deferred += 1
            sim.analyzer.defer(qid, batch.packet_at(row), start)


@dataclass(eq=False)
class _Routes:
    """Where the rows of a batch went, per path group: the path, its rows
    and the hop each was dropped at (the path's length if delivered) —
    gathered into per-row columns only when a sliced query needs them —
    and whether a row ran one query under two rule epochs."""

    size: int
    groups: List[Tuple[Sequence[Hashable], np.ndarray, np.ndarray]] = field(
        default_factory=list)
    #: Set on the first row a slice ran under another epoch.
    mixed: Optional[np.ndarray] = None
    _columns: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False)

    def per_row(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(group index, reach, path length) of every row."""
        if self._columns is None:
            group = np.zeros(self.size, dtype=np.int64)
            reach = np.zeros(self.size, dtype=np.int64)
            length = np.zeros(self.size, dtype=np.int64)
            for index, (path, rows, hops) in enumerate(self.groups):
                group[rows] = index
                reach[rows] = hops
                length[rows] = len(path)
            self._columns = (group, reach, length)
        return self._columns

    def mark_mixed(self, rows: np.ndarray) -> None:
        if len(rows):
            if self.mixed is None:
                self.mixed = np.zeros(self.size, dtype=bool)
            self.mixed[rows] = True


class _Flight(NamedTuple):
    """SP entries of one query on some rows, with what they carry — all
    aligned with ``rows``."""

    rows: np.ndarray
    rank: np.ndarray
    #: The hop that ran the last slice.
    hop: np.ndarray
    #: The rule epoch the ingress switch stamped.
    stamp: np.ndarray
    #: The ``epoch_from`` of the first slice's version.
    first: np.ndarray
    #: The query's slice count.
    total: np.ndarray
    ctx: RowContext


class _Parked(NamedTuple):
    """SP entries of ``qid`` that no hop advanced past ``cursor``."""

    rows: np.ndarray
    rank: np.ndarray
    qid: str
    cursor: int
    delivered: np.ndarray


class _Job(NamedTuple):
    """One program run to make: ``(switch id, program, rows, ranks)``
    members of one query and shape, the hop it runs at (one for every
    row, or one each), its rows' in-flight context (``None`` at the
    ingress switch) and, downstream, where its rows sit in the flight of
    their slice."""

    members: Sequence[Tuple]
    hop: Union[int, np.ndarray]
    context: Optional[RowContext] = None
    local: Optional[np.ndarray] = None


def _collect(job: _Job, run: ProgramRun, rows: np.ndarray,
             rank: np.ndarray,
             pending: List[Tuple[int, int, int, Hashable, "Report"]],
             hashed: Dict[Hashable, Dict[Tuple[int, int], Dict[str, set]]],
             ) -> None:
    """Queue the reports of ``job``'s finished ``run`` and note its
    hashes, per member switch."""
    sids = [member[0] for member in job.members]
    qid = run.programs[0].qid
    bounds = run.bounds
    for unit_key, local_idx, raw, inverse in run.hash_trace or ():
        touched = rows[local_idx].tolist()
        keys = [raw[i] for i in inverse.tolist()]
        cuts = np.searchsorted(local_idx, bounds).tolist()
        for sid, lo, hi in zip(sids, cuts, cuts[1:]):
            if lo < hi:
                hashed.setdefault(sid, {}).setdefault(
                    unit_key, {}
                ).setdefault(qid, set()).update(
                    zip(touched[lo:hi], keys[lo:hi])
                )
    hop = job.hop
    for local, report in run.reports:
        pending.append((
            int(rows[local]),
            hop if isinstance(hop, int) else int(hop[local]),
            int(rank[local]),
            sids[bisect_right(bounds, local) - 1], report,
        ))


def _count(mask: np.ndarray, own: Optional[np.ndarray]) -> int:
    """Rows of ``mask`` this shard counts (all of them unsharded)."""
    return int(mask.sum() if own is None else (mask & own).sum())


def _join(runs: List[List[Tuple]], member: Tuple) -> None:
    """Add ``member`` (switch id, program, ...) to the run of its
    program's shape.  A scan, not a dict: a query has one or two shapes,
    and comparing them is cheaper than hashing one."""
    for members in runs:
        if members[0][1].shape == member[1].shape:
            members.append(member)
            return
    runs.append([member])


def _per_member(values: Sequence[int],
                parts: Sequence[np.ndarray]) -> np.ndarray:
    """``values[j]`` for every row of member ``j``, members concatenated."""
    return np.repeat(np.asarray(values, dtype=np.int64),
                     [len(part) for part in parts])


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
