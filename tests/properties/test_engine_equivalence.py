"""Differential properties: the vectorized engine is bit-identical to the
scalar reference engine.

Every test runs one seeded workload through two fresh deployments — one
per engine — and compares the full observable outcome: simulation stats,
the per-switch report stream (payloads included, in emission order), and
the final register dumps of every state bank.  Scenarios cover the
places where batching could plausibly diverge: window boundaries inside
a batch, a mid-trace ``update_query`` scheduled through ``at()`` (a
rule-epoch flip that must land on a sub-batch edge), reboot drop
windows, multi-slice CQE installs (which the vectorized engine must
hand back to the scalar path wholesale), and the K -> H hand-off (one key
group shared by every hash op of a K across an R ``stop``, and a hash
memo cleared between windows), ECMP over a multipath fabric with
all-new flows every window, and the timestamp edges the scalar loop
tolerates or rejects (unsorted or negative inside a window, a callback
due between two out-of-order packets, an epoch regression mid-chunk).  One case holds the reason the second
engine exists: on the same trace it is at least ``SPEEDUP_FLOOR`` times
faster.
"""

import itertools
import random
import time
from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams, compile_query
from repro.core.library import build_query
from repro.core.query import Query
from repro.dataplane import hashing
from repro.engine import VectorizedEngine
from repro.experiments.common import evaluation_thresholds
from repro.fabric.merge import record_reports
from repro.network.deployment import build_deployment
from repro.network.simulator import SimulationStats
from repro.network.topology import leaf_spine, linear
from repro.traffic.generators import (
    assign_hosts,
    caida_like,
    mawi_like,
    port_scan,
    syn_flood,
)
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
#: Vector over scalar on :func:`workload`, in CPU time (measured ~16x):
#: the smoke floor ``benchmarks/bench_throughput.py`` held until PR 23.
SPEEDUP_FLOOR = 4.0


def thresholds():
    """Low enough that the small test traces actually produce reports."""
    return replace(evaluation_thresholds(), new_tcp_conns=3, port_scan=4)


def workload(n_packets=6000, duration_s=0.5, seed=3):
    """Multi-window benign mix plus Q1/Q4 anomalies, on one host pair."""
    trace = merge_traces([
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=max(n_packets // 10, 200),
                  duration_s=duration_s, seed=seed + 1),
        port_scan(n_ports=400, duration_s=duration_s, seed=seed + 2),
    ])
    return assign_hosts(trace, [("h_src0", "h_dst0")])


def signature(stats, recorded):
    return (
        stats.packets, stats.delivered, stats.dropped,
        dict(stats.reports_by_switch), stats.deferred,
        stats.stale_deferred, stats.sp_bytes, stats.payload_bytes,
        stats.epochs, stats.mixed_rule_epoch_packets,
        dict(stats.initiated_by_query), tuple(recorded),
    )


def deploy(engine, queries=("Q1", "Q4"), switches=3, **deploy_kw):
    """A fresh ``linear(switches)`` deployment with ``queries`` installed
    on the whole path, and its recorded report stream."""
    deployment = build_deployment(
        linear(switches), array_size=1 << 13, engine=engine, **deploy_kw
    )
    path = [f"s{i}" for i in range(switches)]
    for name in queries:
        deployment.controller.install_query(
            build_query(name, thresholds()), PARAMS, path=path
        )
    return deployment, record_reports(deployment.switches)


def run_engine(engine, trace, schedule=None, **deploy_kw):
    deployment, recorded = deploy(engine, **deploy_kw)
    if schedule is not None:
        schedule(deployment)
    stats = deployment.simulator.run(trace)
    return signature(stats, recorded), deployment.register_dumps(), stats


def q1_update_at(due, fired):
    """A ``schedule`` hook: ``update_query`` of Q1 (a new threshold, so
    the rule bank flips epoch) through ``at(due)``; each firing appends
    to ``fired``."""
    def schedule(deployment):
        def flip():
            deployment.controller.update_query(
                build_query(
                    "Q1", replace(evaluation_thresholds(), new_tcp_conns=8),
                ),
                PARAMS, path=["s0", "s1", "s2"],
            )
            fired.append(True)
        deployment.simulator.at(due, flip)
    return schedule


def assert_equivalent(trace, vector_engine="vector", **kw):
    """Run both engines over ``trace``; everything observable must match."""
    scalar_sig, scalar_regs, scalar_stats = run_engine("scalar", trace, **kw)
    vector_sig, vector_regs, vector_stats = run_engine(
        vector_engine, trace, **kw
    )
    assert vector_sig == scalar_sig
    assert vector_regs == scalar_regs
    return scalar_stats


class TestEquivalence:
    def test_multiwindow_background_with_attacks(self):
        stats = assert_equivalent(workload())
        assert stats.reports_total > 0  # the comparison is not vacuous
        assert stats.epochs > 1

    def test_vector_engine_keeps_its_speedup_floor(self):
        trace = workload()

        def cpu_seconds(engine, runs):
            # Process CPU time, best of ``runs``: neighbours on a shared
            # machine stretch wall time, not this.
            best = float("inf")
            for _ in range(runs):
                deployment, _ = deploy(engine)
                start = time.process_time()
                deployment.simulator.run(trace)
                best = min(best, time.process_time() - start)
            return best

        speedup = cpu_seconds("scalar", 1) / cpu_seconds("vector", 3)
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized engine only {speedup:.2f}x faster"
        )

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_seed_sweep_mawi(self, seed):
        trace = assign_hosts(
            merge_traces([
                mawi_like(3000, duration_s=0.35, seed=seed),
                syn_flood(n_packets=300, duration_s=0.35, seed=seed + 50),
            ]),
            [("h_src0", "h_dst0")],
        )
        stats = assert_equivalent(trace, queries=("Q1",))
        assert stats.reports_total > 0

    def test_single_switch(self):
        stats = assert_equivalent(workload(3000), switches=1)
        assert stats.reports_total > 0

    def test_window_straddling_small_batches(self):
        """A tiny batch size forces sub-batches to straddle every window
        boundary and split repeatedly inside windows."""
        stats = assert_equivalent(
            workload(2500), vector_engine=VectorizedEngine(batch_size=17)
        )
        assert stats.epochs > 1

    def test_midtrace_update_query_rule_epoch_flip(self):
        """``update_query`` scheduled via ``at()`` mid-trace: the rule
        bank flips epoch between two packets, and both engines must put
        the flip at exactly the same point in the stream."""
        fired = []
        stats = assert_equivalent(workload(),
                                  schedule=q1_update_at(0.23, fired))
        assert len(fired) == 2  # once per engine
        assert stats.reports_total > 0

    def test_reboot_drop_window(self):
        """A switch reboot mid-trace drops packets in both engines at the
        same timestamps."""
        def schedule(deployment):
            deployment.switch("s1").reboot(at=0.2, entries_to_restore=500)

        stats = assert_equivalent(workload(), schedule=schedule)
        assert stats.dropped > 0
        assert stats.delivered > 0

    def test_multislice_cqe_falls_back_to_scalar(self):
        """A query sliced across the path (total_slices > 1) is outside
        the compiled-program subset; the vectorized engine must detect it
        and defer whole batches to the scalar path — same stats, same SP
        byte accounting, same deferred count."""
        query = build_query("Q1", thresholds())
        probe = compile_query(query, PARAMS)
        stages = -(-probe.num_stages // 3)

        def run(engine):
            deployment = build_deployment(
                linear(3), num_stages=stages, array_size=1 << 13,
                engine=engine,
            )
            deployment.controller.install_query(
                query, PARAMS, path=["s0", "s1", "s2"],
                stages_per_switch=stages,
            )
            recorded = record_reports(deployment.switches)
            stats = deployment.simulator.run(workload(3000))
            return signature(stats, recorded), deployment.register_dumps(), \
                stats

        scalar_sig, scalar_regs, scalar_stats = run("scalar")
        vector_sig, vector_regs, _ = run("vector")
        assert vector_sig == scalar_sig
        assert vector_regs == scalar_regs
        assert scalar_stats.sp_bytes > 0  # the install really is sliced

    def test_ecmp_all_new_flows_every_window(self):
        """Six windows of never-seen flows over a 2-spine Clos: both
        engines pick each flow's spine with the router's one flow hash,
        window after window, with nothing remembered in between."""
        pairs = [("hlf0n0", "hlf1n0"), ("hlf1n0", "hlf0n0")]

        def observe(engine):
            topo = leaf_spine(2, 2)
            deployment = build_deployment(topo, array_size=1 << 13,
                                          engine=engine)
            for name in ("Q1", "Q4"):
                deployment.controller.install_query(
                    build_query(name, thresholds()), PARAMS, topology=topo
                )
            recorded = record_reports(deployment.switches)
            out = []
            for index in range(6):
                trace = assign_hosts(merge_traces([
                    caida_like(400, duration_s=0.1, seed=70 + index,
                               start_s=index * 0.1),
                    syn_flood(n_packets=120, duration_s=0.1,
                              seed=90 + index, start_s=index * 0.1),
                ]), pairs)
                stats = deployment.simulator.run(trace)
                out.append((signature(stats, recorded),
                            deployment.register_dumps()))
            return out

        vector = observe("vector")
        assert vector == observe("scalar")
        assert vector[-1][0][-1]  # reports were emitted


class TestKeyGroupHandOff:
    def test_stop_between_hash_ops_of_one_key(self):
        """``distinct`` then ``reduce`` over one K: the Bloom filter's R
        stops every repeat of a key, and the Count-Min H ops behind it
        hash the same key column — over the survivors only.  A key group
        left stale across the stop would have the vector engine hash
        rows the scalar engine never does; two same-shaped queries make
        the sanitizer's per-packet collision count expose exactly that."""
        def twin(qid):
            return (Query(qid).map("dip").distinct("dip")
                    .reduce("dip").where(ge=1))

        def run(engine):
            deployment = build_deployment(
                linear(1), array_size=1 << 13, engine=engine, sanitize=True,
            )
            for qid in ("stop.a", "stop.b"):
                deployment.controller.install_query(
                    twin(qid), PARAMS, path=["s0"]
                )
            recorded = record_reports(deployment.switches)
            stats = deployment.simulator.run(workload(3000))
            return (signature(stats, recorded), deployment.register_dumps(),
                    dict(deployment.sanitizer.counts), stats)

        scalar = run("scalar")
        vector = run("vector")
        assert vector[:3] == scalar[:3]
        stats = scalar[3]
        # Repeats were stopped, and the stops did not starve the reduce.
        assert 0 < stats.reports_total < stats.initiated_by_query["stop.a"]
        assert scalar[2]["hash-collision"] > 0

    def test_memo_cleared_between_windows_changes_nothing(self, monkeypatch):
        """The hash memo is held to its bound at every window roll, and a
        clear is invisible: digests are a pure function of key and seed."""
        limit = 32
        monkeypatch.setattr(hashing, "_BULK_CACHE_LIMIT", limit)
        sizes = []
        trim = hashing.HashFamily.trim_bulk_caches

        def recording_trim(family):
            trim(family)
            sizes.extend(len(memo) for memo in family._bulk_caches.values())

        monkeypatch.setattr(hashing.HashFamily, "trim_bulk_caches",
                            recording_trim)
        stats = assert_equivalent(workload(), queries=("Q1", "Q4", "Q5"))
        assert stats.epochs > 3
        # Each window brings far more new keys than the limit, so every
        # roll found overgrown memos and left them empty.
        assert sizes and max(sizes) <= limit


WINDOW_S = 0.1


def shuffled_within_windows(trace, seed):
    """``trace``'s packets, timestamps kept, in a seeded random order
    inside each window (windows themselves stay in order)."""
    rng = random.Random(seed)
    out = []
    for _epoch, group in itertools.groupby(
            trace, key=lambda packet: int(packet.ts / WINDOW_S)):
        packets = list(group)
        rng.shuffle(packets)
        out.extend(packets)
    return out


class TestTimestampEdges:
    """``VectorizedEngine._split_at`` claims to accept exactly the traces
    the scalar loop accepts — and, for the one it rejects, to have run
    the same packets first."""

    @pytest.mark.parametrize("engine", ["vector", 97])
    def test_unsorted_within_windows(self, engine):
        if engine != "vector":      # sub-batches straddle every window
            engine = VectorizedEngine(batch_size=engine)
        trace = shuffled_within_windows(workload(3000), seed=5)
        assert any(a.ts > b.ts for a, b in zip(trace, trace[1:]))
        stats = assert_equivalent(trace, vector_engine=engine)
        assert stats.reports_total > 0 and stats.epochs > 1

    def test_negative_timestamps(self):
        """``int(ts / window)`` truncates toward zero, so (-window, 0)
        is part of window 0 for both engines."""
        trace = shuffled_within_windows(workload(3000), seed=6)
        flipped = 0
        for index, packet in enumerate(trace):
            if packet.ts < WINDOW_S and index % 3 == 0:
                trace[index] = replace(packet, ts=-packet.ts)
                flipped += 1
        assert flipped > 10
        stats = assert_equivalent(trace)
        assert stats.reports_total > 0 and stats.epochs > 1

    def test_callback_due_between_out_of_order_packets(self):
        """An ``update_query`` due at 0.23 fires before the first packet
        *in stream order* stamped at or after 0.23; packets behind it
        stamped earlier already run under the new rules."""
        due = 0.23
        trace = shuffled_within_windows(workload(3000), seed=7)
        first = next(i for i, p in enumerate(trace) if p.ts >= due)
        assert any(int(p.ts / WINDOW_S) == 2 and p.ts < due
                   for p in trace[first + 1:])
        fired = []
        stats = assert_equivalent(trace, schedule=q1_update_at(due, fired))
        assert len(fired) == 2 and stats.reports_total > 0

    @pytest.mark.parametrize("regressed_ts", [0.05, -0.15])
    def test_epoch_regression_mid_chunk_raises_after_same_prefix(
            self, regressed_ts):
        """A packet stamped in an earlier window (or before window 0) in
        the middle of a chunk: both engines raise the same error having
        executed exactly the packets before it."""
        trace = list(workload(3000))
        at = next(i for i, p in enumerate(trace) if p.ts >= 0.25)
        trace.insert(at, replace(trace[0], ts=regressed_ts))

        def run(engine):
            deployment, recorded = deploy(engine)
            sim = deployment.simulator
            stats = SimulationStats()
            with pytest.raises(ValueError) as error:
                sim.engine.run(sim, trace, stats)
            return (str(error.value), signature(stats, recorded),
                    deployment.register_dumps(), stats)

        scalar = run("scalar")
        assert run("vector")[:3] == scalar[:3]
        stats = scalar[3]
        assert stats.packets == at and stats.reports_total > 0
        # The window in progress never closed: its registers are live.
        assert any(any(dump) for dump in scalar[2].values())
