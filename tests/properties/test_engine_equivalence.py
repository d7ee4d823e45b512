"""Differential properties: the vectorized engine is bit-identical to the
scalar reference engine.

Every test runs one seeded workload through two fresh deployments — one
per engine — and compares the full observable outcome: simulation stats,
the per-switch report stream (payloads included, in emission order), and
the final register dumps of every state bank.  Scenarios cover the
places where batching could plausibly diverge: window boundaries inside
a batch, a mid-trace ``update_query`` scheduled through ``at()`` (a
rule-epoch flip that must land on a sub-batch edge), reboot drop
windows, multi-slice CQE installs (whose SP header the vectorized engine
carries as columns from hop to hop: legacy hops, short paths, downstream
reboots, sliced updates, two epochs on one path, two stamps meeting at
one version, shared packets, 2-4 slices), the K -> H hand-off (one key group shared by every hash op of
a K across an R ``stop``, and a hash memo cleared between windows),
ECMP over a multipath fabric with all-new flows every window, and the
timestamp edges the scalar loop tolerates or rejects (unsorted or
negative inside a window, a callback due between two out-of-order
packets, an epoch regression mid-chunk).  One case holds the reason the
second engine exists: on the same trace it is at least
``SPEEDUP_FLOOR`` times faster.
"""

import itertools
import random
import time
from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams, compile_query, slice_compiled
from repro.core.library import build_query
from repro.core.query import Query
from repro.dataplane import hashing
from repro.dataplane.module_types import ModuleType
from repro.engine import ScalarEngine, VectorizedEngine
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


def deploy(engine, queries=("Q1", "Q4"), switches=3, sliced=(), edge=None,
           **deploy_kw):
    """A fresh ``linear(switches)`` deployment with ``queries`` installed
    on the whole path, and its recorded report stream.

    ``sliced`` maps a query to its ``stages_per_switch`` (cut across the
    path, CQE); ``edge`` places by topology from that edge switch instead
    of on the path (what a legacy switch on the path needs).
    """
    deployment = build_deployment(
        linear(switches), array_size=1 << 13, engine=engine, **deploy_kw
    )
    if edge is None:
        where = {"path": [f"s{i}" for i in range(switches)]}
    else:
        where = {"topology": deployment.topology, "edge_switches": [edge]}
    for name in queries:
        extra = {"stages_per_switch": sliced[name]} if name in sliced else {}
        deployment.controller.install_query(
            build_query(name, thresholds()), PARAMS, **where, **extra
        )
    return deployment, record_reports(deployment.switches)


def run_engine(engine, trace, schedule=None, **deploy_kw):
    deployment, recorded = deploy(engine, **deploy_kw)
    if schedule is not None:
        schedule(deployment)
    stats = deployment.simulator.run(trace)
    return signature(stats, recorded), deployment.register_dumps(), stats


def q1_update_at(due, fired, **deploy):
    """A ``schedule`` hook: ``update_query`` of Q1 (a new threshold, so
    the rule bank flips epoch) through ``at(due)``; each firing appends
    to ``fired``."""
    def schedule(deployment):
        def flip():
            deployment.controller.update_query(
                build_query(
                    "Q1", replace(evaluation_thresholds(), new_tcp_conns=8),
                ),
                PARAMS, path=["s0", "s1", "s2"], **deploy,
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

    def test_multislice_cqe_runs_batched(self, monkeypatch):
        """A query sliced across the path (total_slices > 1) runs on the
        batch path, its SP header carried as columns from hop to hop —
        same stats, same SP byte accounting, same reports and registers
        as the scalar engine, which the vector run never calls."""
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

        def no_scalar(*_args, **_kw):
            raise AssertionError("the vector engine took the scalar path")

        monkeypatch.setattr(ScalarEngine, "step", no_scalar)
        vector_sig, vector_regs, _ = run("vector")
        assert vector_sig == scalar_sig
        assert vector_regs == scalar_regs
        assert scalar_stats.sp_bytes > 0  # the install really is sliced
        assert scalar_stats.reports_by_switch["s2"] > 0

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


#: Q1 compiles to six stages: two a switch cut it into three slices, and
#: the second opens with an S whose H ran on the first switch.
Q1_THIRDS = {"Q1": 2}


class TestSlicedQueries:
    """The SP header as columns: every way a packet's in-flight slices
    can meet a hop, against the scalar engine."""

    def test_two_sliced_and_unsliced_queries_share_packets(self):
        stats = assert_equivalent(
            workload(3000), queries=("Q1", "Q4", "Q5", "Q3"),
            sliced={"Q1": 2, "Q4": 4},
        )
        assert stats.sp_bytes > 0 and stats.reports_total > 0
        assert stats.reports_by_switch["s2"] > 0

    def test_small_batches(self):
        stats = assert_equivalent(
            workload(2500), vector_engine=VectorizedEngine(batch_size=17),
            queries=("Q1", "Q4"), sliced=Q1_THIRDS,
        )
        assert stats.sp_bytes > 0 and stats.epochs > 1

    @pytest.mark.parametrize("stages,slices", [(5, 2), (4, 3), (3, 4)])
    def test_slice_counts(self, stages, slices):
        """Q4's ten stages cut into two, three and four slices on a path
        long enough for all of them."""
        probe = compile_query(build_query("Q4", thresholds()), PARAMS)
        assert -(-probe.num_stages // stages) == slices
        stats = assert_equivalent(workload(3000), queries=("Q4", "Q1"),
                                  switches=4, sliced={"Q4": stages})
        assert stats.sp_bytes > 0 and stats.deferred == 0
        assert stats.reports_by_switch[f"s{slices - 1}"] > 0

    def test_legacy_switch_mid_path(self):
        """s1 runs no Newton: the SP header rides through it as payload
        and the second slice runs on s2."""
        stats = assert_equivalent(
            workload(3000), queries=("Q1", "Q4"), sliced={"Q1": 3},
            edge="s0", newton_switches=["s0", "s2"],
        )
        assert stats.reports_by_switch["s2"] > 0
        assert stats.reports_by_switch["s1"] == 0

    def test_fewer_newton_hops_than_slices(self):
        """Six one-stage slices on three switches: every entry still in
        flight at the egress is deferred to the analyzer, and once the
        query's registry entry is gone, dropped as stale instead."""
        def forget(deployment):
            deployment.simulator.at(
                0.3, lambda: deployment.controller._sub_owner.pop("Q1"))

        def run(engine):
            deployment, recorded = deploy(engine, queries=("Q1", "Q4"),
                                          sliced={"Q1": 1})
            forget(deployment)
            stats = deployment.simulator.run(workload(3000))
            return (signature(stats, recorded), deployment.register_dumps(),
                    deployment.analyzer.results("Q1"),
                    deployment.analyzer.deferred_results("Q1"), stats)

        scalar = run("scalar")
        assert run("vector")[:4] == scalar[:4]
        stats = scalar[4]
        assert stats.deferred > 0 and stats.stale_deferred > 0
        assert any(scalar[3].values())        # deferred CPU answers exist

    def test_downstream_reboot_with_entries_in_flight(self):
        def schedule(deployment):
            deployment.switch("s2").reboot(at=0.2, entries_to_restore=500)

        stats = assert_equivalent(workload(), schedule=schedule,
                                  sliced=Q1_THIRDS)
        assert stats.dropped > 0 and stats.sp_bytes > 0

    def test_update_of_the_sliced_query(self):
        fired = []
        stats = assert_equivalent(
            workload(), sliced=Q1_THIRDS,
            schedule=q1_update_at(0.23, fired, stages_per_switch=2),
        )
        assert len(fired) == 2
        assert stats.mixed_rule_epoch_packets == 0
        assert stats.sp_bytes > 0 and stats.reports_total > 0

    def test_slices_of_two_epochs_count_as_mixed(self):
        """s0 alone re-stages Q1's first slice under a newer epoch while
        s1 and s2 keep serving the older versions of the rest: every
        packet that carries Q1 past s0 runs it under two epochs."""
        def restage_first_slice(deployment):
            pipeline = deployment.switch("s0").pipeline
            epoch = pipeline.rule_epoch + 1
            query_slice = pipeline.version_for("Q1", 0).query_slice
            pipeline.retire_query("Q1", epoch)
            pipeline.stage_slice(query_slice, epoch)
            pipeline.commit_epoch(epoch)
            pipeline.gc_retired()

        def run(engine):
            deployment, recorded = deploy(engine, sliced=Q1_THIRDS,
                                          sanitize=True)
            restage_first_slice(deployment)
            stats = deployment.simulator.run(workload(3000))
            return (signature(stats, recorded), deployment.register_dumps(),
                    dict(deployment.sanitizer.counts), stats)

        scalar = run("scalar")
        assert run("vector")[:3] == scalar[:3]
        stats = scalar[3]
        assert 0 < stats.mixed_rule_epoch_packets < stats.packets
        assert scalar[2]["mixed-epoch"] == stats.mixed_rule_epoch_packets

    def test_a_downstream_switch_ahead_serves_the_stamped_epoch(self):
        """s1 flips to a re-staged copy of Q1's middle slice while s0
        still stamps the old epoch: packets keep running the old version
        on s1 — its registers, not the new copy's."""
        def restage_middle_slice(deployment):
            pipeline = deployment.switch("s1").pipeline
            epoch = pipeline.rule_epoch + 1
            query_slice = pipeline.version_for("Q1", 1).query_slice
            pipeline.retire_query("Q1", epoch)
            pipeline.stage_slice(query_slice, epoch)
            pipeline.commit_epoch(epoch)

        stats = assert_equivalent(workload(3000), sliced=Q1_THIRDS,
                                  schedule=restage_middle_slice)
        assert stats.mixed_rule_epoch_packets == 0
        assert stats.reports_by_switch["s2"] > 0

    def test_two_definitions_meet_at_one_downstream_version(self):
        """On a 2-leaf Clos, lf0 alone re-stages the first slice keyed on
        ``sip`` instead of ``dip``: packets entering at lf0 and at lf1
        reach the spines' one version of the second slice carrying
        contexts of two layouts, in the same batch."""
        topo = leaf_spine(2, 2)
        pairs = [("hlf0n0", "hlf1n0"), ("hlf1n0", "hlf0n0")]

        def syn_count(key):
            return (Query("meet.q").filter(proto=6, tcp_flags=2).map(key)
                    .reduce(key).where(ge=2))

        def run(engine):
            deployment = build_deployment(topo, array_size=1 << 13,
                                          engine=engine)
            deployment.controller.install_query(
                syn_count("dip"), PARAMS, topology=topo, stages_per_switch=2)
            pipeline = deployment.switch("lf0").pipeline
            variant = slice_compiled(compile_query(
                syn_count("sip"), PARAMS,
                hash_family=pipeline.hash_family), 2)[0]
            epoch = pipeline.rule_epoch + 1
            pipeline.retire_query("meet.q", epoch)
            pipeline.stage_slice(variant, epoch)
            pipeline.commit_epoch(epoch)
            recorded = record_reports(deployment.switches)
            stats = deployment.simulator.run(
                assign_hosts(workload(3000), pairs))
            return (signature(stats, recorded), deployment.register_dumps(),
                    stats)

        scalar = run("scalar")
        assert run("vector")[:2] == scalar[:2]
        stats = scalar[2]
        assert stats.reports_total > 0 and stats.sp_bytes > 0
        # Every packet from lf0 ran the spines' older version.
        assert stats.mixed_rule_epoch_packets > 0

    def test_two_stamps_meet_at_one_downstream_version(self):
        """On a 2-leaf Clos, lf0 alone re-stages the same first slice
        under a newer epoch: packets from both leaves stamp different
        epochs yet reach the spines' one version of the second slice,
        and its one-cell key makes them share a register — which must
        still see them in packet order."""
        topo = leaf_spine(2, 2)
        pairs = [("hlf0n0", "hlf1n0"), ("hlf1n0", "hlf0n0")]
        syn_count = (Query("stamps.q").filter(proto=6, tcp_flags=2)
                     .map("proto").reduce("proto").where(ge=40))

        def run(engine):
            deployment = build_deployment(topo, array_size=1 << 13,
                                          engine=engine)
            deployment.controller.install_query(
                syn_count, PARAMS, topology=topo, stages_per_switch=2)
            pipeline = deployment.switch("lf0").pipeline
            epoch = pipeline.rule_epoch + 1
            query_slice = pipeline.version_for("stamps.q", 0).query_slice
            pipeline.retire_query("stamps.q", epoch)
            pipeline.stage_slice(query_slice, epoch)
            pipeline.commit_epoch(epoch)
            recorded = record_reports(deployment.switches)
            stats = deployment.simulator.run(
                assign_hosts(workload(3000), pairs))
            return (signature(stats, recorded), deployment.register_dumps(),
                    stats)

        scalar = run("scalar")
        assert run("vector")[:2] == scalar[:2]
        stats = scalar[2]
        assert stats.sp_bytes > 0 and stats.reports_total > 0

    def test_reports_keep_hop_order_within_a_packet(self):
        """A SYN that first crosses both thresholds reports at s0 for the
        query dispatched second and at s2 for the sliced one dispatched
        first: hop order comes before dispatch order."""
        def syn_count(qid, key):
            return (Query(qid).filter(proto=6, tcp_flags=2).map(key)
                    .reduce(key).where(ge=1))

        def run(engine):
            deployment = build_deployment(linear(3), array_size=1 << 13,
                                          engine=engine)
            path = ["s0", "s1", "s2"]
            deployment.controller.install_query(
                syn_count("order.sliced", "dip"), PARAMS, path=path,
                stages_per_switch=2,
            )
            deployment.controller.install_query(
                syn_count("order.whole", "sip"), PARAMS, path=path,
            )
            recorded = record_reports(deployment.switches)
            stats = deployment.simulator.run(workload(2000))
            return signature(stats, recorded), stats

        scalar, stats = run("scalar")
        assert run("vector")[0] == scalar
        recorded = scalar[-1]
        assert [sid for sid, *_ in recorded[:2]] == ["s0", "s2"]
        assert stats.reports_by_switch["s2"] > 0

    def test_s_before_h_raises_the_same_error(self):
        """Without the H of Q1's first slice, the S that opens its second
        slice has no hash to index: both engines raise the same error."""
        def drop_first_h(deployment):
            pipeline = deployment.switch("s0").pipeline
            versions = pipeline._slices[("Q1", 0)]
            versions[0] = replace(versions[0], placed=tuple(
                placed for placed in versions[0].placed
                if placed[1].module_type is not ModuleType.HASH_CALCULATION
            ))
            pipeline.mutation_seq += 1

        def run(engine):
            deployment, _ = deploy(engine, sliced=Q1_THIRDS)
            drop_first_h(deployment)
            with pytest.raises(RuntimeError) as error:
                deployment.simulator.run(workload(2000))
            return str(error.value)

        message = run("scalar")
        assert "S module executed before H" in message
        assert run("vector") == message


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
        """A memo that missed more than it hit is cleared at the window
        roll, and a clear is invisible: digests are a pure function of
        key and seed."""
        cleared = []
        roll = hashing.HashMemo.roll

        def recording_roll(memo):
            held = len(memo)
            roll(memo)
            if held and not memo:
                cleared.append(held)

        monkeypatch.setattr(hashing.HashMemo, "roll", recording_roll)
        trace = assign_hosts(merge_traces([
            caida_like(1500, duration_s=0.1, seed=70 + index,
                       start_s=index * 0.1)
            for index in range(6)
        ]), [("h_src0", "h_dst0")])
        stats = assert_equivalent(trace, queries=("Q1", "Q4", "Q5"))
        assert stats.epochs > 3
        # Every window brings new keys, so the memos the vector engine
        # filled were emptied along the way.
        assert cleared


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
