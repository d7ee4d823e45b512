"""Differential properties: a sharded fabric run is bit-identical to a
single-process deployment.

Every scenario runs one seeded workload twice — once through a plain
``build_deployment`` and once through a :class:`ShardedDeployment` —
and compares the full observable outcome: merged simulation stats, the
canonically ordered report stream (payloads included), the merged
register dumps of every state bank, and the collector / analyzer window
answers.  The 100-trace sweep is the headline property from the issue;
the remaining tests cover the multiprocess backend, composite queries
with mid-trace scheduled control ops, and the merged metrics registry.
"""

from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.core.ops import ControlOp
from repro.core.query import flatten
from repro.experiments.common import evaluation_thresholds
from repro.fabric import (
    ShardedDeployment,
    canonical_reports,
    record_reports,
)
from repro.network.deployment import build_deployment
from repro.network.topology import leaf_spine, linear
from repro.traffic.generators import (
    assign_hosts,
    caida_like,
    port_scan,
    syn_flood,
)
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
#: Sized so the Q6 composite's three chains verify on one switch.
COMPOSITE_PARAMS = QueryParams(cm_depth=2, reduce_registers=1024,
                               distinct_registers=1024)
LINEAR_KW = dict(
    topology=linear(3),
    install_kw={"path": ["s0", "s1", "s2"]},
    array_size=1 << 13,
)


def thresholds():
    """Low enough that the small test traces actually produce reports."""
    return replace(evaluation_thresholds(), new_tcp_conns=3, port_scan=4)


def workload(seed, n_packets=1200, duration_s=0.3,
             pairs=(("h_src0", "h_dst0"),)):
    """Multi-window benign mix plus Q1/Q4 anomalies."""
    trace = merge_traces([
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=max(n_packets // 8, 150),
                  duration_s=duration_s, seed=seed + 50),
        port_scan(n_ports=120, duration_s=duration_s, seed=seed + 99),
    ])
    return assign_hosts(trace, list(pairs))


def stats_sig(stats):
    return (
        stats.packets, stats.delivered, stats.dropped,
        dict(stats.reports_by_switch), stats.deferred,
        stats.stale_deferred, stats.sp_bytes, stats.payload_bytes,
        stats.epochs, stats.mixed_rule_epoch_packets,
        dict(stats.initiated_by_query),
    )


def window_answers(collector, analyzer, queries):
    """Every sub-query's merged windows plus every intent's detections."""
    answers = {}
    for query in queries:
        for sub in flatten(query):
            answers[("windows", sub.qid)] = collector.merged_results(sub.qid)
        try:
            answers[("detections", query.qid)] = analyzer.detections(
                query.qid
            )
        except KeyError:
            pass
    return answers


def run_baseline(trace, engine, queries, topology, install_kw, th=None,
                 params=PARAMS, schedule=None, **deploy_kw):
    deployment = build_deployment(topology, engine=engine, **deploy_kw)
    built = [build_query(name, th or thresholds()) for name in queries]
    for query in built:
        deployment.controller.install_query(query, params, **install_kw)
    recorded = record_reports(deployment.collector)
    if schedule is not None:
        schedule(deployment)
    stats = deployment.simulator.run(trace)
    return {
        "stats": stats_sig(stats),
        "reports": canonical_reports([recorded]),
        "registers": deployment.register_dumps(),
        "answers": window_answers(
            deployment.collector, deployment.analyzer, built
        ),
        "reports_total": stats.reports_total,
    }


def run_sharded(trace, engine, queries, topology, install_kw, workers,
                th=None, params=PARAMS, schedule=None, inline=True,
                **deploy_kw):
    with ShardedDeployment(
        topology, workers=workers, inline=inline, engine=engine,
        **deploy_kw,
    ) as sd:
        built = [build_query(name, th or thresholds()) for name in queries]
        for query in built:
            sd.install_query(query, params, **install_kw)
        if schedule is not None:
            schedule(sd)
        stats = sd.run(trace)
        return {
            "stats": stats_sig(stats),
            "reports": sd.reports,
            "registers": sd.register_dumps(),
            "answers": window_answers(sd.collector, sd.analyzer, built),
            "reports_total": stats.reports_total,
        }


def assert_identical(base, shard):
    assert shard["stats"] == base["stats"]
    assert shard["reports"] == base["reports"]
    assert shard["registers"] == base["registers"]
    assert shard["answers"] == base["answers"]


class TestShardedEquivalence:
    def test_hundred_seed_sweep(self):
        """100 seeded traces — 70 vector, 30 scalar — across 2/3/4-way
        sharding; every observable merges bit-identically."""
        reports_seen = 0
        for seed in range(100):
            engine = "vector" if seed < 70 else "scalar"
            workers = 2 + seed % 3
            trace = workload(seed)
            base = run_baseline(trace, engine, ("Q1", "Q4"), **LINEAR_KW)
            shard = run_sharded(
                trace, engine, ("Q1", "Q4"), workers=workers, **LINEAR_KW
            )
            assert_identical(base, shard)
            reports_seen += base["reports_total"]
        assert reports_seen > 100  # the sweep is not vacuous

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_sliced_queries_seed_sweep(self, engine):
        """Q1 cut into three slices and Q4 into five across the
        three-switch path: every shard runs the downstream slices of the
        packets it owns queries of, primary or not, and the merged SP
        bytes and deferrals equal the single-process run's."""
        kw = dict(LINEAR_KW, install_kw={"path": ["s0", "s1", "s2"],
                                         "stages_per_switch": 2})
        sp_bytes = deferred = 0
        for seed in range(6):
            trace = workload(seed)
            base = run_baseline(trace, engine, ("Q1", "Q4"), **kw)
            shard = run_sharded(trace, engine, ("Q1", "Q4"),
                                workers=2 + seed % 2, **kw)
            assert_identical(base, shard)
            deferred += base["stats"][4]
            sp_bytes += base["stats"][6]
        assert sp_bytes > 0 and deferred > 0

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_multiprocess_backend(self, engine):
        """The real worker-process pool (pipe + bounded handoff queue)
        merges bit-identically to single-process execution."""
        trace = workload(7, n_packets=2500)
        base = run_baseline(trace, engine, ("Q1", "Q4"), **LINEAR_KW)
        shard = run_sharded(
            trace, engine, ("Q1", "Q4"), workers=2, inline=False,
            chunk_size=512, queue_chunks=2, **LINEAR_KW,
        )
        assert_identical(base, shard)
        assert base["reports_total"] > 0

    def test_composite_queries_on_leaf_spine(self):
        """A composite (Q6: multiple data-plane chains + CPU join) owned
        by one shard produces identical detections, on a two-tier Clos
        fabric where ECMP spreads the pairs across spines."""
        topo = leaf_spine(2, 2)
        pairs = [("hlf0n0", "hlf1n0"), ("hlf1n0", "hlf0n0")]
        th = replace(thresholds(), syn_flood=2, syn_flood_sub=4)
        trace = workload(7, n_packets=4000, pairs=pairs)
        kw = dict(
            topology=topo, install_kw={"topology": topo}, th=th,
            params=COMPOSITE_PARAMS, array_size=1 << 14,
        )
        base = run_baseline(trace, "vector", ("Q1", "Q4", "Q6"), **kw)
        shard = run_sharded(
            trace, "vector", ("Q1", "Q4", "Q6"), workers=3, **kw
        )
        assert_identical(base, shard)
        assert base["reports_total"] > 0
        assert base["answers"][("detections", "Q6")]  # the join fired

    def test_scheduled_update_mid_trace(self):
        """A scheduled update op fires the rule-epoch flip at the same
        packet position on every shard as ``simulator.at`` does in the
        single-process baseline."""
        trace = workload(31, n_packets=2000)
        updated = build_query(
            "Q1", replace(evaluation_thresholds(), new_tcp_conns=8)
        )

        def schedule_base(deployment):
            deployment.simulator.at(0.15, lambda: (
                deployment.controller.update_query(
                    updated, PARAMS, path=["s0", "s1", "s2"]
                )
            ))

        def schedule_shard(sd):
            sd.schedule(0.15, ControlOp(
                "update", updated.qid, updated, PARAMS,
                deploy={"path": ["s0", "s1", "s2"]},
            ))

        base = run_baseline(
            trace, "vector", ("Q1", "Q4"), schedule=schedule_base,
            **LINEAR_KW,
        )
        shard = run_sharded(
            trace, "vector", ("Q1", "Q4"), workers=3,
            schedule=schedule_shard, **LINEAR_KW,
        )
        assert_identical(base, shard)
        assert base["reports_total"] > 0

    def test_remove_query_releases_ownership(self):
        """Removing a query everywhere stops its execution; the other
        query's results still merge bit-identically."""
        trace = workload(41)

        def no_q4_baseline(deployment):
            deployment.controller.remove_query("Q4")

        def no_q4_sharded(sd):
            sd.controller.remove_query("Q4")

        base = run_baseline(
            trace, "vector", ("Q1", "Q4"), schedule=no_q4_baseline,
            **LINEAR_KW,
        )
        shard = run_sharded(
            trace, "vector", ("Q1", "Q4"), workers=2,
            schedule=no_q4_sharded, **LINEAR_KW,
        )
        # Q4's windows are gone on both sides; Q1 is identical.
        assert shard["stats"] == base["stats"]
        assert shard["reports"] == base["reports"]
        assert base["reports_total"] > 0

    def test_merged_metrics_report_counters(self):
        """Report-path metrics sum across shards to the baseline's
        counts.  (Control-plane metrics are replicated — every replica
        installs every query — so only traffic-driven counters are
        comparable.)"""
        trace = workload(51)
        topology = linear(3)
        path = ["s0", "s1", "s2"]

        base_dep = build_deployment(
            topology, engine="vector", array_size=1 << 13
        )
        for name in ("Q1", "Q4"):
            base_dep.controller.install_query(
                build_query(name, thresholds()), PARAMS, path=path
            )
        base_stats = base_dep.simulator.run(trace)

        with ShardedDeployment(
            topology, workers=3, inline=True, engine="vector",
            array_size=1 << 13,
        ) as sd:
            for name in ("Q1", "Q4"):
                sd.install_query(
                    build_query(name, thresholds()), PARAMS, path=path
                )
            sd.run(trace)
            merged = sd.merged_metrics()

        def ingested(registry):
            return sum(
                sample.value for sample in registry.samples()
                if sample.name == "collector_reports_ingested_total"
            )

        assert base_stats.reports_total > 0
        assert ingested(merged) == ingested(base_dep.collector.metrics)
