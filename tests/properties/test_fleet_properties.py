"""Analyzer/sanitizer agreement: what static analysis admits, the
runtime sanitizer never flags.

The fleet analyzer promises its clean verdict is *sound* for the
invariants the sanitizer watches (register bounds, epoch atomicity,
hash-seed isolation, coverage accounting).  These properties drive an
analyzer-admitted deployment through a 100-seed traffic sweep and hold
the sanitizer to zero violations — in both execution engines — and pin
that sanitizing never perturbs execution (bit-identical runs).
"""

import pytest

from repro.core.compiler import QueryParams
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.runtime.sanitizer import CHECKS
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces
from repro.verify.fleet import FleetConfig, analyze_deployment

#: Distinct register budgets -> distinct hash units -> no NV402; both
#: fit re-staging headroom on a 1<<14 array -> no NV601.
PARAMS_A = QueryParams(cm_depth=2, reduce_registers=1024,
                       distinct_registers=1024)
PARAMS_B = QueryParams(cm_depth=2, reduce_registers=2048,
                       distinct_registers=2048)


def query_a():
    return (Query("fp.syn").filter(proto=6, tcp_flags=2)
            .map("dip").reduce("dip").where(ge=3))


def query_b():
    return (Query("fp.udp").filter(proto=17)
            .map("dip").reduce("dip").where(ge=4))


def admitted_deployment(engine, sanitize=True):
    dep = build_deployment(linear(2), array_size=1 << 14, engine=engine,
                           sanitize=sanitize)
    dep.controller.install_query(query_a(), PARAMS_A, path=["s0", "s1"])
    dep.controller.install_query(query_b(), PARAMS_B, path=["s0", "s1"])
    return dep


def trace(seed, n_packets=800):
    mixed = merge_traces([
        caida_like(n_packets, duration_s=0.3, seed=seed),
        syn_flood(n_packets=n_packets // 4, duration_s=0.3,
                  seed=seed + 10_000),
    ])
    return assign_hosts(mixed, [("h_src0", "h_dst0")])


def test_the_deployment_is_analyzer_admitted():
    dep = admitted_deployment("scalar")
    report = analyze_deployment(
        dep.switches,
        compiled={
            sub: comp
            for record in dep.controller.installed.values()
            for sub, comp in record.compiled.items()
        },
        committed_epoch=dep.controller.txn.epoch,
        config=FleetConfig(),
    )
    assert report.errors == []
    assert report.by_code("NV402") == []
    assert report.by_code("NV601") == []


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_admitted_deployment_survives_100_seed_sweep(engine):
    violations = {}
    for seed in range(100):
        dep = admitted_deployment(engine)
        dep.simulator.run(trace(seed))
        if dep.sanitizer.total:
            violations[seed] = dep.sanitizer.summary()
    assert violations == {}


def test_sanitizing_never_perturbs_execution():
    # Scalar vs vector, sanitizer on: still bit-identical stats and
    # registers (the CI differential smoke runs the full equivalence
    # suite under NEWTON_SANITIZE=1; this is the in-tree witness).
    outcomes = {}
    for engine in ("scalar", "vector"):
        dep = admitted_deployment(engine)
        stats = dep.simulator.run(trace(seed=7))
        outcomes[engine] = (
            stats.packets, stats.delivered, stats.dropped,
            dict(stats.reports_by_switch), stats.deferred,
            stats.mixed_rule_epoch_packets,
            dict(stats.initiated_by_query),
            dep.register_dumps(),
        )
        assert dep.sanitizer.summary() == {c: 0 for c in CHECKS}
    assert outcomes["scalar"] == outcomes["vector"]
