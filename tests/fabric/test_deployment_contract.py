"""One deployment surface: the same driver script, single-process or
sharded.

The script below touches a deployment only through what
:class:`~repro.network.deployment.Deployment` declares — ``controller``
/ ``simulator`` / ``collector`` / ``analyzer`` plus ``prune``,
``register_dumps`` and ``fabric_status`` — and must leave a plain
``build_deployment(...)`` and a ``ShardedDeployment(..., inline=True)``
in bit-identical observable states: merged stats, canonical reports,
register dumps, window answers.  It includes the step the fabric used
to refuse, ``controller.replace_query``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.core.ops import ControlOp, apply_op
from repro.core.query import Query
from repro.experiments.common import evaluation_thresholds
from repro.fabric import ShardedDeployment, canonical_reports, record_reports
from repro.network.deployment import Deployment, build_deployment
from repro.network.topology import linear
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=1024,
                     distinct_registers=1024)
PATH = ["s0", "s1", "s2"]
WINDOW_S = 0.1
DEPLOY_KW = dict(array_size=1 << 13, engine="vector")


def thresholds(**overrides):
    return replace(evaluation_thresholds(),
                   **{"new_tcp_conns": 3, "port_scan": 4, **overrides})


def window_trace(index):
    start = index * WINDOW_S
    return assign_hosts(merge_traces([
        caida_like(600, duration_s=WINDOW_S, seed=40 + index,
                   start_s=start),
        syn_flood(n_packets=150, duration_s=WINDOW_S, seed=60 + index,
                  start_s=start),
    ]), [("h_src0", "h_dst0")])


def stats_sig(stats):
    return (stats.packets, stats.delivered, stats.dropped,
            dict(stats.reports_by_switch), stats.deferred, stats.sp_bytes,
            stats.payload_bytes, stats.mixed_rule_epoch_packets,
            dict(stats.initiated_by_query))


def drive(dep: Deployment, drain_reports):
    """install → traffic → replace_query → update → remove → prune →
    register_dumps; ``drain_reports()`` yields the canonical reports of
    the run just finished (the one read that is not on the surface)."""
    seen = []

    def window(index):
        stats = dep.simulator.run(window_trace(index))
        seen.append((stats_sig(stats), drain_reports(),
                     dep.register_dumps()))
        assert dep.simulator.roll_window() == index

    controller = dep.controller
    q1 = build_query("Q1", thresholds())
    controller.install_query(q1, PARAMS, path=PATH)
    controller.install_query(build_query("Q4", thresholds()), PARAMS,
                             path=PATH)
    window(0)
    result = controller.replace_query("Q1", exclude=["s2"])
    assert result.op == "update"
    assert controller.installed["Q1"].deploy["path"] == ("s0", "s1")
    window(1)
    controller.update_query(
        build_query("Q4", thresholds(port_scan=9)), PARAMS, path=PATH
    )
    window(2)
    controller.remove_query("Q4")
    window(3)
    assert sorted(controller.installed) == ["Q1"]
    dep.prune(2)
    answers = dep.collector.merged_results(q1.qid)
    assert answers and min(answers) >= 2
    status = dep.fabric_status()
    assert status["workers"] >= 1 and status["backend"]
    assert dep.simulator.epoch == 4
    return seen, answers, dep.analyzer.detections("Q1")


@pytest.fixture(scope="module")
def single_process():
    dep = build_deployment(linear(3), **DEPLOY_KW)
    recorded = record_reports(dep.switches)

    def drain():
        out = canonical_reports([recorded])
        recorded.clear()
        return out

    outcome = drive(dep, drain)
    assert any(reports for _, reports, _ in outcome[0])  # not vacuous
    return outcome


@pytest.mark.parametrize("workers", [2, 3])
def test_sharded_matches_single_process(single_process, workers):
    with ShardedDeployment(
        linear(3), workers=workers, inline=True, **DEPLOY_KW
    ) as sd:
        assert isinstance(sd, Deployment)
        outcome = drive(sd, lambda: sd.reports)
        assert sd.qpart.owners().keys() == {"Q1"}
    assert outcome == single_process


class TestControlOp:
    def test_pickle_round_trip(self):
        op = ControlOp("update", "Q1", build_query("Q1", thresholds()),
                       PARAMS, deploy={"path": ("s0", "s1")})
        clone = pickle.loads(pickle.dumps(op))
        assert (clone.kind, clone.qid, clone.params, clone.opts,
                clone.deploy) == (op.kind, op.qid, op.params, op.opts,
                                  op.deploy)
        assert clone.query.qid == "Q1"
        assert len(clone.query.primitives) == len(op.query.primitives)

    def test_apply_op_drives_the_controller(self):
        dep = build_deployment(linear(1), array_size=1 << 12)
        query = build_query("Q1", thresholds())
        installed = apply_op(dep.controller, ControlOp(
            "install", "Q1", query, PARAMS, deploy={"path": ["s0"]},
        ))
        assert installed.op == "install"
        assert "Q1" in dep.controller.installed
        removed = apply_op(dep.controller, ControlOp("remove", "Q1"))
        assert removed.op == "remove" and dep.controller.installed == {}

    @pytest.mark.parametrize("op", [
        ControlOp("reinstall", "Q1", build_query("Q1", thresholds())),
        ControlOp("install", "Q1"),  # nothing to install
    ])
    def test_apply_op_rejects_what_it_cannot_run(self, op):
        dep = build_deployment(linear(1), array_size=1 << 12)
        with pytest.raises(ValueError, match="cannot apply control op"):
            apply_op(dep.controller, op)
        assert dep.controller.installed == {}

    def test_unshippable_query_never_commits(self):
        """An op the fabric cannot pickle is refused before the control
        replica's transaction — no replica ever diverges."""
        query = (Query("t.local").filter(proto=6).map("dip")
                 .reduce("dip").where(ge=3))
        query.description = lambda: "closures do not pickle"
        with ShardedDeployment(
            linear(2), workers=2, inline=True, array_size=1 << 12
        ) as sd:
            epoch = sd.controller.txn.epoch
            with pytest.raises((pickle.PicklingError, AttributeError,
                                TypeError)):
                sd.controller.install_query(query, PARAMS, path=["s0"])
            assert sd.controller.installed == {}
            assert sd.controller.txn.epoch == epoch
            assert sd.qpart.owners() == {}
            assert sd._oplog == []
            assert sd.controller.rule_count() == 0
