"""Planner over the fabric plane: plan ops replay through per-shard RPC.

A :class:`ShardedDeployment` duck-types the deployment facade the
planner drives — its fan-out controller replays every install/update/
remove on all shard workers and its collector merges per-shard window
signals — so one :class:`DynamicPlanner` instance must produce the
*same* plan trajectory (same steps, same sizes, same refinement tree)
and bit-identical window answers whether the data plane is one process
or N shard workers.
"""

from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.core.query import flatten
from repro.experiments.common import evaluation_thresholds
from repro.fabric import ShardedDeployment
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.planner import DynamicPlanner, PlannerConfig, RefinementLadder
from repro.traffic.generators import (
    assign_hosts,
    caida_like,
    syn_flood,
    syn_scan_noise,
)
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=128)
CONFIG = PlannerConfig(cooldown_windows=1, child_idle_windows=2)
WINDOW_S = 0.1
TOPOLOGY_N = 2
PATH = ["s0", "s1"]


def window_trace(index, seed=9):
    """Background for two windows, then a shift (flood + scan noise)."""
    start = index * WINDOW_S
    parts = [caida_like(1000, duration_s=WINDOW_S, seed=seed + index,
                        start_s=start)]
    if index >= 2:
        parts.append(syn_flood(
            n_packets=700, duration_s=WINDOW_S, seed=seed + 70 + index,
            start_s=start,
        ))
        parts.append(syn_scan_noise(
            n_packets=1500, duration_s=WINDOW_S, seed=seed + 90 + index,
            start_s=start,
        ))
    return assign_hosts(merge_traces(parts), [("h_src0", "h_dst0")])


def trajectory(dep, windows=6):
    """Manage Q1 and step the planner per window; return observables."""
    planner = DynamicPlanner(dep, CONFIG)
    query = build_query(
        "Q1", replace(evaluation_thresholds(), new_tcp_conns=3)
    )
    planner.manage(query, PARAMS, ladder=RefinementLadder.ipv4(),
                   path=PATH)
    steps = []
    mixed = 0
    for index in range(windows):
        stats = dep.simulator.run(window_trace(index))
        mixed += stats.mixed_rule_epoch_packets
        dep.simulator.roll_window()
        execution = planner.step()
        if execution is None:
            continue
        steps.extend(
            (execution.epoch, s.op.kind, s.op.qid, s.trigger, s.status,
             None if s.op.params is None
             else s.op.params.reduce_registers)
            for s in execution.steps
        )
    answers = {}
    for qid, record in dep.controller.installed.items():
        for sub in flatten(record.query):
            answers[sub.qid] = dep.collector.merged_results(sub.qid)
    return {
        "steps": steps,
        "installed": sorted(dep.controller.installed),
        "plans": planner.state()["queries"],
        "answers": answers,
        "mixed": mixed,
    }


class TestFabricPlanReplay:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_trajectory_identical(self, workers):
        base = trajectory(
            build_deployment(linear(TOPOLOGY_N), array_size=1 << 13)
        )
        with ShardedDeployment(
            linear(TOPOLOGY_N), workers=workers, inline=True,
            array_size=1 << 13,
        ) as sd:
            shard = trajectory(sd)
        assert base["mixed"] == 0 and shard["mixed"] == 0
        assert shard["steps"] == base["steps"]
        assert shard["installed"] == base["installed"]
        assert shard["plans"] == base["plans"]
        assert shard["answers"] == base["answers"]
        # The sweep is not vacuous: the shift actually re-planned.
        triggers = {s[3] for s in base["steps"]}
        assert "refine" in triggers

    def test_multiprocess_backend_replays_plan_ops(self):
        """Real worker processes: every planner-initiated 2PC op fans
        out over the RPC pipe and the merged state stays identical."""
        base = trajectory(
            build_deployment(linear(TOPOLOGY_N), array_size=1 << 13),
            windows=4,
        )
        with ShardedDeployment(
            linear(TOPOLOGY_N), workers=2, inline=False,
            array_size=1 << 13,
        ) as sd:
            shard = trajectory(sd, windows=4)
        assert shard["steps"] == base["steps"]
        assert shard["answers"] == base["answers"]
        assert shard["mixed"] == 0
