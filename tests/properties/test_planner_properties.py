"""Differential properties of planner-driven re-planning (200 seeds).

Each seed builds a randomized traffic schedule (benign mix, with a
flood + scan shift at a random window) and runs it three times with a
:class:`DynamicPlanner` managing Q1 — scalar engine, vectorized engine,
and the sharded fabric plane (2 workers) — stepping the planner between
windows so refinement installs and occupancy-driven resizes land
mid-run as real 2PC transactions.  Invariants per seed:

* **bit-identical observables** — all three runs produce the same plan
  trajectory (kind/qid/trigger/status/size per step) and the same
  merged per-window results for every installed sub-query;
* **no lost queries** — after every run the control plane holds exactly
  the queries the planner believes it manages;
* **atomicity** — zero mixed-rule-epoch packets in every run, no staged
  or retired residue left behind by any planner transaction;
* **scoped audit == whole walk** — after every install and update of the
  vector run, the per-operation fleet audit reports what the whole-fleet
  walk reports at that operation, and rejects iff it does
  (``tests/verify/fleet/oracle.py``).
"""

import random
from dataclasses import replace

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
from tests.verify.fleet.oracle import AuditOracle

N_SEEDS = 200
WINDOW_S = 0.1
PARAMS = QueryParams(cm_depth=2, reduce_registers=128)
CONFIG = PlannerConfig(cooldown_windows=1, child_idle_windows=2)


def make_schedule(seed):
    """Per-window traces + whether a ladder manages the query."""
    rng = random.Random(seed)
    windows = rng.randint(2, 3)
    shift_at = rng.randint(0, windows - 1)
    use_ladder = rng.random() < 0.5
    traces = []
    for index in range(windows):
        start = index * WINDOW_S
        parts = [caida_like(300, duration_s=WINDOW_S, seed=seed + index,
                            start_s=start)]
        if index >= shift_at:
            parts.append(syn_flood(
                n_packets=250, duration_s=WINDOW_S,
                seed=seed + 31 + index, start_s=start,
            ))
            parts.append(syn_scan_noise(
                n_packets=800, duration_s=WINDOW_S,
                seed=seed + 67 + index, start_s=start,
            ))
        traces.append(assign_hosts(
            merge_traces(parts), [("h_src0", "h_dst0")]
        ))
    return traces, use_ladder


def run_managed(dep, traces, use_ladder):
    """Drive the schedule with a planner-managed Q1; return observables."""
    planner = DynamicPlanner(dep, CONFIG)
    query = build_query(
        "Q1", replace(evaluation_thresholds(), new_tcp_conns=3)
    )
    planner.manage(
        query, PARAMS,
        ladder=RefinementLadder.ipv4() if use_ladder else None,
        path=["s0", "s1"],
    )
    steps = []
    mixed = 0
    for trace in traces:
        stats = dep.simulator.run(trace)
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
    for record in dep.controller.installed.values():
        for sub in flatten(record.query):
            answers[sub.qid] = dep.collector.merged_results(sub.qid)
    residue = [
        (str(sid), switch.staged_rule_count, switch.retired_rule_count)
        for sid, switch in sorted(dep.switches.items(), key=str)
        if switch.staged_rule_count or switch.retired_rule_count
    ]
    return {
        "steps": tuple(steps),
        "answers": answers,
        "installed": sorted(dep.controller.installed),
        "managed": sorted(planner.plans),
        "mixed": mixed,
        "residue": residue,
    }


class TestPlannerDifferentialSweep:
    def test_200_seeded_schedules(self):
        replanned = audits = 0
        for seed in range(N_SEEDS):
            traces, use_ladder = make_schedule(seed)
            label = f"seed {seed}"
            scalar = run_managed(
                build_deployment(linear(2), engine="scalar",
                                 array_size=1 << 13),
                traces, use_ladder,
            )
            audited = build_deployment(linear(2), engine="vector",
                                       array_size=1 << 13)
            oracle = AuditOracle(audited)
            audited.controller.listeners.append(oracle)
            vector = run_managed(audited, traces, use_ladder)
            audits += oracle.checked
            with ShardedDeployment(
                linear(2), workers=2, inline=True, engine="vector",
                array_size=1 << 13,
            ) as sd:
                fabric = run_managed(sd, traces, use_ladder)

            for name, run in (("vector", vector), ("fabric", fabric)):
                assert run["steps"] == scalar["steps"], (
                    f"{label}: {name} plan trajectory diverged"
                )
                assert run["answers"] == scalar["answers"], (
                    f"{label}: {name} window answers diverged"
                )
            for name, run in (("scalar", scalar), ("vector", vector),
                              ("fabric", fabric)):
                assert run["installed"] == run["managed"], (
                    f"{label}: {name} lost/leaked queries — installed "
                    f"{run['installed']} vs managed {run['managed']}"
                )
                assert run["mixed"] == 0, (
                    f"{label}: {name} saw mixed-epoch packets"
                )
                assert run["residue"] == [], (
                    f"{label}: {name} left rule residue {run['residue']}"
                )
            if any(s[3] != "bootstrap" for s in scalar["steps"]):
                replanned += 1
        # The sweep is not vacuous: most seeds actually re-planned.
        assert replanned >= N_SEEDS // 2, (
            f"only {replanned}/{N_SEEDS} seeds exercised a re-plan"
        )
        # ... and every planner op of the vector run was audited twice.
        assert audits > N_SEEDS
