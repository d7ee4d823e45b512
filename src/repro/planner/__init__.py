"""Dynamic query planner: iterative refinement + runtime re-planning.

Newton compiles each intent once; this layer (Sonata's iterative
refinement and DynamiQ's "planning for dynamics", see PAPERS.md) makes
the plan live.  Queries are installed coarse first (prefix-masked keys
from a :class:`RefinementLadder`), then the planner watches the
collection plane's per-window :class:`~repro.collector.WindowSignals` —
sketch occupancy against the NV701 budget, heavy keys, per-switch report
skew — and re-plans at runtime:

* **refine** — zoom into a hot prefix: install a child query one ladder
  rung finer, scoped to the prefix by a ``MASK_EQ`` filter;
* **coarsen** — remove a child that has gone idle;
* **grow** / **shrink** — resize the reduce sketch within hitless
  make-before-break headroom (:meth:`AdmissionPlanner.best_fit`);
* **rebalance** — move slices off a report-skewed switch of a path
  deployment (:func:`~repro.core.placement.offload_path`).

Every decision is an explicit, journaled :class:`PlanStep`; the
:class:`PlanDriver` executes each step as one verified make-before-break
2PC transaction on the deployment's controller — a plain
:class:`~repro.network.deployment.Deployment` or a
:class:`~repro.fabric.sharded.ShardedDeployment`, whose commit listener
replays every step's op on each shard worker unchanged.
"""

from repro.planner.driver import PlanDriver, PlanError
from repro.planner.ladder import RefinementLadder
from repro.planner.plan import PlanExecution, PlanStep, QueryPlan
from repro.planner.planner import (
    DynamicPlanner,
    PlannerConfig,
    run_windows,
)

__all__ = [
    "DynamicPlanner",
    "PlanDriver",
    "PlanError",
    "PlanExecution",
    "PlanStep",
    "PlannerConfig",
    "QueryPlan",
    "RefinementLadder",
    "run_windows",
]
