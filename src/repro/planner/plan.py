"""Plan and PlanStep — the explicit, replayable unit of control change.

The controller API is one-shot: ``install_query`` compiles, verifies,
places, and emits rules in a single opaque call.  The planner needs
those stages to be *explicit* — decided in one place, executed in
another, journaled, and inspectable over the service plane — so every
control-plane change it makes is reified as a :class:`PlanStep`: what to
do (a :class:`~repro.core.ops.ControlOp` — the same record the
controller announces and the fabric ships), why (the trigger and a
human-readable reason), and what happened (status, transaction latency,
rules moved).

:class:`QueryPlan` is the planner's durable per-query state: the
currently-installed variant, its ladder position, refinement children,
and the re-plan cooldown.  :class:`PlanExecution` bundles one planning
round's steps for journaling and ``plan_changed`` service events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.compiler import QueryParams
from repro.core.ops import ControlOp
from repro.core.query import QueryLike

__all__ = ["PlanStep", "QueryPlan", "PlanExecution", "STEP_STATUSES"]

#: Lifecycle of one step: decided → executed (or not).
STEP_STATUSES = ("pending", "committed", "failed", "skipped")


@dataclass
class PlanStep:
    """One planner-decided control-plane change (= one 2PC transaction)."""

    op: ControlOp
    trigger: str  # bootstrap|refine|coarsen|grow|shrink|rebalance|manual
    reason: str
    #: Window whose signals triggered the step (None for bootstrap).
    epoch: Optional[int] = None
    seq: int = 0
    status: str = "pending"
    error: Optional[str] = None
    #: Filled from the transaction result on commit.
    delay_s: float = 0.0
    rules_staged: int = 0
    rules_removed: int = 0
    #: Planner-internal bookkeeping applied on commit (child prefix,
    #: ladder rung, …); never serialized.
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        params = self.op.params
        return {
            "seq": self.seq,
            "kind": self.op.kind,
            "qid": self.op.qid,
            "trigger": self.trigger,
            "reason": self.reason,
            "epoch": self.epoch,
            "status": self.status,
            "error": self.error,
            "delay_s": self.delay_s,
            "rules_staged": self.rules_staged,
            "rules_removed": self.rules_removed,
            "params": (
                None if params is None else {
                    "cm_depth": params.cm_depth,
                    "bf_hashes": params.bf_hashes,
                    "reduce_registers": params.reduce_registers,
                    "distinct_registers": params.distinct_registers,
                }
            ),
            "deploy": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.op.deploy.items()
                if k in ("path", "edge_switches", "placement_method",
                         "stages_per_switch")
            },
        }


@dataclass
class QueryPlan:
    """The planner's live state for one managed query (or child)."""

    qid: str
    #: Currently-installed query variant (coarse/zoomed, not the intent).
    query: QueryLike = None  # type: ignore[assignment]
    params: QueryParams = QueryParams()
    deploy: Dict[str, Any] = field(default_factory=dict)
    #: Refinement ladder shared down the subtree (None = sizing only).
    ladder: Optional[Any] = None
    #: Ladder rung this variant's keys are masked at.
    rung: int = 0
    #: Child qid -> (rung, prefix value) covered by that child.
    children: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Parent qid for refinement children, None for managed roots.
    parent: Optional[str] = None
    next_child: int = 0
    #: No re-plan of this query before this epoch (anti-thrash).
    cooldown_until: int = -1
    #: Consecutive signalled windows with zero reported keys (children).
    idle_windows: int = 0
    resizes: int = 0

    def in_cooldown(self, epoch: int) -> bool:
        return epoch < self.cooldown_until

    def covered(self, rung: int, prefix: int) -> bool:
        """Whether a child already zooms into this (rung, prefix)."""
        return (rung, prefix) in self.children.values()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qid": self.qid,
            "parent": self.parent,
            "rung": self.rung,
            "reduce_registers": self.params.reduce_registers,
            "children": {
                child: {"rung": rung, "prefix": prefix}
                for child, (rung, prefix) in sorted(self.children.items())
            },
            "cooldown_until": self.cooldown_until,
            "idle_windows": self.idle_windows,
            "resizes": self.resizes,
            "path": list(self.deploy.get("path", ())) or None,
        }


@dataclass
class PlanExecution:
    """One planning round: the steps decided for one window's signals."""

    epoch: int
    steps: List[PlanStep] = field(default_factory=list)

    @property
    def committed(self) -> List[PlanStep]:
        return [s for s in self.steps if s.status == "committed"]

    @property
    def failed(self) -> List[PlanStep]:
        return [s for s in self.steps if s.status == "failed"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "steps": [s.to_dict() for s in self.steps],
        }
