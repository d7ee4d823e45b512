"""Plan-transaction driver: PlanSteps → 2PC transactions, journaled.

The driver is the only planner component that touches the controller.
It takes a decided list of :class:`~repro.planner.plan.PlanStep` and
executes them sequentially, each step's :class:`~repro.core.ops.
ControlOp` through :func:`~repro.core.ops.apply_op` — exactly one
verified make-before-break transaction, routed through
:class:`~repro.ctrlplane.TransactionManager` and its pre-commit
verification gate.  A failed step rolls back inside the control plane
— the running version keeps serving — keeps its exception in
``meta["cause"]``, and the driver stops, marking the remaining steps
``skipped``: later steps may depend on resources an earlier step was
meant to free.

The controller is always a real
:class:`~repro.core.controller.NewtonController`; on a sharded
deployment it is the control replica's, whose commit listener fans each
op out to the workers — which is what lets the planner run unchanged at
fabric scale.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.ops import apply_op
from repro.planner.plan import PlanStep

__all__ = ["PlanDriver", "PlanError"]


class PlanError(RuntimeError):
    """A plan step could not be executed (surfaced from the step)."""


class PlanDriver:
    """Executes plan steps against a controller, one transaction each."""

    def __init__(self, controller, registry=None):
        self.controller = controller
        self._steps_total = (
            registry.counter(
                "planner_steps_total",
                "plan steps executed, by kind/trigger/outcome",
            )
            if registry is not None else None
        )

    def execute(self, steps: List[PlanStep],
                stop_on_failure: bool = True) -> List[PlanStep]:
        """Run the steps in order; mutates and returns them."""
        failed_at: Optional[int] = None
        for index, step in enumerate(steps):
            if failed_at is not None:
                step.status = "skipped"
                step.error = f"step {steps[failed_at].seq} failed earlier"
                self._count(step)
                continue
            try:
                result = apply_op(self.controller, step.op)
            except Exception as exc:
                step.status = "failed"
                step.error = f"{type(exc).__name__}: {exc}"
                step.meta["cause"] = exc
                if stop_on_failure:
                    failed_at = index
            else:
                step.status = "committed"
                step.delay_s = result.delay_s
                step.rules_staged = result.rules_staged
                step.rules_removed = result.rules_removed
            self._count(step)
        return steps

    def _count(self, step: PlanStep) -> None:
        if self._steps_total is not None:
            self._steps_total.inc(
                kind=step.op.kind, trigger=step.trigger, outcome=step.status
            )
