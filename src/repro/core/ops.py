"""The control op: one description of a query operation, one way to run it.

Newton's query operations are runtime table-rule transactions (paper
§6.1), so "install / update / remove query Q with these parameters on
this deployment" is the unit every plane exchanges: the controller
announces it to its commit listeners, the planner decides it
(:class:`~repro.planner.plan.PlanStep` wraps one), and the fabric ships
it — pickled — to every shard replica.  :func:`apply_op` is the only
place a :class:`ControlOp` turns back into a controller call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.compiler import Optimizations, QueryParams
from repro.core.query import QueryLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import InstallResult, NewtonController

__all__ = ["ControlOp", "apply_op"]


@dataclass(frozen=True)
class ControlOp:
    """One query operation, as data (picklable when its query is)."""

    kind: str  # "install" | "update" | "remove"
    qid: str
    #: The query to deploy (``None`` for a remove).
    query: Optional[QueryLike] = None
    params: Optional[QueryParams] = None
    opts: Optional[Optimizations] = None
    #: Keyword arguments of the controller call: the deployment spec
    #: (``path=...`` or ``topology=...``) plus any verifier settings.
    deploy: Dict[str, Any] = field(default_factory=dict)


def apply_op(controller: "NewtonController",
             op: ControlOp) -> "InstallResult":
    """Execute ``op`` against ``controller`` as one 2PC transaction."""
    if op.kind == "remove":
        return controller.remove_query(op.qid)
    if op.kind not in ("install", "update") or op.query is None:
        raise ValueError(f"cannot apply control op {op.kind!r} ({op.qid!r})")
    call = (controller.install_query if op.kind == "install"
            else controller.update_query)
    return call(op.query, op.params or QueryParams(),
                op.opts or Optimizations.all(), **op.deploy)
