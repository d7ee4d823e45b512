"""The dynamic planner: window signals in, verified plan steps out.

One :class:`DynamicPlanner` manages any number of queries on one
:class:`~repro.network.deployment.Deployment` (single-process or
sharded).  Per closed window it
reads the collector's :class:`~repro.collector.WindowSignals` and
decides, per managed query:

* **grow** — the final reduce's Count-Min row is loaded beyond
  ``occupancy_high`` (the runtime analogue of the NV701 accuracy
  budget).  The new size is clamped to hitless make-before-break
  headroom via :meth:`AdmissionPlanner.best_fit` on every hosting
  switch, so the staged copy always fits next to the running one.
* **shrink** — occupancy fell below ``occupancy_low``; halve back.
* **refine** — heavy keys surfaced and the query has ladder rungs left:
  zoom a child query into each uncovered hot prefix.
* **coarsen** — a refinement child saw ``child_idle_windows`` windows
  with no reported keys: remove it.
* **rebalance** — per-switch report skew crossed ``skew_ratio`` on a
  path deployment with spare switches: re-place off the busiest switch.

Committed steps update the plan state and start a per-query cooldown so
consecutive windows cannot thrash the control plane.  Every step is
journaled and exported as metrics; listeners (the service plane's SSE
feed) are notified per executed round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.collector.signals import QuerySignals, WindowSignals
from repro.core.admission import AdmissionPlanner
from repro.core.compiler import QueryParams
from repro.core.ops import ControlOp
from repro.core.placement import offload_path, report_skew
from repro.core.query import QueryLike
from repro.planner.driver import PlanDriver, PlanError
from repro.planner.ladder import RefinementLadder
from repro.planner.plan import PlanExecution, PlanStep, QueryPlan

__all__ = ["DynamicPlanner", "PlannerConfig", "run_windows"]


@dataclass(frozen=True)
class PlannerConfig:
    """Re-plan triggers and bounds."""

    #: Grow the reduce sketch when its loaded CM-row fraction reaches this.
    occupancy_high: float = 0.5
    #: Shrink when occupancy falls to/below this (and size > min).
    occupancy_low: float = 0.02
    #: Per-step grow ceiling: ``current * grow_factor`` (and never above
    #: ``max_registers``); actual size is clamped to hitless headroom.
    grow_factor: int = 4
    max_registers: int = 4096
    min_registers: int = 128
    #: Windows a query rests after any committed re-plan (anti-thrash).
    cooldown_windows: int = 2
    #: Refinement children alive per parent at any time.
    max_children: int = 8
    #: Remove a child after this many consecutive no-result windows.
    child_idle_windows: int = 3
    #: Report-skew (max/mean) rebalance trigger; 0 disables rebalancing.
    skew_ratio: float = 0.0
    #: Journal length kept for the service plane.
    history_limit: int = 256


class DynamicPlanner:
    """Metrics-driven runtime re-planning over the 2PC control plane."""

    def __init__(self, deployment, config: PlannerConfig = PlannerConfig()):
        self.deployment = deployment
        self.config = config
        registry = deployment.collector.metrics
        self.driver = PlanDriver(deployment.controller, registry=registry)
        self.plans: Dict[str, QueryPlan] = {}
        self.history: List[PlanStep] = []
        self.last_epoch: Optional[int] = None
        self._seq = 0
        self._listeners: List[Callable[[PlanExecution], None]] = []
        self._g_managed = registry.gauge(
            "planner_managed_queries",
            "queries (roots + refinement children) under planner control",
        )
        self._g_managed.set(0)

    # ------------------------------------------------------------------ #
    # Management surface                                                 #
    # ------------------------------------------------------------------ #

    def manage(self, query: QueryLike, params: QueryParams = QueryParams(),
               ladder: Optional[RefinementLadder] = None,
               **deploy: Any) -> PlanStep:
        """Install a query under planner control (coarse rung first).

        With a ladder, the installed variant is the query at rung 0; the
        finer granularities arrive later as refinement children.  The
        install itself is a journaled bootstrap :class:`PlanStep`; a
        verification or admission failure raises :class:`PlanError` and
        leaves nothing installed.
        """
        if query.qid in self.plans:
            raise ValueError(f"query {query.qid!r} is already managed")
        variant = ladder.coarse(query) if ladder is not None else query
        step = self._step(
            ControlOp("install", query.qid, variant, params,
                      deploy=dict(deploy)),
            trigger="bootstrap",
            reason=(
                f"manage {query.qid!r}"
                + (f" at rung 0 ({ladder.field})" if ladder else "")
            ),
        )
        self.driver.execute([step])
        self.history.append(step)
        if step.status != "committed":
            raise PlanError(
                f"bootstrap install of {query.qid!r} failed: {step.error}"
            )
        self.plans[query.qid] = QueryPlan(
            qid=query.qid, query=variant, params=params,
            deploy=dict(deploy), ladder=ladder,
        )
        self._g_managed.set(len(self.plans))
        return step

    def release(self, qid: str, remove: bool = False) -> None:
        """Stop managing a query subtree (optionally removing its rules)."""
        for child in list(self.plans.get(qid, QueryPlan(qid)).children):
            self.release(child, remove=remove)
        plan = self.plans.pop(qid, None)
        if plan is None:
            return
        if plan.parent is not None and plan.parent in self.plans:
            self.plans[plan.parent].children.pop(qid, None)
        if remove:
            step = self._step(ControlOp("remove", qid), trigger="manual",
                              reason=f"release {qid!r}")
            self.driver.execute([step])
            self.history.append(step)
        self._g_managed.set(len(self.plans))

    def subscribe(self, listener: Callable[[PlanExecution], None]) -> None:
        """Register a plan_changed listener (called per executed round)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Planning rounds                                                    #
    # ------------------------------------------------------------------ #

    def step(self, signals: Optional[WindowSignals] = None
             ) -> Optional[PlanExecution]:
        """Run one planning round over the latest (or given) signals.

        Returns ``None`` when there is nothing new to plan against —
        no signalled window yet, or this window was already planned.
        """
        if signals is None:
            signals = self.deployment.collector.latest_signals()
        if signals is None:
            return None
        if self.last_epoch is not None and signals.epoch <= self.last_epoch:
            return None
        self.last_epoch = signals.epoch
        steps = self.observe(signals)
        execution = PlanExecution(epoch=signals.epoch, steps=steps)
        if not steps:
            return execution
        self.driver.execute(steps)
        for step in steps:
            self._apply(step, signals.epoch)
        self.history.extend(steps)
        del self.history[:-self.config.history_limit]
        self._g_managed.set(len(self.plans))
        for listener in self._listeners:
            listener(execution)
        return execution

    def observe(self, signals: WindowSignals) -> List[PlanStep]:
        """Decide (but do not execute) this window's plan steps."""
        steps: List[PlanStep] = []
        skew = report_skew(signals.reports_by_switch)
        for qid in sorted(self.plans):
            plan = self.plans[qid]
            sig = self._signals_for(plan, signals)
            if plan.parent is not None:
                idle_step = self._observe_idle(plan, sig, signals.epoch)
                if idle_step is not None:
                    steps.append(idle_step)
                    continue
            if plan.in_cooldown(signals.epoch):
                continue
            steps.extend(self._observe_refine(plan, sig, signals.epoch))
            resize = self._observe_resize(plan, sig, signals.epoch)
            if resize is not None:
                steps.append(resize)
                continue  # one structural change per query per round
            rebalance = self._observe_rebalance(
                plan, skew, signals, signals.epoch
            )
            if rebalance is not None:
                steps.append(rebalance)
        return steps

    # ------------------------------------------------------------------ #
    # Individual triggers                                                #
    # ------------------------------------------------------------------ #

    def _observe_idle(self, plan: QueryPlan, sig: Optional[QuerySignals],
                      epoch: int) -> Optional[PlanStep]:
        """Track child idleness; emit the coarsen step when it expires."""
        if sig is not None and sig.reported_keys > 0:
            plan.idle_windows = 0
            return None
        plan.idle_windows += 1
        if plan.idle_windows < self.config.child_idle_windows:
            return None
        return self._step(
            ControlOp("remove", plan.qid), trigger="coarsen",
            reason=(
                f"{plan.qid!r} idle for {plan.idle_windows} windows; "
                f"zooming back out"
            ),
            epoch=epoch,
        )

    def _observe_refine(self, plan: QueryPlan,
                        sig: Optional[QuerySignals],
                        epoch: int) -> List[PlanStep]:
        ladder = plan.ladder
        if (ladder is None or sig is None or not sig.heavy_keys
                or plan.rung >= ladder.max_rung):
            return []
        try:
            key_index = sig.key_fields.index(ladder.field)
        except ValueError:
            return []
        steps: List[PlanStep] = []
        budget = self.config.max_children - len(plan.children)
        for key, count in sig.heavy_keys:
            if budget <= 0:
                break
            prefix = key[key_index]
            if plan.covered(plan.rung, prefix):
                continue
            child_qid = f"{plan.qid}.r{plan.next_child}"
            plan.next_child += 1
            budget -= 1
            child = ladder.zoom(plan.query, plan.rung, prefix, child_qid)
            steps.append(self._step(
                ControlOp("install", child_qid, child, plan.params,
                          deploy=dict(plan.deploy)),
                trigger="refine",
                reason=(
                    f"hot prefix {ladder.field}&{ladder.mask_at(plan.rung):#x}"
                    f"=={prefix:#x} (count {count}); zoom to rung "
                    f"{plan.rung + 1}"
                ),
                epoch=epoch,
                meta={"parent": plan.qid, "rung": plan.rung + 1,
                      "prefix": prefix},
            ))
        return steps

    def _observe_resize(self, plan: QueryPlan,
                        sig: Optional[QuerySignals],
                        epoch: int) -> Optional[PlanStep]:
        cfg = self.config
        if sig is None or sig.occupancy is None:
            return None
        current = plan.params.reduce_registers
        if sig.occupancy >= cfg.occupancy_high and current < cfg.max_registers:
            candidate = self._grow_candidate(plan)
            if candidate is None:
                return None
            return self._step(
                self._update_op(plan, params=candidate), trigger="grow",
                reason=(
                    f"occupancy {sig.occupancy:.2f} >= "
                    f"{cfg.occupancy_high}: reduce registers "
                    f"{current} -> {candidate.reduce_registers}"
                ),
                epoch=epoch,
            )
        if (sig.occupancy <= cfg.occupancy_low
                and current > cfg.min_registers and plan.resizes > 0):
            candidate = replace(
                plan.params,
                reduce_registers=max(cfg.min_registers, current // 2),
            )
            return self._step(
                self._update_op(plan, params=candidate), trigger="shrink",
                reason=(
                    f"occupancy {sig.occupancy:.2f} <= "
                    f"{cfg.occupancy_low}: reduce registers "
                    f"{current} -> {candidate.reduce_registers}"
                ),
                epoch=epoch,
            )
        return None

    def _grow_candidate(self, plan: QueryPlan) -> Optional[QueryParams]:
        """Largest grow that stages hitlessly on *every* hosting switch."""
        cfg = self.config
        record = self.deployment.controller.installed.get(plan.qid)
        if record is None:
            return None
        ceiling = min(cfg.max_registers,
                      plan.params.reduce_registers * cfg.grow_factor)
        best: Optional[QueryParams] = None
        for sid in record.by_switch:
            admission = AdmissionPlanner(
                self.deployment.switches[sid], opts=record.opts
            )
            fit = admission.best_fit(record.query, plan.params, ceiling)
            if fit is None:
                return None  # one hosting switch lacks headroom: defer
            if (best is None
                    or fit.reduce_registers < best.reduce_registers):
                best = fit
        return best

    def _observe_rebalance(self, plan: QueryPlan, skew: float,
                           signals: WindowSignals,
                           epoch: int) -> Optional[PlanStep]:
        cfg = self.config
        if cfg.skew_ratio <= 0 or skew < cfg.skew_ratio:
            return None
        path = plan.deploy.get("path")
        if not path:
            return None
        record = self.deployment.controller.installed.get(plan.qid)
        if record is None:
            return None
        needed = max(len(s) for s in record.slices.values())
        pruned = offload_path(tuple(path), signals.reports_by_switch,
                              min_len=needed)
        if pruned is None or tuple(pruned) == tuple(path):
            return None
        deploy = dict(plan.deploy)
        deploy["path"] = pruned
        dropped = set(path) - set(pruned)
        return self._step(
            self._update_op(plan, deploy=deploy), trigger="rebalance",
            reason=(
                f"report skew {skew:.2f} >= {cfg.skew_ratio}: move "
                f"slices off {sorted(map(str, dropped))}"
            ),
            epoch=epoch,
        )

    # ------------------------------------------------------------------ #
    # State transitions & introspection                                  #
    # ------------------------------------------------------------------ #

    def _apply(self, step: PlanStep, epoch: int) -> None:
        op = step.op
        cooldown = epoch + self.config.cooldown_windows
        if step.status != "committed":
            # Leave the plan unchanged but rest the query anyway: the
            # same signals would re-trigger the same failing step.
            plan = self.plans.get(op.qid) or self.plans.get(
                step.meta.get("parent", "")
            )
            if plan is not None:
                plan.cooldown_until = max(plan.cooldown_until, cooldown)
            return
        if step.trigger == "refine":
            parent = self.plans[step.meta["parent"]]
            parent.children[op.qid] = (parent.rung, step.meta["prefix"])
            parent.cooldown_until = cooldown
            self.plans[op.qid] = QueryPlan(
                qid=op.qid, query=op.query, params=op.params,
                deploy=dict(op.deploy), ladder=parent.ladder,
                rung=step.meta["rung"], parent=parent.qid,
                cooldown_until=cooldown,
            )
            return
        if step.trigger == "coarsen":
            plan = self.plans.pop(op.qid, None)
            if plan is not None and plan.parent in self.plans:
                parent = self.plans[plan.parent]
                parent.children.pop(op.qid, None)
                parent.cooldown_until = max(parent.cooldown_until, cooldown)
            # Orphaned grandchildren (if any) are removed on their own
            # idle expiry: their traffic scope died with this child.
            return
        plan = self.plans.get(op.qid)
        if plan is None:
            return
        if step.trigger in ("grow", "shrink"):
            plan.params = op.params
            plan.resizes += 1
        elif step.trigger == "rebalance":
            plan.deploy = dict(op.deploy)
        plan.cooldown_until = cooldown

    def _signals_for(self, plan: QueryPlan,
                     signals: WindowSignals) -> Optional[QuerySignals]:
        """This query's feedback: the final (reduce-carrying) sub-query."""
        candidates = [s for s in signals.queries if s.top_qid == plan.qid]
        if not candidates:
            return None
        for sig in candidates:
            if sig.sub_qid == plan.qid:
                return sig
        for sig in candidates:
            if sig.occupancy is not None:
                return sig
        return candidates[0]

    @staticmethod
    def _update_op(plan: QueryPlan, params: Optional[QueryParams] = None,
                   deploy: Optional[Dict[str, Any]] = None) -> ControlOp:
        """``plan``'s installed variant, re-sized or re-placed."""
        return ControlOp(
            "update", plan.qid, plan.query, params or plan.params,
            deploy=dict(plan.deploy) if deploy is None else deploy,
        )

    def _step(self, op: ControlOp, **why: Any) -> PlanStep:
        self._seq += 1
        return PlanStep(op=op, seq=self._seq, **why)

    def state(self) -> Dict[str, Any]:
        """JSON-ready snapshot for ``GET /plan``."""
        return {
            "last_epoch": self.last_epoch,
            "managed": len(self.plans),
            "queries": [
                self.plans[qid].to_dict() for qid in sorted(self.plans)
            ],
            "history": [s.to_dict() for s in self.history[-50:]],
            "config": {
                "occupancy_high": self.config.occupancy_high,
                "occupancy_low": self.config.occupancy_low,
                "grow_factor": self.config.grow_factor,
                "max_registers": self.config.max_registers,
                "min_registers": self.config.min_registers,
                "cooldown_windows": self.config.cooldown_windows,
                "max_children": self.config.max_children,
                "child_idle_windows": self.config.child_idle_windows,
                "skew_ratio": self.config.skew_ratio,
            },
        }


def run_windows(deployment, traces: Iterable[Any],
                planner: Optional[DynamicPlanner] = None) -> Dict[str, Any]:
    """Feed ``deployment`` one trace per window, closing each and — with
    a ``planner`` — re-planning on the signals that window left.

    Returns the closed window epochs in order (index = position in
    ``traces``), every executed plan step (:meth:`PlanStep.to_dict`, its
    ``epoch`` the window that triggered it), and the run's totals of
    mixed-rule-epoch packets (must be 0: no packet saw half a re-plan)
    and packets initiated per query.
    """
    closed: List[int] = []
    steps: List[Dict[str, Any]] = []
    initiated: Dict[str, int] = {}
    mixed = 0
    for trace in traces:
        stats = deployment.simulator.run(trace)
        mixed += stats.mixed_rule_epoch_packets
        for qid, count in stats.initiated_by_query.items():
            initiated[qid] = initiated.get(qid, 0) + count
        closed.append(deployment.simulator.roll_window())
        execution = planner.step() if planner is not None else None
        if execution is not None:
            steps.extend(step.to_dict() for step in execution.steps)
    return {"closed": closed, "steps": steps, "mixed_epoch": mixed,
            "initiated": initiated}
