"""Concurrent-query admission planning.

The paper leaves "scheduling concurrent queries to optimally utilize data
plane resources" as an open question (§7).  This module provides the
controller-side answer this reproduction ships: before touching a switch,
predict whether a compiled query fits the *remaining* resources and, when
a batch of queries is register-bound, degrade sketch sizes gracefully
instead of rejecting.

"Fits" is not decided here: the planner snapshots the switch with
:meth:`~repro.verify.program.PipelineModel.of_switch`, tallies each
compiled sub-query with :func:`~repro.verify.program.demand` and asks
:meth:`~repro.verify.program.PipelineModel.fit` — the same model, tally
and inequalities as the controller's install gate and the transaction
manager's staging gate, so a ``check`` that passes is an install that
commits (``tests/verify/fleet/test_occupancy_model.py`` pins it).  What
lives here is the search: which sizes to try, and when to degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.query import QueryLike, flatten
from repro.dataplane.switch import Switch
from repro.verify.program import (
    PipelineModel,
    Violation,
    demand,
    rules_of_compiled,
)

__all__ = ["AdmissionPlanner", "PlanResult"]


@dataclass
class Admission:
    """Outcome for one query within a plan."""

    qid: str
    admitted: bool
    params: Optional[QueryParams] = None
    degraded: bool = False
    violations: List[str] = field(default_factory=list)


@dataclass
class PlanResult:
    """Outcome of planning a batch of queries onto one switch."""

    admissions: List[Admission]
    #: The switch's occupancy with every admitted query charged to it.
    snapshot: PipelineModel

    @property
    def admitted(self) -> List[str]:
        return [a.qid for a in self.admissions if a.admitted]

    @property
    def rejected(self) -> List[str]:
        return [a.qid for a in self.admissions if not a.admitted]

    @property
    def degraded(self) -> List[str]:
        return [a.qid for a in self.admissions if a.degraded]


class AdmissionPlanner:
    """Plans concurrent queries onto one switch's remaining resources."""

    def __init__(self, switch: Switch,
                 opts: Optimizations = Optimizations.all(),
                 min_registers: int = 64) -> None:
        self.switch = switch
        self.opts = opts
        self.min_registers = min_registers

    # -- single query ---------------------------------------------------- #

    def _charge(self, occupancy: PipelineModel, query: QueryLike,
                params: QueryParams) -> List[Violation]:
        """Stack the query's sub-queries onto ``occupancy``; returns what
        did not fit on the way."""
        family = self.switch.pipeline.hash_family
        found: List[Violation] = []
        for sub in flatten(query):
            compiled = compile_query(sub, params, self.opts,
                                     hash_family=family)
            need = demand(rules_of_compiled([compiled]),
                          len(compiled.init_entries))
            found.extend(occupancy.fit(need))
            occupancy.charge(need)
        return found

    def check(self, query: QueryLike,
              params: QueryParams = QueryParams()) -> List[str]:
        """Violations the query would hit right now ([] means it fits)."""
        occupancy = PipelineModel.of_switch(self.switch)
        return [str(v) for v in self._charge(occupancy, query, params)]

    def best_fit(self, query: QueryLike, params: QueryParams,
                 ceiling: int) -> Optional[QueryParams]:
        """Largest hitless grow of the query's reduce sketch on this switch.

        Doubles ``reduce_registers`` from its current value toward
        ``ceiling`` and returns the largest candidate whose *entire*
        demand fits the switch's currently-free resources — the staged
        copy must co-reside with the running version until the epoch
        flip, so make-before-break headroom is exactly "the whole new
        version fits in what is free right now".  Returns ``None`` when
        not even one doubling fits (the planner then defers the grow).
        """
        sizes: List[int] = []
        registers = params.reduce_registers * 2
        while registers <= ceiling:
            sizes.append(registers)
            registers *= 2
        for candidate_size in reversed(sizes):
            candidate = replace(params, reduce_registers=candidate_size)
            if not self.check(query, candidate):
                return candidate
        return None

    # -- batch planning ---------------------------------------------------- #

    def plan(self, requests: Sequence[Tuple[QueryLike, QueryParams]],
             degrade: bool = True) -> PlanResult:
        """Greedy first-fit over the requests, in order.

        When a query is *register*-bound and ``degrade`` is set, its
        sketch sizes are halved (down to ``min_registers``) until it fits
        — trading accuracy for admission, never failing on memory alone.
        Stage- or table-bound queries are rejected outright.
        """
        snapshot = PipelineModel.of_switch(self.switch)
        admissions: List[Admission] = []

        for query, params in requests:
            attempt = params
            degraded = False
            while True:
                trial = replace(
                    snapshot,
                    rules_used=dict(snapshot.rules_used),
                    registers_used=dict(snapshot.registers_used),
                )
                violations = self._charge(trial, query, attempt)
                if not violations:
                    snapshot = trial
                    admissions.append(
                        Admission(qid=query.qid, admitted=True,
                                  params=attempt, degraded=degraded)
                    )
                    break
                register_bound = all(
                    v.kind == "registers" for v in violations
                )
                smallest = min(attempt.reduce_registers,
                               attempt.distinct_registers)
                if (degrade and register_bound
                        and smallest // 2 >= self.min_registers):
                    attempt = replace(
                        attempt,
                        reduce_registers=attempt.reduce_registers // 2,
                        distinct_registers=attempt.distinct_registers // 2,
                    )
                    degraded = True
                    continue
                admissions.append(
                    Admission(qid=query.qid, admitted=False,
                              violations=[str(v) for v in violations])
                )
                break
        return PlanResult(admissions=admissions, snapshot=snapshot)
