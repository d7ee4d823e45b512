"""The fleet analyzer's view of a deployed switch.

Per-query verification (:mod:`repro.verify.verifier`) sees compiled
artifacts *before* they reach a switch.  The fleet analyzer instead
snapshots what is *actually resident*: every rule bank — active, staged
(a 2PC make-before-break window in flight) and retired (awaiting garbage
collection) — plus the physical ``newton_init`` TCAM with its priority /
insertion-order arbitration state.  Whole-deployment passes (NV4xx
interference, NV6xx epoch safety) run over these views, never over the
live switch objects, so analysis cannot mutate the data plane.

A view answers *whose* rules are where; *how much* is in use is
:meth:`repro.verify.program.PipelineModel.of_switch`, copied from the
pipeline's live occupancy record — the transaction path needs only
that, and never builds a view.

Bank status is classified against the switch's committed rule epoch:

* ``staged``  — ``epoch_from`` is in the future (serves no packet yet),
* ``retired`` — ``epoch_until`` has passed (serves no packet any more),
* ``active``  — everything else (the bank packets execute today).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.rules import HashMode, HConfig, ModuleRuleSpec
from repro.dataplane.module_types import ModuleType
from repro.verify.program import RuleView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.switch import Switch

__all__ = [
    "BankStatus",
    "BankView",
    "DispatchView",
    "SwitchView",
]

_Match = Tuple[Tuple[str, int, int], ...]

#: Bank lifecycle states relative to the switch's committed rule epoch.
ACTIVE = "active"
STAGED = "staged"
RETIRED = "retired"

BankStatus = str


def _classify(epoch_from: int, epoch_until: Optional[int],
              rule_epoch: int) -> BankStatus:
    if epoch_from > rule_epoch:
        return STAGED
    if epoch_until is not None and epoch_until <= rule_epoch:
        return RETIRED
    return ACTIVE


@dataclass(frozen=True)
class BankView:
    """One resident rule bank: a (query, slice) at one epoch interval."""

    qid: str
    slice_index: int
    epoch_from: int
    epoch_until: Optional[int]
    status: BankStatus
    #: ``(local stage, rule, storage key)`` per placed module rule — the
    #: pipeline's own immutable record of the bank, held by reference.
    placed: Tuple[Tuple[int, ModuleRuleSpec, object], ...]
    #: ``newton_init`` entries this bank owns on this switch.
    init_count: int

    @cached_property
    def rules(self) -> Tuple[RuleView, ...]:
        """Placed module rules at *local* (physical) stages on this
        switch — built when a pass first asks, so snapshotting a switch
        to audit one bank does not pay for every bank's rules."""
        return tuple(
            RuleView(qid=spec.qid, stage=local_stage,
                     module_type=spec.module_type, spec=spec)
            for local_stage, spec, _key in self.placed
        )

    @property
    def resident(self) -> bool:
        """Whether the bank can still serve (or come to serve) packets."""
        return self.status != RETIRED

    def hash_signatures(self) -> Tuple[Tuple[int, int], ...]:
        """``(seed_index, range_size)`` of every HASH-mode H rule.

        Two banks sharing a signature drive the *same physical*
        :class:`~repro.dataplane.hashing.HashUnit` on this switch.
        """
        out: List[Tuple[int, int]] = []
        for _stage, spec, _key in self.placed:
            config = spec.config
            if (spec.module_type is ModuleType.HASH_CALCULATION
                    and isinstance(config, HConfig)
                    and config.mode == HashMode.HASH):
                out.append((config.seed_index, config.range_size))
        return tuple(out)


@dataclass(frozen=True)
class DispatchView:
    """One physical ``newton_init`` TCAM entry with arbitration state."""

    qid: str
    match: _Match
    priority: int
    #: Insertion order — the deterministic tie-breaker at equal priority.
    seq: int
    status: BankStatus

    def beats(self, other: "DispatchView") -> bool:
        """Whether this entry wins single-winner TCAM arbitration."""
        if self.priority != other.priority:
            return self.priority > other.priority
        return self.seq < other.seq


@dataclass(frozen=True)
class SwitchView:
    """Immutable snapshot of one switch's resident state."""

    switch_id: object
    rule_epoch: int
    banks: Tuple[BankView, ...]
    dispatch: Tuple[DispatchView, ...]

    @staticmethod
    def of_switch(switch: "Switch") -> "SwitchView":
        """Snapshot a simulated switch."""
        pipeline = switch.pipeline
        rule_epoch = int(pipeline.rule_epoch)

        banks: List[BankView] = []
        for qid, slice_index, installed in pipeline.resident_versions():
            banks.append(BankView(
                qid=str(qid),
                slice_index=int(slice_index),
                epoch_from=int(installed.epoch_from),
                epoch_until=installed.epoch_until,
                status=_classify(installed.epoch_from,
                                 installed.epoch_until, rule_epoch),
                placed=installed.placed,
                init_count=len(installed.init_entries),
            ))

        dispatch = tuple(
            DispatchView(
                qid=str(entry.rule.action),
                match=entry.rule.match,
                priority=int(entry.rule.priority),
                seq=int(entry.seq),
                status=_classify(entry.epoch_from, entry.epoch_until,
                                 rule_epoch),
            )
            for entry in pipeline.newton_init.entries()
        )

        return SwitchView(
            switch_id=pipeline.switch_id,
            rule_epoch=rule_epoch,
            banks=tuple(banks),
            dispatch=dispatch,
        )

    def banks_with_status(self, *statuses: BankStatus) -> Tuple[BankView, ...]:
        wanted = set(statuses)
        return tuple(b for b in self.banks if b.status in wanted)
