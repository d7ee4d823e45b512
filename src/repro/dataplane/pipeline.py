"""Newton switch pipeline.

Wires together ``newton_init`` (ternary traffic dispatch), the module
layout, and the installed query slices.  The pipeline executes packets the
way the paper's Figure 6 walkthrough describes: dispatch, then the query's
modules in logical order across the stages, then — under cross-switch
execution — snapshot the results for the next hop (``newton_fin``).

Rule banks are **epoch-versioned** for the transactional control plane
(:mod:`repro.ctrlplane`):

* ``stage_slice`` places rules in a *shadow* bank tagged with a future
  rule epoch — physically resident (they consume table capacity and
  register space, the real cost of make-before-break) but invisible to
  packets until the epoch flip — the only way rules are placed;
* ``retire_query`` marks the active version to stop serving at the flip;
* ``commit_epoch`` is the atomic flip (one counter write);
* ``rollback_epoch`` / ``abort_staged`` undo a partially applied
  transaction, restoring the prior bank exactly;
* ``gc_retired`` physically deletes entries no packet can reach anymore.

Packets are stamped with the ingress switch's rule epoch in their SP
header; downstream switches serve the stamped bank, so a packet observes
one consistent rule set end to end even while a multi-switch flip is in
progress.

The pipeline keeps its occupancy live (``slot_rules``: rules per
``(stage, module type)`` table, every bank counted) and indexes its
versions by query and by retire mark, so retiring and garbage-collecting
visit what they change, never every resident version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.core.rules import ModuleRuleSpec, QuerySlice, Report, SConfig
from repro.dataplane.hashing import HashFamily
from repro.dataplane.layout import LayoutKind, ModuleLayout
from repro.dataplane.module_types import ModuleType
from repro.dataplane.modules import (
    DEFAULT_REGISTER_ARRAY_SIZE,
    ExecutionEnv,
    ModuleInstance,
    StateBankModule,
)
from repro.dataplane.phv import PhvContext
from repro.dataplane.registers import carve, find_offset
from repro.dataplane.tables import (
    DEFAULT_TABLE_CAPACITY,
    TernaryEntry,
    TernaryRule,
    TernaryTable,
)
from repro.network.snapshot import SnapshotEntry, SnapshotHeader

__all__ = ["NewtonPipeline", "PipelineResult", "TOFINO_DEFAULT_STAGES"]

TOFINO_DEFAULT_STAGES = 12

#: Epoch-tagged storage key of one module rule: (qid, step, rule epoch).
StorageKey = Tuple[str, int, int]
#: One placed module rule: (local stage, spec, storage key).
PlacedRule = Tuple[int, ModuleRuleSpec, StorageKey]
#: A register extent ``(start, end)``.
Extent = Tuple[int, int]


def _by_order(installed: "_Installed") -> Tuple[int, int]:
    return installed.order


@dataclass
class PipelineResult:
    """Outcome of pushing one packet through the pipeline."""

    reports: List[Report] = field(default_factory=list)
    initiated: List[str] = field(default_factory=list)
    continued: List[str] = field(default_factory=list)
    completed: List[str] = field(default_factory=list)
    #: qid -> rule-bank epoch of the version that served this packet
    #: (atomicity witness: across a path, each qid must map to one epoch).
    rule_epochs: Dict[str, int] = field(default_factory=dict)


#: A placement plan: where one slice's rules go on a switch in one state,
#: read off a switch by ``_plan`` and written to each switch in that state
#: by ``_apply``.  It holds the ``placed`` record (a search that fails ends
#: it at the rule it failed on); each rule's register offset (``None``
#: where it leases nothing or the search found no room: the S module's
#: first fit then raises too); the storage keys by rule key; and the
#: register extents leased in each local stage's bank.
Plan = Tuple[Tuple[PlacedRule, ...], Tuple[Optional[int], ...],
             Dict[Tuple[str, int], StorageKey], Dict[int, Tuple[Extent, ...]]]
#: One transaction's placement plans: ``(qid, slice index, epoch)`` ->
#: (the slice, the stages of its S rules, state -> plan).
PlanMemo = Dict[Tuple[str, int, int],
                Tuple[QuerySlice, Tuple[int, ...], Dict[tuple, Plan]]]


@dataclass(eq=False)
class _Installed:
    """Book-keeping for one installed version of one slice (compared and
    hashed by identity: the pipeline indexes its versions by object)."""

    query_slice: QuerySlice
    #: (local stage, spec, epoch-tagged storage key) per module rule.
    placed: Tuple[PlacedRule, ...]
    #: The module holding each rule of ``placed``, in the same order.
    modules: Tuple[ModuleInstance, ...]
    #: This version's ``newton_init`` entries, as inserted.
    init_entries: Tuple[TernaryEntry, ...]
    #: First rule epoch this version serves.
    epoch_from: int
    #: Rule key -> storage key of its first entry in ``placed``.
    storage_keys: Dict[Tuple[str, int], StorageKey]
    #: Local stage -> the register extents this version leases in that
    #: stage's bank: what a successor staged over it vacates at GC.
    extents: Dict[int, Tuple[Extent, ...]]
    #: Exclusive end of service (None = open); set by ``retire_query``.
    epoch_until: Optional[int] = field(default=None, init=False)
    #: Where ``resident_versions`` meets this version: the placement
    #: number of the version that created its ``(qid, slice_index)``
    #: entry, then its own.  Sorting a subset by it walks that subset in
    #: the order a walk over every version would.
    order: Tuple[int, int] = field(default=(0, 0), init=False)

    def valid_at(self, epoch: int) -> bool:
        if epoch < self.epoch_from:
            return False
        return self.epoch_until is None or epoch < self.epoch_until

    @property
    def entry_count(self) -> int:
        return len(self.placed) + len(self.init_entries)


class NewtonPipeline:
    """One switch's Newton component: dispatch + modules + slices.

    Reports come back in :attr:`PipelineResult.reports`; the pipeline
    hands them to nobody (the execution engine gives them to the
    collector).
    """

    #: Observer tap the engines call with each report this switch emits,
    #: right before the collector hand-off.  Nothing in the package sets
    #: it; ``bench/harness.py`` records the emission order through it.
    report_sink: Optional[Callable[[Report], None]] = None

    def __init__(
        self,
        switch_id: object = "sw",
        num_stages: int = TOFINO_DEFAULT_STAGES,
        layout_kind: str = LayoutKind.COMPACT,
        table_capacity: int = DEFAULT_TABLE_CAPACITY,
        array_size: int = DEFAULT_REGISTER_ARRAY_SIZE,
        hash_family: Optional[HashFamily] = None,
    ):
        self.switch_id = switch_id
        self.layout = ModuleLayout(
            num_stages=num_stages,
            kind=layout_kind,
            table_capacity=table_capacity,
            array_size=array_size,
        )
        self.newton_init: TernaryTable[str] = TernaryTable(
            name=f"newton_init@{switch_id}", capacity=table_capacity
        )
        #: All switches of a deployment share the hash family so CQE slices
        #: index registers consistently across hops.
        self.hash_family = hash_family or HashFamily()
        #: Runtime invariant checker threaded into every packet's
        #: execution env (observe-only; ``None`` when sanitizing is off).
        self.sanitizer = None
        #: 100 ms measurement-window counter (register reset cadence).
        self.epoch = 0
        #: Active rule-bank epoch (flipped by the transaction manager).
        self.rule_epoch = 0
        #: Monotone counter bumped on every rule mutation (place, unplace,
        #: retire mark, epoch flip, abort).  Execution engines key their
        #: compiled rule-program caches on ``(rule_epoch, mutation_seq)``
        #: so a stale program can never serve a packet.
        self.mutation_seq = 0
        #: Shard execution filter (fabric plane): when set, ``newton_init``
        #: only dispatches the listed sub-query ids — the rules stay
        #: resident (placement, epochs, and admission are identical on
        #: every shard replica) but non-owned queries never initiate, so
        #: their registers, reports, and SP entries stay untouched here
        #: and live solely on the owning shard.  ``None`` = own everything.
        self.query_filter: Optional[FrozenSet[str]] = None
        #: (qid, slice_index) -> resident versions, oldest first.
        self._slices: Dict[Tuple[str, int], List[_Installed]] = {}
        #: qid -> its resident versions, every slice index, in placement
        #: order (what ``retire_query`` visits).
        self._by_qid: Dict[str, List[_Installed]] = {}
        #: Version -> its ``epoch_until``, for every version carrying a
        #: retire mark, whether or not the flip has reached it yet: all
        #: ``gc_retired`` visits.
        self._marked: Dict[_Installed, int] = {}
        #: Versions placed so far (numbers :attr:`_Installed.order`).
        self._placements = 0
        #: The staged versions: placed for an epoch the active one has
        #: not reached (what ``staged_rule_count`` sums).
        self._staged: Dict[_Installed, None] = {}
        #: (local stage, module type) -> module rules resident in that
        #: slot's table, every bank counted (active, staged, retired).
        #: Kept up to date by :meth:`_apply` and :meth:`_unplace`, the
        #: only two places module tables change; a slot at zero has no
        #: entry.  ``PipelineModel.of_switch`` copies it.
        self.slot_rules: Dict[Tuple[int, ModuleType], int] = {}

    # ------------------------------------------------------------------ #
    # Rule management                                                    #
    # ------------------------------------------------------------------ #

    def _version_at(self, qid: str, slice_index: int,
                    at_epoch: int) -> Optional[_Installed]:
        for installed in self._slices.get((qid, slice_index), ()):
            if installed.valid_at(at_epoch):
                return installed
        return None

    def _place(self, query_slice: QuerySlice, epoch_from: int,
               plans: Optional[PlanMemo] = None) -> _Installed:
        """Physically insert a slice's rules tagged with ``epoch_from``
        and record the version as resident: apply the placement plan for
        this switch's state, from ``plans`` (one transaction's memo) when
        a switch in the same state was planned for.  The state is what
        the search reads — the layout's shape and, for the bank of each S
        rule, its free runs and the outgoing version's extents there —
        read off this switch now, so a switch wiped mid-transaction or
        fragmented otherwise plans on its own.
        """
        # Make-before-break hint: the outgoing version's register slices
        # free at post-commit GC, and the search anchors around them so
        # hitless updates do not fragment the array (RegisterArray.allocate).
        outgoing = self._version_at(
            query_slice.qid, query_slice.slice_index, self.rule_epoch
        )
        vacating: Dict[int, Tuple[Extent, ...]] = (
            {} if outgoing is None else outgoing.extents)
        if plans is None:
            return self._apply(query_slice, epoch_from,
                               self._plan(query_slice, epoch_from, vacating))
        name = (query_slice.qid, query_slice.slice_index, epoch_from)
        memo = plans.get(name)
        if memo is None or memo[0] is not query_slice:
            memo = plans[name] = (query_slice, tuple(
                spec.stage - query_slice.stage_base
                for spec in query_slice.specs
                if spec.module_type is ModuleType.STATE_BANK
            ), {})
        _, stages, by_state = memo
        banks = self.layout.bank_at
        state = (self.layout.kind, len(banks)) + tuple(
            (vacating.get(stage), banks[stage].array.free_runs()
             if stage < len(banks) and banks[stage] else None)
            for stage in stages
        )
        plan = by_state.get(state)
        if plan is None:
            plan = by_state[state] = self._plan(query_slice, epoch_from,
                                                vacating)
        return self._apply(query_slice, epoch_from, plan)

    def _plan(self, query_slice: QuerySlice, epoch_from: int,
              vacating: Dict[int, Tuple[Extent, ...]]) -> Plan:
        """The placement search, read-only: each rule's slot, storage
        key and register offset, in step order (see :data:`Plan`)."""
        placed: List[PlacedRule] = []
        offsets: List[Optional[int]] = []
        storage_keys: Dict[Tuple[str, int], StorageKey] = {}
        extents: Dict[int, Tuple[Extent, ...]] = {}
        free: Dict[int, List[Extent]] = {}
        for spec in sorted(query_slice.specs, key=lambda s: s.step):
            local_stage = spec.stage - query_slice.stage_base
            storage_key: StorageKey = (spec.qid, spec.step, epoch_from)
            placed.append((local_stage, spec, storage_key))
            storage_keys.setdefault(spec.key, storage_key)
            module = self.layout.module_at(local_stage, spec.module_type)
            config: SConfig = spec.config  # type: ignore[assignment]
            offset = None
            if isinstance(module, StateBankModule) and not config.passthrough:
                runs = free.setdefault(local_stage,
                                       list(module.array.free_runs()))
                offset = find_offset(runs, config.slice_size,
                                     vacating.get(local_stage, ()))
                if offset is None:
                    module = None
                else:
                    end = offset + config.slice_size
                    carve(runs, offset, end)
                    extents[local_stage] = (*extents.get(local_stage, ()),
                                            (offset, end))
            offsets.append(offset)
            if module is None:
                break
        return tuple(placed), tuple(offsets), storage_keys, extents

    def _apply(self, query_slice: QuerySlice, epoch_from: int,
               plan: Plan) -> _Installed:
        """Insert the rules, lease the planned offsets, count the slots,
        insert the ``newton_init`` entries and record the version.

        Any failure (a full table, a planned offset not free, the
        search's own) rolls back everything inserted, out of
        :attr:`slot_rules` too: Newton must never wedge a running switch
        halfway through a rule operation.
        """
        placed, offsets, storage_keys, extents = plan
        modules: List[ModuleInstance] = []
        init_entries: List[TernaryEntry] = []
        module_at = self.layout.module_at
        slot_rules = self.slot_rules
        try:
            for (stage, spec, key), offset in zip(placed, offsets):
                module = module_at(stage, spec.module_type)
                if module is None:
                    raise ValueError(f"layout has no {spec.module_type.symbol}"
                                     f" module in stage {stage}")
                if isinstance(module, StateBankModule):
                    module.install(spec, key, offset)
                else:
                    module.install(spec, key)
                modules.append(module)
                slot = (stage, spec.module_type)
                slot_rules[slot] = slot_rules.get(slot, 0) + 1
            for entry in query_slice.init_entries:
                init_entries.append(self.newton_init.insert(TernaryRule(
                    match=entry.match, priority=entry.priority,
                    action=entry.qid), epoch_from=epoch_from))
        except Exception:
            self._remove_rules(placed, modules)
            for entry in init_entries:
                self.newton_init.remove(entry)
            raise
        installed = _Installed(query_slice, placed, tuple(modules),
                               tuple(init_entries), epoch_from, storage_keys,
                               extents)
        self._placements += 1
        self._staged[installed] = None
        key = (query_slice.qid, query_slice.slice_index)
        versions = self._slices.setdefault(key, [])
        first = versions[0].order[0] if versions else self._placements
        installed.order = (first, self._placements)
        versions.append(installed)
        self._by_qid.setdefault(query_slice.qid, []).append(installed)
        self.mutation_seq += 1
        return installed

    def _unplace(self, installed: _Installed) -> int:
        """Physically delete one version's rules through the modules and
        entries it holds; returns entries removed."""
        self._remove_rules(installed.placed, installed.modules)
        for entry in installed.init_entries:
            self.newton_init.remove(entry)
        qid, slice_index = (installed.query_slice.qid,
                            installed.query_slice.slice_index)
        versions = self._slices[(qid, slice_index)]
        versions.remove(installed)
        if not versions:
            del self._slices[(qid, slice_index)]
        versions = self._by_qid[qid]
        versions.remove(installed)
        if not versions:
            del self._by_qid[qid]
        self._marked.pop(installed, None)
        self._staged.pop(installed, None)
        return installed.entry_count

    def _remove_rules(self, placed: Sequence[PlacedRule],
                      modules: Sequence[ModuleInstance]) -> None:
        """Delete the first ``len(modules)`` placed rules and uncount them."""
        slot_rules = self.slot_rules
        for (local_stage, spec, storage_key), module in zip(placed, modules):
            module.remove(storage_key)
            slot = (local_stage, spec.module_type)
            left = slot_rules[slot] - 1
            if left:
                slot_rules[slot] = left
            else:
                del slot_rules[slot]

    def stage_slice(self, query_slice: QuerySlice, epoch: int,
                    plans: Optional[PlanMemo] = None) -> int:
        """Install a slice into the shadow bank of rule epoch ``epoch``
        (``plans``: the transaction's placement memo, see :meth:`_place`).

        The rules are resident (consuming real capacity) but serve no
        packet until :meth:`commit_epoch` flips to ``epoch``.
        """
        if epoch <= self.rule_epoch:
            raise ValueError(
                f"stage epoch {epoch} is not in the future "
                f"(active epoch {self.rule_epoch})"
            )
        if self.has_staged(query_slice.qid, query_slice.slice_index, epoch):
            raise ValueError(
                f"slice {query_slice.slice_index} of query "
                f"{query_slice.qid!r} already staged for epoch {epoch}"
            )
        return self._place(query_slice, epoch, plans).entry_count

    def has_staged(self, qid: str, slice_index: int, epoch: int) -> bool:
        """True iff this exact slice is already staged for ``epoch``
        (the idempotency probe for retried control messages)."""
        for installed in self._slices.get((qid, slice_index), ()):
            if installed.epoch_from == epoch:
                return True
        return False

    def retire_query(self, qid: str, epoch: int) -> int:
        """Mark every active version of ``qid`` to stop serving at
        ``epoch``; returns the number of physical entries newly marked.

        Idempotent: re-marking with the same epoch is a no-op, so a
        retried control message after an acknowledgement loss is safe.
        """
        if epoch <= self.rule_epoch:
            raise ValueError(
                f"retire epoch {epoch} is not in the future "
                f"(active epoch {self.rule_epoch})"
            )
        marked = 0
        for installed in self._by_qid.get(qid, ()):
            if not installed.valid_at(self.rule_epoch):
                continue
            if installed.epoch_until == epoch:
                continue
            installed.epoch_until = self._marked[installed] = epoch
            for entry in installed.init_entries:
                entry.epoch_until = epoch
            marked += installed.entry_count
        if marked:
            self.mutation_seq += 1
        return marked

    def commit_epoch(self, epoch: int) -> bool:
        """Atomically flip the active rule bank to ``epoch``.

        Monotonic and idempotent; returns True iff the epoch advanced.
        """
        if epoch <= self.rule_epoch:
            return False
        self.rule_epoch = epoch
        self._staged = {v: None for v in self._staged if v.epoch_from > epoch}
        self.mutation_seq += 1
        return True

    def rollback_epoch(self, epoch: int) -> bool:
        """Return to a prior rule epoch (partial-failure recovery).

        Only steps backwards; pair with :meth:`abort_staged` to also drop
        the now-unreachable shadow bank.
        """
        if epoch >= self.rule_epoch:
            return False
        self.rule_epoch = epoch
        self._staged = {v: None for _q, _i, v in self.resident_versions()
                        if v.epoch_from > epoch}
        self.mutation_seq += 1
        return True

    def abort_staged(self) -> int:
        """Drop every staged (future-epoch) version and clear pending
        retire marks, restoring the active bank exactly; returns the
        number of physical entries removed."""
        removed = sum(self._unplace(installed) for installed in list(self._staged))
        for installed, until in list(self._marked.items()):
            if until > self.rule_epoch:
                installed.epoch_until = None
                del self._marked[installed]
        self.newton_init.unretire(self.rule_epoch)
        self.mutation_seq += 1
        return removed

    def gc_retired(self) -> int:
        """Physically delete versions retired at or before the active
        epoch, in the order :meth:`resident_versions` meets them; returns
        the number of table entries removed."""
        retired = sorted(
            (installed for installed, until in self._marked.items()
             if until <= self.rule_epoch),
            key=_by_order,
        )
        return sum(self._unplace(installed) for installed in retired)

    def wipe(self) -> int:
        """ASIC crash: every resident bank — active, staged, retired —
        and all register allocations are lost; returns entries removed.

        The rule epoch resets to 0 (the restarted ASIC knows nothing of
        the control plane's epoch sequence); the next commit or beacon
        re-synchronizes it.  Recovery must re-stage from the controller's
        placement records (:mod:`repro.resilience`).
        """
        removed = sum(self._unplace(installed) for installed in [
            installed for versions in self._slices.values()
            for installed in versions
        ])
        self.rule_epoch = 0
        self.mutation_seq += 1
        return removed

    def version_for(self, qid: str, slice_index: int,
                    at_epoch: Optional[int] = None) -> Optional[_Installed]:
        """The installed version of a slice serving ``at_epoch`` (public
        handle for execution engines compiling rule programs)."""
        epoch = self.rule_epoch if at_epoch is None else at_epoch
        return self._version_at(qid, slice_index, epoch)

    def resident_versions(self):
        """Iterate ``(qid, slice_index, installed)`` over every resident
        version — active, staged, and retired-awaiting-GC alike."""
        for (qid, slice_index), versions in self._slices.items():
            for installed in versions:
                yield qid, slice_index, installed

    def hosts_slice(self, qid: str, slice_index: int,
                    at_epoch: Optional[int] = None) -> bool:
        epoch = self.rule_epoch if at_epoch is None else at_epoch
        return self._version_at(qid, slice_index, epoch) is not None

    def installed_qids(self) -> Tuple[str, ...]:
        return tuple(sorted({
            qid for (qid, index), versions in self._slices.items()
            for installed in versions
            if installed.valid_at(self.rule_epoch)
        }))

    def state_storage_key(
        self, qid: str, slice_index: int, rule_key: Tuple[str, int],
        at_epoch: Optional[int] = None,
    ) -> Optional[StorageKey]:
        """Storage key of the rule ``rule_key`` in the bank serving
        ``at_epoch`` (default: the active bank) — the epoch-aware handle
        register readout needs to address the right version's state."""
        epoch = self.rule_epoch if at_epoch is None else at_epoch
        installed = self._version_at(qid, slice_index, epoch)
        if installed is None:
            return None
        return installed.storage_keys.get(rule_key)

    @property
    def rule_count(self) -> int:
        """Total physical table entries resident (modules + dispatch),
        including staged and retired-awaiting-GC banks."""
        return len(self.newton_init) + sum(
            len(installed.placed)
            for versions in self._slices.values() for installed in versions
        )

    @property
    def staged_rule_count(self) -> int:
        """Physical entries in shadow banks (staged, not yet active)."""
        return sum(installed.entry_count for installed in self._staged)

    @property
    def retired_rule_count(self) -> int:
        """Physical entries retired but not yet garbage-collected."""
        return sum(
            installed.entry_count
            for installed, until in self._marked.items()
            if until <= self.rule_epoch
        )

    # ------------------------------------------------------------------ #
    # Packet processing                                                  #
    # ------------------------------------------------------------------ #

    def process(
        self,
        packet: Packet,
        snapshot: Optional[SnapshotHeader] = None,
        ingress_edge: bool = True,
    ) -> PipelineResult:
        """Push one packet through the Newton component.

        ``snapshot`` is the packet's SP header under cross-switch query
        execution; it is mutated in place (cursor advances, completed
        queries are stripped) exactly like ``newton_fin`` would on wire.

        ``ingress_edge`` is true when this switch is the packet's first
        hop.  On hardware, ``newton_init`` matches the ingress port so a
        query only initiates where monitored traffic *enters* the network;
        downstream switches merely continue in-flight queries.

        The ingress switch stamps its active rule epoch into the SP
        header; downstream switches serve the stamped bank, so the packet
        observes one consistent rule set even mid-flip.
        """
        result = PipelineResult()
        fields = packet.field_values()
        if snapshot is not None and ingress_edge:
            snapshot.rule_epoch = self.rule_epoch
        if snapshot is not None and snapshot.rule_epoch is not None:
            at_epoch = snapshot.rule_epoch
        else:
            at_epoch = self.rule_epoch
        env = ExecutionEnv(
            fields=fields,
            ts=packet.ts,
            epoch=self.epoch,
            switch_id=self.switch_id,
            hash_family=self.hash_family,
            sanitizer=self.sanitizer,
        )

        # Continue in-flight queries first (parser decodes SP, §5.1).
        if snapshot is not None:
            for qid, entry in snapshot.items():
                installed = self._version_at(qid, entry.cursor, at_epoch)
                if installed is None:
                    continue
                self._run_slice(installed, entry.ctx, env)
                entry.cursor += 1
                result.continued.append(qid)
                result.rule_epochs[qid] = installed.epoch_from
                if entry.complete or entry.ctx.stopped:
                    snapshot.pop(qid)
                    result.completed.append(qid)

        # Dispatch fresh queries via newton_init (first hop only).
        if not ingress_edge:
            result.reports = env.reports
            return result
        seen: set = set()
        for rule in self.newton_init.lookup_all(fields, at_epoch=at_epoch):
            qid = rule.action
            if (self.query_filter is not None
                    and qid not in self.query_filter):
                continue
            if qid in seen:
                continue
            seen.add(qid)
            if snapshot is not None and qid in snapshot:
                continue  # already in flight, do not re-initiate
            if qid in result.continued:
                continue
            installed = self._version_at(qid, 0, at_epoch)
            if installed is None:
                continue
            ctx = PhvContext()
            self._run_slice(installed, ctx, env)
            result.initiated.append(qid)
            result.rule_epochs[qid] = installed.epoch_from
            total = installed.query_slice.total_slices
            if total > 1 and not ctx.stopped:
                if snapshot is None:
                    raise RuntimeError(
                        f"query {qid!r} spans {total} switches but no SP "
                        f"header is available (single-switch processing)"
                    )
                snapshot.put(
                    qid, SnapshotEntry(cursor=1, total_slices=total, ctx=ctx)
                )
            else:
                result.completed.append(qid)

        result.reports = env.reports
        return result

    def _run_slice(self, installed: _Installed, ctx: PhvContext,
                   env: ExecutionEnv) -> None:
        for (_stage, spec, storage_key), module in zip(installed.placed,
                                                       installed.modules):
            if ctx.stopped:
                break
            module.execute(spec, ctx, env, key=storage_key)

    # ------------------------------------------------------------------ #
    # Windows                                                            #
    # ------------------------------------------------------------------ #

    def advance_window(self) -> None:
        """Roll the 100 ms window: reset registers, bump the epoch, keep
        each hash memo only while it earns its hits."""
        self.epoch += 1
        for bank in self.layout.state_banks():
            assert isinstance(bank, StateBankModule)
            bank.reset_window()
        self.hash_family.trim_bulk_caches()
