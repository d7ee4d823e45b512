"""Newton switch pipeline.

Wires together ``newton_init`` (ternary traffic dispatch), the module
layout, and the installed query slices.  The pipeline executes packets the
way the paper's Figure 6 walkthrough describes: dispatch, then the query's
modules in logical order across the stages, then — under cross-switch
execution — snapshot the results for the next hop (``newton_fin``).

Rule banks are **epoch-versioned** for the transactional control plane
(:mod:`repro.ctrlplane`):

* ``install_slice`` places rules in the *active* bank (visible at once),
  preserving the original runtime-install behaviour;
* ``stage_slice`` places rules in a *shadow* bank tagged with a future
  rule epoch — physically resident (they consume table capacity and
  register space, the real cost of make-before-break) but invisible to
  packets until the epoch flip;
* ``retire_query`` marks the active version to stop serving at the flip;
* ``commit_epoch`` is the atomic flip (one counter write);
* ``rollback_epoch`` / ``abort_staged`` undo a partially applied
  transaction, restoring the prior bank exactly;
* ``gc_retired`` physically deletes entries no packet can reach anymore.

Packets are stamped with the ingress switch's rule epoch in their SP
header; downstream switches serve the stamped bank, so a packet observes
one consistent rule set end to end even while a multi-switch flip is in
progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.packet import Packet
from repro.core.rules import ModuleRuleSpec, QuerySlice, Report
from repro.dataplane.hashing import HashFamily
from repro.dataplane.layout import LayoutKind, ModuleLayout
from repro.dataplane.modules import (
    DEFAULT_REGISTER_ARRAY_SIZE,
    ExecutionEnv,
    StateBankModule,
)
from repro.dataplane.phv import PhvContext
from repro.dataplane.tables import (
    DEFAULT_TABLE_CAPACITY,
    TernaryRule,
    TernaryTable,
)
from repro.network.snapshot import SnapshotEntry, SnapshotHeader

__all__ = ["NewtonPipeline", "PipelineResult", "TOFINO_DEFAULT_STAGES"]

TOFINO_DEFAULT_STAGES = 12

#: Epoch-tagged storage key of one module rule: (qid, step, rule epoch).
StorageKey = Tuple[str, int, int]


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


@dataclass
class _Installed:
    """Book-keeping for one installed version of one slice."""

    query_slice: QuerySlice
    #: (local stage, spec, epoch-tagged storage key) per module rule.
    placed: Tuple[Tuple[int, ModuleRuleSpec, StorageKey], ...]
    init_rules: Tuple[TernaryRule, ...]
    #: First rule epoch this version serves.
    epoch_from: int
    #: Rule key -> storage key of its first entry in ``placed``.
    storage_keys: Dict[Tuple[str, int], StorageKey]
    #: Exclusive end of service (None = open); set by ``retire_query``.
    epoch_until: Optional[int] = None

    def valid_at(self, epoch: int) -> bool:
        if epoch < self.epoch_from:
            return False
        return self.epoch_until is None or epoch < self.epoch_until

    @property
    def entry_count(self) -> int:
        return len(self.placed) + len(self.init_rules)


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

    # ------------------------------------------------------------------ #
    # Rule management                                                    #
    # ------------------------------------------------------------------ #

    def _versions(self, qid: str, slice_index: int) -> List[_Installed]:
        return self._slices.get((qid, slice_index), [])

    def _version_at(self, qid: str, slice_index: int,
                    at_epoch: int) -> Optional[_Installed]:
        for installed in self._versions(qid, slice_index):
            if installed.valid_at(at_epoch):
                return installed
        return None

    def _place(self, query_slice: QuerySlice, epoch_from: int,
               epoch_until: Optional[int] = None) -> _Installed:
        """Physically insert a slice's rules tagged with ``epoch_from``.

        Insertion is transactional at the switch level: a failure (full
        table, exhausted register array) rolls back everything already
        inserted — Newton must never wedge a running switch halfway
        through a rule operation.
        """
        placed: List[Tuple[int, ModuleRuleSpec, StorageKey]] = []
        init_rules: List[TernaryRule] = []
        # Make-before-break hint: when staging a future-epoch replacement
        # over a currently-active version of the same slice, the active
        # bank's register slices will free at post-commit GC — tell the
        # allocator so repeated hitless updates do not fragment the array
        # (see RegisterArray.allocate).
        vacating: Tuple[StorageKey, ...] = ()
        if epoch_from > self.rule_epoch:
            outgoing = self._version_at(
                query_slice.qid, query_slice.slice_index, self.rule_epoch
            )
            if outgoing is not None and outgoing.epoch_from != epoch_from:
                vacating = tuple(sk for _, _, sk in outgoing.placed)
        try:
            for spec in sorted(query_slice.specs, key=lambda s: s.step):
                local_stage = spec.stage - query_slice.stage_base
                module = self.layout.module_at(local_stage, spec.module_type)
                if module is None:
                    raise ValueError(
                        f"layout has no {spec.module_type.symbol} module in "
                        f"stage {local_stage}"
                    )
                storage_key: StorageKey = (spec.qid, spec.step, epoch_from)
                if vacating and isinstance(module, StateBankModule):
                    module.install(spec, key=storage_key, vacating=vacating)
                else:
                    module.install(spec, key=storage_key)
                placed.append((local_stage, spec, storage_key))
            for entry in query_slice.init_entries:
                rule = TernaryRule(
                    match=entry.match, priority=entry.priority, action=entry.qid
                )
                self.newton_init.insert(
                    rule, epoch_from=epoch_from, epoch_until=epoch_until
                )
                init_rules.append(rule)
        except Exception:
            for local_stage, spec, storage_key in placed:
                module = self.layout.module_at(local_stage, spec.module_type)
                assert module is not None
                module.remove(storage_key)
            for rule in init_rules:
                self.newton_init.remove(rule, epoch_from=epoch_from)
            raise
        storage_keys: Dict[Tuple[str, int], StorageKey] = {}
        for _, spec, storage_key in placed:
            storage_keys.setdefault(spec.key, storage_key)
        return _Installed(
            query_slice=query_slice,
            placed=tuple(placed),
            init_rules=tuple(init_rules),
            epoch_from=epoch_from,
            epoch_until=epoch_until,
            storage_keys=storage_keys,
        )

    def _unplace(self, installed: _Installed) -> int:
        """Physically delete one version's rules; returns entries removed."""
        removed = 0
        for local_stage, spec, storage_key in installed.placed:
            module = self.layout.module_at(local_stage, spec.module_type)
            assert module is not None
            module.remove(storage_key)
            removed += 1
        for rule in installed.init_rules:
            self.newton_init.remove(rule, epoch_from=installed.epoch_from)
            removed += 1
        key = (installed.query_slice.qid, installed.query_slice.slice_index)
        versions = self._slices.get(key)
        if versions is not None:
            versions.remove(installed)
            if not versions:
                del self._slices[key]
        return removed

    def install_slice(self, query_slice: QuerySlice) -> int:
        """Install a slice into the active bank (visible immediately);
        returns the number of table entries added."""
        key = (query_slice.qid, query_slice.slice_index)
        if self._version_at(query_slice.qid, query_slice.slice_index,
                            self.rule_epoch) is not None:
            raise ValueError(
                f"slice {query_slice.slice_index} of query "
                f"{query_slice.qid!r} already installed"
            )
        installed = self._place(query_slice, epoch_from=self.rule_epoch)
        self._slices.setdefault(key, []).append(installed)
        self.mutation_seq += 1
        return installed.entry_count

    def stage_slice(self, query_slice: QuerySlice, epoch: int) -> int:
        """Install a slice into the shadow bank of rule epoch ``epoch``.

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
        installed = self._place(query_slice, epoch_from=epoch)
        key = (query_slice.qid, query_slice.slice_index)
        self._slices.setdefault(key, []).append(installed)
        self.mutation_seq += 1
        return installed.entry_count

    def has_staged(self, qid: str, slice_index: int, epoch: int) -> bool:
        """True iff this exact slice is already staged for ``epoch``
        (the idempotency probe for retried control messages)."""
        return any(
            installed.epoch_from == epoch
            for installed in self._versions(qid, slice_index)
        )

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
        for (slice_qid, _), versions in self._slices.items():
            if slice_qid != qid:
                continue
            for installed in versions:
                if not installed.valid_at(self.rule_epoch):
                    continue
                if installed.epoch_until == epoch:
                    continue
                installed.epoch_until = epoch
                for rule in installed.init_rules:
                    self.newton_init.retire(
                        rule, epoch, epoch_from=installed.epoch_from
                    )
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
        self.mutation_seq += 1
        return True

    def abort_staged(self) -> int:
        """Drop every staged (future-epoch) version and clear pending
        retire marks, restoring the active bank exactly; returns the
        number of physical entries removed."""
        removed = 0
        staged = [
            installed
            for versions in list(self._slices.values())
            for installed in list(versions)
            if installed.epoch_from > self.rule_epoch
        ]
        for installed in staged:
            removed += self._unplace(installed)
        for versions in self._slices.values():
            for installed in versions:
                if (installed.epoch_until is not None
                        and installed.epoch_until > self.rule_epoch):
                    installed.epoch_until = None
        self.newton_init.unretire(self.rule_epoch)
        self.mutation_seq += 1
        return removed

    def gc_retired(self) -> int:
        """Physically delete versions retired at or before the active
        epoch; returns the number of table entries removed."""
        removed = 0
        retired = [
            installed
            for versions in list(self._slices.values())
            for installed in list(versions)
            if installed.epoch_until is not None
            and installed.epoch_until <= self.rule_epoch
        ]
        for installed in retired:
            removed += self._unplace(installed)
        return removed

    def wipe(self) -> int:
        """ASIC crash: every resident bank — active, staged, retired —
        and all register allocations are lost; returns entries removed.

        The rule epoch resets to 0 (the restarted ASIC knows nothing of
        the control plane's epoch sequence); the next commit or beacon
        re-synchronizes it.  Recovery must re-stage from the controller's
        placement records (:mod:`repro.resilience`).
        """
        removed = 0
        for versions in list(self._slices.values()):
            for installed in list(versions):
                removed += self._unplace(installed)
        self.rule_epoch = 0
        self.mutation_seq += 1
        return removed

    def remove_query(self, qid: str) -> int:
        """Remove every resident version of ``qid`` immediately; returns
        table entries removed.  (The direct, non-transactional path; the
        transactional controller retires + flips + garbage-collects.)"""
        removed = 0
        doomed = [
            installed
            for (slice_qid, _), versions in list(self._slices.items())
            if slice_qid == qid
            for installed in list(versions)
        ]
        for installed in doomed:
            removed += self._unplace(installed)
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
        return (
            sum(
                len(installed.placed)
                for versions in self._slices.values()
                for installed in versions
            )
            + len(self.newton_init)
        )

    @property
    def staged_rule_count(self) -> int:
        """Physical entries in shadow banks (staged, not yet active)."""
        return sum(
            installed.entry_count
            for versions in self._slices.values()
            for installed in versions
            if installed.epoch_from > self.rule_epoch
        )

    @property
    def retired_rule_count(self) -> int:
        """Physical entries retired but not yet garbage-collected."""
        return sum(
            installed.entry_count
            for versions in self._slices.values()
            for installed in versions
            if installed.epoch_until is not None
            and installed.epoch_until <= self.rule_epoch
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
        for local_stage, spec, storage_key in installed.placed:
            if ctx.stopped:
                break
            module = self.layout.module_at(local_stage, spec.module_type)
            assert module is not None
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
