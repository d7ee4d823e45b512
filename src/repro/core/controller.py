"""Newton controller (paper Figure 1).

The centralized control plane: compiles queries to module rules, places
and installs them (runtime table operations — no reboot, no forwarding
interruption), and keeps the collector's query registry in sync (its
``installed`` records are the analyzer's).

Two deployment modes:

* **path mode** — the caller names an ordered list of switches (a testbed
  chain or a single device); slice *d* lands on the *d*-th switch.
* **network mode** — the caller provides a topology and the monitored
  traffic's edge switches; Algorithm 2 places each slice redundantly along
  every possible path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.analyzer import Analyzer, first_incomplete_primitive
from repro.core.compiler import (
    CompiledQuery,
    Optimizations,
    QueryParams,
    compile_query,
    slice_compiled,
)
from repro.core.ops import ControlOp
from repro.core.placement import PlacementError, PlacementResult, place_slices
from repro.core.query import QueryLike, flatten
from repro.core.rules import QuerySlice
from repro.ctrlplane import SwitchOps, TransactionManager, TxnPlan
from repro.dataplane.registers import RegisterArray
from repro.dataplane.switch import Switch
from repro.runtime.channel import ControlChannel
from repro.verify import (
    Diagnostic,
    PipelineModel,
    VerificationError,
    VerificationReport,
    VerifierConfig,
    verify_demand,
    verify_queries,
)
from repro.verify.dependencies import check_dependencies
from repro.verify.fleet.epochs import StagingNeed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.dataplane.pipeline import NewtonPipeline
    from repro.dataplane.registers import Allocation

__all__ = ["NewtonController", "InstallResult", "InstalledQuery"]


@dataclass
class InstallResult:
    """Outcome of one query operation."""

    qid: str
    delay_s: float
    #: Table entries physically added by the operation (installs/updates).
    rules_staged: int = 0
    #: Table entries physically deleted by the operation.
    rules_removed: int = 0
    #: Which operation produced this result: install | update | remove.
    op: str = "install"
    #: sub-qid -> number of slices the query was partitioned into.
    slices_per_sub: Dict[str, int] = field(default_factory=dict)
    #: sub-qid -> per-switch slice assignment (network mode only).
    placements: Dict[str, PlacementResult] = field(default_factory=dict)
    #: Static-verifier findings (warnings/infos; errors abort the install).
    diagnostics: List[Diagnostic] = field(default_factory=list)


@dataclass
class InstalledQuery:
    """Controller-side record of a deployed query."""

    query: QueryLike
    compiled: Dict[str, CompiledQuery]
    slices: Dict[str, List[QuerySlice]]
    #: switch id -> installed (sub_qid, slice_index) pairs.
    by_switch: Dict[object, List[Tuple[str, int]]]
    #: Compilation inputs, kept so the query can be re-planned (recovery
    #: re-placement after a switch death needs the full deployment
    #: context, not just where the slices landed).
    params: QueryParams = field(default_factory=QueryParams)
    opts: Optimizations = field(default_factory=Optimizations.all)
    #: Deployment kwargs as given (path=... or topology=... etc.).
    deploy: Dict[str, object] = field(default_factory=dict)


class NewtonController:
    """Compiles, places, installs, and operates monitoring queries."""

    def __init__(
        self,
        switches: Dict[object, Switch],
        channel: Optional[ControlChannel] = None,
        analyzer: Optional[Analyzer] = None,
        collector=None,
        txn: Optional[TransactionManager] = None,
    ):
        if not switches:
            raise ValueError("controller needs at least one switch")
        self.switches = dict(switches)
        self.channel = channel or ControlChannel()
        #: Every rule operation routes through the transactional control
        #: plane: 2PC across the query's switches with epoch-versioned
        #: rule banks (see :mod:`repro.ctrlplane`).
        self.txn = txn or TransactionManager(self.switches, self.channel)
        #: Resolves queries through :attr:`installed`; fed by the collector.
        self.analyzer = analyzer
        #: Collection plane (repro.collector.ReportCollector); its query
        #: registry lives and dies with install/remove operations, and its
        #: loss reconciliation reads registers through this controller.
        self.collector = collector
        #: ``check(op)`` runs before an operation's transaction and may
        #: veto it by raising (the fabric refuses ops it cannot ship).
        self.checks: List[Callable[[ControlOp], None]] = []
        #: ``listener(op, record)`` runs after the commit, in order;
        #: ``record`` is the new installed record, ``None`` for a remove.
        self.listeners: List[
            Callable[[ControlOp, Optional[InstalledQuery]], None]
        ] = []
        if analyzer is not None:
            analyzer.controller = self
            self.listeners.append(analyzer.on_commit)
        if collector is not None:
            collector.controller = self
            collector.analyzer = analyzer
            self.listeners.append(collector.on_commit)
        self.installed: Dict[str, InstalledQuery] = {}
        self._sub_owner: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Query operations                                                    #
    # ------------------------------------------------------------------ #

    def install_query(
        self,
        query: QueryLike,
        params: QueryParams = QueryParams(),
        opts: Optimizations = Optimizations.all(),
        *,
        verify: bool = True,
        verifier_config: Optional[VerifierConfig] = None,
        **deploy,
    ) -> InstallResult:
        """Compile and deploy a query at runtime.

        ``deploy`` names where: exactly one of ``path`` or (``topology``
        + ``edge_switches``), optionally ``stages_per_switch`` (default:
        the first target switch's pipeline depth) and
        ``placement_method``.

        Unless ``verify`` is false, the compiled artifacts are statically
        verified (under ``verifier_config``, e.g. its declared
        ``expected_flows``) before any rule is sent: error diagnostics raise
        :class:`~repro.verify.VerificationError` (the network is left
        untouched), warnings are surfaced on the returned
        :attr:`InstallResult.diagnostics`.
        """
        if query.qid in self.installed:
            raise ValueError(f"query {query.qid!r} is already installed")
        return self._deploy("install", query, params, opts, verify,
                            verifier_config, deploy)

    def update_query(self, query: QueryLike,
                     params: QueryParams = QueryParams(),
                     opts: Optimizations = Optimizations.all(),
                     *,
                     verify: bool = True,
                     verifier_config: Optional[VerifierConfig] = None,
                     **deploy) -> InstallResult:
        """Replace an installed query with a new definition, hitlessly.

        One make-before-break transaction: the new version is staged
        under a shadow epoch while the old one keeps serving, the epoch
        flips atomically across every switch involved, and only then is
        the old version garbage-collected — no packet ever sees neither
        (or both) versions.  If anything fails — verification, staging,
        the flip — the transaction rolls back and the old version keeps
        running untouched.

        ``delay_s`` is the visible switchover latency (stage + flip);
        background GC of the old rules is excluded, as it no longer
        affects monitoring.
        """
        if query.qid not in self.installed:
            raise KeyError(f"query {query.qid!r} is not installed")
        return self._deploy("update", query, params, opts, verify,
                            verifier_config, deploy)

    def _deploy(self, kind: str, query: QueryLike, params: QueryParams,
                opts: Optimizations, verify: bool,
                verifier_config: Optional[VerifierConfig],
                deploy: Dict[str, object]) -> InstallResult:
        """Install or update: plan, verify, stage (and retire the old
        version, if any) in one transaction, then record and announce."""
        spec = self._deploy_spec(**deploy)
        call = dict(spec)
        if not verify:
            call["verify"] = False
        if verifier_config is not None:
            call["verifier_config"] = verifier_config
        op = self._admit(
            ControlOp(kind, query.qid, query, params, opts, call)
        )
        (subqueries, compiled, slices, by_switch, placements) = (
            self._plan_deployment(query, params, opts, **spec)
        )
        # One dependency pass per sub-query, shared by the verifier's
        # NV1xx and — for a query staged whole — the staging gate's NV602,
        # and one staging need per distinct slice set, handed to both
        # gates: redundant placement stages the same slices on many
        # switches, and only the fit against each switch's occupancy
        # differs.
        checked = {
            sub_qid: check_dependencies(comp)
            for sub_qid, comp in compiled.items()
        }
        needs = {
            hosted: StagingNeed.of(
                [slices[sub_qid][index] for sub_qid, index in hosted],
                checked,
            )
            for hosted in dict.fromkeys(map(tuple, by_switch.values()))
        }
        report = VerificationReport()
        gate = (
            self._verification_gate(compiled, needs, by_switch, report,
                                    verifier_config,
                                    exclude_qid=query.qid, checked=checked)
            if verify else None
        )
        ops: Dict[object, SwitchOps] = {
            sid: SwitchOps(stage=tuple(
                slices[sub_qid][index] for sub_qid, index in entries
            ))
            for sid, entries in by_switch.items()
        }
        old = self.installed.get(query.qid)
        for sid, entries in (old.by_switch.items() if old else ()):
            ops[sid] = SwitchOps(
                stage=ops[sid].stage if sid in ops else (),
                retire=tuple(sorted({q for q, _ in entries})),
            )
        plan = TxnPlan(op=kind, qid=query.qid, ops=ops, verify=gate,
                       needs=needs)
        result = self.txn.execute(plan)  # raises => old version intact
        self._commit(op, InstalledQuery(
            query=query, compiled=compiled, slices=slices,
            by_switch=by_switch, params=params, opts=opts, deploy=spec,
        ))
        return InstallResult(
            qid=query.qid,
            delay_s=result.delay_s,
            rules_staged=result.rules_staged,
            rules_removed=result.rules_removed,
            op=kind,
            slices_per_sub={q: len(s) for q, s in slices.items()},
            placements=placements,
            diagnostics=report.diagnostics,
        )

    def remove_query(self, qid: str) -> InstallResult:
        """Remove a query's rules everywhere; again purely runtime.

        Transactionally: the rules are marked to retire, the epoch flips,
        and garbage collection deletes them — ``delay_s`` covers the full
        sequence, after which no physical entry remains.
        """
        record = self.installed.get(qid)
        if record is None:
            raise KeyError(f"query {qid!r} is not installed")
        op = self._admit(ControlOp("remove", qid))
        plan = TxnPlan(
            op="remove",
            qid=qid,
            ops={
                sid: SwitchOps(retire=tuple(sorted({q for q, _ in entries})))
                for sid, entries in record.by_switch.items()
            },
        )
        result = self.txn.execute(plan)
        self._commit(op, None)
        return InstallResult(
            qid=qid,
            delay_s=result.delay_s + result.gc_delay_s,
            rules_removed=result.rules_removed,
            op="remove",
        )

    def _admit(self, op: ControlOp) -> ControlOp:
        for check in self.checks:
            check(op)
        return op

    def _commit(self, op: ControlOp,
                record: Optional[InstalledQuery]) -> None:
        """Swap ``op.qid``'s installed record and tell the listeners."""
        old = self.installed.get(op.qid)
        if old is not None:
            for sub in flatten(old.query):
                self._sub_owner.pop(sub.qid, None)
        if record is None:
            del self.installed[op.qid]
        else:
            self.installed[op.qid] = record
            for sub in flatten(record.query):
                self._sub_owner[sub.qid] = op.qid
        for listener in self.listeners:
            listener(op, record)

    @staticmethod
    def _deploy_spec(**kwargs) -> Dict[str, object]:
        """Normalize deployment kwargs for the installed record (drops
        defaults so the stored spec round-trips through update_query)."""
        if kwargs.get("edge_switches") is not None:
            kwargs["edge_switches"] = tuple(kwargs["edge_switches"])
        return {k: v for k, v in kwargs.items()
                if v is not None and v != "auto" and v != ()}

    def _plan_deployment(
        self,
        query: QueryLike,
        params: QueryParams,
        opts: Optimizations,
        *,
        path: Optional[Sequence[object]] = None,
        topology=None,
        edge_switches: Optional[Iterable[object]] = None,
        stages_per_switch: Optional[int] = None,
        placement_method: str = "auto",
        exclude_switches: Iterable[object] = (),
    ):
        """Compile, slice, and place a query (no switch is touched).

        ``exclude_switches`` removes switches from network-mode placement
        entirely (dead devices during recovery re-placement); path mode
        expects the caller to prune the path itself.
        """
        if (path is None) == (topology is None):
            raise ValueError("give either a path or a topology to deploy on")
        excluded = set(exclude_switches)
        if path is not None and excluded and any(s in excluded for s in path):
            raise ValueError("excluded switch present in explicit path")

        subqueries = flatten(query)
        targets = list(path) if path is not None else list(self.switches)
        for sid in targets:
            if sid not in self.switches:
                raise KeyError(f"unknown switch {sid!r}")
        if stages_per_switch is None:
            stages_per_switch = self.switches[targets[0]].pipeline.layout.num_stages

        family = self.switches[targets[0]].pipeline.hash_family
        compiled: Dict[str, CompiledQuery] = {}
        slices: Dict[str, List[QuerySlice]] = {}
        for sub in subqueries:
            comp = compile_query(sub, params, opts, hash_family=family)
            compiled[sub.qid] = comp
            slices[sub.qid] = slice_compiled(comp, stages_per_switch)

        by_switch: Dict[object, List[Tuple[str, int]]] = {}
        placements: Dict[str, PlacementResult] = {}
        if path is not None:
            for sub in subqueries:
                for query_slice in slices[sub.qid]:
                    if query_slice.slice_index >= len(path):
                        break  # remainder deferred to the analyzer (§5.2)
                    sid = path[query_slice.slice_index]
                    by_switch.setdefault(sid, []).append(
                        (sub.qid, query_slice.slice_index)
                    )
        else:
            assert topology is not None
            edges = [
                e for e in (edge_switches or topology.edge_switches)
                if e not in excluded
            ]
            neighbor_map = {
                s: [n for n in topology.neighbors(s) if n not in excluded]
                for s in topology.switches() if s not in excluded
            }
            # Partial deployment (§7): legacy switches forward but cannot
            # host slices; placement traverses them without advancing the
            # slice depth, mirroring the cursor's behaviour on the wire.
            transit = [
                sid for sid in topology.switches()
                if sid not in excluded
                and not getattr(self.switches[sid], "newton_enabled", True)
            ]
            for sub in subqueries:
                result = place_slices(
                    neighbor_map,
                    edges,
                    num_slices=len(slices[sub.qid]),
                    method=placement_method,
                    transit=transit,
                )
                placements[sub.qid] = result
                for sid, indices in result.assignments.items():
                    for index in indices:
                        by_switch.setdefault(sid, []).append((sub.qid, index))

        return subqueries, compiled, slices, by_switch, placements

    def _verification_gate(
        self,
        compiled: Dict[str, CompiledQuery],
        needs: Mapping[Tuple[Tuple[str, int], ...], StagingNeed],
        by_switch: Dict[object, List[Tuple[str, int]]],
        report: VerificationReport,
        verifier_config: Optional[VerifierConfig],
        exclude_qid: Optional[str] = None,
        checked: Optional[Mapping[str, Sequence[Diagnostic]]] = None,
    ):
        """Build the transaction's pre-commit verification gate.

        Artifact passes over the candidate sub-queries (with already
        installed queries as cross-query context), then resource
        admission per target switch at its real occupancy (the snapshots
        the transaction manager hands the gate) — which, for an update,
        still includes the outgoing version: make-before-break genuinely
        needs both banks resident until GC.  ``needs`` holds what each
        switch's slice set asks, keyed by its ``by_switch`` entries, and
        ``checked`` the dependency findings already derived, by sub-query.
        ``exclude_qid`` drops the query's own old version from the
        cross-query context.
        """
        def gate(occupancy: Mapping[object, PipelineModel]) -> None:
            context = [
                comp
                for owner, record in self.installed.items()
                if owner != exclude_qid
                for comp in record.compiled.values()
            ]
            report.extend(verify_queries(
                list(compiled.values()), context=context,
                config=verifier_config, checked=checked,
            ).diagnostics)
            # One verdict per distinct (slice set, occupancy): a state
            # judged clean is clean on every switch in it; one with
            # findings is judged per switch, so each names its switch.
            clean: Set[Tuple[Tuple[Tuple[str, int], ...], Hashable]] = set()
            for sid, entries in by_switch.items():
                hosted = tuple(entries)
                state = (hosted, occupancy[sid].state())
                if state in clean:
                    continue
                found = verify_demand(
                    needs[hosted].demand, occupancy[sid], switch=sid,
                    config=verifier_config,
                ).diagnostics
                if found:
                    report.extend(found)
                else:
                    clean.add(state)
            if not report.ok:
                raise VerificationError(report)
        return gate

    # ------------------------------------------------------------------ #
    # Recovery (driven by repro.resilience)                               #
    # ------------------------------------------------------------------ #

    def queries_on(self, sid: object) -> List[str]:
        """Queries with at least one slice placed on switch ``sid``."""
        return sorted(
            qid for qid, record in self.installed.items()
            if record.by_switch.get(sid)
        )

    def recover_switch(self, sid: object):
        """Re-stage every slice this controller placed on ``sid`` that
        the switch no longer hosts (it crashed and came back empty).

        One transaction over the single participant: the lost slices are
        staged under a fresh epoch and flipped in — the placement record
        is unchanged, the switch simply hosts its share again.  Returns
        the :class:`~repro.ctrlplane.TxnResult`, or ``None`` when
        nothing was missing.  Raises
        :class:`~repro.ctrlplane.TransactionAborted` if the control
        channel defeats the retry budget; the caller retries later.
        """
        switch = self.switches.get(sid)
        if switch is None:
            raise KeyError(f"unknown switch {sid!r}")
        stage: List[QuerySlice] = []
        qids: List[str] = []
        for qid in self.queries_on(sid):
            record = self.installed[qid]
            missing = [
                record.slices[sub_qid][index]
                for sub_qid, index in record.by_switch[sid]
                if not switch.pipeline.hosts_slice(sub_qid, index)
            ]
            if missing:
                qids.append(qid)
                stage.extend(missing)
        if not stage:
            # Nothing to re-stage, but a wiped switch still carries a
            # stale epoch stamp — beacon it back in sync so ingress
            # stamps match fleet-wide.
            self.txn.resync_epoch(sid)
            return None
        plan = TxnPlan(
            op="recover",
            qid="+".join(qids),
            ops={sid: SwitchOps(stage=tuple(stage))},
        )
        return self.txn.execute(plan)

    def replace_query(self, qid: str,
                      exclude: Iterable[object]) -> InstallResult:
        """Re-place an installed query off the (dead) ``exclude`` switches.

        Re-plans the query on the surviving deployment context recorded
        at install time and runs it as one hitless update — the same
        make-before-break transaction as :meth:`update_query`, so the
        surviving copies keep serving until the flip.  Raises
        :class:`~repro.core.placement.PlacementError` when no surviving
        switch can host the query.
        """
        record = self.installed.get(qid)
        if record is None:
            raise KeyError(f"query {qid!r} is not installed")
        excluded = set(exclude)
        deploy = dict(record.deploy)
        if "path" in deploy:
            survivors = tuple(
                s for s in deploy["path"] if s not in excluded  # type: ignore[union-attr]
            )
            if not survivors:
                raise PlacementError(
                    f"no surviving path switch can host query {qid!r}"
                )
            deploy["path"] = survivors
        elif "topology" in deploy:
            already = set(deploy.get("exclude_switches", ()))  # type: ignore[arg-type]
            deploy["exclude_switches"] = tuple(
                sorted(already | excluded, key=str)
            )
        else:
            raise PlacementError(
                f"query {qid!r} has no recorded deployment context to "
                f"re-place from"
            )
        return self.update_query(record.query, record.params, record.opts,
                                 **deploy)

    # ------------------------------------------------------------------ #
    # Runtime support                                                     #
    # ------------------------------------------------------------------ #

    def advance_window(self) -> None:
        """Roll the 100 ms window on every switch and the analyzer."""
        for switch in self.switches.values():
            switch.advance_window()

    def cpu_start_for(self, sub_qid: str, executed_slices: int) -> int:
        """First primitive the analyzer must run for a deferred packet."""
        owner = self._sub_owner.get(sub_qid)
        if owner is None:
            raise KeyError(f"sub-query {sub_qid!r} is not installed")
        record = self.installed[owner]
        compiled = record.compiled[sub_qid]
        slices = record.slices[sub_qid]
        stage_limit = (
            slices[0].num_stages * executed_slices if slices else 0
        )
        return first_incomplete_primitive(compiled, stage_limit)

    def total_slices(self, sub_qid: str) -> int:
        owner = self._sub_owner.get(sub_qid)
        if owner is None:
            raise KeyError(f"sub-query {sub_qid!r} is not installed")
        return len(self.installed[owner].slices[sub_qid])

    def rule_count(self) -> int:
        """Table entries currently installed across all switches."""
        return sum(s.rule_count for s in self.switches.values())

    # ------------------------------------------------------------------ #
    # Register readout                                                    #
    # ------------------------------------------------------------------ #

    def estimate_count(self, sub_qid: str, key: Dict[str, int]) -> Optional[int]:
        """Exact-style estimate of a key's current window aggregate.

        Reads the final reduce's Count-Min rows over the control channel
        and returns the min-over-rows estimate for ``key`` (field-value
        map, e.g. ``{"dip": ip("10.0.0.1")}``).  Under redundant placement
        a row's registers are spread across the switches hosting its
        slice; their cells sum to the row's network-wide count.

        Returns ``None`` when the query has no reduce on the data plane.
        This is the register readout that lets the analyzer replace a
        crossing report's clipped count with the true aggregate.
        """
        from repro.core.readout import probe_index
        from repro.dataplane.module_types import ModuleType
        from repro.dataplane.modules import StateBankModule

        owner = self._sub_owner.get(sub_qid)
        if owner is None:
            raise KeyError(f"sub-query {sub_qid!r} is not installed")
        record = self.installed[owner]
        compiled = record.compiled[sub_qid]
        slices = record.slices[sub_qid]
        if not slices:
            return None
        stages_per_switch = slices[0].num_stages
        rows = compiled.probe_rows
        if not rows:
            return None

        estimate: Optional[int] = None
        for row in rows:
            slice_index = row.stage // stages_per_switch
            local_stage = row.stage - slice_index * stages_per_switch
            total = 0
            found = False
            for sid, entries in record.by_switch.items():
                if (sub_qid, slice_index) not in entries:
                    continue
                switch = self.switches[sid]
                module = switch.pipeline.layout.module_at(
                    local_stage, ModuleType.STATE_BANK
                )
                if not isinstance(module, StateBankModule):
                    continue
                family = switch.pipeline.hash_family
                index = probe_index(row, key, family)
                # Rules are stored under epoch-tagged keys; resolve the
                # version currently serving packets on this switch.
                storage_key = switch.pipeline.state_storage_key(
                    sub_qid, slice_index, row.state_key
                )
                if storage_key is None:
                    continue
                cells = module.array.read_slice(storage_key)
                total += int(cells[index % len(cells)])
                found = True
            if not found:
                continue  # row deferred beyond the installed path
            estimate = total if estimate is None else min(estimate, total)
        return estimate

    def sketch_occupancy(self, sub_qid: str) -> Optional[float]:
        """Load of the final reduce's Count-Min rows (planner feedback).

        Reads each row's full register slice over the control channel —
        summed across the switches hosting it, exactly like
        :meth:`estimate_count` — and returns the nonzero-cell fraction of
        the *most loaded* row, in [0, 1].  Saturation here is the leading
        indicator of collision-driven over-counting (the NV701 budget in
        live form), so the dynamic planner reads it at every window close
        while the closing window's registers are still live.

        Only the banks written since their reset are resolved and read: a
        bank no packet has reached (``RegisterArray.dirty`` false) is
        zeros and adds nothing.  A row whose banks are all clean is still
        resolved once, to tell an installed row (load 0.0, not ``None``)
        from one deferred beyond the installed path.

        Returns ``None`` when the query has no data-plane reduce, every
        row is deferred beyond the installed path, or — under the fabric
        plane — this replica does not own the sub-query (its registers
        are zeros by the dispatch filter, not by traffic).
        """
        from repro.dataplane.modules import StateBankModule

        owner = self._sub_owner.get(sub_qid)
        if owner is None:
            raise KeyError(f"sub-query {sub_qid!r} is not installed")
        record = self.installed[owner]
        slices = record.slices[sub_qid]
        rows = record.compiled[sub_qid].probe_rows
        if not slices or not rows:
            return None
        stages_per_switch = slices[0].num_stages

        #: slice index -> the pipelines hosting it.
        hosts: Dict[int, List[NewtonPipeline]] = {}
        worst: Optional[float] = None
        for row in rows:
            slice_index, local_stage = divmod(row.stage, stages_per_switch)
            pipelines = hosts.get(slice_index)
            if pipelines is None:
                pipelines = hosts[slice_index] = [
                    self.switches[sid].pipeline
                    for sid, entries in record.by_switch.items()
                    if (sub_qid, slice_index) in entries
                ]
                if any(pipeline.query_filter is not None
                       and sub_qid not in pipeline.query_filter
                       for pipeline in pipelines):
                    return None  # not owned by this replica
            length = 0
            written = []
            for pipeline in pipelines:
                bank = pipeline.layout.bank_at[local_stage]
                if not isinstance(bank, StateBankModule) or not bank.array.dirty:
                    continue
                alloc = _row_slice(pipeline, bank.array, sub_qid,
                                   slice_index, row.state_key)
                if alloc is not None:
                    length = alloc.size
                    written.append((bank.array, alloc))
            # No written bank holds the row: it is installed (load 0.0)
            # if a clean one does.
            for pipeline in pipelines if not length else ():
                bank = pipeline.layout.bank_at[local_stage]
                alloc = (_row_slice(pipeline, bank.array, sub_qid,
                                    slice_index, row.state_key)
                         if isinstance(bank, StateBankModule) else None)
                if alloc is not None:
                    length = alloc.size
                    break
            if not length:
                continue  # row deferred beyond the installed path
            nonzero = RegisterArray.nonzero_in_sum(written)
            load = float(nonzero) / float(length)
            worst = load if worst is None else max(worst, load)
        return worst


def _row_slice(pipeline: NewtonPipeline, array: RegisterArray, sub_qid: str,
               slice_index: int, state_key: Tuple[str, int],
               ) -> Optional[Allocation]:
    """The slice of ``array`` the active version of ``sub_qid``'s slice
    ``slice_index`` leases for the rule ``state_key``, if any."""
    storage_key = pipeline.state_storage_key(sub_qid, slice_index, state_key)
    return None if storage_key is None else array.allocation(storage_key)
