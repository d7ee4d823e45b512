"""Two-phase-commit transaction manager for rule operations.

Every query operation (install / remove / update) is one **transaction**
across the switches the query is sliced onto:

1. **Verify** — the caller's gate, then the NV601 staging gate, on one
   occupancy snapshot per target switch; failing aborts before any write.
2. **Prepare** — new rules are staged into each participant's *shadow*
   epoch bank (resident, invisible) and outgoing rules are marked to
   retire at the flip.  Every prepare message is idempotent, so losses
   and acknowledgement timeouts are handled by retry-with-backoff; a
   mid-transaction switch reboot wipes that switch's shadow state and
   the retried message re-stages from scratch.
3. **Commit** — one single-register epoch flip per participant.  The
   flip closure is self-healing (it re-stages anything a reboot wiped
   before flipping) and idempotent.  Once every participant has flipped,
   the transaction is durable; an *epoch beacon* then advances every
   remaining switch so all ingresses stamp the new epoch.
4. **GC** — rules retired by the flip are physically deleted.  This is
   off the critical path: the operation's visible latency is
   prepare + commit (what Figure 11 measures), while ``gc_delay_s`` is
   reported separately.

If prepare or commit cannot complete within the retry budget, the
manager rolls back: flipped participants step back to the prior epoch,
shadow banks are dropped, retire marks are cleared — the prior epoch is
left exactly intact.  Recovery messages are sent ``reliable`` (modelled
as retried out-of-band until acknowledged), which is what turns
probabilistic delivery into guaranteed atomicity: every switch ends
fully at the old epoch or fully at the new one, never in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.collector.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.core.rules import QuerySlice
from repro.ctrlplane.channel import ChannelFault
from repro.ctrlplane.journal import JournalEntry, TransactionJournal
from repro.dataplane.pipeline import PlanMemo
from repro.dataplane.switch import Switch
from repro.runtime.channel import FLIP_OVERHEAD_S, ControlChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.verify.fleet.epochs import StagingNeed
    from repro.verify.program import PipelineModel

__all__ = [
    "TxnConfig",
    "SwitchOps",
    "TxnPlan",
    "TransactionAborted",
    "TransactionManager",
]

T = TypeVar("T")

#: Wait before the first retry; each later one multiplies it by
#: ``TxnConfig.backoff_factor``.
_BACKOFF_BASE_S = 0.0005


@dataclass(frozen=True)
class TxnConfig:
    """Retry policy for unreliable control messages."""

    max_attempts: int = 4
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_factor < 1:
            raise ValueError("invalid backoff parameters")

    def backoff_s(self, attempt: int) -> float:
        """Wait before retry number ``attempt`` (1-based)."""
        return _BACKOFF_BASE_S * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class SwitchOps:
    """One participant's share of a transaction."""

    stage: Tuple[QuerySlice, ...] = ()
    retire: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TxnPlan:
    """A fully planned transaction, ready to execute."""

    op: str                     # install | remove | update
    qid: str
    ops: Dict[object, SwitchOps]
    #: Pre-commit gate, handed the occupancy snapshot of every switch the
    #: plan stages on; raising aborts before any switch is touched.
    verify: Optional[Callable[[Dict[object, PipelineModel]], None]] = None
    #: What each slice set the plan stages asks of any switch (demand
    #: tally and layout findings), keyed by its ``(qid, slice_index)``
    #: names: derived once by whoever built the plan, read by ``verify``
    #: and by the staging gate (which derives any set missing here).
    needs: Mapping[Tuple[Tuple[str, int], ...], StagingNeed] = field(
        default_factory=dict
    )


class TransactionAborted(RuntimeError):
    """The transaction could not commit; the prior epoch is intact."""

    def __init__(self, message: str, txn_id: int,
                 cause: Optional[BaseException] = None):
        super().__init__(message)
        self.txn_id = txn_id
        self.cause = cause


class _RetriesExhausted(Exception):
    """Internal: one message failed ``max_attempts`` times."""

    def __init__(self, delay_s: float, retries: int,
                 last_fault: Optional[ChannelFault]):
        super().__init__("retries exhausted")
        self.delay_s = delay_s
        self.retries = retries
        self.last_fault = last_fault


def _slice_rules(query_slice: QuerySlice) -> int:
    """Table entries one slice programs (module rules + dispatch)."""
    return len(query_slice.specs) + len(query_slice.init_entries)


class TransactionManager:
    """Routes rule operations through 2PC with epoch-versioned banks.

    It journals every attempt in memory and writes nothing durable: a
    commit outlives the process only if the caller records it.
    """

    def __init__(
        self,
        switches: Dict[object, Switch],
        channel: ControlChannel,
        config: Optional[TxnConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.switches = switches
        self.channel = channel
        self.config = config or TxnConfig()
        self.registry = registry or MetricsRegistry()
        self.journal = TransactionJournal()
        #: Last committed rule epoch (the next transaction targets +1).
        self.epoch = max(
            (s.rule_epoch for s in switches.values()), default=0
        )
        self._txn_counter = 0
        reg = self.registry
        self._m_txns = reg.counter(
            "txn_transactions_total",
            "Control-plane transactions by operation and outcome",
        )
        self._m_retries = reg.counter(
            "txn_retries_total", "Control-message retries by phase"
        )
        self._m_rollbacks = reg.counter(
            "txn_rollbacks_total", "Transactions rolled back after partial commit"
        )
        self._m_faults = reg.counter(
            "txn_faults_total", "Channel faults absorbed, by kind"
        )
        self._m_latency = reg.histogram(
            "txn_latency_seconds", LATENCY_BUCKETS_S,
            "Visible transaction latency (prepare+commit) by operation",
        )
        self._m_staged = reg.gauge(
            "txn_staged_rules", "Rules currently resident in shadow banks"
        )
        #: switch id -> (its ``mutation_seq``, its staged rule count) as
        #: last read for the gauge: a switch whose rules did not move
        #: since is not read again.
        self._staged: Dict[object, Tuple[int, int]] = {}
        self._m_gc = reg.counter(
            "txn_gc_rules_total", "Rules physically deleted by post-flip GC"
        )

    # ------------------------------------------------------------------ #
    # Idempotent switch-side closures                                    #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stage_missing(switch: Switch, ops: SwitchOps, target: int,
                       plans: PlanMemo) -> int:
        """Stage every not-yet-staged slice for ``target``; idempotent,
        and self-healing after a reboot wiped the shadow bank.  ``plans``
        is the transaction's placement memo: a switch in a state already
        planned for applies that plan."""
        staged = 0
        for query_slice in ops.stage:
            if switch.pipeline.has_staged(
                query_slice.qid, query_slice.slice_index, target
            ):
                continue
            staged += switch.stage_slice(query_slice, target, plans)
        return staged

    @staticmethod
    def _retire_all(switch: Switch, ops: SwitchOps, target: int) -> int:
        """(Re-)mark outgoing queries to retire at ``target``; idempotent."""
        marked = 0
        for qid in ops.retire:
            marked += switch.retire_query(qid, target)
        return marked

    def _commit_one(self, switch: Switch, ops: SwitchOps, target: int,
                    plans: PlanMemo) -> None:
        """Flip one participant to ``target``.

        Idempotent (a lost acknowledgement retry finds the flip already
        applied) and self-healing (a reboot between prepare and this flip
        wiped the shadow bank; re-stage before flipping so the flip never
        exposes a half-installed epoch).
        """
        if switch.rule_epoch >= target:
            return
        self._stage_missing(switch, ops, target, plans)
        self._retire_all(switch, ops, target)
        switch.commit_epoch(target)

    # ------------------------------------------------------------------ #
    # Unreliable delivery with retry                                     #
    # ------------------------------------------------------------------ #

    def _send_retrying(
        self,
        phase: str,
        operation: str,
        rules: int,
        switch: Switch,
        apply: Callable[[], T],
        overhead_s: Optional[float] = None,
    ) -> Tuple[Optional[T], float, int]:
        """Send one idempotent message, retrying channel faults with
        backoff; returns (result, accumulated delay, retries used)."""
        delay = 0.0
        last_fault: Optional[ChannelFault] = None
        for attempt in range(self.config.max_attempts):
            if attempt:
                delay += self.config.backoff_s(attempt)
                self._m_retries.inc(phase=phase)
            try:
                result, sent = self.channel.send(
                    operation, rules, switch=switch, apply=apply,
                    overhead_s=overhead_s,
                )
                return result, delay + sent, attempt
            except ChannelFault as fault:
                delay += fault.delay_s
                self._m_faults.inc(kind=type(fault).__name__)
                last_fault = fault
        raise _RetriesExhausted(delay, self.config.max_attempts - 1,
                                last_fault)

    # ------------------------------------------------------------------ #
    # Recovery (reliable by construction)                                #
    # ------------------------------------------------------------------ #

    def _undo(self, plan: TxnPlan, prior_epoch: int) -> None:
        """Restore every participant fully to ``prior_epoch``.

        Flipped switches step back first (so the shadow bank is staged
        again relative to the active epoch), then shadow banks and retire
        marks are dropped.  All messages are reliable: recovery must
        terminate, or atomicity would only hold probabilistically.
        """
        for sid in plan.ops:
            switch = self.switches[sid]
            if switch.rule_epoch > prior_epoch:
                self.channel.send(
                    "rollback", 0, switch=switch,
                    apply=lambda s=switch: s.rollback_epoch(prior_epoch),
                    overhead_s=FLIP_OVERHEAD_S, reliable=True,
                )
            self.channel.send(
                "abort", 0, switch=switch,
                apply=lambda s=switch: s.abort_staged(),
                overhead_s=FLIP_OVERHEAD_S, reliable=True,
            )

    def resync_epoch(self, sid: object) -> float:
        """Re-send the epoch beacon to one switch whose counter lags the
        committed epoch (a crash wiped it to zero).  Needed when the
        restarted switch hosts no slices — no recovery transaction will
        run, so nothing else would ever re-advance its epoch stamp.
        Returns the beacon delay (0.0 when already in sync)."""
        switch = self.switches[sid]
        if switch.rule_epoch >= self.epoch:
            return 0.0
        _, sent = self.channel.send(
            "commit", 0, switch=switch,
            apply=lambda s=switch: s.commit_epoch(self.epoch),
            overhead_s=FLIP_OVERHEAD_S, reliable=True,
        )
        return sent

    def fast_forward(self, epoch: int) -> int:
        """Adopt a committed epoch recorded before a process restart.

        A freshly built fleet starts at epoch 0; replaying a log of query
        ops re-runs each install/update/remove as a *new* transaction,
        which may land on a lower epoch than the crashed incarnation
        committed (its commits between ops — planner rounds, switch
        recoveries — and ops a restart refuses are not re-run).
        Fast-forwarding to the recorded committed epoch — and reliably
        re-beaconing every lagging switch — guarantees no packet is ever
        stamped with a pre-crash epoch again (no mixed-epoch windows
        across the restart).  Returns the adopted epoch.
        """
        if epoch > self.epoch:
            self.epoch = epoch
        for sid in self.switches:
            self.resync_epoch(sid)
        return self.epoch

    # ------------------------------------------------------------------ #
    # The transaction                                                    #
    # ------------------------------------------------------------------ #

    def execute(self, plan: TxnPlan) -> JournalEntry:
        """Run one transaction end to end and return its committed
        journal entry; raises with the prior epoch fully intact if it
        cannot commit."""
        txn_id = self._txn_counter
        self._txn_counter += 1
        prior = self.epoch
        target = prior + 1

        # One occupancy snapshot per switch this transaction stages on,
        # shared by both gates below.
        from repro.verify import PipelineModel, VerificationError
        from repro.verify.fleet import check_staging_plan

        staging = {
            sid: ops.stage for sid, ops in plan.ops.items() if ops.stage
        }
        occupancy = {
            sid: PipelineModel.of_switch(self.switches[sid]) for sid in staging
        }

        # Phase 0: static verification — abort before touching anything.
        if plan.verify is not None:
            try:
                plan.verify(occupancy)
            except Exception as exc:
                self._finish(plan, txn_id, target, "aborted",
                             error=f"verification: {exc}")
                raise

        # Phase 0b: the fleet analyzer's NV6xx staging gate — prove the
        # make-before-break double-occupancy window fits every target
        # switch, or abort with the prior epoch fully intact.
        report = check_staging_plan(self.switches, staging, target,
                                    occupancy, plan.needs)
        if not report.ok:
            exc = VerificationError(report)
            self._finish(plan, txn_id, target, "aborted",
                         error=f"epoch gate: {exc}")
            raise exc

        self.channel.begin_transaction(txn_id)
        # Placement plans by switch state, for this transaction alone.
        plans: PlanMemo = {}
        delays: Dict[object, float] = {}
        retries = 0
        rules_staged = 0

        # Phase 1: prepare — stage shadow banks, mark retirements.
        try:
            for sid, ops in plan.ops.items():
                switch = self.switches[sid]
                delay = 0.0
                if ops.stage:
                    payload = sum(_slice_rules(qs) for qs in ops.stage)
                    _, sent, used = self._send_retrying(
                        "prepare", "install", payload, switch,
                        lambda s=switch, o=ops:
                            self._stage_missing(s, o, target, plans),
                    )
                    delay += sent
                    retries += used
                    rules_staged += payload
                if ops.retire:
                    _, sent, used = self._send_retrying(
                        "prepare", "retire", 0, switch,
                        lambda s=switch, o=ops:
                            self._retire_all(s, o, target),
                        overhead_s=FLIP_OVERHEAD_S,
                    )
                    delay += sent
                    retries += used
                delays[sid] = delay
        except Exception as exc:
            self._undo(plan, prior)
            self._finish(plan, txn_id, target, "aborted",
                         retries=retries, error=str(exc))
            if isinstance(exc, _RetriesExhausted):
                raise TransactionAborted(
                    f"txn {txn_id} ({plan.op} {plan.qid}): prepare "
                    f"exhausted {self.config.max_attempts} attempts",
                    txn_id, cause=exc.last_fault,
                ) from exc.last_fault
            raise
        self._m_staged.set(self._staged_total())

        # Phase 2: commit — flip each participant; rollback on failure.
        try:
            for sid, ops in plan.ops.items():
                switch = self.switches[sid]
                _, sent, used = self._send_retrying(
                    "commit", "commit", 0, switch,
                    lambda s=switch, o=ops:
                        self._commit_one(s, o, target, plans),
                    overhead_s=FLIP_OVERHEAD_S,
                )
                delays[sid] = delays.get(sid, 0.0) + sent
                retries += used
        except _RetriesExhausted as exc:
            self._m_rollbacks.inc()
            self._undo(plan, prior)
            self._finish(plan, txn_id, target, "aborted", retries=retries,
                         rolled_back=True,
                         error=f"commit failed: {exc.last_fault}")
            raise TransactionAborted(
                f"txn {txn_id} ({plan.op} {plan.qid}): commit exhausted "
                f"{self.config.max_attempts} attempts; rolled back to "
                f"epoch {prior}",
                txn_id, cause=exc.last_fault,
            ) from exc.last_fault

        # All participants flipped: durable.  Beacon the remaining
        # switches so every ingress stamps the new epoch before GC frees
        # the old banks.
        self.epoch = target
        beacon = 0.0
        for sid, switch in self.switches.items():
            if switch.rule_epoch >= target:
                continue
            empty = self._staged.get(sid) == (switch.pipeline.mutation_seq, 0)
            _, sent = self.channel.send(
                "commit", 0, switch=switch,
                apply=lambda s=switch: s.commit_epoch(target),
                overhead_s=FLIP_OVERHEAD_S, reliable=True,
            )
            beacon = max(beacon, sent)
            if empty:  # a flip stages nothing: the gauge's reading holds
                self._staged[sid] = (switch.pipeline.mutation_seq, 0)

        # Phase 3: background GC of the retired banks.
        gc_delay = 0.0
        rules_removed = 0
        for sid in plan.ops:
            switch = self.switches[sid]
            doomed = switch.retired_rule_count
            if doomed == 0:
                continue
            removed, sent = self.channel.send(
                "remove", doomed, switch=switch,
                apply=lambda s=switch: s.gc_retired(), reliable=True,
            )
            rules_removed += removed or 0
            gc_delay = max(gc_delay, sent)
        self._m_gc.inc(rules_removed)
        self._m_staged.set(self._staged_total())

        delay_s = max(delays.values(), default=0.0) + beacon
        self._m_latency.observe(delay_s, op=plan.op)
        return self._finish(plan, txn_id, target, "committed",
                            delay_s=delay_s, gc_delay_s=gc_delay,
                            rules_staged=rules_staged,
                            rules_removed=rules_removed, retries=retries)

    # ------------------------------------------------------------------ #
    # Book-keeping                                                       #
    # ------------------------------------------------------------------ #

    def _staged_total(self) -> int:
        """Rules in shadow banks fleet-wide, reading again only the
        switches whose rules moved since their last reading."""
        total = 0
        for sid, switch in self.switches.items():
            seq = switch.pipeline.mutation_seq
            reading = self._staged.get(sid)
            if reading is None or reading[0] != seq:
                reading = self._staged[sid] = (seq,
                                               switch.staged_rule_count)
            total += reading[1]
        return total

    def residue(self) -> Dict[str, object]:
        """What a quiescent control plane must not hold: rules still in
        a shadow bank or awaiting GC (both 0), and the rule epochs the
        switches are on (one, once every commit reached every switch)."""
        switches = list(self.switches.values())
        return {
            "rule_epochs": sorted({s.rule_epoch for s in switches}),
            "staged_residue": sum(s.staged_rule_count for s in switches),
            "retired_residue": sum(s.retired_rule_count for s in switches),
        }

    def _finish(self, plan: TxnPlan, txn_id: int, target: int, state: str,
                delay_s: float = 0.0, gc_delay_s: float = 0.0,
                rules_staged: int = 0, rules_removed: int = 0,
                retries: int = 0, rolled_back: bool = False,
                error: str = "") -> JournalEntry:
        """Count the outcome and append its journal entry, returned."""
        self._m_txns.inc(op=plan.op, outcome=state)
        entry = JournalEntry(
            txn_id=txn_id, op=plan.op, qid=plan.qid, epoch=target,
            state=state, delay_s=delay_s, gc_delay_s=gc_delay_s,
            rules_staged=rules_staged, rules_removed=rules_removed,
            retries=retries, rolled_back=rolled_back,
            participants=tuple(plan.ops), error=error,
        )
        self.journal.append(entry)
        return entry

