"""Switch model: a Newton pipeline plus operational state.

The switch adds what the paper's Figure 10/11 experiments need on top of
the pipeline: rule operations are timestamped transactions over a control
channel, and *non-runtime* reconfiguration (reloading a P4 program, as
Sonata must do to change queries) takes the switch down for
``reboot_base + per_entry_restore × entries`` seconds, during which it
forwards nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

from repro.core.packet import Packet
from repro.core.rules import QuerySlice
from repro.dataplane.layout import LayoutKind
from repro.dataplane.modules import DEFAULT_REGISTER_ARRAY_SIZE
from repro.dataplane.pipeline import (
    NewtonPipeline,
    PipelineResult,
    PlanMemo,
    TOFINO_DEFAULT_STAGES,
)
from repro.dataplane.tables import DEFAULT_TABLE_CAPACITY
from repro.network.snapshot import SnapshotHeader

__all__ = [
    "Switch",
    "RebootRecord",
    "CrashRecord",
    "DEFAULT_REBOOT_BASE_S",
    "DEFAULT_ENTRY_RESTORE_S",
]

#: Fixed cost of reloading a P4 program into the ASIC (observed ~seconds on
#: Tofino; calibrated so switch.p4-scale restores reproduce the paper's
#: ~7.5 s outage in Figure 10(a)).
DEFAULT_REBOOT_BASE_S = 5.0

#: Per-table-entry restore cost after a reboot; linear term of Figure 10(b)
#: (~30 s total at 60K entries).
DEFAULT_ENTRY_RESTORE_S = 0.0004


@dataclass
class RebootRecord:
    """One non-runtime reconfiguration event and its outage window."""

    start: float
    duration: float
    entries_restored: int

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class CrashRecord:
    """One unplanned failure: the ASIC loses rules *and* register state.

    Unlike a planned :class:`RebootRecord` (committed rules are restored
    from the controller's store as part of the outage), a crash leaves
    the switch empty — the resilience plane must detect it and re-stage
    the lost query slices.  ``duration`` is ``inf`` for a switch that
    never comes back on its own.
    """

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class Switch:
    """A programmable switch running the Newton component."""

    def __init__(
        self,
        switch_id: object,
        num_stages: int = TOFINO_DEFAULT_STAGES,
        layout_kind: str = LayoutKind.COMPACT,
        table_capacity: int = DEFAULT_TABLE_CAPACITY,
        array_size: int = DEFAULT_REGISTER_ARRAY_SIZE,
        hash_family=None,
        reboot_base_s: float = DEFAULT_REBOOT_BASE_S,
        entry_restore_s: float = DEFAULT_ENTRY_RESTORE_S,
        newton_enabled: bool = True,
    ):
        self.switch_id = switch_id
        #: Partial deployment (paper §7): a legacy switch forwards traffic
        #: and carries the SP header as opaque bytes, but hosts no Newton
        #: component.
        self.newton_enabled = newton_enabled
        self.pipeline = NewtonPipeline(
            switch_id=switch_id,
            num_stages=num_stages,
            layout_kind=layout_kind,
            table_capacity=table_capacity,
            array_size=array_size,
            hash_family=hash_family,
        )
        self.reboot_base_s = reboot_base_s
        self.entry_restore_s = entry_restore_s
        self.reboots: List[RebootRecord] = []
        self.crashes: List[CrashRecord] = []
        self.dropped_packets = 0
        #: Incarnation number: bumped on every crash so a heartbeat can
        #: tell "came back from a crash with empty banks" apart from "was
        #: merely unreachable" (the generation-number trick).
        self.boot_id = 0
        #: Merged, sorted, non-overlapping outage intervals.  Liveness
        #: checks consult these (most-recent interval first) instead of
        #: scanning the full reboot history, keeping ``is_forwarding``
        #: O(1) on the hot path no matter how many outages accumulated.
        self._outage_starts: List[float] = []
        self._outage_ends: List[float] = []

    # -- transactional control plane (epoch-versioned banks) ------------ #

    def stage_slice(self, query_slice: QuerySlice, epoch: int,
                    plans: Optional[PlanMemo] = None) -> int:
        """Stage a slice under a shadow rule epoch (make-before-break);
        ``plans`` is the transaction's placement memo."""
        if not self.newton_enabled:
            raise RuntimeError(
                f"switch {self.switch_id!r} does not run Newton "
                f"(partial deployment)"
            )
        return self.pipeline.stage_slice(query_slice, epoch, plans)

    def retire_query(self, qid: str, epoch: int) -> int:
        """Mark a query's active rules to stop serving at ``epoch``."""
        return self.pipeline.retire_query(qid, epoch)

    def commit_epoch(self, epoch: int) -> bool:
        """Atomically flip the active rule bank to ``epoch``."""
        return self.pipeline.commit_epoch(epoch)

    def rollback_epoch(self, epoch: int) -> bool:
        """Step the active rule bank back to a prior epoch."""
        return self.pipeline.rollback_epoch(epoch)

    def abort_staged(self) -> int:
        """Drop staged banks and pending retire marks (abort path)."""
        return self.pipeline.abort_staged()

    def gc_retired(self) -> int:
        """Physically delete retired rules no packet can reach."""
        return self.pipeline.gc_retired()

    @property
    def rule_epoch(self) -> int:
        return self.pipeline.rule_epoch

    @property
    def staged_rule_count(self) -> int:
        return self.pipeline.staged_rule_count

    @property
    def retired_rule_count(self) -> int:
        return self.pipeline.retired_rule_count

    # -- non-runtime path (what Sonata must do) ------------------------- #

    def reboot(self, at: float, entries_to_restore: int) -> RebootRecord:
        """Reload the P4 program; the switch is down while rules restore.

        A reboot also wipes any *staged* (uncommitted) rule bank — the
        shadow epoch lives only in the ASIC, so the transaction manager
        must re-stage after a mid-transaction reboot.  Committed state is
        restored from the controller's store, which the entry-restore
        time already charges for.
        """
        duration = self.reboot_base_s + self.entry_restore_s * entries_to_restore
        record = RebootRecord(
            start=at, duration=duration, entries_restored=entries_to_restore
        )
        self.reboots.append(record)
        self._note_outage(at, record.end)
        self.pipeline.abort_staged()
        return record

    def crash(self, at: float, down_for: Optional[float] = None) -> CrashRecord:
        """Unplanned failure at ``at``: rules and registers are lost.

        The switch stops forwarding for ``down_for`` seconds (forever
        when ``None``) and comes back — if it comes back — with a bumped
        :attr:`boot_id` and an empty pipeline.  Nothing here re-installs
        anything; that is the resilience plane's job
        (:mod:`repro.resilience`).
        """
        duration = math.inf if down_for is None else float(down_for)
        record = CrashRecord(start=at, duration=duration)
        self.crashes.append(record)
        self._note_outage(at, record.end)
        self.boot_id += 1
        self.pipeline.wipe()
        return record

    def _note_outage(self, start: float, end: float) -> None:
        """Fold one outage window into the merged interval list."""
        starts, ends = self._outage_starts, self._outage_ends
        i = bisect_right(starts, start)
        while i > 0 and ends[i - 1] >= start:
            i -= 1
        j = i
        while j < len(starts) and starts[j] <= end:
            j += 1
        if i < j:
            start = min(start, starts[i])
            end = max(end, ends[j - 1])
        starts[i:j] = [start]
        ends[i:j] = [end]

    @property
    def has_outage(self) -> bool:
        """True iff any reboot/crash outage was ever recorded."""
        return bool(self._outage_ends)

    def outage_intervals(self) -> List[tuple]:
        """Merged, sorted (start, end) outage windows (engines vectorize
        over these instead of the raw reboot history)."""
        return list(zip(self._outage_starts, self._outage_ends))

    def is_forwarding(self, at: float) -> bool:
        """False while a reboot/crash outage window covers ``at``.

        O(1) against the most-recent outage (the hot path for monotone
        packet timestamps), O(log n) over the merged history otherwise —
        never a scan of :attr:`reboots`.
        """
        ends = self._outage_ends
        if not ends:
            return True
        if at >= ends[-1]:
            return True
        if at >= self._outage_starts[-1]:
            return False
        i = bisect_right(self._outage_starts, at, hi=len(ends) - 1) - 1
        return i < 0 or at >= ends[i]

    def heartbeat(self, at: float) -> Optional[int]:
        """Liveness probe: ``None`` while down, else the current boot id.

        A changed boot id between two beats tells the failure detector
        the switch restarted (crash) even if no window close fell inside
        the outage itself.
        """
        if not self.is_forwarding(at):
            return None
        return self.boot_id

    def corrupt_registers(self, fraction: float, rng) -> int:
        """Overwrite a seeded fraction of allocated register cells with
        garbage (models SEU/bit-rot faults); returns cells corrupted."""
        corrupted = 0
        for bank in self.pipeline.layout.state_banks():
            corrupted += bank.array.corrupt(fraction, rng)
        return corrupted

    # -- data path ------------------------------------------------------ #

    def process(
        self,
        packet: Packet,
        snapshot: Optional[SnapshotHeader] = None,
        ingress_edge: bool = True,
    ) -> Optional[PipelineResult]:
        """Forward one packet; ``None`` means it was dropped (switch down)."""
        if not self.is_forwarding(packet.ts):
            self.dropped_packets += 1
            return None
        if not self.newton_enabled:
            return PipelineResult()  # plain forwarding; SP rides as payload
        return self.pipeline.process(packet, snapshot, ingress_edge)

    def advance_window(self) -> None:
        self.pipeline.advance_window()

    @property
    def rule_count(self) -> int:
        return self.pipeline.rule_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.switch_id!r} rules={self.rule_count}>"
