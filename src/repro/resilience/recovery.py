"""Recovery manager: turn detected failures back into running queries.

Runs right after the failure detector on every window close.  For each
switch the detector holds DOWN it applies, in order of preference:

1. **Re-install** — the switch is reachable again with empty banks
   (restarted boot id): re-derive the resident slices from the
   controller's placement records and re-stage them through the existing
   2PC transaction manager (retry/backoff included); one transaction,
   the placement is unchanged.
2. **Re-place** — the switch has stayed DOWN for
   ``RecoveryConfig.replace_after_windows`` windows: invoke placement
   over the surviving switches (``controller.replace_query`` →
   ``core.placement.place_slices`` in network mode, path pruning in path
   mode) and move the lost slices there with a hitless update.  When
   only one switch survives, execution degrades to single-switch (the
   analyzer's CPU tail absorbs the remainder) and a coverage warning is
   logged.
3. **Degrade** — nothing can host the slices (or the transaction keeps
   aborting past the attempt budget): the query is explicitly marked
   degraded; every subsequent window records a coverage gap.  Never
   silent.

All outcomes feed the :class:`~repro.resilience.coverage.CoverageTracker`
and a :class:`RecoveryRecord` log that ``newton-repro chaos`` prints
and ``tests/resilience/test_recovery.py`` grades.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.collector.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.core.placement import PlacementError
from repro.ctrlplane import TransactionAborted
from repro.resilience.coverage import CoverageTracker
from repro.resilience.health import FailureDetector, SwitchState
from repro.runtime.clock import WindowClock
from repro.verify import VerificationError

__all__ = ["RecoveryConfig", "RecoveryRecord", "RecoveryManager"]

logger = logging.getLogger("repro.resilience")


@dataclass(frozen=True)
class RecoveryConfig:
    """Escalation policy of the recovery manager."""

    #: Windows a switch may stay DOWN (unreachable) before its slices
    #: are re-placed onto surviving switches.
    replace_after_windows: int = 5
    #: Re-install / re-place transaction attempts (one per window) before
    #: the affected queries are declared degraded.
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.replace_after_windows < 1:
            raise ValueError("replace_after_windows must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


@dataclass
class RecoveryRecord:
    """One completed (or abandoned) recovery incident."""

    switch_id: Hashable
    #: reinstall | replace | degraded
    action: str
    qids: Tuple[str, ...]
    detected_epoch: int
    completed_epoch: int
    #: Fault start -> DOWN classification (what the detector cost).
    detect_latency_s: float
    #: Visible latency of the recovery transaction(s) (Figure-11 band).
    reinstall_delay_s: float
    #: Windows between fault and recovery (impaired-coverage span).
    windows_impaired: int


class RecoveryManager:
    """Re-installs, re-places, or explicitly degrades lost query slices."""

    def __init__(
        self,
        controller,
        detector: FailureDetector,
        clock: WindowClock,
        coverage: Optional[CoverageTracker] = None,
        config: Optional[RecoveryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.controller = controller
        self.detector = detector
        self.clock = clock
        self.config = config or RecoveryConfig()
        self.registry = registry or detector.registry
        self.coverage = coverage or CoverageTracker(registry=self.registry)
        self.records: List[RecoveryRecord] = []
        #: Per-switch failed recovery attempts (reset on success).
        self._attempts: Dict[Hashable, int] = {}
        #: Deferred corruption notes: (switch, epoch) to grade this close.
        self._corrupted: List[Tuple[Hashable, int]] = []
        m = self.registry
        self._c_recoveries = m.counter(
            "resilience_recoveries_total",
            "recovery incidents, by action and outcome",
        )
        self._h_detect = m.histogram(
            "resilience_detection_seconds", LATENCY_BUCKETS_S,
            "fault start to DOWN classification",
        )
        self._h_reinstall = m.histogram(
            "resilience_reinstall_seconds", LATENCY_BUCKETS_S,
            "visible latency of recovery transactions",
        )

    # ------------------------------------------------------------------ #
    # Window-close hook (subscribed after the detector)                   #
    # ------------------------------------------------------------------ #

    def on_window_close(self, epoch: int) -> None:
        self._grade_windows(epoch)
        for sid, health in self.detector.health_map().items():
            if health.state != SwitchState.DOWN:
                continue
            if health.restarted:
                self._reinstall(sid, epoch)
            elif (health.down_since_epoch is not None
                    and epoch - health.down_since_epoch
                    >= self.config.replace_after_windows):
                self._replace(sid, epoch)

    def note_corruption(self, sid: Hashable, at: float) -> None:
        """Register-bank corruption on ``sid`` at trace time ``at`` —
        the affected window is graded as a gap when it closes."""
        self._corrupted.append((sid, self.clock.epoch_of(at)))

    # ------------------------------------------------------------------ #
    # Coverage grading                                                    #
    # ------------------------------------------------------------------ #

    def _grade_windows(self, epoch: int) -> None:
        """Grade the window that just closed for every installed query:
        full iff every hosting switch was healthy through it."""
        corrupt_now = {
            sid for sid, corrupt_epoch in self._corrupted
            if corrupt_epoch <= epoch
        }
        self._corrupted = [
            (sid, e) for sid, e in self._corrupted if e > epoch
        ]
        for qid, record in self.controller.installed.items():
            if self.coverage.is_degraded(qid):
                self.coverage.observe_window(
                    qid, epoch, full=False, reason="degraded"
                )
                continue
            impaired: Optional[Tuple[str, Hashable]] = None
            for sid in record.by_switch:
                if sid in corrupt_now:
                    impaired = ("register-corruption", sid)
                    break
                state = self.detector.state_of(sid)
                if state != SwitchState.ALIVE:
                    reason = ("recovering"
                              if state == SwitchState.RECOVERING
                              else "switch-down")
                    impaired = (reason, sid)
                    break
            if impaired is None:
                self.coverage.observe_window(qid, epoch, full=True)
            else:
                self.coverage.observe_window(
                    qid, epoch, full=False,
                    reason=impaired[0], switch=impaired[1],
                )

    # ------------------------------------------------------------------ #
    # Recovery actions                                                    #
    # ------------------------------------------------------------------ #

    def _fault_start(self, sid: Hashable,
                     health_down_at: Optional[float]) -> float:
        """Best-effort start time of the outage the detector flagged."""
        switch = self.controller.switches[sid]
        cutoff = (health_down_at if health_down_at is not None
                  else float("inf"))
        starts = [r.start for r in switch.crashes if r.start <= cutoff]
        starts += [r.start for r in switch.reboots if r.start <= cutoff]
        return max(starts) if starts else cutoff

    def _finish_incident(self, sid: Hashable, action: str,
                         qids: Tuple[str, ...], epoch: int,
                         delay_s: float) -> None:
        health = self.detector.health(sid)
        detected_epoch = (health.down_since_epoch
                          if health.down_since_epoch is not None else epoch)
        down_at = health.down_at_s
        fault_start = self._fault_start(sid, down_at)
        detect_latency = max(
            0.0, (down_at if down_at is not None
                  else self.clock.close_time(epoch)) - fault_start
        )
        windows_impaired = max(
            1, epoch - self.clock.epoch_of(fault_start) + 1
        )
        self.records.append(RecoveryRecord(
            switch_id=sid, action=action, qids=qids,
            detected_epoch=detected_epoch, completed_epoch=epoch,
            detect_latency_s=detect_latency, reinstall_delay_s=delay_s,
            windows_impaired=windows_impaired,
        ))
        self._h_detect.observe(detect_latency)
        self._h_reinstall.observe(delay_s)
        self.coverage.note_recovery(windows_impaired)
        self._attempts.pop(sid, None)

    def _reinstall(self, sid: Hashable, epoch: int) -> None:
        """The switch is back (empty): re-stage its resident slices."""
        qids = tuple(self.controller.queries_on(sid))
        self.detector.mark_recovering(sid, epoch)
        try:
            result = self.controller.recover_switch(sid)
        except (TransactionAborted, VerificationError) as exc:
            self._note_failure(sid, epoch, qids, "reinstall", exc)
            return
        delay = result.delay_s if result is not None else 0.0
        if qids:
            # Record the incident before mark_alive clears the health
            # record's down timestamps (detect latency reads them).
            self._finish_incident(sid, "reinstall", qids, epoch, delay)
            self._c_recoveries.inc(action="reinstall", outcome="ok")
        self.detector.mark_alive(sid, epoch)
        if qids:
            logger.info(
                "re-installed %d quer%s on switch %r (%.1f ms)",
                len(qids), "y" if len(qids) == 1 else "ies", sid,
                delay * 1e3,
            )
        else:
            self._attempts.pop(sid, None)

    def _replace(self, sid: Hashable, epoch: int) -> None:
        """The switch stayed DOWN: move its slices to survivors."""
        qids = tuple(self.controller.queries_on(sid))
        if not qids:
            self._attempts.pop(sid, None)
            return
        dead = {
            s for s, h in self.detector.health_map().items()
            if h.state != SwitchState.ALIVE
        }
        recovered: List[str] = []
        delay = 0.0
        for qid in qids:
            try:
                result = self.controller.replace_query(qid, exclude=dead)
            except PlacementError as exc:
                self.coverage.mark_degraded(qid, f"no-placement: {exc}")
                self._c_recoveries.inc(action="replace", outcome="degraded")
                logger.warning(
                    "query %r cannot be re-placed off dead switch %r: %s "
                    "— running degraded with a coverage gap", qid, sid, exc,
                )
                continue
            except (TransactionAborted, VerificationError) as exc:
                self._note_failure(sid, epoch, (qid,), "replace", exc)
                continue
            recovered.append(qid)
            delay = max(delay, result.delay_s)
            hosts = self.controller.installed[qid].by_switch
            if len(hosts) == 1:
                only = next(iter(hosts))
                logger.warning(
                    "query %r degraded to single-switch execution on %r "
                    "after losing %r; CPU tail absorbs the remainder",
                    qid, only, sid,
                )
                self.coverage.note_gap(
                    qid, epoch, reason="single-switch", switch=sid
                )
        if recovered:
            self._finish_incident(sid, "replace", tuple(recovered), epoch,
                                  delay)
            self._c_recoveries.inc(action="replace", outcome="ok")

    def _note_failure(self, sid: Hashable, epoch: int,
                      qids: Tuple[str, ...], action: str,
                      exc: Exception) -> None:
        """A recovery transaction failed; retry next window until the
        attempt budget runs out, then degrade explicitly."""
        if self.detector.state_of(sid) == SwitchState.RECOVERING:
            self.detector.mark_down(sid, epoch)
        attempts = self._attempts.get(sid, 0) + 1
        self._attempts[sid] = attempts
        self._c_recoveries.inc(action=action, outcome="retry")
        logger.warning(
            "%s of switch %r failed (attempt %d/%d): %s",
            action, sid, attempts, self.config.max_attempts, exc,
        )
        if attempts >= self.config.max_attempts:
            for qid in qids:
                self.coverage.mark_degraded(
                    qid, f"{action}-failed: {exc}"
                )
            self._c_recoveries.inc(action=action, outcome="degraded")
            self.records.append(RecoveryRecord(
                switch_id=sid, action="degraded", qids=qids,
                detected_epoch=epoch, completed_epoch=epoch,
                detect_latency_s=0.0, reinstall_delay_s=0.0,
                windows_impaired=attempts,
            ))
            self._attempts.pop(sid, None)

    # ------------------------------------------------------------------ #

    def report(self) -> Dict[str, Any]:
        """What a run under faults did, JSON-ready: final health per
        switch, every detector transition, every recovery incident, the
        :meth:`summary`, and the coverage gaps left behind — the body of
        ``newton-repro chaos --json``."""
        return {
            "health": {
                str(sid): health.state
                for sid, health in self.detector.health_map().items()
            },
            "transitions": [
                {"switch": str(t.switch_id), "from": t.old, "to": t.new,
                 "epoch": t.epoch, "at_s": t.at_s}
                for t in self.detector.transitions
            ],
            "incidents": [
                {"switch": str(r.switch_id), "action": r.action,
                 "queries": list(r.qids),
                 "detect_latency_s": r.detect_latency_s,
                 "reinstall_delay_s": r.reinstall_delay_s,
                 "windows_impaired": r.windows_impaired}
                for r in self.records
            ],
            "summary": self.summary(),
            "gaps": [
                {"qid": g.qid, "epoch": g.epoch, "reason": g.reason,
                 "switch": None if g.switch is None else str(g.switch)}
                for g in self.coverage.gaps()
            ],
        }

    def summary(self) -> Dict[str, object]:
        """The incident digest :meth:`report` carries."""
        return {
            "incidents": len(self.records),
            "reinstalls": sum(
                1 for r in self.records if r.action == "reinstall"
            ),
            "replacements": sum(
                1 for r in self.records if r.action == "replace"
            ),
            "degraded": sorted(self.coverage.degraded()),
            "coverage": self.coverage.summary(),
        }
