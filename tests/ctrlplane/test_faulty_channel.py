"""Fault-injectable control channel: semantics and determinism."""

import pytest

from repro.ctrlplane import (
    ChannelLoss,
    ChannelTimeout,
    FaultyControlChannel,
    SwitchRebooted,
)
from repro.resilience import FaultPlan, control_faults


def plan_of(seed=0, **rates):
    """A plan whose one ``control`` event has ``rates``."""
    return FaultPlan(events=(control_faults(**rates),), seed=seed)


class _RecordingChannel(FaultyControlChannel):
    """Records every message the channel put on the wire (timed)."""

    def __init__(self, faults):
        super().__init__(faults)
        self.sent = []

    def transact(self, operation, rules, overhead_s=None):
        self.sent.append(operation)
        return super().transact(operation, rules, overhead_s=overhead_s)


class _StubSwitch:
    """Just enough switch for the reboot fault's staged-state wipe."""

    def __init__(self):
        self.aborts = 0

    def abort_staged(self) -> int:
        self.aborts += 1
        return 0


class TestFaultPlan:
    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            control_faults(loss=1.5)
        with pytest.raises(ValueError):
            control_faults(timeout=-0.1)

    def test_rejects_rates_summing_past_one(self):
        with pytest.raises(ValueError):
            control_faults(loss=0.5, timeout=0.4, reboot_rate=0.2)


class TestFaultSemantics:
    def test_loss_skips_the_switch_side_effect(self):
        channel = FaultyControlChannel(plan_of(seed=3, loss=1.0))
        applied = []
        with pytest.raises(ChannelLoss) as exc:
            channel.send("install", 5, apply=lambda: applied.append(1))
        assert not applied, "a lost message must not be applied"
        assert exc.value.delay_s > 0
        assert channel.faults_injected["loss"] == 1

    def test_timeout_applies_but_hides_the_ack(self):
        channel = _RecordingChannel(plan_of(seed=3, timeout=1.0))
        applied = []
        with pytest.raises(ChannelTimeout):
            channel.send("install", 5, apply=lambda: applied.append(1))
        assert applied == [1], "a timed-out message WAS applied"
        # The attempt is on the wire, so it was timed.
        assert channel.sent == ["install"]

    def test_reboot_wipes_staged_state(self):
        channel = FaultyControlChannel(plan_of(seed=3, reboot_rate=1.0))
        switch = _StubSwitch()
        applied = []
        with pytest.raises(SwitchRebooted):
            channel.send("install", 5, switch=switch,
                         apply=lambda: applied.append(1))
        assert not applied
        assert switch.aborts == 1

    def test_reliable_bypasses_all_faults(self):
        channel = FaultyControlChannel(plan_of(seed=3, loss=1.0))
        result, delay = channel.send(
            "install", 5, apply=lambda: "ok", reliable=True
        )
        assert result == "ok"
        assert delay > 0
        assert channel.faults_injected["loss"] == 0

    def test_fault_free_plan_always_delivers(self):
        # No control event, and one with all-zero rates.
        for faults in (FaultPlan(), plan_of()):
            channel = FaultyControlChannel(faults)
            for _ in range(50):
                result, _ = channel.send("install", 1, apply=lambda: "ok")
                assert result == "ok"


class TestDeterminism:
    def _schedule(self, channel, txn_id, n=20):
        """Fault-kind sequence for n messages of one transaction."""
        channel.begin_transaction(txn_id)
        kinds = []
        for _ in range(n):
            try:
                channel.send("install", 1, apply=lambda: None)
                kinds.append("ok")
            except ChannelLoss:
                kinds.append("loss")
            except SwitchRebooted:
                kinds.append("reboot")
            except ChannelTimeout:
                kinds.append("timeout")
        return kinds

    def test_same_seed_and_txn_replays_identically(self):
        plan = plan_of(seed=42, loss=0.3, timeout=0.2, reboot_rate=0.1)
        a = self._schedule(FaultyControlChannel(plan), txn_id=7)
        b = self._schedule(FaultyControlChannel(plan), txn_id=7)
        assert a == b

    def test_different_txn_ids_draw_different_schedules(self):
        plan = plan_of(seed=42, loss=0.3, timeout=0.2, reboot_rate=0.1)
        channel = FaultyControlChannel(plan)
        a = self._schedule(channel, txn_id=1)
        b = self._schedule(channel, txn_id=2)
        assert a != b

    def test_different_seeds_draw_different_schedules(self):
        a = self._schedule(FaultyControlChannel(plan_of(seed=1, loss=0.4)),
                           txn_id=0)
        b = self._schedule(FaultyControlChannel(plan_of(seed=2, loss=0.4)),
                           txn_id=0)
        assert a != b
