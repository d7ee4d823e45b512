"""Clock and control-channel tests."""

import numpy as np
import pytest

from repro.runtime.channel import ControlChannel
from repro.runtime.clock import WindowClock, epoch_of


class TestClock:
    def test_epoch_of(self):
        assert epoch_of(0.05, 0.1) == 0
        assert epoch_of(0.1, 0.1) == 1
        assert epoch_of(0.99, 0.1) == 9

    def test_epoch_requires_positive_window(self):
        with pytest.raises(ValueError):
            epoch_of(1.0, 0)


class TestChannel:
    def test_delay_linear_in_rules(self):
        channel = ControlChannel(jitter_s=0.0)
        d10 = channel.transact("install", 10)
        d20 = channel.transact("install", 20)
        assert d20 - d10 == pytest.approx(10 * channel.per_rule_s)

    def test_batch_overhead_applies_once(self):
        channel = ControlChannel(jitter_s=0.0)
        assert channel.transact("install", 0) == pytest.approx(
            channel.batch_overhead_s
        )

    def test_jitter_is_seeded(self):
        a = ControlChannel(seed=1)
        b = ControlChannel(seed=1)
        assert a.transact("install", 5) == b.transact("install", 5)

    def test_jitter_is_the_stream_of_single_draws(self):
        """Jitter is drawn a block at a time; the delays are exactly
        those of one ``normal(0, jitter_s)`` draw per message."""
        channel = ControlChannel(seed=11)
        reference = np.random.default_rng(11)
        for rules in range(200):  # several blocks
            assert channel.transact("install", rules) == (
                channel.batch_overhead_s + channel.per_rule_s * rules
                + float(abs(reference.normal(0.0, channel.jitter_s)))
            )

    def test_q1_scale_lands_in_paper_band(self):
        """~9 rules must install in single-digit milliseconds (Figure 11)."""
        channel = ControlChannel(seed=3)
        delay_ms = channel.transact("install", 9) * 1e3
        assert 3.0 < delay_ms < 10.0

    def test_negative_rules_rejected(self):
        with pytest.raises(ValueError):
            ControlChannel().transact("install", -1)

    def test_negative_timing_rejected(self):
        with pytest.raises(ValueError):
            ControlChannel(per_rule_s=-0.1)

    def test_transact_rejects_unknown_operation(self):
        """Regression: transact() used to accept any string, silently
        timing operations outside the control-plane vocabulary."""
        channel = ControlChannel(jitter_s=0.0)
        with pytest.raises(ValueError, match="unknown channel operation"):
            channel.transact("reinstall", 3)

    def test_total_delay_rejects_unknown_operation_filter(self):
        """A misspelt operation name ("instal") is refused by every entry
        point that takes one, while known operations still time."""
        channel = ControlChannel(jitter_s=0.0)
        with pytest.raises(ValueError, match="unknown channel operation"):
            channel.transact("instal", 3)
        with pytest.raises(ValueError, match="unknown channel operation"):
            channel.send("instal", 3)
        assert channel.transact("install", 3) > 0


class TestWindowClock:
    def test_subscribers_fire_in_order(self):
        clock = WindowClock(window_ms=100)
        order = []
        clock.subscribe(lambda e: order.append(("collector", e)))
        clock.subscribe(lambda e: order.append(("analyzer", e)))
        clock.close(0)
        assert order == [("collector", 0), ("analyzer", 0)]
        assert clock.epoch == 1

    def test_duplicate_subscription_ignored(self):
        clock = WindowClock()
        calls = []

        def cb(epoch):
            calls.append(epoch)

        clock.subscribe(cb)
        clock.subscribe(cb)
        clock.close(0)
        assert calls == [0]

    def test_epoch_of_uses_window(self):
        clock = WindowClock(window_ms=100)
        assert clock.epoch_of(0.25) == 2

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowClock(window_ms=0)
