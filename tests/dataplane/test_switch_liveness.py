"""Liveness queries must not scan the outage history (regression).

``is_forwarding`` used to walk every RebootRecord per call, making
per-packet liveness O(reboot count).  It now answers from merged
outage intervals: O(1) against the most recent interval, binary search
otherwise.
"""

import time

import numpy as np
import pytest

from repro.dataplane.switch import Switch
from repro.engine.vector import _forwarding_mask


class NoIterList(list):
    """Guard: appending is fine, but any scan fails the test."""

    def __iter__(self):
        raise AssertionError(
            "liveness query iterated the reboot history"
        )


def make_switch():
    return Switch("s0", num_stages=3, reboot_base_s=0.001,
                  entry_restore_s=0.0)


class TestIntervalMerging:
    def test_forwarding_inside_and_outside_an_outage(self):
        switch = make_switch()
        switch.reboot(1.0, 0)  # down [1.0, 1.001)
        assert switch.is_forwarding(0.5)
        assert not switch.is_forwarding(1.0005)
        assert switch.is_forwarding(1.01)

    def test_overlapping_outages_merge(self):
        switch = make_switch()
        switch.crash(1.0, down_for=0.5)
        switch.crash(1.2, down_for=0.5)  # overlaps: merged [1.0, 1.7)
        assert switch.outage_intervals() == [(1.0, 1.7)]
        assert not switch.is_forwarding(1.65)
        assert switch.is_forwarding(1.75)

    def test_disjoint_outages_stay_separate(self):
        switch = make_switch()
        switch.crash(1.0, down_for=0.1)
        switch.crash(3.0, down_for=0.1)
        assert switch.outage_intervals() == [(1.0, 1.1), (3.0, 3.1)]
        assert switch.is_forwarding(2.0)
        assert not switch.is_forwarding(3.05)

    def test_out_of_order_outage_insertion(self):
        switch = make_switch()
        switch.crash(5.0, down_for=0.1)
        switch.crash(1.0, down_for=0.1)
        assert switch.outage_intervals() == [(1.0, 1.1), (5.0, 5.1)]
        assert not switch.is_forwarding(1.05)
        assert switch.is_forwarding(4.0)

    def test_permanent_crash_never_forwards_again(self):
        switch = make_switch()
        switch.crash(1.0)  # no down_for: down for good
        assert not switch.is_forwarding(1.5)
        assert not switch.is_forwarding(1e9)


class TestNoHistoryScan:
    def test_liveness_never_iterates_reboot_history(self):
        switch = make_switch()
        switch.reboots = NoIterList()
        switch.crashes = NoIterList()
        for i in range(100):
            switch.reboot(float(i), 0)
        # Any per-call scan of the histories would raise.
        for i in range(100):
            switch.is_forwarding(i + 0.5)
            switch.heartbeat(i + 0.5)

    def test_10k_reboots_liveness_stays_sublinear(self):
        """1k liveness probes after 10k reboots must not cost 10M
        record visits.  Generous bound: scanning implementations are
        ~100x over it, the interval version is ~100x under."""
        switch = make_switch()
        for i in range(10_000):
            switch.reboot(float(i), 0)
        probes = [i * 9.99 + 0.5 for i in range(1_000)]
        start = time.perf_counter()
        for ts in probes:
            switch.is_forwarding(ts)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, (
            f"1k probes over 10k reboots took {elapsed:.2f}s — "
            f"liveness is scanning the history again"
        )

    def test_latest_outage_fast_path(self):
        """Probes at/after the newest interval (the per-packet common
        case) answer without bisecting."""
        switch = make_switch()
        for i in range(50):
            switch.crash(float(i), down_for=0.5)
        assert switch.is_forwarding(49.9)   # after last outage end
        assert not switch.is_forwarding(49.2)  # inside last outage


class TestVectorMaskEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_mask_matches_scalar_liveness(self, seed):
        rng = np.random.default_rng(seed)
        switch = make_switch()
        for start in sorted(rng.uniform(0, 100, size=20)):
            switch.crash(float(start), down_for=float(rng.uniform(0.1, 5)))
        ts = rng.uniform(-1, 110, size=500)
        mask = _forwarding_mask(switch, ts)
        expected = np.array([switch.is_forwarding(t) for t in ts])
        np.testing.assert_array_equal(mask, expected)

    def test_mask_all_true_without_outages(self):
        switch = make_switch()
        ts = np.linspace(0, 1, 17)
        assert _forwarding_mask(switch, ts).all()
