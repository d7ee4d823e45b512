"""Simulated time: the window clock.

All experiments run on simulated time so results are deterministic and
independent of host load.  Time advances only when a component tells it
to (packet timestamps, control-channel delays, reboot windows), and the
windows it falls into are numbered by :func:`epoch_of`.
"""

from __future__ import annotations

from typing import Callable, List

__all__ = ["WindowClock", "epoch_of"]


def epoch_of(ts: float, window_s: float) -> int:
    """Window index containing timestamp ``ts``."""
    if window_s <= 0:
        raise ValueError("window must be positive")
    return int(ts / window_s)


class WindowClock:
    """The deployment-wide 100 ms window clock (paper §4.2).

    One instance is shared by everything that must agree on window
    boundaries — the simulator that detects them, the analyzer's deferred
    CPU execution, and the collection plane's windowed executor.  Window
    closes are *push*-driven: subscribers are notified **in subscription
    order**, which the deployment uses to close the collector (whose
    reconciliation reads live registers) before the switches reset.
    """

    def __init__(self, window_ms: int = 100):
        if window_ms <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_ms / 1000.0
        self.epoch = 0
        self._subscribers: List[Callable[[int], None]] = []

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register a window-close callback ``f(closing_epoch)``."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def epoch_of(self, ts: float) -> int:
        return epoch_of(ts, self.window_s)

    def close_time(self, epoch: int) -> float:
        """Trace time at which ``epoch`` closes (its exclusive end) —
        the instant heartbeat probes and window grading refer to."""
        return (epoch + 1) * self.window_s

    def close(self, epoch: int) -> None:
        """Notify every subscriber that ``epoch`` just closed."""
        for callback in self._subscribers:
            callback(epoch)
        self.epoch = max(self.epoch, epoch + 1)
