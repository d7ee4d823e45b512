"""Fault-injectable control channel.

Extends the timed :class:`~repro.runtime.channel.ControlChannel` with a
seeded fault shim so the transaction manager's two-phase protocol can be
exercised under the failures a real controller sees:

* **loss** — the control message never reaches the switch: the switch-side
  effect does not happen, the controller burns a detection timeout and
  retries;
* **timeout** — the message *is* applied but the acknowledgement is lost:
  the controller cannot distinguish this from loss, so retried operations
  must be idempotent;
* **reboot** — the switch's control agent restarts mid-transaction: the
  staged (uncommitted) shadow bank and pending retire marks are wiped,
  while committed rules survive and the ASIC keeps forwarding.  The
  transaction manager must re-stage from scratch on that switch.

The rates are the ``control`` event of a
:class:`~repro.resilience.FaultPlan` (a plan without one injects
nothing).  Fault draws are deterministic per transaction:
:meth:`begin_transaction` reseeds the fault stream from the plan's
``(seed, txn_id)``, so a fault schedule is reproducible from the pair
alone — the property tests sweep hundreds of seeds and every run is
replayable.

Messages sent with ``reliable=True`` bypass the shim entirely.  The
recovery paths (abort, rollback, garbage collection) use this: modelling
them as eventually-delivered (retried out-of-band until acknowledged)
keeps recovery terminating, which is what lets the manager guarantee
atomicity instead of merely probable atomicity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from repro.runtime.channel import ControlChannel

if TYPE_CHECKING:  # pragma: no cover - the plan layer sits above this one
    from repro.dataplane.switch import Switch
    from repro.resilience.faults import FaultPlan

__all__ = [
    "ChannelFault",
    "ChannelLoss",
    "ChannelTimeout",
    "SwitchRebooted",
    "FaultyControlChannel",
]

T = TypeVar("T")

#: Detection timeout the controller waits before declaring a message
#: lost / unacknowledged.
_DETECT_TIMEOUT_S = 0.0025


class ChannelFault(RuntimeError):
    """Base class for injected control-channel failures.

    ``delay_s`` is the wall-clock cost the controller paid before noticing
    the failure (detection timeouts, wasted transfer time); the transaction
    manager charges it against the operation's latency.
    """

    def __init__(self, message: str, delay_s: float = 0.0):
        super().__init__(message)
        self.delay_s = delay_s


class ChannelLoss(ChannelFault):
    """Message lost in flight: the switch-side effect did NOT happen."""


class ChannelTimeout(ChannelFault):
    """Acknowledgement lost: the switch-side effect DID happen.

    Indistinguishable from :class:`ChannelLoss` at the controller, which
    is why every retried operation must be idempotent.
    """


class SwitchRebooted(ChannelFault):
    """Switch control agent restarted mid-transaction.

    The staged shadow bank and pending retire marks on that switch are
    gone (they live only in the agent's uncommitted state); committed
    rules survive.
    """


class FaultyControlChannel(ControlChannel):
    """A :class:`ControlChannel` whose deliveries can fail on purpose."""

    def __init__(self, faults: "FaultPlan", **kwargs):
        super().__init__(**kwargs)
        #: Per-message rates: the plan's ``control`` event (``None``:
        #: every message is delivered).
        self.control = faults.event("control")
        self._seed = faults.seed
        self._fault_rng = np.random.default_rng((self._seed, 0))
        #: Fault kind -> number injected (surfaced by ``txn-stats``).
        self.faults_injected: Dict[str, int] = {
            "loss": 0, "timeout": 0, "reboot": 0,
        }

    def begin_transaction(self, txn_id: int) -> None:
        """Reseed the fault stream for a new transaction.

        ``(seed, txn_id)`` fully determines the fault schedule, making
        every transaction's failure pattern reproducible in isolation.
        """
        self._fault_rng = np.random.default_rng((self._seed, txn_id))

    def send(
        self,
        operation: str,
        rules: int,
        switch: Optional["Switch"] = None,
        apply: Optional[Callable[[], T]] = None,
        overhead_s: Optional[float] = None,
        reliable: bool = False,
    ) -> Tuple[Optional[T], float]:
        rates = self.control
        if reliable or rates is None:
            return super().send(
                operation, rules, switch=switch, apply=apply,
                overhead_s=overhead_s, reliable=True,
            )
        draw = float(self._fault_rng.random())
        if draw < rates.loss_rate:
            self.faults_injected["loss"] += 1
            raise ChannelLoss(
                f"control message {operation!r} lost in flight",
                delay_s=_DETECT_TIMEOUT_S,
            )
        draw -= rates.loss_rate
        if draw < rates.reboot_rate:
            self.faults_injected["reboot"] += 1
            if switch is not None:
                switch.abort_staged()  # shadow state dies with the agent
            raise SwitchRebooted(
                f"switch rebooted before applying {operation!r}",
                delay_s=_DETECT_TIMEOUT_S,
            )
        draw -= rates.reboot_rate
        if draw < rates.timeout_rate:
            # The message lands and is applied; only the ack is lost.
            self.faults_injected["timeout"] += 1
            result, delay = super().send(
                operation, rules, switch=switch, apply=apply,
                overhead_s=overhead_s, reliable=True,
            )
            del result  # the controller never sees the reply
            raise ChannelTimeout(
                f"acknowledgement for {operation!r} lost",
                delay_s=delay + _DETECT_TIMEOUT_S,
            )
        return super().send(
            operation, rules, switch=switch, apply=apply,
            overhead_s=overhead_s, reliable=True,
        )
