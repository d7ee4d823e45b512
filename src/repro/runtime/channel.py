"""Control-channel timing model.

Newton's query operations are table-rule transactions issued by the
controller over the switch's gRPC/driver channel.  The model charges a
per-transaction setup cost plus a per-rule cost with small jitter,
calibrated so the nine evaluation queries install in the 5–20 ms band the
paper reports (Figure 11) — e.g. Q1's ~9 rules land near 5 ms.

Operations are drawn from a fixed vocabulary (:data:`KNOWN_OPERATIONS`)
covering the transactional control plane's two-phase protocol:

* ``install`` — staging rules into a switch's shadow epoch bank,
* ``retire``  — marking resident rules for removal at the next flip,
* ``commit``  — the atomic epoch flip (one register write),
* ``rollback`` — undoing a flip during partial-failure recovery,
* ``abort``   — discarding a shadow bank without flipping,
* ``remove``  — the physical garbage-collection deletes after a flip.

``transact`` rejects unknown operation names so typos (``"instal"``)
fail loudly instead of silently timing nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, TypeVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.switch import Switch

__all__ = [
    "ControlChannel",
    "KNOWN_OPERATIONS",
    "FLIP_OVERHEAD_S",
]

#: Every operation name a channel will time.  ``transact`` raises
#: ``ValueError`` for anything else.
KNOWN_OPERATIONS = frozenset(
    {"install", "remove", "retire", "commit", "rollback", "abort"}
)

#: Jitter draws taken from the generator at a time.
_JITTER_BLOCK = 64

#: Setup cost of a single-register control message (epoch flip, rollback,
#: retire mark, abort): one write, no per-rule payload — far below the
#: per-batch session overhead.
FLIP_OVERHEAD_S = 0.0003

T = TypeVar("T")


class ControlChannel:
    """Timed rule-operation channel to one or more switches."""

    def __init__(
        self,
        per_rule_s: float = 0.0005,
        batch_overhead_s: float = 0.0015,
        jitter_s: float = 0.0002,
        seed: int = 7,
    ):
        if per_rule_s < 0 or batch_overhead_s < 0 or jitter_s < 0:
            raise ValueError("channel timing parameters must be non-negative")
        self.per_rule_s = per_rule_s
        self.batch_overhead_s = batch_overhead_s
        self.jitter_s = jitter_s
        self._rng = np.random.default_rng(seed)
        #: Standard normals drawn ahead, next one last.
        self._normals: List[float] = []

    def _jitter(self) -> float:
        """``|N(0, jitter_s)|``, one draw per message.  The generator
        fills a block at a time, which yields the very stream single
        ``normal(0, jitter_s)`` draws would: every delay is unchanged."""
        if self.jitter_s == 0:
            return 0.0
        if not self._normals:
            self._normals = self._rng.standard_normal(_JITTER_BLOCK).tolist()
            self._normals.reverse()
        return abs(0.0 + self.jitter_s * self._normals.pop())

    def transact(self, operation: str, rules: int,
                 overhead_s: Optional[float] = None) -> float:
        """Time one batch of ``rules`` operations; returns the delay.

        ``overhead_s`` overrides the per-batch session setup cost — used
        for single-register messages (epoch flips, retire marks) that do
        not open a full rule-programming session.
        """
        if operation not in KNOWN_OPERATIONS:
            raise ValueError(
                f"unknown channel operation {operation!r}; expected one of "
                f"{sorted(KNOWN_OPERATIONS)}"
            )
        if rules < 0:
            raise ValueError("rule count must be non-negative")
        overhead = self.batch_overhead_s if overhead_s is None else overhead_s
        return overhead + self.per_rule_s * rules + self._jitter()

    # -- transactional delivery ----------------------------------------- #

    def begin_transaction(self, txn_id: int) -> None:
        """Hook invoked by the transaction manager at transaction start.

        The base channel is fault-free and keeps one jitter stream; the
        fault-injectable subclass reseeds its fault source here so every
        transaction draws a deterministic per-transaction schedule.
        """

    def send(
        self,
        operation: str,
        rules: int,
        switch: Optional["Switch"] = None,
        apply: Optional[Callable[[], T]] = None,
        overhead_s: Optional[float] = None,
        reliable: bool = False,
    ) -> Tuple[Optional[T], float]:
        """Deliver one timed control message to ``switch``.

        ``apply`` performs the switch-side effect; the base channel always
        delivers (``reliable`` is only meaningful for fault-injecting
        subclasses).  Returns ``(apply result, delay)``.
        """
        del switch, reliable  # the fault-free channel ignores both
        result = apply() if apply is not None else None
        return result, self.transact(operation, rules, overhead_s=overhead_s)
