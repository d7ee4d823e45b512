"""Transaction journal.

A bounded, append-only record of every control-plane transaction the
manager executed — committed or aborted — with enough detail to replay an
operational incident: which query, which epoch, how many rules moved,
how many retries each phase burned, and why an abort aborted.

Rendered by the ``newton-repro txn-stats`` subcommand next to the metric
registry's text exposition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

__all__ = ["JournalEntry", "TransactionJournal"]

#: Entries a journal keeps before evicting the oldest.
_MAX_ENTRIES = 1024


@dataclass(frozen=True)
class JournalEntry:
    """One completed (or aborted) transaction."""

    txn_id: int
    op: str                    # install | remove | update
    qid: str
    epoch: int                 # target rule epoch of the attempt
    state: str                 # committed | aborted
    delay_s: float             # visible operation latency (excludes GC)
    gc_delay_s: float = 0.0    # background garbage-collection latency
    rules_staged: int = 0
    rules_removed: int = 0
    retries: int = 0
    rolled_back: bool = False
    participants: Tuple[object, ...] = ()
    error: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "txn_id": self.txn_id,
            "op": self.op,
            "qid": self.qid,
            "epoch": self.epoch,
            "state": self.state,
            "delay_ms": round(self.delay_s * 1e3, 3),
            "gc_delay_ms": round(self.gc_delay_s * 1e3, 3),
            "rules_staged": self.rules_staged,
            "rules_removed": self.rules_removed,
            "retries": self.retries,
            "rolled_back": self.rolled_back,
            "participants": [str(p) for p in self.participants],
            "error": self.error,
        }


class TransactionJournal:
    """Bounded journal of control-plane transactions.

    Old entries are evicted (oldest first) past ``_MAX_ENTRIES`` so a
    long-lived controller cannot grow without bound; evictions are
    counted, never silent.
    """

    def __init__(self) -> None:
        self._entries: Deque[JournalEntry] = deque(maxlen=_MAX_ENTRIES)
        self.evicted = 0

    def append(self, entry: JournalEntry) -> None:
        if len(self._entries) == _MAX_ENTRIES:
            self.evicted += 1
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[JournalEntry]:
        return list(self._entries)

    def snapshot(self) -> List[Dict[str, object]]:
        return [entry.to_dict() for entry in self._entries]

    def render(self) -> str:
        """Fixed-width text table, newest entry last."""
        header = (
            f"{'txn':>4} {'op':<8} {'qid':<12} {'epoch':>5} {'state':<10} "
            f"{'delay':>9} {'gc':>9} {'staged':>6} {'removed':>7} "
            f"{'retries':>7} {'rb':>2}  error"
        )
        lines = [header, "-" * len(header)]
        for e in self._entries:
            lines.append(
                f"{e.txn_id:>4} {e.op:<8} {e.qid:<12} {e.epoch:>5} "
                f"{e.state:<10} {e.delay_s * 1e3:>7.2f}ms "
                f"{e.gc_delay_s * 1e3:>7.2f}ms {e.rules_staged:>6} "
                f"{e.rules_removed:>7} {e.retries:>7} "
                f"{'y' if e.rolled_back else '-':>2}  {e.error}"
            )
        if self.evicted:
            lines.append(f"({self.evicted} older entries evicted)")
        return "\n".join(lines)
