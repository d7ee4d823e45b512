"""Match-action tables.

Two table flavours cover everything Newton needs:

* **Exact-match** tables configure the reconfigurable modules: each rule is
  keyed on the (query id, step) tag carried in packet metadata and its
  "action data" is the module configuration for that step.
* **Ternary** tables implement ``newton_init``: value/mask matching over
  the five-tuple and TCP flags with priorities, dispatching packets to the
  query programs that monitor them.

Both enforce a rule-capacity limit (256 rules per module table in the
paper's evaluation, §6.2), which is what bounds query concurrency in
Figure 16.

Ternary entries are **epoch-tagged** for the transactional control plane:
each physical entry carries a ``[epoch_from, epoch_until)`` validity
interval, so a staged (not yet committed) rule bank and a retired (not
yet garbage-collected) one can be resident at the same time as the active
bank.  Lookups filter by the epoch stamped on the packet at its ingress
switch, which is what makes a multi-switch epoch flip appear atomic to
the data plane.  Physical capacity counts *every* resident entry — the
transient double occupancy of make-before-break is real TCAM space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

__all__ = [
    "TableFullError",
    "ExactMatchTable",
    "TernaryRule",
    "TernaryEntry",
    "TernaryTable",
    "DEFAULT_TABLE_CAPACITY",
]

#: Rules per module table in the paper's evaluation setup (§6.2).
DEFAULT_TABLE_CAPACITY = 256

ActionT = TypeVar("ActionT")


class TableFullError(RuntimeError):
    """Raised when inserting into a table at capacity."""


class ExactMatchTable(Generic[ActionT]):
    """Exact-match table with bounded capacity.

    Insertion and removal are the runtime-reconfigurable operations the
    whole paper rests on; they are modelled as atomic (per-rule) updates so
    the controller's transaction log can time them.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_TABLE_CAPACITY):
        self.name = name
        self.capacity = capacity
        self._rules: Dict[Hashable, ActionT] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._rules

    def insert(self, key: Hashable, action: ActionT) -> None:
        if key not in self._rules and len(self._rules) >= self.capacity:
            raise TableFullError(
                f"table {self.name} full ({self.capacity} rules)"
            )
        self._rules[key] = action

    def remove(self, key: Hashable) -> ActionT:
        try:
            return self._rules.pop(key)
        except KeyError:
            raise KeyError(f"table {self.name}: no rule for key {key!r}") from None

    def lookup(self, key: Hashable) -> Optional[ActionT]:
        return self._rules.get(key)

    @property
    def free(self) -> int:
        return self.capacity - len(self._rules)


@dataclass(frozen=True)
class TernaryRule(Generic[ActionT]):
    """A ternary rule: per-field (value, mask) constraints + priority.

    A packet matches when ``pkt[field] & mask == value & mask`` for every
    constrained field.  Higher ``priority`` wins; insertion order breaks
    ties deterministically.
    """

    match: Tuple[Tuple[str, int, int], ...]  # (field, value, mask)
    priority: int
    action: ActionT = None  # type: ignore[assignment]

    def matches(self, fields: Dict[str, int]) -> bool:
        for name, value, mask in self.match:
            if (fields.get(name, 0) & mask) != (value & mask):
                return False
        return True

    @staticmethod
    def build(match: Dict[str, Tuple[int, int]], priority: int,
              action: ActionT = None) -> "TernaryRule[ActionT]":
        """Convenience constructor from a {field: (value, mask)} dict."""
        packed = tuple(sorted((k, v, m) for k, (v, m) in match.items()))
        return TernaryRule(match=packed, priority=priority, action=action)


@dataclass
class TernaryEntry(Generic[ActionT]):
    """One physical TCAM entry: a rule plus its epoch validity interval.

    The entry serves packets stamped with epoch ``e`` iff
    ``epoch_from <= e`` and (``epoch_until is None or e < epoch_until``).
    A staged entry has ``epoch_from`` in the future; a retired entry has a
    finite ``epoch_until`` and is garbage-collected once no packet can be
    stamped below it.
    """

    rule: TernaryRule[ActionT]
    epoch_from: int = 0
    #: Set by a retire mark, cleared by an abort.
    epoch_until: Optional[int] = field(default=None, init=False)
    #: Insertion number, the table's tie-breaker at equal priority.
    seq: int = field(default=0, compare=False, init=False)

    def valid_at(self, epoch: int) -> bool:
        if epoch < self.epoch_from:
            return False
        return self.epoch_until is None or epoch < self.epoch_until


class TernaryTable(Generic[ActionT]):
    """Priority-ordered ternary table (TCAM model) with epoch-tagged rows.

    ``lookup`` returns the single highest-priority match (standard TCAM
    semantics).  ``lookup_all`` returns every matching rule, which is how
    ``newton_init`` dispatches one packet to *several* concurrent queries
    that monitor overlapping traffic (paper §4.1, Concurrency).

    ``at_epoch=None`` (the default) matches against every physical entry,
    preserving the pre-transactional behaviour for direct users; the
    pipeline passes the packet's stamped rule epoch so staged and retired
    banks stay invisible.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_TABLE_CAPACITY):
        self.name = name
        self.capacity = capacity
        self._entries: List[TernaryEntry[ActionT]] = []
        self._insert_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, rule: TernaryRule[ActionT], *,
               epoch_from: int = 0) -> TernaryEntry[ActionT]:
        """Add one physical entry and return it: the handle a retire
        mark is set on (``epoch_until``) and :meth:`remove` takes."""
        if len(self._entries) >= self.capacity:
            raise TableFullError(f"table {self.name} full ({self.capacity} rules)")
        self._insert_seq += 1
        # Entries stay sorted by (-priority, seq): the newest goes after
        # every entry of its priority or higher.
        index = len(self._entries)
        while index and self._entries[index - 1].rule.priority < rule.priority:
            index -= 1
        entry = TernaryEntry(rule=rule, epoch_from=epoch_from)
        entry.seq = self._insert_seq
        self._entries.insert(index, entry)
        return entry

    def remove(self, entry: TernaryEntry[ActionT]) -> None:
        """Remove the physical entry :meth:`insert` returned (identical
        rules can be resident under several epoch tags during a
        make-before-break update; the handle names one)."""
        for index, resident in enumerate(self._entries):
            if resident is entry:
                del self._entries[index]
                return
        raise KeyError(f"table {self.name}: entry not present")

    def unretire(self, above: int) -> None:
        """Clear retire marks scheduled after epoch ``above`` (abort path)."""
        for entry in self._entries:
            if entry.epoch_until is not None and entry.epoch_until > above:
                entry.epoch_until = None

    def lookup(self, fields: Dict[str, int],
               at_epoch: Optional[int] = None) -> Optional[TernaryRule[ActionT]]:
        for entry in self._entries:
            if at_epoch is not None and not entry.valid_at(at_epoch):
                continue
            if entry.rule.matches(fields):
                return entry.rule
        return None

    def lookup_all(self, fields: Dict[str, int],
                   at_epoch: Optional[int] = None) -> List[TernaryRule[ActionT]]:
        return [
            entry.rule for entry in self._entries
            if (at_epoch is None or entry.valid_at(at_epoch))
            and entry.rule.matches(fields)
        ]

    def entries(self) -> Tuple[TernaryEntry[ActionT], ...]:
        return tuple(self._entries)
