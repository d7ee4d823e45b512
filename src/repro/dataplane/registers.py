"""Register arrays for the state bank (S) module.

Each S module instance owns one register array.  The "adjustable range of
the hash result" (paper §4.1) means multiple queries can carve
non-overlapping slices out of one array; :class:`RegisterArray` manages
those allocations, executes stateful ALUs, and supports the per-window
resets required by ``reduce``/``distinct`` (values evaluated and reset
every 100 ms, paper §6).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Collection, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.dataplane.alu import REGISTER_MAX, StatefulOp, apply_stateful

__all__ = ["Allocation", "RegisterArray", "AllocationError", "carve",
           "find_offset"]


class AllocationError(RuntimeError):
    """Raised when a register array cannot satisfy an allocation request."""


@dataclass(frozen=True)
class Allocation:
    """A contiguous slice of a register array leased to one query step."""

    owner: Tuple
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class RegisterArray:
    """Fixed-size array of 32-bit registers with slice allocations.

    Allocations use a simple first-fit policy over the free gaps; data-plane
    register allocation on real switches is similarly static per rule
    installation, so first-fit is faithful enough while keeping fragmentation
    observable (which CQE exploits: an array too fragmented for one query
    can still serve smaller slices — paper §5.1).

    Invariant: every register outside a live allocation is zero.
    :meth:`execute` / :meth:`execute_many` write only ``offset + index %
    size`` of the owner's slice, :meth:`corrupt` walks the allocations,
    and :meth:`release` zeroes the slice it frees — which is what lets
    :meth:`reset_all` clear the leased extents instead of the whole array.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"register array size must be positive, got {size}")
        self.size = size
        self._cells = np.zeros(size, dtype=np.int64)
        self._allocations: Dict[Tuple, Allocation] = {}
        #: Registers under lease (the sum of the allocations' sizes).
        self._leased = 0
        #: The maximal free runs ``(start, end)``, in offset order: what
        #: an allocation searches, so finding room costs the array's
        #: fragmentation, not its tenants.
        self._free: List[Tuple[int, int]] = [(0, size)]
        #: Whether any cell may be non-zero.  Every mutating path sets
        #: it; :meth:`reset_all` clears it and skips the zeroing sweep
        #: for untouched arrays — on window rollover only the banks that
        #: actually saw traffic pay for their reset.
        self._dirty = False

    # ------------------------------------------------------------------ #
    # Allocation management                                              #
    # ------------------------------------------------------------------ #

    def allocate(self, owner: Tuple, size: int) -> Allocation:
        """Lease ``size`` contiguous registers to ``owner``, first fit.  A
        make-before-break update places its successor with
        :func:`find_offset` over the outgoing version's extents and
        leases there with :meth:`lease`."""
        return self.lease(owner, size, find_offset(self._free, size, ()))

    def lease(self, owner: Tuple, size: int,
              offset: Optional[int]) -> Allocation:
        """Lease ``size`` registers at ``offset`` to ``owner``: where
        :func:`find_offset` put them (``None``: nowhere).  An extent no one
        free run holds is refused."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if owner in self._allocations:
            raise AllocationError(f"owner {owner!r} already holds an allocation")
        if offset is None:
            raise AllocationError(
                f"register array exhausted: need {size}, "
                f"free {self.free_registers()} (fragmented)"
            )
        if not carve(self._free, offset, offset + size):
            raise AllocationError(
                f"registers [{offset}, {offset + size}) are not free"
            )
        alloc = Allocation(owner=owner, offset=offset, size=size)
        self._allocations[owner] = alloc
        self._leased += size
        return alloc

    def release(self, owner: Tuple) -> None:
        """Return ``owner``'s slice to the free pool and zero it."""
        alloc = self._allocations.pop(owner, None)
        if alloc is None:
            raise AllocationError(f"owner {owner!r} holds no allocation")
        self._leased -= alloc.size
        if self._dirty:  # a clean array is all zeros already
            self._cells[alloc.offset:alloc.end] = 0
        # Hand the slice back, merged with the free runs it touches.
        start, end = alloc.offset, alloc.end
        index = stop = bisect_right(self._free, (start, self.size))
        if stop < len(self._free) and self._free[stop][0] == end:
            end = self._free[stop][1]
            stop += 1
        if index and self._free[index - 1][1] == start:
            index -= 1
            start = self._free[index][0]
        self._free[index:stop] = [(start, end)]

    def allocation(self, owner: Tuple) -> Optional[Allocation]:
        return self._allocations.get(owner)

    def allocations(self) -> Tuple[Allocation, ...]:
        return tuple(self._allocations.values())

    def free_registers(self) -> int:
        return self.size - self._leased

    def free_runs(self) -> Tuple[Tuple[int, int], ...]:
        """The maximal free runs ``(start, end)``, in offset order."""
        return tuple(self._free)

    # ------------------------------------------------------------------ #
    # Stateful execution                                                 #
    # ------------------------------------------------------------------ #

    def execute(self, owner: Tuple, index: int, op: StatefulOp,
                operand: int) -> Tuple[int, int]:
        """Run a stateful ALU on register ``index`` within ``owner``'s slice.

        ``index`` is the hash result and is interpreted relative to the
        slice (``offset + index % size``) so queries never see each other's
        registers regardless of their hash ranges.

        Returns ``(old_value, new_value)`` — Tofino SALUs can emit either,
        and Bloom-filter test-and-set needs the old value.
        """
        alloc = self._allocations.get(owner)
        if alloc is None:
            raise AllocationError(f"owner {owner!r} holds no allocation")
        cell = alloc.offset + (index % alloc.size)
        old_value = int(self._cells[cell])
        new_value = apply_stateful(op, old_value, operand)
        if op is not StatefulOp.READ:
            self._cells[cell] = min(new_value, REGISTER_MAX)
            self._dirty = True
        return old_value, new_value

    def execute_many(
        self, owner: Tuple, indices: np.ndarray, op: StatefulOp,
        operands: Union[int, np.ndarray],
        then: Sequence[Union[Tuple[int, RegisterArray, Tuple],
                             Tuple[int, RegisterArray, Tuple, int]]] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch of :meth:`execute` calls with sequential semantics.

        ``indices`` are hash results in packet order; ``operands`` is one
        value per call, or a plain ``int`` when the rule's operand is a
        constant, and must be non-negative (register values and packet
        fields always are), which is what lets saturation-at-
        ``REGISTER_MAX`` commute with the grouped scans below.  Returns
        ``(old_values, new_values)`` per call, bit-identical to executing
        the loop one packet at a time, and stores each touched register's
        final value.

        ``then`` fuses more slices into the call — the S calls of one ALU
        op in a round of the vector engine are one call, whatever their
        number of runs and switches: each ``(start, array, owner)`` hands
        the rows from ``start`` (up to the next entry's start) to
        ``owner``'s slice of ``array``, and the rows before the first
        start are ``owner``'s of this array.  When ``operands`` is an
        ``int``, an entry may carry a fourth item, its member's own
        constant (an entry without one uses ``operands``): a cell group
        never spans two members, so a constant per member is still one
        value per group and takes no scan.  Each ``(array, owner)`` may
        be named once — a second name would be scanned apart from the
        first and only one of their last values stored, losing updates —
        so naming one twice raises ``ValueError``.  The result equals one
        call per member in that order, and each array keeps its own
        storage.

        The per-packet values are the *running* ones — the third hit on a
        cell sees the first two, and an R threshold fires on the packet
        that reaches it — so a per-distinct-cell total (``bincount``) is
        not enough: rows are grouped by cell, in packet order inside each
        group, and scanned.  The cells of all members are numbered in one
        space — member ``j``'s slice from the sum of the sizes before it —
        so the grouping is one linear pass over the whole batch
        (:func:`_stable_order` with the summed bound), not a comparison
        sort, and each member's rows come out of it at the positions they
        went in at, in cell order: one contiguous run to gather from and
        scatter to.
        """
        n = len(indices)
        #: Each member's array, allocation and the number of its first
        #: cell, and the row each member starts at.
        members: List[Tuple[RegisterArray, Allocation, int]] = []
        bounds: List[int] = []
        #: Each member's constant operand, when ``operands`` is one.
        constants: List[int] = []
        bound = 0
        for start, array, key, *constant in [(0, self, owner), *then]:
            alloc = array._allocations.get(key)
            if alloc is None:
                raise AllocationError(f"owner {key!r} holds no allocation")
            members.append((array, alloc, bound))
            bounds.append(start)
            bound += alloc.size
            if not isinstance(operands, np.ndarray):
                constants.append(constant[0] if constant else operands)
        if len(members) > 1 and len(members) != len(
                {(id(array), alloc.owner) for array, alloc, _f in members}):
            raise ValueError("execute_many names one (array, owner) twice")
        bounds.append(n)
        counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        cells = indices % _per_row([alloc.size for _a, alloc, _f in members],
                                   counts)
        if len(members) > 1:
            cells += np.repeat([first for _a, _alloc, first in members],
                               counts)
        # Cell number + shift = the cell's place in its member's array,
        # row by row in input order and in cell order alike.
        shift = _per_row([alloc.offset - first
                          for _array, alloc, first in members], counts)
        if op is StatefulOp.READ:
            address = cells + shift
            values = np.empty(n, dtype=np.int64)
            for (array, _alloc, _first), lo, hi in zip(members, bounds,
                                                       bounds[1:]):
                values[lo:hi] = array._cells[address[lo:hi]]
            return values, values.copy()
        old = np.empty(n, dtype=np.int64)
        new = np.empty(n, dtype=np.int64)
        if n == 0:
            return old, new
        order = _stable_order(cells, bound)
        c = cells[order]
        address = c + shift
        gathered = [array._cells[address[lo:hi]]
                    for (array, _alloc, _first), lo, hi
                    in zip(members, bounds, bounds[1:])]
        base = gathered[0] if len(gathered) == 1 else np.concatenate(gathered)
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = c[1:] != c[:-1]
        constant = not isinstance(operands, np.ndarray)
        if constant:
            # One value per cell group, whether it is one for all the
            # members or one per member.
            v = _per_row(constants, counts)
            if isinstance(v, np.ndarray):
                v = v[order]
        else:
            v = operands[order].astype(np.int64, copy=False)
        # ``excl``: what the earlier hits of the same cell in this batch
        # contributed before each row.  A constant needs no scan: it is
        # the row's rank in its group times the constant for ADD, and —
        # OR and MAX being idempotent — "identity at group starts, the
        # constant everywhere else" for those.
        if op is StatefulOp.ADD:
            position = np.arange(n)
            start_idx = np.maximum.accumulate(np.where(starts, position, 0))
            if constant:
                excl = (position - start_idx) * v
            else:
                before = np.cumsum(v) - v
                excl = before - before[start_idx]
            # Exact: with non-negative operands the sequential
            # saturate-per-step equals the clipped prefix sum.
            out_old = np.minimum(base + excl, REGISTER_MAX)
            out_new = np.minimum(out_old + v, REGISTER_MAX)
        elif op is StatefulOp.OR or op is StatefulOp.MAX:
            excl = (np.where(starts, 0, v) if constant
                    else _segmented_exclusive_scan(v, c, starts, op))
            if op is StatefulOp.OR:
                out_old = (base | excl) & REGISTER_MAX
                out_new = (out_old | v) & REGISTER_MAX
            else:
                out_old = np.minimum(np.maximum(base, excl), REGISTER_MAX)
                out_new = np.minimum(np.maximum(out_old, v), REGISTER_MAX)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unsupported stateful ALU: {op}")
        # Each touched cell keeps its last hit's value.
        ends = np.empty(n, dtype=bool)
        ends[:-1] = starts[1:]
        ends[-1] = True
        for (array, _alloc, _first), lo, hi in zip(members, bounds,
                                                   bounds[1:]):
            if lo < hi:
                last = ends[lo:hi]
                array._cells[address[lo:hi][last]] = out_new[lo:hi][last]
                array._dirty = True
        old[order] = out_old
        new[order] = out_new
        return old, new

    @property
    def dirty(self) -> bool:
        """Whether any register may be non-zero: ``False`` means no
        packet or fault has written the array since its last
        :meth:`reset_all`, so every slice of it reads as zeros."""
        return self._dirty

    def dump(self) -> np.ndarray:
        """Copy of the whole register file (for differential testing)."""
        return self._cells.copy()

    def read_slice(self, owner: Tuple) -> np.ndarray:
        """Copy of ``owner``'s registers (control-plane style readout)."""
        alloc = self._allocations.get(owner)
        if alloc is None:
            raise AllocationError(f"owner {owner!r} holds no allocation")
        return self._cells[alloc.offset:alloc.end].copy()

    @staticmethod
    def nonzero_in_sum(slices: Sequence[Tuple[RegisterArray, Allocation]],
                       ) -> int:
        """Cells non-zero in the sum of equal-size slices — one sketch
        row spread across switches, each ``(array, its allocation)`` —
        counted in place: what summing their :meth:`read_slice` copies
        would count."""
        views = [array._cells[alloc.offset:alloc.end]
                 for array, alloc in slices]
        if not views:
            return 0
        total = views[0] if len(views) == 1 else views[0] + views[1]
        for view in views[2:]:
            total += view
        return int(np.count_nonzero(total))

    def reset_slice(self, owner: Tuple) -> None:
        """Zero ``owner``'s registers (window rollover)."""
        alloc = self._allocations.get(owner)
        if alloc is None:
            raise AllocationError(f"owner {owner!r} holds no allocation")
        self._cells[alloc.offset:alloc.end] = 0

    def reset_all(self) -> None:
        """Zero every register (window rollover): only the leased extents
        are swept, the rest is zero by the class invariant."""
        if not self._dirty:
            return
        for alloc in self._allocations.values():
            self._cells[alloc.offset:alloc.end] = 0
        self._dirty = False

    def corrupt(self, fraction: float, rng: random.Random) -> int:
        """Overwrite a seeded ``fraction`` of each allocation's cells
        with random values (fault injection); returns cells corrupted.

        ``rng`` is a :class:`random.Random`-like source, so the damage
        is deterministic per seed — the chaos suite depends on that.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("corruption fraction outside [0, 1]")
        corrupted = 0
        for alloc in self._allocations.values():
            hits = int(round(alloc.size * fraction))
            if hits <= 0:
                continue
            cells = rng.sample(range(alloc.offset, alloc.end), hits)
            for cell in cells:
                self._cells[cell] = rng.randrange(0, REGISTER_MAX + 1)
            corrupted += hits
        if corrupted:
            self._dirty = True
        return corrupted

    def occupancy(self) -> float:
        """Fraction of registers currently leased (for resource reports)."""
        return 1.0 - self.free_registers() / self.size


def find_offset(free: Sequence[Tuple[int, int]], size: int,
                doomed: Collection[Tuple[int, int]]) -> Optional[int]:
    """Where a ``size``-register slice goes among the free runs ``free``
    (in offset order): first fit, or — when ``doomed`` lists the extents
    a make-before-break update frees at GC — the anchor leaving the
    largest post-GC free run; ``None`` when no run holds it.  Without the
    anchor, back-to-back hitless updates oscillate a slice between the
    two ends of its free space, and whether a later grow fits follows
    the re-plan count's parity.

    Candidates are both ends of each free run that holds the slice.  The
    post-GC runs are the free runs and the doomed extents, coalesced; a
    candidate splits the one holding it, so its score is the larger
    piece or the largest *other* post-GC run — the second largest where
    its own is the largest.  Ties break to the lowest offset.
    """
    if not doomed:
        for start, end in free:
            if end - start >= size:
                return start
        return None
    runs: List[List[int]] = []
    for lo, hi in sorted([*free, *doomed]):
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    largest = second = 0
    at = -1
    for index, (lo, hi) in enumerate(runs):
        if hi - lo > largest:
            largest, second, at = hi - lo, largest, index
        elif hi - lo > second:
            second = hi - lo
    best, anchor = -1, None
    k = 0
    for start, end in free:
        if end - start < size:
            continue
        while runs[k][1] < end:
            k += 1
        lo, hi = runs[k]
        around = second if k == at else largest
        for cand in (start, end - size):
            score = max(around, cand - lo, hi - cand - size)
            if score > best:
                best, anchor = score, cand
    return anchor


def carve(free: List[Tuple[int, int]], start: int, end: int) -> bool:
    """Cut ``[start, end)`` out of the free run that holds it, in place;
    ``False`` (and ``free`` untouched) when no one run holds it."""
    index = bisect_right(free, (start + 1,)) - 1
    if index < 0 or free[index][1] < end:
        return False
    lo, hi = free[index]
    free[index:index + 1] = [
        (a, b) for a, b in ((lo, start), (end, hi)) if a < b
    ]
    return True


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable ascending order of integer ``keys`` in ``[0, bound)``.

    Grouping same-cell hits needs equal keys adjacent *and* packet order
    kept inside each group — the order the sequential ALU sees them in —
    so the order must be stable, but it need not compare: ``bound`` is
    the size of the installed slice, and numpy's stable sort of a 16-bit
    column is an LSD radix sort, O(n).  One pass covers a slice of up to
    2^16 registers, two passes (low half, then the high half of the
    permuted rows) up to 2^32; only beyond that does the comparison sort
    remain.
    """
    if bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 16:
        high = (keys[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


def _per_row(values: List[int], counts: List[int]) -> Union[int, np.ndarray]:
    """``values[j]`` for each of the ``counts[j]`` rows of run ``j``, runs
    in order — a plain int when every run has the same value, which numpy
    broadcasts for free."""
    first = values[0]
    for value in values:
        if value != first:
            return np.repeat(values, counts)
    return first


def _segmented_exclusive_scan(values: np.ndarray, groups: np.ndarray,
                              starts: np.ndarray,
                              op: StatefulOp) -> np.ndarray:
    """Exclusive OR/MAX scan within contiguous equal-``groups`` runs.

    The identity (0) is correct for both ops here because registers and
    operands are non-negative.
    """
    n = len(values)
    # Shift by one within each group, then Hillis-Steele inclusive scan.
    # OR/MAX are idempotent, so overlapping windows are harmless.
    shifted = np.zeros(n, dtype=np.int64)
    same = ~starts[1:]
    shifted[1:][same] = values[:-1][same]
    combine = np.bitwise_or if op is StatefulOp.OR else np.maximum
    out = shifted
    d = 1
    while d < n:
        same_d = groups[d:] == groups[:-d]
        out[d:] = np.where(same_d, combine(out[d:], out[:-d]), out[d:])
        d *= 2
    return out
