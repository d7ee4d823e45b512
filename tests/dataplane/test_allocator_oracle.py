"""The register allocator against the one it replaced.

The pipeline places a lease with :func:`find_offset`, which scores each
make-before-break anchor against the two largest post-GC runs, and takes
it with ``RegisterArray.lease``.  The allocator it replaced built prefix
and suffix maxima over the post-GC runs instead.  Lease offsets are
history-dependent state — every later lease, and every register dump,
depends on them — so the two must agree exactly.
:class:`ReferenceAllocator` keeps that allocator as it was (its
``_find_anchor`` verbatim), without the register cells, and thousands of
seeded allocate / allocate-with-vacating / release sequences over random
array sizes must give the same offsets, the same free runs and the same
``AllocationError`` messages on both.
"""

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import pytest

from repro.dataplane.registers import (
    Allocation,
    AllocationError,
    RegisterArray,
    find_offset,
)

SEQUENCES = 5000


class ReferenceAllocator:
    """The free-run allocator before the two-largest-runs anchor search."""

    def __init__(self, size: int):
        self.size = size
        self._allocations: Dict[Tuple, Allocation] = {}
        self._leased = 0
        self._free: List[Tuple[int, int]] = [(0, size)]

    def free_registers(self) -> int:
        return self.size - self._leased

    def allocate(self, owner, size, vacating=()):
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if owner in self._allocations:
            raise AllocationError(f"owner {owner!r} already holds an allocation")
        vacating_allocs = [
            self._allocations[v] for v in vacating if v in self._allocations
        ]
        if vacating_allocs:
            offset = self._find_anchor(size, vacating_allocs)
        else:
            offset = self._find_gap(size)
        if offset is None:
            raise AllocationError(
                f"register array exhausted: need {size}, "
                f"free {self.free_registers()} (fragmented)"
            )
        alloc = Allocation(owner=owner, offset=offset, size=size)
        self._allocations[owner] = alloc
        self._leased += size
        index = bisect_right(self._free, (offset, self.size)) - 1
        start, end = self._free[index]
        self._free[index:index + 1] = [
            (lo, hi) for lo, hi in ((start, offset), (alloc.end, end))
            if lo < hi
        ]
        return alloc

    def release(self, owner):
        alloc = self._allocations.pop(owner)
        self._leased -= alloc.size
        start, end = alloc.offset, alloc.end
        index = stop = bisect_right(self._free, (start, self.size))
        if stop < len(self._free) and self._free[stop][0] == end:
            end = self._free[stop][1]
            stop += 1
        if index and self._free[index - 1][1] == start:
            index -= 1
            start = self._free[index][0]
        self._free[index:stop] = [(start, end)]

    def _find_gap(self, size: int) -> Optional[int]:
        for start, end in self._free:
            if end - start >= size:
                return start
        return None

    def _find_anchor(self, size: int,
                     vacating: List[Allocation]) -> Optional[int]:
        """Pick the gap anchor maximising the post-GC largest free run.

        Candidates are the two ends of every currently-free gap that can
        hold ``size`` (never inside ``vacating`` slices — those registers
        are still live).  Each candidate is scored by the largest
        contiguous free block remaining once the vacating slices have
        been released; ties break to the lowest offset, so the policy is
        deterministic and degrades to first fit when scores are equal.

        The post-GC free runs are the free gaps and the vacating slices
        coalesced where they touch; a gap lies inside exactly one run, so
        a candidate's score is the larger of the two pieces it splits
        that run into and the largest run on either side — a prefix /
        suffix maximum over the runs, whatever else the array leases.
        """
        doomed = {(a.offset, a.end) for a in vacating}
        runs: List[List[int]] = []
        gaps: List[Tuple[int, int, int]] = []   # (start, end, run index)
        for start, end, free in sorted(
            [(lo, hi, True) for lo, hi in self._free]
            + [(lo, hi, False) for lo, hi in doomed]
        ):
            if runs and runs[-1][1] == start:
                runs[-1][1] = end
            else:
                runs.append([start, end])
            if free and end - start >= size:
                gaps.append((start, end, len(runs) - 1))
        if not gaps:
            return None
        # Largest run strictly before / strictly after each run.
        before = [0] * len(runs)
        after = [0] * len(runs)
        for k in range(1, len(runs)):
            lo, hi = runs[k - 1]
            before[k] = max(before[k - 1], hi - lo)
        for k in range(len(runs) - 2, -1, -1):
            lo, hi = runs[k + 1]
            after[k] = max(after[k + 1], hi - lo)
        best: Optional[Tuple[int, int]] = None   # (largest, -anchor)
        for gap_start, gap_end, k in gaps:
            lo, hi = runs[k]
            around = max(before[k], after[k])
            for cand in (gap_start, gap_end - size):
                score = (max(around, cand - lo, hi - cand - size), -cand)
                if best is None or score > best:
                    best = score
        assert best is not None
        return -best[1]


def outcome(allocate, *args):
    try:
        return allocate(*args).offset
    except AllocationError as exc:
        return f"AllocationError: {exc}"


def lease_beside(array, owner, size, vacating):
    """The pipeline's path: search the free runs around the extents the
    ``vacating`` owners hold, then lease the offset found."""
    doomed = {(a.offset, a.end) for a in map(array.allocation, vacating)
              if a}
    return array.lease(owner, size,
                       find_offset(array.free_runs(), size, doomed))


def run_sequence(seed: int) -> Tuple[int, int]:
    """One seeded life of an array on both allocators; returns how many
    make-before-break anchors and refusals it met."""
    rng = random.Random(seed)
    size = rng.choice((16, 64, 100, 256, 1000, 4096))
    new, ref = RegisterArray(size), ReferenceAllocator(size)
    anchors = refused = 0
    names = [("q", n) for n in range(rng.randint(2, 12))]
    for step in range(rng.randint(5, 60)):
        held = [name for name in names if name in ref._allocations]
        roll = rng.random()
        if held and roll < 0.3:
            owner = rng.choice(held)
            new.release(owner)
            ref.release(owner)
        else:
            owner = rng.choice(names)
            request = rng.randint(1, max(1, size // rng.choice((2, 4, 8))))
            # Vacating names may be held or not, repeated, or the owner.
            vacating = (rng.sample(names, rng.randint(1, min(3, len(names))))
                        if roll < 0.75 else [])
            got = outcome(lease_beside, new, owner, request, vacating)
            want = outcome(ref.allocate, owner, request, vacating)
            assert got == want, (seed, step, owner, request, vacating)
            anchors += any(name in ref._allocations for name in vacating)
            refused += isinstance(want, str)
        assert list(new.free_runs()) == ref._free, (seed, step)
        assert new.free_registers() == ref.free_registers(), (seed, step)
    return anchors, refused


def test_the_anchor_search_picks_the_offsets_the_prefix_maxima_picked():
    anchors = refused = 0
    for seed in range(SEQUENCES):
        a, r = run_sequence(seed)
        anchors += a
        refused += r
    # The sweep exercised both the anchor policy and its refusals.
    assert anchors > SEQUENCES and refused > SEQUENCES // 10


@pytest.mark.parametrize("free, doomed", [
    ([(0, 10), (20, 30)], []),
    ([(0, 10), (20, 30)], [(10, 20)]),
    ([(5, 6)], [(0, 5), (6, 40)]),
    ([], [(0, 8)]),
])
def test_find_offset_reads_only_what_it_is_given(free, doomed):
    """The search is a function of the free runs and the doomed extents
    alone: what the pipeline's placement plan keys its reuse on."""
    before = list(free)
    reference = ReferenceAllocator(64)
    reference._free = list(free)
    vacating = [Allocation(owner=("d", i), offset=lo, size=hi - lo)
                for i, (lo, hi) in enumerate(doomed)]
    for size in (1, 4, 10, 11):
        want = (reference._find_anchor(size, vacating) if vacating
                else reference._find_gap(size))
        assert find_offset(free, size, doomed) == want
    assert free == before
