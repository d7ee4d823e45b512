"""Property-based tests for the data-plane substrate."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.alu import REGISTER_MAX, StatefulOp
from repro.dataplane.hashing import KeyGroup
from repro.dataplane.phv import PhvContext
from repro.dataplane.registers import (
    AllocationError,
    RegisterArray,
    find_offset,
)
from repro.dataplane.tables import TernaryRule, TernaryTable
from repro.network.snapshot import (
    SNAPSHOT_VALUE_MAX,
    SnapshotEntry,
    decode_entry,
    encode_entry,
)

values = st.one_of(st.none(), st.integers(0, SNAPSHOT_VALUE_MAX))


class TestSnapshotCodecProperties:
    @given(st.integers(0, 15), st.integers(1, 16), values, values, values,
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, cursor, total, s0, s1, g, stopped):
        ctx = PhvContext()
        ctx.set(0).state_result = s0
        ctx.set(1).state_result = s1
        ctx.global_result = g
        ctx.stopped = stopped
        entry = SnapshotEntry(cursor=cursor, total_slices=total, ctx=ctx)
        decoded = decode_entry(encode_entry(entry), total)
        assert decoded.cursor == cursor
        assert decoded.ctx.stopped == stopped
        assert decoded.ctx.set(0).state_result == s0
        assert decoded.ctx.set(1).state_result == s1
        assert decoded.ctx.global_result == g

    @given(st.integers(0, 15), st.integers(0, 1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_wire_size_constant(self, cursor, value):
        ctx = PhvContext()
        ctx.global_result = value
        wire = encode_entry(SnapshotEntry(cursor=cursor, total_slices=16,
                                          ctx=ctx))
        assert len(wire) == 10  # always within the reserved 12 bytes

    @given(st.integers(SNAPSHOT_VALUE_MAX + 1, 1 << 45))
    @settings(max_examples=50, deadline=None)
    def test_saturation_never_wraps(self, huge):
        ctx = PhvContext()
        ctx.set(0).state_result = huge
        decoded = decode_entry(
            encode_entry(SnapshotEntry(cursor=0, total_slices=2, ctx=ctx)), 2
        )
        assert decoded.ctx.set(0).state_result == SNAPSHOT_VALUE_MAX


@st.composite
def single_word_columns(draw):
    """A key width of 1-8 bytes and a column of keys drawn from a small
    pool (duplicates in every batch), cut into zero to four parts."""
    width = draw(st.integers(1, 8))
    pool = draw(st.lists(st.integers(0, (1 << 8 * width) - 1), min_size=1,
                         max_size=10))
    parts = draw(st.lists(st.integers(0, 12), max_size=4))
    values = draw(st.lists(st.sampled_from(pool), min_size=sum(parts),
                           max_size=sum(parts) if parts else 40))
    return width, values, parts


class TestSingleWordKeyGroupProperties:
    @given(single_word_columns())
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_distinct_keys(self, case):
        """Ascending distinct keys (the ``lexsort`` path's order), each
        row's index into them, and which parts hold which key."""
        width, values, parts = case
        keys = KeyGroup(np.array([values], dtype=np.uint64), width, parts)
        distinct = sorted(set(values))
        assert keys.raw == [v.to_bytes(8, "big")[8 - width:]
                            for v in distinct]
        assert keys.inverse.tolist() == [distinct.index(v) for v in values]
        if len(parts) > 1:
            starts = np.cumsum([0, *parts]).tolist()
            assert keys.present.tolist() == [
                [key in values[lo:hi] for lo, hi in zip(starts, starts[1:])]
                for key in distinct
            ]
        else:
            assert keys.present is None


@st.composite
def ternary_rules(draw):
    fields = draw(st.lists(
        st.sampled_from(["proto", "dport", "tcp_flags"]),
        min_size=0, max_size=2, unique=True,
    ))
    match = {}
    for name in fields:
        value = draw(st.integers(0, 255))
        mask = draw(st.integers(0, 255))
        match[name] = (value, mask)
    priority = draw(st.integers(0, 10))
    return TernaryRule.build(match, priority, action=draw(st.integers()))


class TestTernaryTableProperties:
    @given(st.lists(ternary_rules(), min_size=1, max_size=12),
           st.dictionaries(
               st.sampled_from(["proto", "dport", "tcp_flags"]),
               st.integers(0, 255), max_size=3,
           ))
    @settings(max_examples=150, deadline=None)
    def test_lookup_matches_brute_force(self, rules, fields):
        table = TernaryTable("t", capacity=64)
        for rule in rules:
            table.insert(rule)
        hit = table.lookup(fields)
        matching = [r for r in rules if r.matches(fields)]
        if not matching:
            assert hit is None
        else:
            best = max(r.priority for r in matching)
            assert hit is not None
            assert hit.priority == best
            assert hit.matches(fields)

    @given(st.lists(ternary_rules(), min_size=1, max_size=12),
           st.dictionaries(
               st.sampled_from(["proto", "dport", "tcp_flags"]),
               st.integers(0, 255), max_size=3,
           ))
    @settings(max_examples=100, deadline=None)
    def test_lookup_all_is_exact_filter(self, rules, fields):
        table = TernaryTable("t", capacity=64)
        for rule in rules:
            table.insert(rule)
        got = table.lookup_all(fields)
        assert len(got) == sum(1 for r in rules if r.matches(fields))
        assert all(r.matches(fields) for r in got)


class TestRegisterArrayProperties:
    @given(st.lists(st.integers(1, 16), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        array = RegisterArray(128)
        allocations = []
        for i, size in enumerate(sizes):
            try:
                allocations.append(array.allocate(("q", i), size))
            except Exception:
                break
        spans = sorted((a.offset, a.end) for a in allocations)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 5)),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_counting_is_exact_per_cell(self, ops):
        array = RegisterArray(64)
        array.allocate(("q", 0), 64)
        truth = {}
        for index, amount in ops:
            truth[index] = truth.get(index, 0) + amount
            array.execute(("q", 0), index, StatefulOp.ADD, amount)
        cells = array.read_slice(("q", 0))
        for index, expected in truth.items():
            assert cells[index] == expected


class FullSweepArray(RegisterArray):
    """The reference window reset: zero every register of the array."""

    def reset_all(self):
        self._cells[:] = 0
        self._dirty = False


#: One step of a register array's life: (kind, owner slot, a, b).
array_steps = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "execute", "execute_many", "corrupt",
                         "release", "reset_all"]),
        st.integers(0, 4), st.integers(0, 2**20), st.integers(1, 40),
    ),
    min_size=1, max_size=40,
)


class TestLeasedExtentReset:
    @given(array_steps)
    @settings(max_examples=150, deadline=None)
    def test_reset_all_equals_the_full_sweep(self, steps):
        """``reset_all`` clears only the leased extents; after any life
        of the array it must leave what the full sweep leaves, and no
        register outside a live allocation may ever be non-zero."""
        lean, full = RegisterArray(96), FullSweepArray(96)
        ops = (StatefulOp.ADD, StatefulOp.OR, StatefulOp.MAX)
        for kind, slot, a, b in steps:
            owner = ("q", slot)
            for array in (lean, full):
                held = array.allocation(owner) is not None
                if kind == "allocate":
                    if not held and array.free_registers() >= b:
                        try:
                            array.allocate(owner, b)
                        except AllocationError:  # fragmented, on both
                            pass
                elif kind == "execute" and held:
                    array.execute(owner, a, ops[a % 3], b)
                elif kind == "execute_many" and held:
                    indices = (np.arange(b, dtype=np.int64) * 7 + a) % 50
                    array.execute_many(owner, indices, ops[a % 3],
                                       b if a % 2 else indices + 1)
                elif kind == "corrupt":
                    array.corrupt((b % 5) / 4, random.Random(a))
                elif kind == "release" and held:
                    array.release(owner)
                elif kind == "reset_all":
                    array.reset_all()
            assert np.array_equal(lean.dump(), full.dump())
            assert lean.dirty == full.dirty
            leased = np.zeros(lean.size, dtype=bool)
            for alloc in lean.allocations():
                leased[alloc.offset:alloc.end] = True
            assert not lean.dump()[~leased].any()
        lean.reset_all()
        assert not lean.dump().any()


#: Slice sizes of the fused-scan runs: two of the large ones together
#: bound the cell numbering above 2^16 (the two-pass radix order), and
#: 70,000 does alone.
_FUSED_SLICES = (1, 7, 64, 2048, 40_000, 70_000)


@st.composite
def fused_runs(draw):
    """Members ``(array slot, owner slot)`` of one fused run — up to
    three arrays, two owners each, two members possibly on one array —
    their slice sizes, and two consecutive batches of per-member rows
    (some members empty), each with an op and a constant, a constant per
    member (a tuple) or a field operand."""
    members = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1)),
        min_size=1, max_size=5, unique=True,
    ))
    sizes = {slot: draw(st.sampled_from(_FUSED_SLICES)) for slot in members}
    index = st.one_of(
        st.integers(0, 5), st.integers(0, 5),            # heavy collisions
        st.integers(0, 70_000),
        st.integers(-(1 << 40), 1 << 62),                # DIRECT-mode hashes
    )
    operand = st.one_of(st.integers(0, 9), st.sampled_from(
        [REGISTER_MAX // 3, REGISTER_MAX - 1, REGISTER_MAX]))
    batches = []
    for _ in range(2):
        rows = [draw(st.lists(index, max_size=25)) for _ in members]
        total = sum(len(part) for part in rows)
        operands = draw(st.one_of(
            operand,                                     # a constant rule
            st.tuples(*[operand] * len(members)),        # stacked rules
            st.lists(operand, min_size=total, max_size=total),
        ))
        batches.append((draw(st.sampled_from(list(StatefulOp))), rows,
                        operands))
    return members, sizes, batches


def fused_world(sizes):
    """Three arrays holding the slices ``sizes`` after a filler lease."""
    arrays = []
    for slot in range(3):
        owned = [(owner, size) for (array, owner), size in sizes.items()
                 if array == slot]
        array = RegisterArray(3 + sum(size for _, size in owned))
        array.allocate(("filler",), 3)
        for owner, size in owned:
            array.allocate(("q", owner), size)
        arrays.append(array)
    return arrays


class TestFusedScan:
    @given(fused_runs())
    @settings(max_examples=150, deadline=None)
    def test_one_fused_call_equals_the_per_member_loop(self, case):
        """``execute_many`` over every member of a run at once — cells
        numbered across the members' slices, one order, one scan — is
        one call per member in member order, row for row and cell for
        cell, whatever the slice sizes, op or operand, a constant per
        member included."""
        members, sizes, batches = case
        looped, fused = fused_world(sizes), fused_world(sizes)
        for op, rows, operands in batches:
            starts = np.cumsum([0] + [len(part) for part in rows]).tolist()
            column = (np.array(operands, dtype=np.int64)
                      if isinstance(operands, list) else operands)
            expected_old, expected_new = [], []
            for j, ((slot, owner), part, lo, hi) in enumerate(zip(
                    members, rows, starts, starts[1:])):
                old, new = looped[slot].execute_many(
                    ("q", owner), np.array(part, dtype=np.int64), op,
                    column if isinstance(operands, int)
                    else operands[j] if isinstance(operands, tuple)
                    else column[lo:hi],
                )
                expected_old += old.tolist()
                expected_new += new.tolist()
            (slot, owner), *rest = members
            own = ([(c,) for c in operands[1:]]
                   if isinstance(operands, tuple) else [()] * len(rest))
            old, new = fused[slot].execute_many(
                ("q", owner),
                np.array(sum(rows, []), dtype=np.int64), op,
                operands[0] if isinstance(operands, tuple) else column,
                [(start, fused[s], ("q", o), *extra)
                 for (s, o), start, extra in zip(rest, starts[1:], own)],
            )
            assert old.tolist() == expected_old
            assert new.tolist() == expected_new
            for a, b in zip(looped, fused):
                assert np.array_equal(a.dump(), b.dump())
                assert a.dirty == b.dirty

    def test_a_missing_allocation_is_refused(self):
        array, other = RegisterArray(16), RegisterArray(16)
        array.allocate(("q", 0), 8)
        with pytest.raises(AllocationError):
            array.execute_many(("q", 0), np.arange(4), StatefulOp.ADD, 1,
                               [(2, other, ("q", 1))])

    def test_one_slice_named_twice_is_refused(self):
        """Its two names would be scanned apart and one of their last
        values lost; owners of the same name on two arrays are two
        slices."""
        array, other = RegisterArray(16), RegisterArray(16)
        for bank in (array, other):
            bank.allocate(("q", 0), 8)
        with pytest.raises(ValueError, match="twice"):
            array.execute_many(("q", 0), np.arange(4), StatefulOp.ADD, 1,
                               [(1, other, ("q", 0)), (2, array, ("q", 0))])
        assert not array.dump().any()
        array.execute_many(("q", 0), np.arange(4), StatefulOp.ADD, 1,
                           [(2, other, ("q", 0))])
        assert array.dump().sum() == other.dump().sum() == 2


def gaps_by_sorting(array, size):
    """Free gaps that hold ``size``, found the way the allocator found
    them before it kept a free list: sort every allocation, walk."""
    gaps = []
    cursor = 0
    for start, end in sorted((a.offset, a.end) for a in array.allocations()):
        if start - cursor >= size:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if array.size - cursor >= size:
        gaps.append((cursor, array.size))
    return gaps


def resort_per_candidate_anchor(array, size, vacating):
    """The anchor policy as it was first written — every candidate
    re-sorts every allocation — kept as the oracle: largest post-GC free
    run, ties to the lowest offset."""
    gaps = gaps_by_sorting(array, size)
    if not gaps:
        return None
    doomed = {(a.offset, a.end) for a in vacating}
    surviving = [(a.offset, a.end) for a in array.allocations()
                 if (a.offset, a.end) not in doomed]
    best = None
    for gap_start, gap_end in gaps:
        for cand in {gap_start, gap_end - size}:
            occupied = sorted(surviving + [(cand, cand + size)])
            largest = 0
            edge = 0
            for start, end in occupied:
                largest = max(largest, start - edge)
                edge = max(edge, end)
            largest = max(largest, array.size - edge)
            score = (largest, -cand)
            if best is None or score > best[0]:
                best = (score, cand)
    return best[1]


#: (kind, owner slot, size, vacating owner slots).
lease_steps = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "allocate", "vacating", "vacating",
                         "release"]),
        st.integers(0, 9), st.integers(1, 24),
        st.lists(st.integers(0, 9), max_size=3),
    ),
    min_size=1, max_size=60,
)


class TestAnchorPolicy:
    @given(lease_steps)
    @settings(max_examples=300, deadline=None)
    def test_the_free_list_picks_the_offsets_the_sorts_picked(self, steps):
        """Leases placed by :func:`find_offset` — around the extents of
        vacating owners or not — and releases, in any order: every
        make-before-break anchor equals the reference's (the lowest-offset
        tie-break included), every plain lease is first fit, and
        ``free_registers()`` is the array less the sum of its leases at
        every step."""
        array = RegisterArray(128)
        for kind, slot, size, vacate in steps:
            owner = ("q", slot)
            held = array.allocation(owner) is not None
            if kind == "release":
                if held:
                    array.release(owner)
            elif not held:
                vacating = [
                    array.allocation(("q", v)) for v in vacate
                    if kind == "vacating"
                    and array.allocation(("q", v)) is not None
                ]
                if vacating:
                    expected = resort_per_candidate_anchor(
                        array, size, vacating)
                else:
                    first = gaps_by_sorting(array, size)[:1]
                    expected = first[0][0] if first else None
                try:
                    got = array.lease(owner, size, find_offset(
                        array.free_runs(), size,
                        [(a.offset, a.end) for a in vacating]))
                except AllocationError:
                    assert expected is None
                else:
                    assert got.offset == expected
            assert array.free_registers() == array.size - sum(
                a.size for a in array.allocations()
            )
