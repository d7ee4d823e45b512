"""Vectorized data-plane primitives vs their scalar references.

The vectorized engine's correctness rests on two batch primitives being
bit-identical to the per-packet code paths they replace: seeded hashing
over word-packed key groups (stacked parts of several runs included)
and the register ALU's grouped-scan batch execution.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fields import GLOBAL_FIELDS
from repro.dataplane.alu import REGISTER_MAX, StatefulOp
from repro.dataplane.hashing import (
    _ENTRIES_PER_HIT,
    HashFamily,
    HashMemo,
    KeyGroup,
    hash_bytes,
    hash_parts,
    hash_rows,
    pack_key_words,
)
from repro.dataplane.registers import RegisterArray, _stable_order


def key_group(rows: np.ndarray) -> KeyGroup:
    """The group over a ``(n, width)`` uint8 matrix, one key per row."""
    n, width = rows.shape
    words = pack_key_words(
        [rows[:, j].astype(np.int64) for j in range(width)], [1] * width, n
    )
    return KeyGroup(words, width)


def unit_over_rows(unit, keys: KeyGroup, cache=None) -> np.ndarray:
    """What an H op makes of ``hash_rows``: each distinct digest reduced
    into ``unit``'s range, then gathered per row (int64 indices)."""
    digests = hash_rows(keys, unit.seed, cache)
    return (digests % np.uint64(unit.range_size)).astype(
        np.int64)[keys.inverse]


class TestHashRows:
    def test_matches_per_row_hash_bytes(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 256, size=(300, 6)).astype(np.uint8)
        keys = key_group(rows)
        out = hash_rows(keys, seed=99)[keys.inverse]
        for i in range(len(rows)):
            assert int(out[i]) == hash_bytes(rows[i].tobytes(), 99)

    def test_duplicate_rows_share_one_digest(self):
        rows = np.zeros((50, 4), dtype=np.uint8)
        rows[:, 0] = 3
        keys = key_group(rows)
        assert keys.raw == [rows[0].tobytes()]
        out = hash_rows(keys, seed=1)
        assert [int(v) for v in out] == [hash_bytes(rows[0].tobytes(), 1)]

    def test_cache_is_filled_and_reused(self):
        cache = HashMemo()
        keys = key_group(np.arange(12, dtype=np.uint8).reshape(3, 4))
        first = hash_rows(keys, 5, cache)
        assert len(cache) == 3
        cache_before = dict(cache)
        second = hash_rows(keys, 5, cache)
        assert cache == cache_before
        assert np.array_equal(first, second)
        assert (cache.misses, cache.hits) == (3, 3)

    def test_one_group_serves_every_seed(self):
        """The H ops behind one K differ only in seed: the group is
        built once and each seed fills only its own memo."""
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=(200, 10)).astype(np.uint8)
        keys = key_group(rows)
        family = HashFamily(0x5EED)
        for index in range(3):
            unit = family.unit(index, range_size=512)
            out = unit_over_rows(unit, keys, family.bulk_cache(unit.seed))
            assert [int(v) for v in out] == [
                unit(row.tobytes()) for row in rows
            ]
            assert len(family.bulk_cache(unit.seed)) == len(keys.raw)

    def test_empty_batch(self):
        keys = key_group(np.empty((0, 4), dtype=np.uint8))
        cache = HashMemo()
        assert hash_rows(keys, 2, cache).shape == (0,)
        assert cache == {}

    def test_empty_key(self):
        """No K before the H (or an all-zero mask): every row hashes the
        empty byte string, as the scalar path does."""
        keys = KeyGroup(pack_key_words([], [], 5), 0)
        assert keys.raw == [b""]
        out = hash_rows(keys, seed=8)[keys.inverse]
        assert [int(v) for v in out] == [hash_bytes(b"", 8)] * 5


#: A K plan: a subset of the global fields, each with a non-zero mask.
field_plans = st.lists(
    st.sampled_from(list(GLOBAL_FIELDS)), unique=True
).flatmap(lambda fields: st.fixed_dictionaries({
    field.name: st.integers(1, field.max_value) for field in fields
}))
_FULL = {field.name: field.max_value for field in GLOBAL_FIELDS}


class TestPackedKeyGroups:
    """K -> H hand-off: word-packed keys against ``GLOBAL_FIELDS.pack``."""

    @given(field_plans, st.integers(0, 2**32), st.integers(1, 60),
           st.integers(1, 12))
    # Key widths 0, 1-8 (one word), 9-16 (two, ``sip`` straddling them)
    # and 19 bytes (three).
    @example({}, 1, 7, 3)
    @example({"dip": 0xFFFFFF00, "dport": 0xFFFF}, 2, 40, 5)
    @example({"sip": _FULL["sip"], "dip": _FULL["dip"], "proto": 0x0F,
              "tcp_flags": 0x12}, 3, 40, 5)
    @example(_FULL, 4, 40, 5)
    @settings(max_examples=150, deadline=None)
    def test_raw_bytes_and_digests_match_scalar(self, masks, seed, n, pool):
        rng = np.random.default_rng(seed)
        # Rows drawn from a small pool: duplicates in every batch.
        picks = rng.integers(0, pool, size=n)
        columns = {
            field.name: rng.integers(0, field.max_value + 1,
                                     size=pool)[picks]
            for field in GLOBAL_FIELDS
        }
        expected = [
            GLOBAL_FIELDS.pack(
                {name: int(col[i]) for name, col in columns.items()}, masks
            )
            for i in range(n)
        ]
        plan = [f for f in GLOBAL_FIELDS if f.name in masks]
        words = pack_key_words(
            [columns[f.name] & masks[f.name] for f in plan],
            [f.byte_width for f in plan], n,
        )
        width = sum(f.byte_width for f in plan)
        assert words.shape == (-(-width // 8), n)
        keys = KeyGroup(words, width)
        assert [keys.raw[i] for i in keys.inverse] == expected
        assert len(keys.raw) == len(set(expected))
        cache = HashMemo()
        digests = hash_rows(keys, seed, cache)[keys.inverse]
        assert [int(d) for d in digests] == [
            hash_bytes(key, seed) for key in expected
        ]
        assert set(cache) == set(expected)

    def test_swapped_words_stay_apart(self):
        """``(a, b)`` and ``(b, a)`` are two keys, however the dedupe
        brings equal keys together; duplicates of each still merge."""
        a, b = 0x0123456789ABCDEF, 0xFEDCBA9876543210
        words = np.array([[a, b, a, b, a, a],
                          [b, a, b, a, a, b]], dtype=np.uint64)
        keys = KeyGroup(words, 16)
        expected = [int(hi).to_bytes(8, "big") + int(lo).to_bytes(8, "big")
                    for hi, lo in words.T]
        assert [keys.raw[i] for i in keys.inverse] == expected
        assert sorted(keys.raw) == sorted(set(expected))


def lexsort_reference(words: np.ndarray, width: int, parts):
    """``(raw, inverse, present)`` of a key column the way multi-word
    keys are grouped — ``lexsort``, then equal neighbours merged — for
    any word count: the reference the single-word ``np.unique`` path
    must equal."""
    nwords, n = words.shape
    rows = [tuple(int(w) for w in words[:, i]) for i in range(n)]
    ordered = [rows[i] for i in np.lexsort(words[::-1]).tolist()]
    distinct = list(dict.fromkeys(ordered))
    position = {key: i for i, key in enumerate(distinct)}
    raw = [b"".join(w.to_bytes(8, "big") for w in key)[8 * nwords - width:]
           for key in distinct]
    inverse = [position[key] for key in rows]
    present = None
    if len(parts) > 1:
        present = np.zeros((len(distinct), len(parts)), dtype=bool)
        start = 0
        for part, size in enumerate(parts):
            present[inverse[start:start + size], part] = True
            start += size
    return raw, inverse, present


class TestSingleWordGroups:
    """Keys of up to 8 bytes are grouped by ``np.unique``: the distinct
    keys come out in the same ascending order as the ``lexsort`` path's,
    so memo insertion order and counts cannot tell the two apart."""

    @pytest.mark.parametrize("values, parts", [
        ([], ()),
        ([7], ()),
        ([7], (1,)),
        ([5, 5, 5, 5], ()),
        ([3, 9, 3, 1, 9, 9, 0, 3], (3, 0, 5)),
        ([2**64 - 1, 0, 2**63, 2**64 - 1, 1], (2, 3)),
    ])
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_equals_the_lexsort_path(self, values, parts, width):
        words = np.array([values], dtype=np.uint64) & np.uint64(
            (1 << 8 * width) - 1)
        keys = KeyGroup(words, width, parts)
        raw, inverse, present = lexsort_reference(words, width, parts)
        assert keys.raw == raw
        assert keys.inverse.tolist() == inverse
        assert keys.inverse.dtype == np.intp
        if present is None:
            assert keys.present is None
        else:
            assert np.array_equal(keys.present, present)

    def test_many_duplicates(self):
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 1 << 40, size=40, dtype=np.uint64)
        words = pool[rng.integers(0, 40, size=5000)][None, :]
        parts = (1200, 0, 3800)
        keys = KeyGroup(words, 5, parts)
        raw, inverse, present = lexsort_reference(words, 5, parts)
        assert keys.raw == raw and len(raw) == len(set(pool.tolist()))
        assert keys.inverse.tolist() == inverse
        assert np.array_equal(keys.present, present)


def loop_hash_rows(keys: KeyGroup, seed: int, cache: HashMemo) -> np.ndarray:
    """``hash_rows`` as a plain loop: a fresh keyed blake2b per key the
    memo lacks, digests kept as ints — the reference the byte-digest
    memo must answer exactly like, call for call."""
    seed_key = seed.to_bytes(8, "big", signed=False)
    before = len(cache)
    digests = []
    for raw in keys.raw:
        digest = cache.get(raw)
        if digest is None:
            digest = cache[raw] = int.from_bytes(hashlib.blake2b(
                raw, digest_size=8, key=seed_key).digest(), "big")
        digests.append(digest)
    misses = len(cache) - before
    cache.misses += misses
    cache.hits += len(digests) - misses
    return np.array(digests, dtype=np.uint64)


@st.composite
def key_batches(draw):
    """A key width of 0-19 bytes and a few batches of keys of that width
    drawn from one small pool, so later batches meet earlier keys."""
    width = draw(st.integers(0, 19))
    pool = draw(st.lists(st.binary(min_size=width, max_size=width),
                         min_size=1, max_size=12, unique=True))
    batches = draw(st.lists(
        st.lists(st.sampled_from(pool), max_size=30), min_size=1,
        max_size=4,
    ))
    return width, pool, batches


def pack_words(keys, width: int) -> np.ndarray:
    """The :func:`pack_key_words` column of ``width``-byte ``keys``."""
    matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
        len(keys), width)
    return pack_key_words([matrix[:, j].astype(np.int64)
                           for j in range(width)], [1] * width, len(keys))


def group_of(keys, width: int) -> KeyGroup:
    """The :class:`KeyGroup` of ``width``-byte ``keys``, one per row."""
    return KeyGroup(pack_words(keys, width), width)


class TestDigestIdentity:
    @given(key_batches(), st.one_of(st.sampled_from([0, 2**64 - 1]),
                                    st.integers(0, 2**64 - 1)),
           st.integers(0, 12), st.lists(st.booleans(), max_size=4))
    @example((3, [b"abc", b"xyz"], [[b"abc", b"xyz", b"abc"]]), 0, 1, [])
    @example((19, [bytes(19), bytes(range(19))], [[bytes(19)]]),
             2**64 - 1, 0, [True])
    @example((0, [b""], [[b"", b""], []]), 7, 1, [False, True])
    @settings(max_examples=150, deadline=None)
    def test_byte_digests_answer_like_the_int_loop(self, case, seed, warm,
                                                   rolls):
        """Digests equal ``hash_bytes``; a memo pre-filled with part of
        the keys counts the same hits and misses and holds the same keys
        as the loop's, through window rolls, call after call."""
        width, pool, batches = case
        memo, reference = HashMemo(), HashMemo()
        prefill = group_of(pool[:warm], width)
        hash_rows(prefill, seed, memo)
        loop_hash_rows(prefill, seed, reference)
        for index, batch in enumerate(batches):
            keys = group_of(batch, width)
            out = hash_rows(keys, seed, memo)
            assert out.tolist() == loop_hash_rows(keys, seed,
                                                  reference).tolist()
            assert out[keys.inverse].tolist() == [
                hash_bytes(key, seed) for key in batch
            ]
            assert (memo.hits, memo.misses) == (reference.hits,
                                                reference.misses)
            assert len(memo) == len(reference) and set(memo) == set(reference)
            assert all(digest == reference[key].to_bytes(8, "big")
                       for key, digest in memo.items())
            if index < len(rolls) and rolls[index]:
                memo.roll()
                reference.roll()


def keys_of(values) -> KeyGroup:
    """The group of one-word keys ``values``."""
    return KeyGroup(np.array([list(values)], dtype=np.uint64), 8)


class TestMemoRule:
    """A memo is cleared at a window roll only if it carried entries into
    the closing window and, in it, served fewer hits than misses or held
    over ``_ENTRIES_PER_HIT`` entries per hit."""

    @staticmethod
    def window(family, values, seed=1):
        """One window of traffic hashing ``values`` under ``seed``, then
        the roll; returns the memo and its digests."""
        memo = family.bulk_cache(seed)
        digests = hash_rows(keys_of(values), seed, memo)
        family.trim_bulk_caches()
        return memo, digests

    def test_cold_traffic_clears_at_most_every_other_roll(self):
        family = HashFamily()
        sizes = []
        for index in range(6):
            memo, _ = self.window(family, range(100 * index, 100 * index + 90))
            sizes.append(len(memo))
        # Nothing carried into the first window; every later window is
        # all misses, and a memo emptied at one roll survives the next.
        assert sizes == [90, 0, 90, 0, 90, 0]

    def test_a_warm_memo_is_never_cleared(self):
        family = HashFamily()
        for index in range(8):
            # Mostly repeats, a few new keys every window.
            memo, _ = self.window(family, list(range(60)) +
                                  list(range(1000 + 10 * index,
                                             1010 + 10 * index)))
        assert len(memo) == 60 + 8 * 10

    def test_a_warm_core_beside_endless_new_keys_stays_bounded(self):
        """Sixty keys hit every window while ten never-seen ones join
        it: the memo is cleared whenever it holds more than
        ``_ENTRIES_PER_HIT`` entries per hit, then rebuilds its core."""
        family = HashFamily()
        sizes = []
        for index in range(300):
            memo, _ = self.window(family, list(range(60)) +
                                  list(range(1000 + 10 * index,
                                             1010 + 10 * index)))
            sizes.append(len(memo))
        assert max(sizes) <= _ENTRIES_PER_HIT * 60
        assert sizes.count(0) >= 3
        assert sizes[sizes.index(0) + 1] == 70       # the core is back

    def test_a_key_rotation_clears_once_then_rebuilds(self):
        family = HashFamily()
        for _ in range(3):
            memo, _ = self.window(family, range(50))
        assert len(memo) == 50
        memo, _ = self.window(family, range(500, 550))    # rotated
        assert len(memo) == 0
        for _ in range(3):
            memo, _ = self.window(family, range(500, 550))
        assert len(memo) == 50 and memo.hits == memo.misses == 0

    def test_digests_are_unchanged_after_any_clear(self):
        family = HashFamily()
        keys = range(40)
        first = hash_rows(keys_of(keys), 7)
        for index in range(5):
            self.window(family, range(1000 * index, 1000 * index + 80),
                        seed=7)
            _, digests = self.window(family, keys, seed=7)
            assert np.array_equal(digests, first)

    def test_only_the_first_call_of_a_roll_decides(self):
        """Every switch of a deployment rolls the shared family; the
        later calls of the same roll change nothing."""
        family = HashFamily()
        memo = family.bulk_cache(2)
        hash_rows(keys_of(range(30)), 2, memo)
        family.trim_bulk_caches()
        hash_rows(keys_of(range(30)), 2, memo)
        for _ in range(3):                  # warm: kept by every call
            family.trim_bulk_caches()
            assert len(memo) == 30
        hash_rows(keys_of(range(100, 160)), 2, memo)
        assert (memo.carried, memo.hits, memo.misses) == (30, 0, 60)
        family.trim_bulk_caches()
        assert len(memo) == 0
        family.trim_bulk_caches()
        family.trim_bulk_caches()
        assert len(memo) == 0 and memo.carried == 0
        # Cleared in place: compiled programs hold the dict itself.
        assert family.bulk_cache(2) is memo


class TestReducedHashes:
    def test_matches_scalar_call(self):
        unit = HashFamily(0x5EED).unit(2, range_size=1024)
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 256, size=(200, 5)).astype(np.uint8)
        out = unit_over_rows(unit, key_group(rows))
        assert out.dtype == np.int64
        for i in range(len(rows)):
            assert int(out[i]) == unit(rows[i].tobytes())


@st.composite
def stacked_parts(draw):
    """A key width, two to four parts of keys of that width drawn from
    one small pool (so parts share keys), the parts one seed asks for,
    and how much of the pool a memo held before."""
    width = draw(st.integers(0, 19))
    pool = draw(st.lists(st.binary(min_size=width, max_size=width),
                         min_size=1, max_size=10, unique=True))
    parts = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=20), min_size=2, max_size=4))
    asked = draw(st.lists(st.integers(0, len(parts) - 1), min_size=1,
                          unique=True))
    return width, pool, parts, sorted(asked), draw(st.integers(0, 10))


class TestHashParts:
    @given(stacked_parts(), st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_counts_like_one_call_per_part(self, case, seed):
        """Parts stacked into one group and hashed in one pass give each
        asking part the digests of its keys, and leave the memo with the
        entries, hits and misses of one ``hash_rows`` per part."""
        width, pool, parts, asked, warm = case
        memo, reference = HashMemo(), HashMemo()
        for cache in (memo, reference):
            hash_rows(group_of(pool[:warm], width), seed, cache)
        stacked = group_of(sum(parts, []), width)
        keys = KeyGroup(pack_words(sum(parts, []), width), width,
                        [len(part) for part in parts])
        assert keys.raw == stacked.raw
        digests = hash_parts(keys, asked, seed, memo)
        for index in asked:
            alone = group_of(parts[index], width)
            expected = hash_rows(alone, seed, reference)[alone.inverse]
            assert digests[keys.part(index)].tolist() == expected.tolist()
        assert (memo.hits, memo.misses) == (reference.hits,
                                            reference.misses)
        assert memo.keys() == reference.keys()

    def test_one_part_is_the_plain_call(self):
        keys = KeyGroup(pack_words([b"ab", b"cd", b"ab"], 2), 2, [3])
        assert keys.present is None
        memo = HashMemo()
        digests = hash_parts(keys, [0], 5, memo)
        assert digests.tolist() == hash_rows(keys, 5).tolist()
        assert (memo.hits, memo.misses, len(memo)) == (0, 2, 2)


def _paired_arrays(size=16, slice_size=8):
    owner = ("q", 0)
    reference = RegisterArray(size)
    batched = RegisterArray(size)
    reference.allocate(owner, slice_size)
    batched.allocate(owner, slice_size)
    return owner, reference, batched


class TestExecuteMany:
    @pytest.mark.parametrize(
        "op", [StatefulOp.READ, StatefulOp.ADD, StatefulOp.OR,
               StatefulOp.MAX],
    )
    def test_matches_sequential_execution(self, op):
        """Heavy index collisions: the grouped scans must produce the
        same per-call old/new values as the one-at-a-time loop."""
        owner, reference, batched = _paired_arrays()
        rng = np.random.default_rng(int(hash(op.value)) & 0xFFFF)
        indices = rng.integers(0, 5, size=400).astype(np.int64)
        operands = rng.integers(0, 9, size=400).astype(np.int64)

        expected = [reference.execute(owner, int(i), op, int(v))
                    for i, v in zip(indices, operands)]
        old, new = batched.execute_many(owner, indices, op, operands)

        assert [int(v) for v in old] == [e[0] for e in expected]
        assert [int(v) for v in new] == [e[1] for e in expected]
        assert np.array_equal(reference.dump(), batched.dump())

    def test_add_saturates_like_sequential(self):
        owner, reference, batched = _paired_arrays()
        n = 64
        indices = np.zeros(n, dtype=np.int64)
        operands = np.full(n, REGISTER_MAX // 8, dtype=np.int64)
        expected = [reference.execute(owner, 0, StatefulOp.ADD, int(v))
                    for v in operands]
        old, new = batched.execute_many(
            owner, indices, StatefulOp.ADD, operands
        )
        assert [int(v) for v in old] == [e[0] for e in expected]
        assert [int(v) for v in new] == [e[1] for e in expected]
        assert int(batched.dump().max()) <= REGISTER_MAX


#: (array size, slice offset, slice size): the slice bound picks the
#: grouping — one 16-bit pass up to 2^16 registers, two above, and the
#: offset (beyond 2^16 in two layouts) must never enter the sort key.
_LAYOUTS = [
    (16, 0, 8), (16, 5, 8), (4096, 100, 2048), (4096, 0, 4096),
    (1 << 16, 0, 1 << 16), ((1 << 16) + 1, 0, (1 << 16) + 1),
    (1 << 20, (1 << 16) + 5, 3000), (1 << 20, 70_000, (1 << 16) + 7),
    (1 << 20, 0, 1 << 20),
]
_OPERAND_VALUES = st.one_of(
    st.integers(0, 9),
    st.sampled_from([REGISTER_MAX // 3, REGISTER_MAX - 1, REGISTER_MAX]),
)


@st.composite
def _alu_batches(draw):
    """Two consecutive batches (the second meets non-zero registers) of
    mostly colliding indices, some far outside the slice."""
    size, offset, slice_size = draw(st.sampled_from(_LAYOUTS))
    edge = min(slice_size - 1, 7)
    hot = draw(st.lists(st.one_of(
        st.integers(0, slice_size - 1), st.integers(0, edge),
        st.integers(slice_size - 1 - edge, slice_size - 1),
    ), min_size=1, max_size=4))
    # Cells that differ only above bit 16: one 16-bit pass cannot tell
    # them apart, the second must.
    hot += [cell ^ (1 << 16) for cell in hot
            if cell ^ (1 << 16) < slice_size]
    index = st.one_of(
        st.sampled_from(hot), st.sampled_from(hot),     # >= 50 % collide
        st.integers(0, slice_size - 1),
        st.integers(-(1 << 40), 1 << 62),               # DIRECT-mode hashes
    )
    batches = []
    for _ in range(2):
        indices = draw(st.lists(index, min_size=1, max_size=60))
        operands = draw(st.one_of(
            _OPERAND_VALUES,                            # a constant rule
            st.lists(_OPERAND_VALUES, min_size=len(indices),
                     max_size=len(indices)),            # a field column
        ))
        batches.append((draw(st.sampled_from(list(StatefulOp))),
                        indices, operands))
    return size, offset, slice_size, batches


class TestGrouping:
    """Linear-time grouping: every ordering the slice size can select
    against the one-at-a-time ALU."""

    @given(_alu_batches())
    @settings(max_examples=120, deadline=None)
    def test_every_order_matches_the_sequential_alu(self, case):
        size, offset, slice_size, batches = case
        owner, reference, batched = ("q", 0), RegisterArray(size), \
            RegisterArray(size)
        for array in (reference, batched):
            if offset:
                array.allocate(("filler",), offset)
            assert array.allocate(owner, slice_size).offset == offset
        for op, indices, operands in batches:
            column = (operands if isinstance(operands, list)
                      else [operands] * len(indices))
            expected = [reference.execute(owner, i, op, v)
                        for i, v in zip(indices, column)]
            old, new = batched.execute_many(
                owner, np.array(indices, dtype=np.int64), op,
                (np.array(operands, dtype=np.int64)
                 if isinstance(operands, list) else operands),
            )
            assert old.tolist() == [e[0] for e in expected]
            assert new.tolist() == [e[1] for e in expected]
            assert np.array_equal(reference.dump(), batched.dump())
            assert batched.dirty == reference.dirty

    @pytest.mark.parametrize("bound", [
        1, 2048, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 32, (1 << 32) + 1,
    ])
    def test_order_is_the_stable_argsort(self, bound):
        rng = np.random.default_rng(bound & 0xFFFF)
        pool = rng.integers(0, bound, size=40)
        pool[:2] = (0, bound - 1)
        keys = pool[rng.integers(0, len(pool), size=3000)]
        assert np.array_equal(_stable_order(keys, bound),
                              np.argsort(keys, kind="stable"))
        assert len(_stable_order(keys[:0], bound)) == 0
