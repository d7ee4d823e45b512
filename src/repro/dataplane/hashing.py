"""The two hashes of the data plane, one job each.

**The key hash** (:func:`hash_bytes`) backs the H (hash calculation)
module.  Programmable switches expose a small family of seeded CRC-style
hash units per stage.  We model them with a deterministic,
seed-parameterised 64-bit mix (blake2b-based for quality and
portability) reduced into a configurable output range.  The same family
backs the Bloom-filter and Count-Min sketch reference implementations so
data-plane and software results agree bit for bit.  Outside sketch keys
it has one other user, ``QueryPartitioner._tiebreak``.

The batch path splits the work the way the hardware does.  A K module
produces one key column; the two or three H modules behind it (the rows of
a Bloom filter or Count-Min sketch) differ only in seed.  So the key column
is deduplicated *once* into a :class:`KeyGroup` — distinct keys, their raw
bytes, and the row -> distinct-key inverse — and every hash op on that
column, whatever its seed, only resolves the distinct keys through its
seed's memo (:func:`hash_rows`) and gathers by the shared inverse.  Keys
travel as big-endian ``uint64`` word columns, so the dedupe is an integer
sort — ``np.unique`` for keys of one word, ``lexsort`` for longer ones,
both yielding the distinct keys in ascending order — and the raw bytes,
cut from one byte view of the distinct words, are byte-identical to
``GLOBAL_FIELDS.pack``, so digests equal :func:`hash_bytes` of the scalar
path's key.  The memo answers the keys it has seen in one C-level pass
and keeps each digest as its 8 big-endian bytes; a key it has not seen
costs one ``copy()`` of a blake2b keyed with the seed once per call, and
the distinct-key column is one ``frombuffer`` of the joined digests.  The
vector engine goes one step further and serves the H ops of several
program runs at once: a round stacks the equal-width key columns of
every run that needs a group into one :class:`KeyGroup` of *parts*, and
:func:`hash_parts` digests each distinct key once for every part that
asks under one seed and memo — telling the memo the hits and misses one
call per part would have — before each op reduces into its range and
gathers its part.

**The flow hash** (:func:`flow_hash` / :func:`flow_hash_columns`) answers
every per-flow *placement* question — which equal-cost path (``Router``),
which primary shard (``FlowHashPartitioner``): a seeded splitmix64 chain
over the 5-tuple (:data:`FLOW_FIELDS`), written once for python ints and
once for ``uint64`` columns, so a whole batch costs a few array operations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FLOW_FIELDS", "HashMemo", "HashUnit", "HashFamily", "KeyGroup",
           "flow_hash", "flow_hash_columns", "hash_bytes", "hash_parts",
           "hash_rows", "pack_key_words"]

#: The 5-tuple in flow-hash mixing order (``Packet.five_tuple``'s order).
FLOW_FIELDS: Tuple[str, ...] = ("sip", "dip", "proto", "sport", "dport")

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Entries a hash memo may hold per hit it served in a window before the
#: roll clears it as mostly keys nobody asks for any more.  The benchmark
#: workloads' warm memos stay under 6 (their hits are counted per batch),
#: while a warm core plus a steady trickle of new keys grows past it
#: instead of growing for the life of the process.
_ENTRIES_PER_HIT = 16


def hash_bytes(data: bytes, seed: int) -> int:
    """Seeded 64-bit hash of ``data``.

    Deterministic across processes and Python versions (unlike ``hash``),
    which keeps every experiment reproducible.
    """
    digest = hashlib.blake2b(
        data, digest_size=8, key=seed.to_bytes(8, "big", signed=False)
    ).digest()
    return int.from_bytes(digest, "big")


def flow_hash(five_tuple: Iterable[int], seed: int) -> int:
    """Seeded 64-bit hash of one flow: one splitmix64 finalisation round
    per value of ``five_tuple`` (the :data:`FLOW_FIELDS`, in order)."""
    h = seed & _MASK64
    for value in five_tuple:
        z = ((h ^ (int(value) & _MASK64)) + _PHI) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        h = z ^ (z >> 31)
    return h


def flow_hash_columns(columns: Mapping[str, np.ndarray], seed: int,
                      rows: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`flow_hash` of every row (or of ``rows``) of a batch's
    ``columns`` as ``uint64``: the same chain in wrapping numpy
    arithmetic, bit-identical row by row."""
    h = np.asarray(seed & _MASK64, dtype=np.uint64)     # broadcasts below
    for name in FLOW_FIELDS:
        column = columns[name] if rows is None else columns[name][rows]
        z = (h ^ column.astype(np.uint64)) + np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        h = z ^ (z >> np.uint64(31))
    return h


def pack_key_words(columns: Sequence[np.ndarray],
                   byte_widths: Sequence[int], n: int) -> np.ndarray:
    """Pack ``n`` rows of masked field columns into ``uint64`` key words.

    The key of a row is its fields' values concatenated big-endian, each at
    its byte width — the ``GLOBAL_FIELDS.pack`` layout — read as one
    integer and laid right-aligned into ``ceil(width / 8)`` words, most
    significant first.  Returns a ``(words, n)`` array; values must already
    fit their widths (``column & mask`` does).
    """
    width = sum(byte_widths)
    nwords = -(-width // 8)
    words = np.zeros((nwords, n), dtype=np.uint64)
    below = 8 * width           # key bits not yet placed
    for column, byte_width in zip(columns, byte_widths):
        below -= 8 * byte_width
        word, shift = divmod(below, 64)
        value = column.astype(np.uint64)
        row = nwords - 1 - word
        words[row] |= value << np.uint64(shift)
        if shift + 8 * byte_width > 64:     # the field straddles two words
            words[row - 1] |= value >> np.uint64(64 - shift)
    return words


class KeyGroup:
    """The distinct keys of one packed key column.

    ``words`` is the :func:`pack_key_words` form of ``width``-byte keys.
    The group holds each distinct key's bytes once — ``raw``, in the
    ``GLOBAL_FIELDS.pack`` layout — and ``inverse``, the index into ``raw``
    of every row, so any number of hash ops over the same column share
    one sort.  ``raw`` is in ascending key order, one word or several,
    which fixes the order a memo is filled in.

    The column may stack several *parts* — the equal-width key columns of
    several program runs side by side, ``parts`` giving their row counts
    in order.  Equal keys of two parts are then one distinct key,
    :meth:`part` is a part's slice of ``inverse``, and ``present[key,
    part]`` tells which parts hold which key (``None`` for one part).
    """

    __slots__ = ("raw", "inverse", "bounds", "present")

    def __init__(self, words: np.ndarray, width: int,
                 parts: Sequence[int] = ()):
        nwords, n = words.shape
        self.raw: List[bytes]
        if nwords == 0:
            # No field selected: every row carries the empty key.
            self.inverse = np.zeros(n, dtype=np.intp)
            self.raw = [b""] * min(n, 1)
        else:
            if nwords == 1:
                distinct, self.inverse = np.unique(words[0],
                                                   return_inverse=True)
            else:
                order = np.lexsort(words[::-1])
                ordered = words[:, order]
                first = np.ones(n, dtype=bool)
                first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
                self.inverse = np.empty(n, dtype=np.intp)
                self.inverse[order] = np.cumsum(first) - 1
                distinct = ordered[:, first].T
            # A key's bytes are the last ``width`` of its big-endian words.
            octets = np.ascontiguousarray(distinct, dtype=">u8").view(
                np.uint8).reshape(len(distinct), 8 * nwords)[:, -width:]
            self.raw = np.ascontiguousarray(octets).view(
                f"V{width}").ravel().tolist()
        #: Where each part's rows start, and where the last one ends.
        self.bounds: List[int] = [0, n]
        self.present: Optional[np.ndarray] = None
        if len(parts) > 1:
            self.bounds = [0, *np.cumsum(parts).tolist()]
            self.present = np.zeros((len(self.raw), len(parts)), dtype=bool)
            self.present[self.inverse,
                         np.repeat(np.arange(len(parts)), parts)] = True

    def part(self, index: int) -> np.ndarray:
        """``inverse`` over the rows of part ``index``."""
        return self.inverse[self.bounds[index]:self.bounds[index + 1]]

    def pick(self, ids: np.ndarray) -> "KeyGroup":
        """The group of the distinct keys ``ids`` alone, one row each."""
        picked = KeyGroup(np.empty((0, 0), dtype=np.uint64), 0)
        picked.raw = [self.raw[i] for i in ids.tolist()]
        picked.inverse = np.arange(len(ids))
        picked.bounds = [0, len(ids)]
        return picked


class HashMemo(Dict[bytes, bytes]):
    """One seed's ``key bytes -> 8-byte digest`` memo, with what it earned.

    ``hits`` / ``misses`` count the distinct keys :func:`hash_rows` found
    in it or had to digest since the last window roll; ``carried`` is how
    many entries it held when that window began.
    """

    __slots__ = ("hits", "misses", "carried")

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.carried = 0

    def roll(self) -> None:
        """Close a window: clear the memo if it carried entries into a
        window that used it and either served fewer hits than misses in
        it or holds over ``_ENTRIES_PER_HIT`` entries per hit, then start
        counting the next one.

        A memo emptied at the previous roll carried nothing, so cold
        traffic clears it at most every other roll — never forever,
        which is what clearing on misses alone would do after a pass
        boundary.  The second test bounds a warm memo by what it serves:
        new keys trickling in beside a warm core cannot grow it for the
        life of the process.  A second call in the same roll sees no
        hits and no misses and changes nothing.
        """
        if self.carried and (self.hits or self.misses) and (
                self.hits < self.misses
                or len(self) > _ENTRIES_PER_HIT * self.hits):
            self.clear()
        self.hits = self.misses = 0
        self.carried = len(self)


def hash_rows(keys: KeyGroup, seed: int,
              cache: Optional[HashMemo] = None) -> np.ndarray:
    """:func:`hash_bytes` of every distinct key of ``keys`` (``uint64``).

    One digest per entry of ``keys.raw``; ``digests[keys.inverse]`` is the
    per-row column.  ``cache`` — the seed's ``key bytes -> digest`` memo
    (see :meth:`HashFamily.bulk_cache`) — answers every key it has seen
    in one C-level ``map``, which is what makes the vectorized engine's
    hashing cost scale with new flows instead of packets.  A key it has
    never seen costs one ``copy()`` of a blake2b already keyed with the
    seed (the same digest as a fresh keyed call, at half the price).  The
    memo keeps the 8 big-endian digest bytes, so the column is one
    ``frombuffer`` of their concatenation.  Every memo insert happens
    here, and the memo is told how many keys it served and missed.
    """
    if cache is None:
        cache = HashMemo()
    raws = keys.raw
    digests = list(map(cache.get, raws))
    # ``raws`` are distinct, so each miss is one new entry.
    missing = [i for i, digest in enumerate(digests) if digest is None]
    if missing:
        keyed = hashlib.blake2b(
            digest_size=8, key=seed.to_bytes(8, "big", signed=False)
        ).copy
        for i in missing:
            hasher = keyed()
            hasher.update(raws[i])
            digests[i] = cache[raws[i]] = hasher.digest()
    cache.misses += len(missing)
    cache.hits += len(digests) - len(missing)
    return np.frombuffer(b"".join(digests), dtype=">u8")


def hash_parts(keys: KeyGroup, parts: Sequence[int], seed: int,
               cache: HashMemo) -> np.ndarray:
    """:func:`hash_rows` for the rows of ``parts`` of ``keys``: a digest
    per distinct key of the group (``uint64``), hashed once however many
    of ``parts`` hold it, and 0 for a key none of them holds.

    ``cache`` is told what one :func:`hash_rows` call per part, over that
    part's distinct keys, would have told it, in any order: a key no call
    had seen is missed once either way, so only the hits differ — by the
    keys the parts share, which the per-part calls count once per part.
    :meth:`HashMemo.roll` therefore decides on the same counts.
    """
    if keys.present is None:
        return hash_rows(keys, seed, cache)
    held = keys.present[:, parts]
    used = held.any(axis=1)
    distinct = int(np.count_nonzero(used))
    if distinct == len(keys.raw):
        digests = hash_rows(keys, seed, cache)
    else:
        ids = np.flatnonzero(used)
        digests = np.zeros(len(keys.raw), dtype=np.uint64)
        digests[ids] = hash_rows(keys.pick(ids), seed, cache)
    cache.hits += int(np.count_nonzero(held)) - distinct
    return digests


@dataclass(frozen=True)
class HashUnit:
    """One configured hash engine: a seed plus an output range.

    ``range_size`` mirrors the H module's "adjustable range of the hash
    result" (paper §4.1), which is what lets the state bank slice one
    register array among queries.
    """

    seed: int
    range_size: int

    def __post_init__(self) -> None:
        if self.range_size <= 0:
            raise ValueError(f"hash range must be positive, got {self.range_size}")

    def __call__(self, key: bytes) -> int:
        return hash_bytes(key, self.seed) % self.range_size


class HashFamily:
    """A family of pairwise-independent-ish hash units sharing a base seed.

    Sketches ask for ``unit(i)`` for row *i*; two families with the same
    base seed produce identical units, which is how a query sliced across
    switches (CQE) keeps consistent indexing on every hop.
    """

    def __init__(self, base_seed: int = 0x5EED):
        self.base_seed = base_seed
        self._bulk_caches: Dict[int, HashMemo] = {}

    def unit(self, index: int, range_size: int) -> HashUnit:
        """The ``index``-th unit of the family with the given output range."""
        if index < 0:
            raise ValueError(f"hash family index must be >= 0, got {index}")
        # Golden-ratio stride decorrelates consecutive indices.
        seed = (self.base_seed + index * _PHI) & _MASK64
        return HashUnit(seed=seed, range_size=range_size)

    def bulk_cache(self, seed: int) -> HashMemo:
        """Per-seed ``key bytes -> digest`` memo for :func:`hash_rows`.

        Shared by every vectorized hash op using that seed; the contents
        are a pure function of the seed, so sharing (or clearing) never
        changes results.
        """
        memo = self._bulk_caches.get(seed)
        if memo is None:
            memo = self._bulk_caches[seed] = HashMemo()
        return memo

    def trim_bulk_caches(self) -> None:
        """Keep each memo only while it earns its hits (:meth:`HashMemo.
        roll`).

        Called at each window roll, once per switch sharing the family;
        only the first call of a roll can clear anything.  Cleared in
        place — compiled programs hold references to the dicts.
        """
        for memo in self._bulk_caches.values():
            memo.roll()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashFamily) and other.base_seed == self.base_seed

    def __hash__(self) -> int:
        return hash(("HashFamily", self.base_seed))
