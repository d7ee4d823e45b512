"""Deterministic partitioners of the fabric plane.

Two orthogonal assignments make sharded execution exactly-once:

* :class:`QueryPartitioner` — every installed query (all of its
  sub-queries together) is *owned* by exactly one shard.  Each shard
  replica installs every query (placement and epochs stay identical to
  single-process execution) but only *executes* its owned queries, via
  the pipelines' ``query_filter``; a query's registers, reports,
  snapshot entries, and deferred work therefore exist on exactly one
  shard.

* :class:`FlowHashPartitioner` — every packet has exactly one *primary*
  shard: the data plane's flow hash
  (:func:`repro.dataplane.hashing.flow_hash`) of its 5-tuple, modulo the
  shard count.  The router picks ECMP paths with the same function under
  a different seed, so path and primacy are independent.  All replicas
  forward every packet (their owned queries need the full stream), but
  only the primary shard counts the per-packet statistics (packets /
  delivered / dropped / payload bytes), so the merged
  :class:`~repro.network.simulator.SimulationStats` sums are exact.

Both are pure functions of their seeds: the scalar (`shard_of_packet`)
and vectorized (`shard_column`) paths of the flow partitioner are the
flow hash's two bit-identical forms, and the query partitioner is
deterministic per (seed, install order) — a worker replaying the same
op stream reaches the same ownership map as the parent that computed it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.packet import Packet
from repro.core.query import QueryLike, flatten
from repro.dataplane.hashing import flow_hash, flow_hash_columns, hash_bytes
from repro.traffic.columnar import ColumnarTrace

__all__ = ["FLOW_SEED", "FlowHashPartitioner", "QueryPartitioner",
           "ShardContext", "owned_sub_qids"]

_MASK = (1 << 64) - 1

#: Seed of the fabric's packet-primacy flow hash — not the router's
#: (0), so path choice and primacy are independent.
FLOW_SEED = 0xF1F0


class FlowHashPartitioner:
    """Seeded 5-tuple → shard assignment, identical scalar and columnar.

    Flows (not packets) map to shards: every packet of a flow lands on
    the same primary shard, and the assignment is a pure function of
    ``(seed, shards)`` — stable across processes and runs.
    """

    __slots__ = ("seed", "shards")

    def __init__(self, seed: int, shards: int):
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.seed = seed & _MASK
        self.shards = shards

    def shard_of_packet(self, packet: Packet) -> int:
        """Primary shard of one packet (the scalar engine's path)."""
        return flow_hash(packet.five_tuple, self.seed) % self.shards

    def shard_column(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Primary shard per row (the vectorized engine's path).

        Bit-identical to :meth:`shard_of_packet` row by row.
        """
        hashed = flow_hash_columns(columns, self.seed)
        return (hashed % np.uint64(self.shards)).astype(np.int64)


class ShardContext:
    """One shard's identity, consulted by both engines via ``sim.shard``.

    Normally a shard owns exactly one flow-hash index (its own).  When a
    peer shard is degraded out of the fleet, a survivor :meth:`adopt`\\ s
    the dead shard's index so that shard's primary-packet accounting has
    exactly one new home — the per-packet stats sums stay exact from the
    adoption point on.  The single-index case keeps the fast ``==``
    comparison on both the scalar and columnar paths.
    """

    __slots__ = ("partitioner", "index", "indices")

    def __init__(self, partitioner: FlowHashPartitioner, index: int,
                 indices: Optional[Tuple[int, ...]] = None):
        if not 0 <= index < partitioner.shards:
            raise ValueError(
                f"shard index {index} outside [0, {partitioner.shards})"
            )
        self.partitioner = partitioner
        self.index = index
        self.indices: frozenset = (
            frozenset(indices) if indices else frozenset((index,))
        )

    def adopt(self, other_index: int) -> None:
        """Also claim primacy for ``other_index``'s flows (degrade path)."""
        if not 0 <= other_index < self.partitioner.shards:
            raise ValueError(
                f"shard index {other_index} outside "
                f"[0, {self.partitioner.shards})"
            )
        self.indices = self.indices | {other_index}

    def owns_packet(self, packet: Packet) -> bool:
        shard = self.partitioner.shard_of_packet(packet)
        if len(self.indices) == 1:
            return shard == self.index
        return shard in self.indices

    def owned_mask(self, batch: ColumnarTrace) -> np.ndarray:
        column = self.partitioner.shard_column(batch.columns)
        if len(self.indices) == 1:
            return column == self.index
        return np.isin(
            column, np.fromiter(self.indices, dtype=np.int64)
        )


class QueryPartitioner:
    """Least-loaded assignment of whole queries to shards.

    The default load unit is the number of sub-queries (a composite
    weighs as many units as it has data-plane chains); ties break on a
    seeded hash of the query id so the assignment is deterministic per
    (seed, install order) yet balanced — e.g. eight single-chain
    queries on four shards land 2/2/2/2.  Callers with a better cost
    model pass an explicit ``weight`` (e.g. calibrated per-query engine
    cost); installing in descending weight order then makes the greedy
    choice equivalent to LPT scheduling.
    """

    __slots__ = ("shards", "seed", "_loads", "_owners", "_weights")

    def __init__(self, shards: int, seed: int = 0xA55):
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.shards = shards
        self.seed = seed
        self._loads: List[float] = [0.0] * shards
        self._owners: Dict[str, int] = {}
        self._weights: Dict[str, float] = {}

    def _tiebreak(self, qid: str, shard: int) -> int:
        return hash_bytes(qid.encode("utf-8"), (self.seed ^ shard) & _MASK)

    def assign(self, query: QueryLike,
               weight: Optional[float] = None,
               owner: Optional[int] = None) -> int:
        """Assign (and record) the owner shard of a new query.

        ``owner`` pins the query to a specific shard, bypassing the
        least-loaded choice (load accounting still applies).  Pinning is
        how cost- and affinity-aware planners place queries: co-locating
        queries that aggregate over the same key columns lets them share
        the engines' memoised key-hash work, which a purely load-based
        assignment would scatter.
        """
        qid = query.qid
        if qid in self._owners:
            raise ValueError(f"query {qid!r} already assigned")
        if weight is None:
            weight = float(len(list(flatten(query))))
        elif weight <= 0:
            raise ValueError(f"query weight must be positive, got {weight}")
        if owner is None:
            owner = min(
                range(self.shards),
                key=lambda s: (self._loads[s], self._tiebreak(qid, s)),
            )
        elif not 0 <= owner < self.shards:
            raise ValueError(
                f"pinned owner {owner} outside [0, {self.shards})"
            )
        self._owners[qid] = owner
        self._weights[qid] = float(weight)
        self._loads[owner] += float(weight)
        return owner

    def release(self, qid: str) -> int:
        """Forget a removed query; returns the shard that owned it."""
        owner = self._owners.pop(qid)
        self._loads[owner] -= self._weights.pop(qid)
        return owner

    def reassign(self, qid: str, owner: Optional[int] = None,
                 candidates: Optional[Tuple[int, ...]] = None) -> int:
        """Move an assigned query to a new shard (degrade repartition).

        With ``owner=None`` the least-loaded shard among ``candidates``
        (default: all shards) takes it — the facade passes the surviving
        shard set so a degraded shard's queries spread by load rather
        than piling onto one heir.  Load accounting follows the move.
        """
        old = self._owners[qid]
        weight = self._weights[qid]
        self._loads[old] -= weight
        pool = tuple(candidates) if candidates is not None else tuple(
            range(self.shards)
        )
        if owner is None:
            if not pool:
                raise ValueError("no candidate shards to reassign onto")
            owner = min(
                pool,
                key=lambda s: (self._loads[s], self._tiebreak(qid, s)),
            )
        elif not 0 <= owner < self.shards:
            raise ValueError(
                f"new owner {owner} outside [0, {self.shards})"
            )
        self._owners[qid] = owner
        self._loads[owner] += weight
        return owner

    def owner_of(self, qid: str) -> int:
        return self._owners[qid]

    def loads(self) -> Tuple[float, ...]:
        return tuple(self._loads)

    def owners(self) -> Dict[str, int]:
        return dict(self._owners)


def owned_sub_qids(query: QueryLike) -> Tuple[str, ...]:
    """The sub-query ids a shard executes when it owns ``query``."""
    return tuple(sub.qid for sub in flatten(query))
