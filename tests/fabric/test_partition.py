"""Partitioner properties: determinism, exactly-one-shard coverage, and
scalar/columnar bit-identity of the flow hash."""

import inspect

import numpy as np
import pytest

from repro.core.library import build_query
from repro.core.query import Query
from repro.experiments.common import evaluation_thresholds
from repro.fabric import (
    FlowHashPartitioner,
    QueryPartitioner,
    ShardContext,
    ShardedDeployment,
    owned_sub_qids,
)
from repro.network.routing import Router
from repro.network.topology import fat_tree
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.generators import caida_like


def trace(seed, n=2000):
    return caida_like(n, duration_s=0.2, seed=seed)


def columnar(t):
    return ColumnarTrace.from_packets(list(t))


class TestFlowHashPartitioner:
    @pytest.mark.parametrize("seed", [0, 1, 0xF1F0, (1 << 64) - 1])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_deterministic_per_seed(self, seed, shards):
        """Two independently built partitioners with the same seed agree
        on every packet; a different seed produces a different map."""
        a = FlowHashPartitioner(seed, shards)
        b = FlowHashPartitioner(seed, shards)
        packets = list(trace(5))
        assignments = [a.shard_of_packet(p) for p in packets]
        assert assignments == [b.shard_of_packet(p) for p in packets]
        assert all(0 <= s < shards for s in assignments)
        if shards > 1:
            other = FlowHashPartitioner(seed + 1, shards)
            assert assignments != [
                other.shard_of_packet(p) for p in packets
            ]

    @pytest.mark.parametrize("seed", range(10))
    def test_every_packet_exactly_one_shard(self, seed):
        """Summing the shard-ownership masks over all shard contexts
        gives exactly one owner per packet — scalar and columnar."""
        shards = 4
        part = FlowHashPartitioner(0xF1F0 + seed, shards)
        contexts = [ShardContext(part, i) for i in range(shards)]
        t = trace(seed)
        batch = columnar(t)
        owners = np.zeros(len(batch), dtype=np.int64)
        for ctx in contexts:
            owners += ctx.owned_mask(batch).astype(np.int64)
        assert (owners == 1).all()
        for packet in list(t)[:200]:
            assert sum(ctx.owns_packet(packet) for ctx in contexts) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_columnar_bit_identical(self, seed):
        """``shard_of_packet`` (python ints) and ``shard_column`` (uint64
        numpy) are the same function row by row."""
        part = FlowHashPartitioner(0xABCD + seed, 5)
        t = trace(seed + 100)
        batch = columnar(t)
        vec = part.shard_column(batch.columns)
        scalar = [part.shard_of_packet(p) for p in t]
        assert vec.tolist() == scalar

    def test_flow_affinity(self):
        """All packets of one 5-tuple land on the same shard."""
        part = FlowHashPartitioner(7, 3)
        t = trace(11)
        by_flow = {}
        for p in t:
            key = (p.sip, p.dip, p.proto, p.sport, p.dport)
            by_flow.setdefault(key, set()).add(part.shard_of_packet(p))
        assert all(len(shards) == 1 for shards in by_flow.values())

    def test_spread_is_nontrivial(self):
        part = FlowHashPartitioner(0xF1F0, 4)
        batch = columnar(trace(3, n=4000))
        counts = np.bincount(part.shard_column(batch.columns), minlength=4)
        assert (counts > 0).all()

    def test_independent_of_the_ecmp_choice(self):
        """Path choice and shard primacy share one flow hash but not a
        seed: at the defaults every (path, shard) cell is populated, and
        about evenly — no shard sees only one spine's traffic."""
        router = Router(fat_tree(4))
        flow_seed = inspect.signature(
            ShardedDeployment.__init__).parameters["flow_seed"].default
        assert flow_seed != router.seed
        part = FlowHashPartitioner(flow_seed, 4)
        rng = np.random.default_rng(3)
        n = 20_000
        columns = {
            "sip": rng.integers(0, 1 << 32, n),
            "dip": rng.integers(0, 1 << 32, n),
            "proto": rng.choice([6, 17], n),
            "sport": rng.integers(0, 1 << 16, n),
            "dport": rng.integers(0, 1 << 16, n),
        }
        cells = np.zeros((4, 4), dtype=np.int64)
        np.add.at(cells, (router.path_choices(columns, np.arange(n), 4),
                          part.shard_column(columns)), 1)
        assert (abs(cells - n / 16) <= 0.15 * n / 16).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowHashPartitioner(1, 0)
        part = FlowHashPartitioner(1, 2)
        with pytest.raises(ValueError):
            ShardContext(part, 2)
        with pytest.raises(ValueError):
            ShardContext(part, -1)


class TestQueryPartitioner:
    def queries(self, names):
        th = evaluation_thresholds()
        return [build_query(name, th) for name in names]

    def test_deterministic_per_seed_and_order(self):
        names = ["Q1", "Q2", "Q3", "Q4", "Q5"]
        a = QueryPartitioner(4, seed=0xA55)
        b = QueryPartitioner(4, seed=0xA55)
        owners_a = [a.assign(q) for q in self.queries(names)]
        owners_b = [b.assign(q) for q in self.queries(names)]
        assert owners_a == owners_b

    def test_eight_singletons_on_four_shards_balance(self):
        """Eight single-chain queries on four shards land 2/2/2/2."""
        part = QueryPartitioner(4)
        th = evaluation_thresholds()
        for name in ["Q1", "Q2", "Q3", "Q4", "Q5"]:
            q = build_query(name, th)
            if len(owned_sub_qids(q)) == 1:
                part.assign(q)
        # Pad with synthetic single-chain queries up to eight.
        i = 0
        while sum(part.loads()) < 8:
            pad = Query(f"pad{i}", "pad").map("dip").reduce("dip")\
                .where(ge=1)
            part.assign(pad)
            i += 1
        assert sorted(part.loads()) == [2, 2, 2, 2]

    def test_composite_weight_and_release(self):
        part = QueryPartitioner(2)
        th = evaluation_thresholds()
        q6 = build_query("Q6", th)
        weight = len(owned_sub_qids(q6))
        assert weight > 1  # composite: multiple data-plane chains
        owner = part.assign(q6)
        assert part.owner_of(q6.qid) == owner
        assert part.loads()[owner] == weight
        assert part.release(q6.qid) == owner
        assert part.loads() == (0, 0)

    def test_double_assign_rejected(self):
        part = QueryPartitioner(2)
        q = build_query("Q1", evaluation_thresholds())
        part.assign(q)
        with pytest.raises(ValueError):
            part.assign(q)
