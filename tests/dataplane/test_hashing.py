"""Hash family and flow hash unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import Packet
from repro.dataplane.hashing import (
    FLOW_FIELDS,
    HashFamily,
    HashUnit,
    flow_hash,
    flow_hash_columns,
    hash_bytes,
)
from repro.fabric import FlowHashPartitioner


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes(b"abc", 1) == hash_bytes(b"abc", 1)

    def test_seed_changes_output(self):
        assert hash_bytes(b"abc", 1) != hash_bytes(b"abc", 2)

    def test_data_changes_output(self):
        assert hash_bytes(b"abc", 1) != hash_bytes(b"abd", 1)

    def test_64_bit_range(self):
        value = hash_bytes(b"anything", 12345)
        assert 0 <= value < (1 << 64)

    def test_empty_key_is_valid(self):
        assert isinstance(hash_bytes(b"", 0), int)


class TestHashUnit:
    def test_respects_range(self):
        unit = HashUnit(seed=7, range_size=100)
        for i in range(200):
            assert 0 <= unit(str(i).encode()) < 100

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            HashUnit(seed=1, range_size=0)

    def test_distribution_roughly_uniform(self):
        unit = HashUnit(seed=3, range_size=16)
        counts = [0] * 16
        for i in range(4096):
            counts[unit(i.to_bytes(4, "big"))] += 1
        # Expected 256 per bucket; allow generous slack.
        assert min(counts) > 150
        assert max(counts) < 400


class TestHashFamily:
    def test_units_differ_by_index(self):
        family = HashFamily(1)
        u0, u1 = family.unit(0, 1 << 20), family.unit(1, 1 << 20)
        collisions = sum(
            1 for i in range(500)
            if u0(i.to_bytes(4, "big")) == u1(i.to_bytes(4, "big"))
        )
        assert collisions < 5

    def test_same_seed_same_units(self):
        a, b = HashFamily(42), HashFamily(42)
        assert a.unit(3, 100) == b.unit(3, 100)
        assert a == b

    def test_different_base_seed(self):
        assert HashFamily(1) != HashFamily(2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().unit(-1, 10)

    def test_hashable(self):
        assert len({HashFamily(1), HashFamily(1), HashFamily(2)}) == 2


def field_values(bound):
    return st.one_of(st.sampled_from([0, 65535, (1 << 32) - 1]),
                     st.integers(0, bound))


five_tuples = st.tuples(field_values((1 << 32) - 1),
                        field_values((1 << 32) - 1), field_values(255),
                        field_values(65535), field_values(65535))


class TestFlowHash:
    def test_field_order_is_the_packet_five_tuple(self):
        packet = Packet(sip=1, dip=2, proto=6, sport=3, dport=4)
        assert packet.five_tuple == tuple(
            getattr(packet, name) for name in FLOW_FIELDS
        )

    @given(flows=st.lists(five_tuples, min_size=1, max_size=40),
           seed=st.one_of(st.sampled_from([0, 0xF1F0, (1 << 64) - 1]),
                          st.integers(0, (1 << 64) - 1)))
    @settings(max_examples=200, deadline=None)
    def test_python_int_and_column_forms_agree(self, flows, seed):
        """``flow_hash`` (python ints) and ``flow_hash_columns`` (wrapping
        ``uint64`` numpy) are one function, row by row and on any subset
        of rows."""
        columns = {
            name: np.array([flow[i] for flow in flows], dtype=np.int64)
            for i, name in enumerate(FLOW_FIELDS)
        }
        hashed = flow_hash_columns(columns, seed)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [flow_hash(flow, seed) for flow in flows]
        rows = np.arange(len(flows) - 1, -1, -2)
        assert (flow_hash_columns(columns, seed, rows) == hashed[rows]).all()

    def test_every_field_and_the_seed_matter(self):
        base = (0x0A000001, 0x0A000002, 6, 1234, 80)
        variants = {base} | {
            base[:i] + (base[i] + 1,) + base[i + 1:] for i in range(5)
        }
        assert len({flow_hash(flow, 0) for flow in variants}) == 6
        assert flow_hash(base, 0) != flow_hash(base, 1)
        swapped = (base[1], base[0]) + base[2:]
        assert flow_hash(base, 0) != flow_hash(swapped, 0)

    #: Shard (of 7) of each flow below per partitioner seed, recorded at
    #: the commit before the flow hash moved into ``dataplane/hashing``:
    #: shard primacy must never move, or a fleet restarted across the
    #: change would double-count packets.
    GOLDEN_FLOWS = [
        (0, 0, 0, 0, 0),
        ((1 << 32) - 1, (1 << 32) - 1, 255, 65535, 65535),
        (0x0A000001, 0x0A000002, 6, 1234, 80),
        (0x0A000002, 0x0A000001, 6, 80, 1234),
        (0xC0A80101, 0x08080808, 17, 53124, 53),
        (1, 2, 6, 3, 4),
        ((1 << 32) - 1, 0, 6, 0, 65535),
        (0xAC100A0B, 0xAC100A0C, 1, 0, 0),
    ]
    GOLDEN_SHARDS = {
        0: [1, 3, 2, 2, 0, 6, 3, 1],
        1: [5, 6, 5, 1, 4, 0, 1, 3],
        0xF1F0: [6, 0, 1, 1, 1, 1, 3, 2],
        (1 << 64) - 1: [3, 4, 0, 1, 3, 6, 0, 5],
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN_SHARDS))
    def test_shard_primacy_has_not_moved(self, seed):
        part = FlowHashPartitioner(seed, 7)
        packets = [
            Packet(sip=sip, dip=dip, proto=proto, sport=sport, dport=dport)
            for sip, dip, proto, sport, dport in self.GOLDEN_FLOWS
        ]
        expected = self.GOLDEN_SHARDS[seed]
        assert [part.shard_of_packet(p) for p in packets] == expected
        columns = {
            name: np.array([getattr(p, name) for p in packets])
            for name in FLOW_FIELDS
        }
        assert part.shard_column(columns).tolist() == expected
