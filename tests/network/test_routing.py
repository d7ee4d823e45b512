"""Routing and failure tests."""

import random

import numpy as np
import pytest

from repro.core.packet import Packet
from repro.network.routing import Router, RoutingError
from repro.network.topology import fat_tree, leaf_spine, linear
from repro.traffic.columnar import ColumnarTrace


def pkt(src_host, dst_host, sport=1000):
    return Packet(sip=1, dip=2, proto=6, sport=sport, dport=80,
                  src_host=src_host, dst_host=dst_host)


class TestShortestPath:
    def test_chain_path(self):
        router = Router(linear(3))
        path = router.path_for(pkt("h_src0", "h_dst0"))
        assert path == ["s0", "s1", "s2"]

    def test_same_switch(self):
        topo = linear(1)
        router = Router(topo)
        assert router.path_for(pkt("h_src0", "h_dst0")) == ["s0"]

    def test_hop_count(self):
        router = Router(linear(4))
        assert router.hop_count("h_src0", "h_dst0") == 4

    def test_missing_host_info(self):
        router = Router(linear(2))
        with pytest.raises(RoutingError):
            router.path_for(Packet())


class TestEcmp:
    def test_path_is_flow_stable(self):
        topo = fat_tree(4)
        router = Router(topo)
        hosts = sorted(topo.hosts)
        a, b = hosts[0], hosts[-1]
        p1 = router.path_for(pkt(a, b, sport=1))
        p2 = router.path_for(pkt(a, b, sport=1))
        assert p1 == p2

    def test_different_flows_can_diverge(self):
        topo = fat_tree(4)
        router = Router(topo)
        hosts = sorted(topo.hosts)
        a, b = hosts[0], hosts[-1]
        paths = {tuple(router.path_for(pkt(a, b, sport=s)))
                 for s in range(64)}
        assert len(paths) > 1  # ECMP actually spreads

    def test_ecmp_disabled_is_deterministic(self):
        topo = fat_tree(4)
        router = Router(topo, ecmp=False)
        hosts = sorted(topo.hosts)
        a, b = hosts[0], hosts[-1]
        paths = {tuple(router.path_for(pkt(a, b, sport=s)))
                 for s in range(16)}
        assert len(paths) == 1


def random_flows(src_host, dst_host, n=4000, seed=11):
    """``n`` packets, each of its own random flow between two hosts."""
    rng = random.Random(seed)
    return [
        Packet(sip=rng.getrandbits(32), dip=rng.getrandbits(32),
               proto=rng.choice((6, 17)), sport=rng.getrandbits(16),
               dport=rng.getrandbits(16), src_host=src_host,
               dst_host=dst_host)
        for _ in range(n)
    ]


@pytest.mark.parametrize("topo, src_host, dst_host, fanout", [
    (fat_tree(4), "hp0e0n0", "hp3e1n0", 4),
    (leaf_spine(2, 2), "hlf0n0", "hlf1n0", 2),
], ids=["fat_tree4-cross-pod", "leaf_spine2x2"])
class TestEcmpSpread:
    def test_every_path_carries_its_share(self, topo, src_host, dst_host,
                                          fanout):
        router = Router(topo)
        taken = [tuple(router.path_for(p))
                 for p in random_flows(src_host, dst_host)]
        counts = {path: taken.count(path) for path in set(taken)}
        assert len(counts) == fanout
        mean = len(taken) / fanout
        assert all(abs(c - mean) <= 0.15 * mean for c in counts.values())

    def test_a_flow_keeps_its_path(self, topo, src_host, dst_host, fanout):
        """Nothing but the 5-tuple feeds the choice."""
        router = Router(topo)
        for packet in random_flows(src_host, dst_host, n=200):
            later = Packet(sip=packet.sip, dip=packet.dip,
                           proto=packet.proto, sport=packet.sport,
                           dport=packet.dport, tcp_flags=0x10, len=1400,
                           ts=9.5, src_host=src_host, dst_host=dst_host)
            assert router.path_for(later) == router.path_for(packet)

    def test_seed_permutes_the_choice(self, topo, src_host, dst_host,
                                      fanout):
        packets = random_flows(src_host, dst_host, n=400)
        default, reseeded = Router(topo), Router(topo, seed=1)
        moved = sum(default.path_for(p) != reseeded.path_for(p)
                    for p in packets)
        # Independent choices differ with probability 1 - 1/fanout.
        assert moved > 0.8 * (1 - 1 / fanout) * len(packets)

    def test_packet_and_column_forms_agree(self, topo, src_host, dst_host,
                                           fanout):
        """``path_for`` (scalar engine) and ``path_choices`` (vector
        engine) pick the same path for every row, on any row subset."""
        router = Router(topo, seed=5)
        packets = random_flows(src_host, dst_host)
        batch = ColumnarTrace.from_packets(packets)
        paths = router.switch_paths(topo.attachment(src_host),
                                    topo.attachment(dst_host))
        assert len(paths) == fanout
        for rows in (np.arange(len(packets)), np.arange(7, 4000, 3)):
            picked = router.path_choices(batch.columns, rows, fanout)
            assert [paths[i] for i in picked.tolist()] == [
                router.path_for(packets[r]) for r in rows.tolist()
            ]


class TestFailures:
    def test_reroute_on_failure(self):
        topo = fat_tree(4)
        router = Router(topo, ecmp=False)
        hosts = sorted(topo.hosts)
        a, b = hosts[0], hosts[-1]
        before = router.path_for(pkt(a, b))
        router.fail_link(before[0], before[1])
        after = router.path_for(pkt(a, b))
        assert after != before
        assert (before[0], before[1]) not in zip(after, after[1:])

    def test_restore_recovers_path(self):
        topo = fat_tree(4)
        router = Router(topo, ecmp=False)
        hosts = sorted(topo.hosts)
        a, b = hosts[0], hosts[-1]
        before = router.path_for(pkt(a, b))
        router.fail_link(before[0], before[1])
        router.restore_link(before[0], before[1])
        assert router.path_for(pkt(a, b)) == before

    def test_partition_raises(self):
        router = Router(linear(2))
        router.fail_link("s0", "s1")
        with pytest.raises(RoutingError):
            router.path_for(pkt("h_src0", "h_dst0"))

    def test_fail_unknown_link(self):
        with pytest.raises(RoutingError):
            Router(linear(2)).fail_link("s0", "s5")

    def test_failed_links_tracked(self):
        router = Router(linear(3))
        router.fail_link("s0", "s1")
        assert len(router.failed_links) == 1
