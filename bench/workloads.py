"""The four benchmark workloads: deployment, query set, traffic, updates.

Every workload runs ``engine="vector"`` on 12-stage switches with 100 ms
windows; what differs is which layers the traffic and the query set push
the time into (see README.md for the measurements behind each choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compiler import QueryParams, compile_query
from repro.core.library import QueryThresholds, all_queries, build_query
from repro.core.packet import Proto, TcpFlags
from repro.core.query import Query, QueryLike
from repro.network.deployment import Deployment, build_deployment
from repro.network.topology import Topology, fat_tree, linear
from repro.traffic.columnar import ColumnarTrace

from bench import traces

__all__ = ["WORKLOADS", "Workload", "CYCLE_WINDOWS", "WARMUP_WINDOWS"]

#: Windows in one replay cycle (one pass) and untimed windows before the
#: first pass.
CYCLE_WINDOWS = 30
WARMUP_WINDOWS = 10
WINDOW_MS = 100

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
DEPLOY = dict(num_stages=12, table_capacity=512, array_size=1 << 16,
              window_ms=WINDOW_MS)

LINEAR_PATH = ("s0", "s1", "s2")
LINEAR_PAIRS = (("h_src0", "h_dst0"),)
#: Cross-pod host pairs of ``fat_tree(4)``: every flow crosses the core
#: over one of four equal-cost paths, so ECMP is exercised.
FAT_TREE_PAIRS = (("hp0e0n0", "hp2e0n0"), ("hp1e0n0", "hp3e0n0"),
                  ("hp0e1n0", "hp3e1n0"), ("hp2e1n0", "hp1e1n0"))

#: Thresholds scaled to windows of a few thousand packets (the library
#: defaults assume 25k): low enough that the hot servers of every trace
#: cross them and reports flow through emit, collector and analyzer.
THRESHOLDS = QueryThresholds(
    new_tcp_conns=4, ssh_brute=2, superspreader=4, port_scan=3, udp_ddos=3,
    syn_flood=1, syn_flood_sub=3, completed_conns=3, slowloris_conns=4,
    slowloris_bytes=4000, slowloris_ratio=1200, dns_tcp=2, dns_sub=2,
    dns_tcp_conns=3,
)


def eval9() -> List[QueryLike]:
    """The paper's nine evaluation queries (Table 2)."""
    return list(all_queries(THRESHOLDS).values())


def aux8() -> List[Query]:
    """Eight auxiliary aggregations run beside the nine: volume sums,
    fan-out / fan-in cardinalities and flow counts over the same key
    columns (the fleet one monitoring tenant would realistically run)."""
    return [
        Query("A1.flowpairs").map("sip", "dip")
            .reduce("sip", "dip").where(ge=20),
        _dstbytes(20_000),
        Query("A3.dnsamp").filter(proto=Proto.UDP, sport=53)
            .map("dip").reduce("dip", func="sum").where(ge=2_000),
        Query("A4.victimfan").filter(proto=Proto.TCP)
            .map("dip", "sport").distinct("dip", "sport")
            .map("dip").reduce("dip").where(ge=6),
        Query("A5.flows").map("sip", "dip", "sport", "dport")
            .distinct("sip", "dip", "sport", "dport")
            .map("sip").reduce("sip").where(ge=4),
        Query("A6.syntargets").filter(proto=Proto.TCP,
                                      tcp_flags=TcpFlags.SYN)
            .map("dip", "dport").reduce("dip", "dport").where(ge=3),
        Query("A7.srcbytes").map("sip")
            .reduce("sip", func="sum").where(ge=20_000),
        Query("A8.udpfan").filter(proto=Proto.UDP)
            .map("dport", "sip").distinct("dport", "sip")
            .map("dport").reduce("dport").where(ge=6),
    ]


def _dstbytes(threshold: int) -> Query:
    return (Query("A2.dstbytes").map("dip")
            .reduce("dip", func="sum").where(ge=threshold))


def _q4(port_scan: int) -> QueryLike:
    return build_query("Q4", replace(THRESHOLDS, port_scan=port_scan))


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark."""

    name: str
    why: str
    topology: Callable[[], Topology]
    host_pairs: Tuple[Tuple[object, object], ...]
    queries: Callable[[], Sequence[QueryLike]]
    cycle: Callable[..., ColumnarTrace]
    #: Packets in every trace window.
    per_window: int
    #: The two definitions ``update_query`` alternates between, so each
    #: update changes rules; the first is what :meth:`install` installed.
    update_variants: Tuple[QueryLike, QueryLike]
    #: Windows of the cycle (0..29) before which one update runs; empty
    #: runs the updates after the traffic, on the idle deployment.
    update_before: Tuple[int, ...] = ()
    #: Install Q1 sliced over the whole path (cross-switch execution).
    slice_q1: bool = False
    #: Packets the scalar reference run may replay (it is ~40x slower).
    reference_packets: int = 6000
    #: Expected range of ``dataplane.hash_miss_per_kpkt`` in a traced
    #: pass.  The mice floor is over ten times the elephants ceiling, so
    #: a key rotation that stopped rotating (or a trace that lost its
    #: skew) fails the run instead of quietly measuring something else.
    miss_floor: float = 0.0
    miss_ceiling: float = math.inf

    @property
    def window_s(self) -> float:
        return WINDOW_MS / 1000.0

    def make_cycle(self, seed: int,
                   per_window: Optional[int] = None) -> ColumnarTrace:
        return self.cycle(seed, CYCLE_WINDOWS, per_window or self.per_window,
                          self.window_s, self.host_pairs)

    def build(self, engine: str = "vector") -> Deployment:
        return build_deployment(self.topology(), engine=engine, **DEPLOY)

    def where(self, deployment: Deployment) -> Dict[str, object]:
        """Placement arguments for ``install_query`` / ``update_query``."""
        if len(self.host_pairs) == 1:
            return {"path": list(LINEAR_PATH)}
        return {"topology": deployment.topology}

    def install_query(self, deployment: Deployment,
                      query: QueryLike) -> None:
        """Install one query of the set where the workload places it."""
        extra = {}
        if self.slice_q1 and query.qid == "Q1":
            # As tests/properties/test_engine_equivalence.py slices it:
            # a third of Q1's stages on each switch of the path.
            stages = compile_query(query, PARAMS).num_stages
            extra["stages_per_switch"] = -(-stages // 3)
        deployment.controller.install_query(
            query, PARAMS, **self.where(deployment), **extra
        )

    def install(self, deployment: Deployment) -> None:
        """Install the whole query set."""
        for query in self.queries():
            self.install_query(deployment, query)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="eval9-linear-mice",
        why=("1-7 packet flows, nearly every packet a new key: hash misses "
             "and state-bank scatters dominate"),
        topology=lambda: linear(3), host_pairs=LINEAR_PAIRS,
        queries=eval9, cycle=traces.mice_cycle, per_window=1500,
        update_variants=(_q4(THRESHOLDS.port_scan), _q4(5)),
        miss_floor=1000.0,
    ),
    Workload(
        name="eval9-linear-elephants",
        why=("web-search flow sizes over 400 long flows: keys repeat, the "
             "hash memo always hits, numpy and Python around each op "
             "dominate"),
        topology=lambda: linear(3), host_pairs=LINEAR_PAIRS,
        queries=eval9, cycle=traces.elephants_cycle, per_window=12500,
        update_variants=(_q4(THRESHOLDS.port_scan), _q4(5)),
        miss_ceiling=100.0,
    ),
    Workload(
        name="fleet17-fattree-churn",
        why=("17 queries on fat_tree(4) with ECMP and an update_query "
             "before two of every five windows: routing, 17-way dispatch, "
             "20 switches of reset, recompiles beside traffic"),
        topology=lambda: fat_tree(4), host_pairs=FAT_TREE_PAIRS,
        queries=lambda: eval9() + aux8(), cycle=traces.caida_cycle,
        per_window=500,
        update_variants=(_dstbytes(20_000), _dstbytes(30_000)),
        # Two windows in five follow an update, not one in two: with half
        # the windows in each mode the median would sit on the edge
        # between them.  12 updates a pass, 120 in ten passes.
        update_before=tuple(w for w in range(CYCLE_WINDOWS)
                            if w % 5 in (0, 2)),
        reference_packets=3000,
    ),
    Workload(
        name="eval9-linear-cqe",
        why=("Q1 sliced across three switches makes every packet of every "
             "query leave the batch kernels for the scalar path"),
        topology=lambda: linear(3), host_pairs=LINEAR_PAIRS,
        queries=eval9, cycle=traces.caida_cycle, per_window=260,
        update_variants=(_q4(THRESHOLDS.port_scan), _q4(5)),
        slice_q1=True, reference_packets=4000,
    ),
)}
