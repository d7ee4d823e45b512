"""Ablations of Newton's design choices.

These go beyond the paper's figures: each isolates one design decision and
measures what it buys.

* **Layout** — compact vs naive module layout: how many of the nine
  evaluation queries fit a 12-stage pipeline, and how much register memory
  a query can reach.
* **Placement** — the price of resilience: Algorithm 2's all-paths
  redundancy vs an oracle that knows the current forwarding paths; plus
  DFS vs the layered engine on cost and runtime.
* **Sketch shape** — a fixed register budget split into depth x width:
  why pooling switches as *extra rows* (CQE) is the right axis.
* **Admission** — concurrent-query capacity with and without graceful
  sketch degradation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.admission import AdmissionPlanner
from repro.core.compiler import (
    Optimizations,
    QueryParams,
    compile_query,
    slice_compiled,
)
from repro.core.groundtruth import evaluate_trace
from repro.core.library import QueryThresholds, build_query
from repro.core.placement import place_slices
from repro.core.query import Query
from repro.experiments.common import (
    evaluation_queries,
    format_table,
    query_footprint,
)
from repro.network.deployment import build_deployment
from repro.network.routing import Router
from repro.network.topology import Topology, fat_tree, linear
from repro.traffic.generators import assign_hosts, syn_flood, syn_scan_noise
from repro.traffic.traces import Trace, merge_traces

__all__ = [
    "LayoutAblation",
    "ablate_layout",
    "PlacementAblation",
    "ablate_placement",
    "SketchShapePoint",
    "ablate_sketch_shape",
    "AdmissionAblation",
    "ablate_admission",
    "FragmentationAblation",
    "ablate_state_fragmentation",
    "render_ablations",
]

# --------------------------------------------------------------------------- #
# Layout                                                                       #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LayoutAblation:
    pipeline_stages: int
    compact_fit: Tuple[str, ...]
    naive_fit: Tuple[str, ...]
    compact_state_banks: int
    naive_state_banks: int


def ablate_layout(pipeline_stages: int = 12,
                  params: QueryParams = QueryParams()) -> LayoutAblation:
    """Which queries fit the pipeline under each layout?

    Naive = one module per stage (stages consumed = modules); compact =
    the optimised composition.  Register reach: the naive layout cycles
    K,H,S,R so only a quarter of the stages host a state bank.
    """
    compact_fit: List[str] = []
    naive_fit: List[str] = []
    for name, query in sorted(evaluation_queries().items()):
        _, compact_stages = query_footprint(query, params,
                                            Optimizations.all())
        naive_modules, _ = query_footprint(query, params,
                                           Optimizations.none())
        if compact_stages <= pipeline_stages:
            compact_fit.append(name)
        if naive_modules <= pipeline_stages:
            naive_fit.append(name)
    return LayoutAblation(
        pipeline_stages=pipeline_stages,
        compact_fit=tuple(compact_fit),
        naive_fit=tuple(naive_fit),
        compact_state_banks=pipeline_stages,
        naive_state_banks=pipeline_stages // 4,
    )


# --------------------------------------------------------------------------- #
# Placement                                                                    #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlacementAblation:
    topology: str
    num_slices: int
    resilient_entries: int
    oracle_entries: int
    layered_entries: int
    dfs_seconds: float
    layered_seconds: float

    @property
    def resilience_overhead(self) -> float:
        """Resilient / oracle entry ratio — the price of surviving any
        path change without controller involvement."""
        if self.oracle_entries == 0:
            return float("inf")
        return self.resilient_entries / self.oracle_entries


def _oracle_entries(topology: Topology, edges, num_slices: int,
                    rules: List[int]) -> int:
    """A clairvoyant placement: install slice d only on the d-th hop of
    the *current* shortest path from each edge to each destination edge.

    This is what a path-aware controller would install — minimal, but any
    reroute silently breaks monitoring until rules are moved.
    """
    router = Router(topology)
    placement: Dict[object, set] = {}
    targets = topology.edge_switches
    for root in edges:
        for target in targets:
            if target == root:
                continue
            path = router.switch_paths(root, target)[0]
            for depth, switch in enumerate(path[:num_slices]):
                placement.setdefault(switch, set()).add(depth)
    return sum(
        rules[d] for slices in placement.values() for d in slices
    )


def ablate_placement(arity: int = 8,
                     stages_per_switch: int = 2) -> PlacementAblation:
    topology = fat_tree(arity)
    compiled = compile_query(
        build_query("Q4", QueryThresholds()), QueryParams(),
        Optimizations.all(),
    )
    slices = slice_compiled(compiled, stages_per_switch)
    rules = [s.rule_count for s in slices]
    edges = topology.edge_switches
    adjacency = topology.neighbor_map()

    t0 = time.perf_counter()
    dfs = place_slices(adjacency, edges, len(slices), method="dfs")
    dfs_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    layered = place_slices(adjacency, edges, len(slices), method="layered")
    layered_seconds = time.perf_counter() - t0

    return PlacementAblation(
        topology=topology.name,
        num_slices=len(slices),
        resilient_entries=dfs.total_entries(rules),
        oracle_entries=_oracle_entries(topology, edges, len(slices), rules),
        layered_entries=layered.total_entries(rules),
        dfs_seconds=dfs_seconds,
        layered_seconds=layered_seconds,
    )


# --------------------------------------------------------------------------- #
# Sketch shape                                                                 #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SketchShapePoint:
    depth: int
    width: int
    recall: float
    fpr: float


def _pressure_trace(n_packets: int, duration_s: float, seed: int,
                    threshold: int, n_victims: int) -> Trace:
    pieces = [
        syn_scan_noise(n_packets=n_packets, n_destinations=6000,
                       duration_s=duration_s, seed=seed),
    ]
    for v in range(n_victims):
        pieces.append(
            syn_flood(victim_index=v + 1,
                      n_packets=int(threshold * 1.4 * duration_s * 10),
                      duration_s=duration_s, seed=seed + 5 + v)
        )
    return merge_traces(pieces)


def ablate_sketch_shape(
    total_registers: int = 512,
    depths: Tuple[int, ...] = (1, 2, 3, 6),
    threshold: int = 30,
    n_packets: int = 8000,
    duration_s: float = 0.2,
    seed: int = 77,
) -> List[SketchShapePoint]:
    """Split a fixed register budget into depth x width and measure Q1.

    Counter-intuitively, *width* dominates under a fixed total budget with
    crossing-based reporting: narrowing rows inflates every estimate, so
    deep-narrow shapes both miss crossings (recall loss) and stumble onto
    them spuriously (FPR).  This is precisely why cross-switch execution
    is the right memory axis — it adds rows *without* narrowing any
    (Figure 14 holds per-row width constant while depth grows).
    """
    trace = _pressure_trace(n_packets, duration_s, seed, threshold,
                            n_victims=4)
    query = build_query("Q1", QueryThresholds(new_tcp_conns=threshold))
    truth = evaluate_trace(query, trace.packets)
    points = []
    for depth in depths:
        width = total_registers // depth
        params = QueryParams(cm_depth=depth, reduce_registers=width,
                             distinct_registers=width)
        deployment = build_deployment(linear(1), array_size=width)
        deployment.controller.install_query(query, params, path=["s0"])
        deployment.simulator.run(
            assign_hosts(trace, [("h_src0", "h_dst0")])
        )
        from repro.experiments.metrics import score_detections

        results = deployment.analyzer.results("Q1")
        quality = score_detections(
            {epoch: window["Q1"] for epoch, window in truth.items()},
            {epoch: set(bucket) for epoch, bucket in results.items()},
        )
        points.append(
            SketchShapePoint(
                depth=depth,
                width=width,
                recall=quality.recall,
                fpr=quality.fpr,
            )
        )
    return points


# --------------------------------------------------------------------------- #
# Admission                                                                    #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AdmissionAblation:
    array_size: int
    strict_admitted: int
    degraded_admitted: int
    degraded_queries: int


def ablate_admission(array_sizes: Tuple[int, ...] = (640, 1152, 2304, 4608),
                     n_queries: int = 16) -> List[AdmissionAblation]:
    """Concurrent-query capacity with and without sketch degradation."""
    params = QueryParams(cm_depth=2, bf_hashes=2,
                         reduce_registers=256, distinct_registers=256)
    out = []
    for array_size in array_sizes:
        requests = []
        for i in range(n_queries):
            requests.append((
                Query(f"adm{i}")
                .filter(proto=6, tcp_flags=2)
                .map("dip")
                .reduce("dip")
                .where(ge=10),
                params,
            ))
        deployment = build_deployment(linear(1), array_size=array_size)
        planner = AdmissionPlanner(deployment.switch("s0"),
                                   min_registers=32)
        strict = planner.plan(requests, degrade=False)
        degraded = planner.plan(requests, degrade=True)
        out.append(
            AdmissionAblation(
                array_size=array_size,
                strict_admitted=len(strict.admitted),
                degraded_admitted=len(degraded.admitted),
                degraded_queries=len(degraded.degraded),
            )
        )
    return out


# --------------------------------------------------------------------------- #
# State fragmentation under rerouting (paper §7's stated limitation)           #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FragmentationAblation:
    threshold: int
    true_count: int
    reported_stable: bool
    reported_after_flip: bool
    readout_after_flip: Optional[int]


def _diamond() -> Topology:
    """Two-path diamond: ingress, two parallel middles, egress."""
    return Topology(
        ["in", "mid0", "mid1", "out"],
        [("in", "mid0"), ("in", "mid1"), ("mid0", "out"), ("mid1", "out")],
        {"h_in": "in", "h_out": "out"}, name="diamond",
    )


def ablate_state_fragmentation(threshold: int = 20,
                               n_syns: int = 30) -> FragmentationAblation:
    """Quantify §7: a mid-window reroute splits a query slice's registers
    across switches, so crossing-based reports can silently miss — while
    the control-plane register readout, which sums a row's cells across
    hosting switches, still recovers the exact count.
    """
    def run(flip: bool):
        topology = _diamond()
        # A 3-stage budget over the 3-hop diamond forces the Count-Min
        # rows into the *middle* slice, where the two parallel paths hold
        # disjoint register state.
        deployment = build_deployment(topology, num_stages=3,
                                      array_size=2048, ecmp=False)
        query = (
            Query("frag.q1")
            .filter(proto=6, tcp_flags=2)
            .map("dip")
            .reduce("dip")
            .where(ge=threshold)
        )
        params = QueryParams(cm_depth=3, reduce_registers=512,
                             distinct_registers=512)
        deployment.controller.install_query(
            query, params, topology=topology, edge_switches=["in"],
            stages_per_switch=3,
        )
        from repro.core.packet import Packet

        packets = [
            Packet(sip=i + 1, dip=42, proto=6, tcp_flags=2, ts=i * 1e-3,
                   src_host="h_in", dst_host="h_out")
            for i in range(n_syns)
        ]
        half = n_syns // 2
        deployment.simulator.run(packets[:half])
        if flip:
            current = deployment.router.path_for(packets[0])
            deployment.router.fail_link(current[0], current[1])
        deployment.simulator.run(packets[half:])
        reported = bool(deployment.analyzer.results("frag.q1"))
        readout = deployment.controller.estimate_count(
            "frag.q1", {"dip": 42}
        )
        return reported, readout

    reported_stable, _ = run(flip=False)
    reported_after_flip, readout = run(flip=True)
    return FragmentationAblation(
        threshold=threshold,
        true_count=n_syns,
        reported_stable=reported_stable,
        reported_after_flip=reported_after_flip,
        readout_after_flip=readout,
    )


def render_ablations(layout: LayoutAblation, placement: PlacementAblation,
                     shape: List[SketchShapePoint],
                     admission: List[AdmissionAblation]) -> str:
    return "\n".join([
        "Layout ablation:",
        f"  compact fits {len(layout.compact_fit)}/9 queries in "
        f"{layout.pipeline_stages} stages; naive fits "
        f"{len(layout.naive_fit)}/9",
        "",
        "Placement ablation:",
        f"  oracle {placement.oracle_entries} entries vs resilient "
        f"{placement.resilient_entries} "
        f"({placement.resilience_overhead:.2f}x)",
        "",
        "Sketch-shape ablation (fixed budget):",
        format_table(
            ["depth", "width", "recall", "FPR"],
            [[p.depth, p.width, f"{p.recall:.3f}", f"{p.fpr:.4f}"]
             for p in shape],
        ),
        "",
        "Admission ablation:",
        format_table(
            ["array", "strict", "degraded"],
            [[a.array_size, a.strict_admitted, a.degraded_admitted]
             for a in admission],
        ),
    ])
