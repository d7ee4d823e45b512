"""Shared helpers for the per-figure experiment harnesses."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.library import all_queries, evaluation_thresholds
from repro.core.query import CompositeQuery, QueryLike, flatten
from repro.traffic.generators import (
    caida_like,
    dns_orphan_responses,
    mawi_like,
    port_scan,
    slowloris,
    ssh_brute_force,
    superspreader,
    syn_flood,
    udp_flood,
)
from repro.traffic.traces import Trace, merge_traces

__all__ = [
    "query_footprint",
    "evaluation_thresholds",
    "evaluation_queries",
    "workload",
    "format_table",
]


def query_footprint(
    query: QueryLike,
    params: QueryParams = QueryParams(),
    opts: Optimizations = Optimizations.all(),
    multiplex: Optional[bool] = None,
) -> Tuple[int, int]:
    """(modules, stages) one query occupies on a switch.

    Modules add across sub-queries (each consumes its own table rules).
    With multiplexing (a product of the optimised composition, paper §6.4)
    *disjoint* sub-queries share stages, so stages take the max; the naive
    composition — and overlapping sub-queries always — chain sequentially,
    so stages add.
    """
    if multiplex is None:
        multiplex = opts.opt3_vertical_composition
    modules = 0
    stages = []
    for sub in flatten(query):
        compiled = compile_query(sub, params, opts)
        modules += compiled.num_modules
        stages.append(compiled.num_stages)
    overlapping = isinstance(query, CompositeQuery) and query.overlapping_subs
    if overlapping or not multiplex:
        return modules, sum(stages)
    return modules, max(stages)


def evaluation_queries() -> Dict[str, QueryLike]:
    """The nine queries with evaluation-calibrated thresholds."""
    return all_queries(evaluation_thresholds())


def workload(kind: str = "caida", n_packets: int = 25_000,
             duration_s: float = 0.5, seed: int = 11) -> Trace:
    """Background trace with every attack the queries detect injected."""
    if kind == "caida":
        background = caida_like(n_packets, duration_s, seed=seed)
    elif kind == "mawi":
        background = mawi_like(n_packets, duration_s, seed=seed)
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    scale = duration_s / 1.0
    attacks = [
        syn_flood(n_packets=int(1200 * scale) + 60, duration_s=duration_s,
                  seed=seed + 1),
        port_scan(n_ports=int(400 * scale) + 40, duration_s=duration_s,
                  seed=seed + 2),
        udp_flood(n_packets=int(1200 * scale) + 60, duration_s=duration_s,
                  seed=seed + 3),
        ssh_brute_force(n_attempts=int(300 * scale) + 30,
                        duration_s=duration_s, seed=seed + 4),
        slowloris(n_connections=int(750 * scale) + 50,
                  packets_per_connection=6,
                  duration_s=duration_s, seed=seed + 5),
        superspreader(n_destinations=int(500 * scale) + 50,
                      duration_s=duration_s, seed=seed + 6),
        dns_orphan_responses(duration_s=duration_s, seed=seed + 7),
    ]
    return merge_traces([background] + attacks, name=f"{kind}-workload")


def format_table(headers, rows) -> str:
    """Monospace table used by the benchmark printers."""
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
