"""Packet-throughput comparison of the execution engines.

Runs the same monitored workload — a CAIDA-like backbone mix over a
linear topology with Q1 (new TCP connections) and Q4 (port scan)
installed — once per engine, on a fresh deployment each time, and checks
that every engine produced bit-identical simulation statistics and
report streams while measuring packets per second.

The scalar engine consumes the trace as :class:`Packet` objects
(materialised lazily from the columns, since per-packet objects *are*
that engine's input representation); the vectorized engine consumes the
columnar trace directly.  Shared by ``benchmarks/bench_throughput.py``
and the ``newton-repro throughput`` subcommand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.experiments.common import evaluation_thresholds
from repro.fabric.merge import ReportSig, canonical_reports, record_reports
from repro.network.deployment import Deployment, build_deployment
from repro.network.topology import linear
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.generators import caida_like_columnar, port_scan, syn_flood

__all__ = ["EngineRun", "ThroughputResult", "measure_throughput"]


@dataclass
class EngineRun:
    """Timing of one engine over the workload."""

    engine: str
    packets: int
    seconds: float
    reports: int
    delivered: int

    @property
    def pps(self) -> float:
        if self.seconds <= 0:  # pragma: no cover - sub-tick clock
            return float("inf")
        return self.packets / self.seconds


@dataclass
class ThroughputResult:
    """All engine runs plus the cross-engine comparison."""

    runs: List[EngineRun]
    #: Best non-scalar packets/sec over the scalar baseline (1.0 when the
    #: comparison is not applicable, e.g. a single-engine run).
    speedup: float
    #: Every engine produced identical stats and report streams.
    identical: bool

    def run_for(self, engine: str) -> EngineRun:
        for run in self.runs:
            if run.engine == engine:
                return run
        raise KeyError(engine)


def _install(deployment: Deployment, queries: Sequence[str],
             switches: int) -> None:
    path = [f"s{i}" for i in range(switches)]
    params = QueryParams(cm_depth=2, reduce_registers=2048)
    thresholds = evaluation_thresholds()
    for name in queries:
        deployment.controller.install_query(
            build_query(name, thresholds), params, path=path
        )


def _signature(stats, reports: List[ReportSig]) -> Tuple:
    return (
        stats.packets, stats.delivered, stats.dropped,
        dict(stats.reports_by_switch), stats.deferred, stats.stale_deferred,
        stats.sp_bytes, stats.payload_bytes, stats.epochs,
        stats.mixed_rule_epoch_packets, dict(stats.initiated_by_query),
        reports,
    )


def _workload(n_packets: int, duration_s: float,
              seed: int) -> ColumnarTrace:
    """Benign backbone mix plus the anomalies Q1 and Q4 detect.

    Without the injected SYN flood and port scan the queries never cross
    their thresholds and the bit-identical-reports check would be
    vacuous.  Merged columnar (stable timestamp sort), one host pair.
    """
    base = caida_like_columnar(n_packets, duration_s=duration_s, seed=seed)
    attacks = ColumnarTrace.from_packets(
        syn_flood(n_packets=max(n_packets // 200, 500),
                  duration_s=duration_s, seed=seed + 1).packets
        + port_scan(n_ports=400, duration_s=duration_s,
                    seed=seed + 2).packets,
        name="attacks",
    )
    ts = np.concatenate([base.ts, attacks.ts])
    order = np.argsort(ts, kind="stable")
    columns = {
        name: np.concatenate([base.columns[name],
                              attacks.columns[name]])[order]
        for name in base.columns
    }
    merged = ColumnarTrace(columns, ts[order], name="caida+attacks")
    return merged.with_hosts("h_src0", "h_dst0")


def measure_throughput(
    n_packets: int = 1_000_000,
    switches: int = 3,
    seed: int = 11,
    duration_s: float = 1.0,
    engines: Sequence[str] = ("scalar", "vector"),
    queries: Sequence[str] = ("Q1", "Q4"),
    workers: int = 1,
) -> ThroughputResult:
    """Time each engine over one seeded workload; verify they agree.

    The trace is synthesised once (columns) and shared; each engine gets
    a fresh deployment so register state never leaks between runs.

    ``workers > 1`` adds a sharded-fabric run (labelled ``fabric:Nw``)
    over the same workload: the vectorized engine split across N worker
    processes, timed by its parallel critical path (max per-worker busy
    CPU seconds — the quantity sharding divides), with the merged stats
    and canonically ordered reports checked against the single-process
    engines.
    """
    trace = _workload(n_packets, duration_s, seed)

    runs: List[EngineRun] = []
    signatures: Dict[str, Tuple] = {}
    canonical_sigs: Dict[str, Tuple] = {}
    for engine in engines:
        deployment = build_deployment(
            linear(switches), array_size=1 << 13, engine=engine
        )
        _install(deployment, queries, switches)
        recorded = record_reports(deployment.switches)
        source = trace if engine != "scalar" else trace.iter_packets()
        start = time.perf_counter()
        stats = deployment.simulator.run(source)
        elapsed = time.perf_counter() - start
        runs.append(EngineRun(
            engine=engine, packets=stats.packets, seconds=elapsed,
            reports=stats.reports_total, delivered=stats.delivered,
        ))
        signatures[engine] = _signature(stats, recorded)
        canonical_sigs[engine] = _canonical_signature(stats, recorded)

    # Raw emission order must agree between the single-process engines;
    # the fabric's only ordering freedom is between different queries'
    # reports, so it is compared in the canonical order (see
    # repro.fabric.merge.canonical_reports).
    reference = next(iter(signatures.values()))
    identical = all(sig == reference for sig in signatures.values())
    if workers > 1:
        run, canonical = _measure_fabric(trace, switches, queries, workers)
        runs.append(run)
        canonical_reference = next(iter(canonical_sigs.values()), None)
        if canonical_reference is not None:
            identical = identical and canonical == canonical_reference
    speedup = 1.0
    if "scalar" in signatures and len(runs) > 1:
        baseline = next(r for r in runs if r.engine == "scalar").pps
        speedup = max(
            r.pps for r in runs if r.engine != "scalar"
        ) / baseline
    return ThroughputResult(runs=runs, speedup=speedup, identical=identical)


def _canonical_signature(stats, reports: Sequence[ReportSig]) -> Tuple:
    return _signature(stats, list(canonical_reports([reports])))


def _measure_fabric(trace: ColumnarTrace, switches: int,
                    queries: Sequence[str],
                    workers: int) -> Tuple[EngineRun, Tuple]:
    """One sharded-fabric run; returns its timing + canonical signature."""
    from repro.fabric import ShardedDeployment

    path = [f"s{i}" for i in range(switches)]
    params = QueryParams(cm_depth=2, reduce_registers=2048)
    thresholds = evaluation_thresholds()
    with ShardedDeployment(
        linear(switches), workers=workers, array_size=1 << 13,
        engine="vector",
    ) as sharded:
        for name in queries:
            sharded.install_query(
                build_query(name, thresholds), params, path=path
            )
        stats = sharded.run(trace)
        run = EngineRun(
            engine=f"fabric:{workers}w", packets=stats.packets,
            seconds=sharded.critical_path_s,
            reports=stats.reports_total, delivered=stats.delivered,
        )
        return run, _signature(stats, list(sharded.reports))
