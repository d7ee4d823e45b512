"""The measurement loop: window steps, updates, output check, layer table.

A closed loop with one client: this process replays a pre-generated trace
one 100 ms trace window at a time, as fast as the program accepts it, and
issues ``update_query`` calls between windows.  No threads, no sockets.

One *window step* is what a live monitor does every 100 ms — fetch the
window's packets, run them, close the window, read every installed
query's answer for the closed epoch, prune old state — so a step that
takes longer than 100 ms means the monitor cannot keep up with real time.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import flatten
from repro.network.deployment import Deployment
from repro.network.simulator import SimulationStats
from repro.traffic.columnar import ColumnarTrace

from bench import tracing
from bench.speed import Speedometer
from bench.traces import RotatingReplaySource, window_rows
from bench.workloads import (
    CYCLE_WINDOWS,
    PARAMS,
    WARMUP_WINDOWS,
    Workload,
)

__all__ = ["measure", "trace_layers", "check_outputs", "window_step",
           "passes_for", "Result"]

#: Closed windows whose answers stay readable before they are pruned
#: (``ServiceConfig.prune_lateness``'s default).
PRUNE_LATENESS = 4
#: ``update_query`` calls per pass: on the workloads that do not interleave
#: them with traffic they run on the idle deployment after the pass's last
#: window (every workload that does interleave them has as many).
UPDATES_PER_PASS = 12
#: remove + install rounds at the end of a traced run, for
#: ``core.remove_ms``.
TRACED_REINSTALLS = 5

Answers = Dict[str, Tuple[Dict[str, Dict], List]]


def passes_for(seconds: float) -> int:
    """Timed passes of one run: a fixed amount of work, not a deadline.

    The mice workload gets slower pass over pass as the hash memo grows,
    so a run that stopped on the clock would measure a different mix of
    passes on a faster machine or after a faster change.  A pass is sized
    at roughly 2 s; never fewer than 8 (240 timed windows).
    """
    return max(8, round(seconds / 2))


# --------------------------------------------------------------------- #
# One window, one update                                                 #
# --------------------------------------------------------------------- #


def read_answers(deployment: Deployment, closed: int) -> Answers:
    """Every installed query's results and detections for one epoch."""
    collector = deployment.collector
    analyzer = deployment.analyzer
    answers: Answers = {}
    for qid, record in deployment.controller.installed.items():
        results = {}
        for sub in flatten(record.query):
            window = collector.merged_results(sub.qid).get(closed)
            if window:
                results[sub.qid] = window
        answers[qid] = (results, analyzer.detections(qid).get(closed, []))
    return answers


def window_step(
    deployment: Deployment, source: RotatingReplaySource,
    tracer: Optional[tracing.Tracer] = None,
) -> Tuple[ColumnarTrace, SimulationStats, Answers]:
    """Ingest, close and read out the simulator's current window."""
    sim = deployment.simulator
    with tracer.span("traffic.source") if tracer else nullcontext():
        chunk = source.window(sim.epoch, sim.window_s)
    stats = sim.run(chunk)
    closed = sim.roll_window()
    answers = read_answers(deployment, closed)
    horizon = closed - PRUNE_LATENESS
    if horizon > 0:
        deployment.collector.prune_results(horizon)
        deployment.analyzer.prune(horizon)
    return chunk, stats, answers


@dataclass
class Timed:
    """One timed operation (a window step or an update)."""

    #: As measured.
    wall_s: float
    cpu_s: float
    #: Timed pass it ran in.
    pass_index: int
    #: Factors that bring ``wall_s`` / ``cpu_s`` to reference speed
    #: (:mod:`bench.speed`).
    wall_scale: float = 1.0
    cpu_scale: float = 1.0
    #: Ran with the tracer switched on.
    traced: bool = False


@dataclass
class Result:
    """Samples and failure counts of one driven deployment."""

    packets_per_pass: int
    #: Updates run between the windows (and count towards a pass's time),
    #: not after them on the idle deployment.
    interleaved: bool
    windows: List[Timed] = field(default_factory=list)
    updates: List[Timed] = field(default_factory=list)
    #: Window steps, updates and reference comparisons attempted.
    attempted: int = 0
    #: Failure kind -> count; any entry makes the run incorrect.
    failures: "Counter[str]" = field(default_factory=Counter)
    #: Epochs of the timed windows that ran with the tracer on.
    traced_epochs: List[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def table(self, ops: Sequence[Timed], clock: str,
              scaled: bool) -> np.ndarray:
        """One row per timed pass, one column per operation of a pass (every
        pass runs the same operations in the same order): ``clock``
        (``"wall"`` or ``"cpu"``) seconds, at reference speed if
        ``scaled``."""
        passes = ops[-1].pass_index + 1
        seconds = [
            getattr(op, clock + "_s")
            * (getattr(op, clock + "_scale") if scaled else 1.0)
            for op in ops
        ]
        return np.array(seconds).reshape(passes, -1)

    def per_pass(self, clock: str, scaled: bool) -> np.ndarray:
        """Seconds each timed pass took: its window steps, plus its updates
        where they run between the windows.  The calibration kernel runs
        between operations and is left out."""
        total = self.table(self.windows, clock, scaled).sum(axis=1)
        if self.interleaved:
            total += self.table(self.updates, clock, scaled).sum(axis=1)
        return total


class _Driver:
    """Drives one deployment through warm-up, timed passes and updates."""

    def __init__(self, workload: Workload, deployment: Deployment,
                 cycle: ColumnarTrace,
                 tracer: Optional[tracing.Tracer] = None,
                 speedometer: Optional[Speedometer] = None):
        self.workload = workload
        self.deployment = deployment
        self.source = RotatingReplaySource(cycle, CYCLE_WINDOWS,
                                           WARMUP_WINDOWS)
        self.tracer = tracer
        self.speedometer = speedometer
        self.result = Result(packets_per_pass=len(cycle),
                             interleaved=bool(workload.update_before))
        self._updates = 0
        #: Operations waiting for the calibration sample after them.
        self._marked: List[Tuple[Timed, int]] = []

    def _clock(self, operation: Callable[[], None], pass_index: int,
               traced: bool = False) -> Timed:
        """Run ``operation`` between two calibration samples."""
        mark = self.speedometer.sample() if self.speedometer else -1
        wall = perf_counter()
        cpu = process_time()
        operation()
        timed = Timed(perf_counter() - wall, process_time() - cpu,
                      pass_index, traced=traced)
        if self.speedometer:
            self._marked.append((timed, mark))
        return timed

    def _settle(self) -> None:
        """Take the closing calibration sample and scale what waits."""
        if self.speedometer:
            self.speedometer.sample()
            for timed, mark in self._marked:
                timed.wall_scale, timed.cpu_scale = (
                    self.speedometer.scale(mark))
            self._marked.clear()

    def step(self, trace: bool = False) -> None:
        """One checked window step."""
        result = self.result
        deployment = self.deployment
        tracer = self.tracer if trace else None
        if self.tracer is not None:
            self.tracer.enabled = trace
        dropped = deployment.collector.dropped
        result.attempted += 1
        try:
            with (tracer.in_window(deployment.simulator.epoch)
                  if tracer else nullcontext()):
                chunk, stats, _ = window_step(deployment, self.source,
                                              tracer)
        except Exception as exc:  # a failed operation, not a failed run
            result.failures[f"window-raised:{type(exc).__name__}"] += 1
            return
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        if stats.packets != len(chunk):
            result.failures["packets-lost"] += 1
        if stats.mixed_rule_epoch_packets:
            result.failures["mixed-rule-epoch"] += 1
        if deployment.collector.dropped != dropped:
            result.failures["collector-drop"] += 1
        if tracer:
            tracer.counts["core.sp_bytes"] += stats.sp_bytes

    def update(self) -> None:
        """One ``update_query``, alternating the two variants."""
        self._updates += 1
        query = self.workload.update_variants[self._updates % 2]
        self.result.attempted += 1
        try:
            self.deployment.controller.update_query(
                query, PARAMS, **self.workload.where(self.deployment)
            )
        except Exception as exc:  # rejected or aborted: a failed operation
            self.result.failures[f"update-raised:{type(exc).__name__}"] += 1

    def warm_up(self) -> None:
        """The untimed windows (traced whole when a tracer is attached:
        the first one compiles every switch's programs)."""
        for _ in range(WARMUP_WINDOWS):
            self.step(trace=True)

    def timed(self, passes: int) -> Result:
        """``passes`` timed passes, each with its updates interleaved or
        after its last window.

        With a tracer attached every other window runs with it switched
        off, the parity flipping each pass: over two passes each window of
        the cycle is seen once traced and once untraced, next to each
        other in time, which is the only way to tell a 2 % tracing
        overhead from this machine's speed swings.
        """
        result = self.result
        update_before = self.workload.update_before
        for index in range(passes):
            for local in range(CYCLE_WINDOWS):
                if local in update_before:
                    result.updates.append(self._clock(self.update, index))
                trace = self.tracer is not None and (local + index) % 2 == 0
                if trace:
                    result.traced_epochs.append(
                        self.deployment.simulator.epoch)
                result.windows.append(self._clock(
                    lambda: self.step(trace), index, trace))
            if not update_before:
                for _ in range(UPDATES_PER_PASS):
                    result.updates.append(self._clock(self.update, index))
        self._settle()
        return result


def _deploy(workload: Workload) -> Deployment:
    deployment = workload.build()
    workload.install(deployment)
    return deployment


# --------------------------------------------------------------------- #
# End-to-end run (tracing off)                                           #
# --------------------------------------------------------------------- #


def _end_to_end(result: Result, scaled: bool) -> Dict[str, float]:
    """The duration metrics of a timed run, at reference speed or raw.

    A window's (an update's) time is the median over the passes of that
    window of the cycle (that update of the pass); the percentiles are
    taken over the 30 windows (12 updates).  Percentiles over all 300
    samples pooled would mix in which pass a sample came from — the mice
    workload's late passes run a third slower than its early ones, and its
    pooled 90th percentile spread over 14 % from run to run against 3 %
    this way.
    """
    packets = result.packets_per_pass
    window_ms = np.percentile(
        np.median(result.table(result.windows, "wall", scaled), axis=0),
        [50, 90]) * 1e3
    op_ms = np.percentile(
        np.median(result.table(result.updates, "wall", scaled), axis=0),
        [50, 90]) * 1e3
    return {
        "pps": float(np.median(packets / result.per_pass("wall", scaled))),
        "cpu_s_per_mpkt": float(np.median(
            result.per_pass("cpu", scaled) / packets * 1e6)),
        "window_p50_ms": float(window_ms[0]),
        "window_p90_ms": float(window_ms[1]),
        "op_p50_ms": float(op_ms[0]),
        "op_p90_ms": float(op_ms[1]),
    }


def measure(
    workload: Workload, cycle: ColumnarTrace, seconds: float,
) -> Tuple[Dict[str, float], Dict[str, float], Result]:
    """The timed run; returns every end-to-end metric but ``setup_s`` — the
    durations at reference speed (:mod:`bench.speed`) — then the same
    durations as measured, with the run's median kernel time, and the
    result."""
    speedometer = Speedometer()
    driver = _Driver(workload, _deploy(workload), cycle,
                     speedometer=speedometer)
    driver.warm_up()
    result = driver.timed(passes_for(seconds))
    metrics = _end_to_end(result, scaled=True)
    # Read before the output check builds its own deployments.
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = _end_to_end(result, scaled=False)
    raw["kernel_ms"] = speedometer.kernel_ms()
    return metrics, raw, result


# --------------------------------------------------------------------- #
# Output check against the scalar reference                              #
# --------------------------------------------------------------------- #


def _reference_windows(workload: Workload,
                       cycle: ColumnarTrace) -> List[ColumnarTrace]:
    """The head of the cycle the scalar engine can replay in ~2 s: whole
    windows while they fit ``reference_packets``, but at least three
    (cut short) so that window roll-over is always covered."""
    budget = workload.reference_packets
    per_window = len(cycle) // CYCLE_WINDOWS
    count = max(3, min(WARMUP_WINDOWS, budget // per_window))
    rows = min(per_window, budget // count)
    return [window_rows(cycle, CYCLE_WINDOWS, i, rows) for i in range(count)]


def _recorded(deployment: Deployment) -> List[Tuple]:
    """Tap every switch's report sink; returns the list reports land in,
    in emission order."""
    reports: List[Tuple] = []
    for sid, switch in deployment.switches.items():
        def tap(report, sid=sid, inner=switch.pipeline.report_sink):
            reports.append((str(sid), report.qid, report.ts, report.epoch,
                            sorted(report.payload.items(), key=str)))
            if inner is not None:
                inner(report)
        switch.pipeline.report_sink = tap
    return reports


def _replay(workload: Workload, engine: str,
            windows: Sequence[ColumnarTrace]) -> List[Tuple]:
    """Per-window (stats, reports in emission order, answers) of a fresh
    deployment; one update lands before the second window so both engines
    cross a rule-epoch flip."""
    deployment = workload.build(engine)
    workload.install(deployment)
    reports = _recorded(deployment)
    sim = deployment.simulator
    out = []
    for index, chunk in enumerate(windows):
        if index == 1:
            deployment.controller.update_query(
                workload.update_variants[1], PARAMS,
                **workload.where(deployment)
            )
        stats = sim.run(chunk)
        closed = sim.roll_window()
        answers = read_answers(deployment, closed)
        out.append((
            (stats.packets, stats.delivered, stats.dropped, stats.deferred,
             stats.stale_deferred, stats.sp_bytes, stats.payload_bytes,
             stats.mixed_rule_epoch_packets,
             sorted(stats.reports_by_switch.items(), key=str),
             sorted(stats.initiated_by_query.items())),
            list(reports),
            answers,
        ))
        reports.clear()
    return out


def check_outputs(workload: Workload, cycle: ColumnarTrace,
                  result: Result) -> None:
    """Compare the measured engine with ``engine="scalar"`` on the head
    of the trace: stats, report order and per-window answers.  Each
    compared window is one attempted operation; each differing window a
    failure (by what differed first)."""
    windows = _reference_windows(workload, cycle)
    measured = _replay(workload, "vector", windows)
    reference = _replay(workload, "scalar", windows)
    for got, want in zip(measured, reference):
        result.attempted += 1
        for part, a, b in zip(("stats", "reports", "answers"), got, want):
            if a != b:
                result.failures[f"reference-mismatch:{part}"] += 1
                break


# --------------------------------------------------------------------- #
# Traced run                                                             #
# --------------------------------------------------------------------- #


def _flows_per_window(cycle: ColumnarTrace) -> float:
    counts = []
    for index in range(CYCLE_WINDOWS):
        chunk = window_rows(cycle, CYCLE_WINDOWS, index)
        flows = np.stack([chunk.columns[f] for f in
                          ("sip", "dip", "proto", "sport", "dport")], axis=1)
        counts.append(len(np.unique(flows, axis=0)))
    return float(statistics.median(counts))


def trace_layers(
    workload: Workload, cycle: ColumnarTrace, generate_s: float,
    spans_path: Optional[str] = None,
) -> Tuple[Dict[str, float], Result]:
    """Two passes with tracing on in alternate windows (see
    :meth:`_Driver.timed`); returns every per-layer metric but the
    ``setup.*`` ones.  Durations are as measured: the calibration kernel
    runs here too, but only for ``harness.kernel_ms``."""
    with tracing.installed() as tracer:
        deployment = _deploy(workload)
        speedometer = Speedometer()
        driver = _Driver(workload, deployment, cycle, tracer, speedometer)
        driver.warm_up()
        before = Counter(tracer.counts)
        result = driver.timed(2)
        counts = tracer.counts - before
        target = workload.update_variants[0]
        for _ in range(TRACED_REINSTALLS):
            deployment.controller.remove_query(target.qid)
            workload.install_query(deployment, target)
        dropped = deployment.collector.dropped
    if spans_path is not None:
        tracer.write(spans_path)

    epochs = result.traced_epochs
    rows = len(epochs) * (len(cycle) // CYCLE_WINDOWS)
    traced_s = sum(w.wall_s for w in result.windows if w.traced)
    untraced_s = sum(w.wall_s for w in result.windows if not w.traced)

    def window_ms(*names: str, inclusive: bool = False) -> float:
        """Median over the timed windows of the time in ``names``."""
        columns = [tracer.per_window(n, epochs, inclusive) for n in names]
        return statistics.median(sum(w) for w in zip(*columns)) * 1e3

    def call_ms(name: str, inclusive: bool = True,
                reduce: Callable = statistics.median) -> float:
        """Per-call time of ``name`` over the whole traced run."""
        calls = tracer.per_call(name, inclusive)
        return reduce(calls) * 1e3 if calls else 0.0

    def per_kpkt(count: float) -> float:
        return count / (rows / 1000.0)

    _, scalar_total, scalar_calls = tracer.total("engine.scalar")
    _, pipeline_total, _ = tracer.total("dataplane.pipeline")
    miss = per_kpkt(counts["dataplane.hash_miss"])
    if not workload.miss_floor <= miss <= workload.miss_ceiling:
        result.failures["hash-miss-out-of-range"] += 1
    metrics = {
        "traffic.source_ms": window_ms("traffic.source"),
        "traffic.generate_s": generate_s,
        "traffic.flows_per_window": _flows_per_window(cycle),
        "engine.run_ms": window_ms("engine.run", inclusive=True),
        "engine.split_ms": window_ms("engine.split"),
        "engine.walk_ms": window_ms("engine.walk"),
        "engine.route_ms": window_ms("engine.route"),
        "engine.dispatch_ms": window_ms("engine.dispatch"),
        "engine.program_ms": window_ms("engine.program"),
        "engine.emit_ms": window_ms("engine.emit"),
        "engine.compile_ms": call_ms("engine.compile",
                                     reduce=statistics.fmean),
        "engine.compile_count": tracer.total("engine.compile")[2],
        "engine.fastpath_share": counts["engine.fast_rows"] / rows,
        "engine.scalar_us_per_pkt": (
            scalar_total / scalar_calls * 1e6 if scalar_calls else 0.0),
        "dataplane.hash_ms": window_ms("dataplane.hash"),
        "dataplane.hash_miss_per_kpkt": miss,
        "dataplane.hash_memo_entries": sum(tracer.memo_sizes.values()),
        "dataplane.alu_ms": window_ms("dataplane.alu"),
        "dataplane.alu_rows_per_kpkt": per_kpkt(counts["dataplane.alu_rows"]),
        "dataplane.pipeline_us_per_pkt": (
            pipeline_total / scalar_calls * 1e6 if scalar_calls else 0.0),
        "dataplane.reset_ms": window_ms("dataplane.reset"),
        "network.switch_paths_ms": window_ms("network.switch_paths"),
        "network.roll_ms": window_ms("network.roll", inclusive=True),
        "collector.ingest_ms": window_ms("collector.ingest"),
        "collector.close_ms": window_ms("collector.close"),
        "collector.read_ms": window_ms("collector.read"),
        "collector.reports_per_kpkt": per_kpkt(counts["collector.reports"]),
        "collector.dropped": dropped,
        "core.analyzer_ms": window_ms("core.analyzer",
                                      "core.analyzer.on_report"),
        "core.compile_query_ms": call_ms("core.compile_query",
                                         reduce=statistics.fmean),
        "core.install_ms": call_ms("core.install", reduce=statistics.fmean),
        "core.remove_ms": call_ms("core.remove", reduce=statistics.fmean),
        "core.update_ms": call_ms("core.update"),
        "core.sp_bytes_per_kpkt": per_kpkt(counts["core.sp_bytes"]),
        "verify.gate_ms": call_ms("verify.gate"),
        "ctrlplane.txn_ms": call_ms("ctrlplane.txn", inclusive=False),
        "ctrlplane.txn_aborted": counts["ctrlplane.txn_aborted"],
        "harness.window_ms": window_ms(tracing.ROOT, inclusive=True),
        "harness.unattributed_ms": window_ms(tracing.ROOT),
        "harness.trace_overhead_share": 1.0 - untraced_s / traced_s,
        "harness.kernel_ms": speedometer.kernel_ms(),
    }
    return metrics, result
