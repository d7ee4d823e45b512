"""Dynamic-planning benchmark: a traffic shift vs a static plan.

A monitored deployment runs Q1 (new TCP connections per destination)
with a deliberately small reduce sketch (128 registers — fine for the
benign baseline).  Mid-run the traffic shifts: a SYN-scan storm fans
out over thousands of destinations and a second flood victim appears.
The Count-Min rows saturate, collision mass pushes thousands of cold
destinations over the report threshold, and the **static** plan's
detection accuracy (per-window F1 against exact ground truth computed
from the trace) collapses — the runtime face of an NV701 accuracy-
budget violation.

The **dynamic** run hands the same query to the
:class:`~repro.planner.DynamicPlanner`.  Its occupancy trigger fires on
the first shifted window's signals and re-sizes the sketch through a
verified make-before-break 2PC update (clamped to per-switch headroom
via ``AdmissionPlanner.best_fit``), recovering accuracy within a
bounded number of windows — with **zero monitoring-gap packets** (every
matching packet initiated Q1 at its ingress) and **zero mixed-epoch
packets** (no packet ever saw a half-applied re-plan).

Acceptance (ISSUE 9):

* static post-shift accuracy degrades >= 20% relative to pre-shift
  (or the fleet analyzer flags NV701 on the static plan's sizing);
* the dynamic plan recovers to >= 90% of pre-shift accuracy within
  ``RECOVERY_BOUND`` windows of the shift;
* both runs: monitoring gap == 0 and mixed-epoch packets == 0;
* the sharded fabric (``--workers 2``) replays the same plan steps and
  produces the identical detection stream.

Runs as a pytest benchmark (``pytest benchmarks/bench_planning.py``) or
as a script::

    python benchmarks/bench_planning.py [--smoke] [--workers N] \\
                                        [--json [PATH]]

``--json`` writes the measurements to ``BENCH_planning.json`` (or PATH).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.compiler import QueryParams
from repro.core.library import evaluation_query, evaluation_thresholds
from repro.core.packet import Proto, TcpFlags
from repro.fleet import build_fleet, fleet_trace
from repro.planner import DynamicPlanner, PlannerConfig, run_windows
from repro.traffic.generators import caida_like, syn_flood, syn_scan_noise
from repro.traffic.traces import Trace

WINDOW_S = 0.1
FULL_WINDOWS = 10
SMOKE_WINDOWS = 8
SHIFT_AT = 3
#: Windows after the shift within which the dynamic plan must be back
#: at >= RECOVERY_FRACTION of pre-shift accuracy.
RECOVERY_BOUND = 4
RECOVERY_FRACTION = 0.9
DEGRADATION_FLOOR = 0.20

SWITCHES = 2
PATH = ["s0", "s1"]
ARRAY_SIZE = 1 << 13
STATIC_PARAMS = QueryParams(cm_depth=2, reduce_registers=128)
PLANNER_CONFIG = PlannerConfig(cooldown_windows=1)
SEED = 23


# --------------------------------------------------------------------- #
# Workload: benign + one hotspot, then the shift                         #
# --------------------------------------------------------------------- #

def window_trace(index: int, seed: int = SEED) -> Trace:
    """One window of traffic; the shift begins at ``SHIFT_AT``."""
    start = index * WINDOW_S
    parts = [
        caida_like(1200, duration_s=WINDOW_S, seed=seed + index,
                   start_s=start),
        syn_flood(victim_index=1, n_packets=300, duration_s=WINDOW_S,
                  seed=seed + 40 + index, start_s=start),
    ]
    if index >= SHIFT_AT:
        parts.append(syn_flood(
            victim_index=2, n_packets=300, duration_s=WINDOW_S,
            seed=seed + 60 + index, start_s=start,
        ))
        parts.append(syn_scan_noise(
            n_packets=8000, duration_s=WINDOW_S, seed=seed + 80 + index,
            start_s=start,
        ))
    return fleet_trace(*parts)


def ground_truth(traces: List[Trace],
                 threshold: int) -> List[Set[Tuple[int, ...]]]:
    """Exact Q1 answers per window, computed from the packets."""
    truth: List[Set[Tuple[int, ...]]] = []
    for trace in traces:
        counts: Counter = Counter()
        for packet in trace.packets:
            if (packet.proto == int(Proto.TCP)
                    and packet.tcp_flags == int(TcpFlags.SYN)):
                counts[(packet.dip,)] += 1
        truth.append({key for key, n in counts.items() if n >= threshold})
    return truth


def matching_packets(traces: List[Trace]) -> int:
    return sum(
        1 for trace in traces for packet in trace.packets
        if (packet.proto == int(Proto.TCP)
            and packet.tcp_flags == int(TcpFlags.SYN))
    )


def f1(detected: Set, truth: Set) -> float:
    if not detected and not truth:
        return 1.0
    tp = len(detected & truth)
    if tp == 0:
        return 0.0
    precision = tp / len(detected)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall)


# --------------------------------------------------------------------- #
# Measured runs                                                          #
# --------------------------------------------------------------------- #

def run_plan(deployment, traces: List[Trace],
             dynamic: bool) -> dict:
    """Run the windows; with ``dynamic``, step the planner per window."""
    query = evaluation_query("Q1")
    planner = None
    if dynamic:
        planner = DynamicPlanner(deployment, PLANNER_CONFIG)
        planner.manage(query, STATIC_PARAMS, path=PATH)
    else:
        deployment.controller.install_query(
            query, STATIC_PARAMS, path=PATH
        )
    run = run_windows(deployment, traces, planner)
    answers = deployment.collector.merged_results("Q1")
    return {
        "detections": {
            index: set(answers.get(closed, {}))
            for index, closed in enumerate(run["closed"])
        },
        "steps": [
            (s["epoch"], s["kind"], s["trigger"], s["status"],
             None if s["params"] is None
             else s["params"]["reduce_registers"])
            for s in run["steps"]
        ],
        "mixed_epoch": run["mixed_epoch"],
        "gap": matching_packets(traces) - run["initiated"].get("Q1", 0),
        "final_registers": (
            None if planner is None
            else planner.plans["Q1"].params.reduce_registers
        ),
    }


def accuracy_series(detections: Dict[int, Set],
                    truth: List[Set]) -> List[float]:
    return [f1(detections[i], truth[i]) for i in range(len(truth))]


def nv701_on_static(expected_flows: int) -> List[dict]:
    """The analyzer's verdict on the static sizing at shifted scale."""
    from repro.verify import FleetConfig, analyze_fleet

    report = analyze_fleet(
        build_fleet(SWITCHES, ["Q1"], STATIC_PARAMS, array_size=ARRAY_SIZE),
        FleetConfig(expected_flows=expected_flows),
    )
    return [d.as_dict() for d in report.sorted()
            if d.as_dict()["code"].startswith("NV70")]


def measure(windows: int, workers: int) -> dict:
    traces = [window_trace(i) for i in range(windows)]
    threshold = evaluation_thresholds().new_tcp_conns
    truth = ground_truth(traces, threshold)
    shifted_flows = len({
        p.dip for t in traces[SHIFT_AT:] for p in t.packets
        if p.proto == int(Proto.TCP)
    })

    static = run_plan(
        build_fleet(SWITCHES, array_size=ARRAY_SIZE), traces, dynamic=False,
    )
    dynamic = run_plan(
        build_fleet(SWITCHES, array_size=ARRAY_SIZE), traces, dynamic=True,
    )
    fabric = None
    if workers > 1:
        with build_fleet(SWITCHES, workers=workers,
                         array_size=ARRAY_SIZE) as sharded:
            fabric = run_plan(sharded, traces, dynamic=True)

    static_f1 = accuracy_series(static["detections"], truth)
    dynamic_f1 = accuracy_series(dynamic["detections"], truth)
    pre = sum(static_f1[:SHIFT_AT]) / SHIFT_AT
    static_post = (sum(static_f1[SHIFT_AT:])
                   / len(static_f1[SHIFT_AT:]))
    degradation = 0.0 if pre == 0 else (pre - static_post) / pre
    nv701 = (nv701_on_static(shifted_flows)
             if degradation < DEGRADATION_FLOOR else [])

    recovery_windows: Optional[int] = None
    target = RECOVERY_FRACTION * pre
    for offset, score in enumerate(dynamic_f1[SHIFT_AT:]):
        if score >= target:
            recovery_windows = offset + 1
            break

    return {
        "workload": {
            "windows": windows,
            "window_s": WINDOW_S,
            "shift_at": SHIFT_AT,
            "switches": SWITCHES,
            "threshold": threshold,
            "static_registers": STATIC_PARAMS.reduce_registers,
            "shifted_tcp_flows": shifted_flows,
        },
        "static": {
            "f1_per_window": [round(x, 4) for x in static_f1],
            "pre_shift_f1": round(pre, 4),
            "post_shift_f1": round(static_post, 4),
            "degradation": round(degradation, 4),
            "nv701": nv701,
            "gap": static["gap"],
            "mixed_epoch": static["mixed_epoch"],
        },
        "dynamic": {
            "f1_per_window": [round(x, 4) for x in dynamic_f1],
            "steps": dynamic["steps"],
            "final_registers": dynamic["final_registers"],
            "recovery_windows": recovery_windows,
            "recovery_bound": RECOVERY_BOUND,
            "gap": dynamic["gap"],
            "mixed_epoch": dynamic["mixed_epoch"],
        },
        "fabric": None if fabric is None else {
            "workers": workers,
            "identical_detections":
                fabric["detections"] == dynamic["detections"],
            "identical_steps": fabric["steps"] == dynamic["steps"],
            "gap": fabric["gap"],
            "mixed_epoch": fabric["mixed_epoch"],
        },
    }


# --------------------------------------------------------------------- #
# Acceptance + rendering                                                 #
# --------------------------------------------------------------------- #

def check(result: dict) -> List[str]:
    failures = []
    static, dynamic = result["static"], result["dynamic"]
    if (static["degradation"] < DEGRADATION_FLOOR
            and not static["nv701"]):
        failures.append(
            f"shift only degraded the static plan "
            f"{static['degradation']:.0%} (< {DEGRADATION_FLOOR:.0%}) "
            f"and NV701 did not fire"
        )
    if dynamic["recovery_windows"] is None:
        failures.append("dynamic plan never recovered accuracy")
    elif dynamic["recovery_windows"] > RECOVERY_BOUND:
        failures.append(
            f"recovery took {dynamic['recovery_windows']} windows "
            f"(bound {RECOVERY_BOUND})"
        )
    if not any(s[2] == "grow" and s[3] == "committed"
               for s in dynamic["steps"]):
        failures.append("the planner never committed a grow step")
    for label in ("static", "dynamic"):
        if result[label]["gap"] != 0:
            failures.append(
                f"{label} run lost {result[label]['gap']} matching "
                f"packets of monitoring"
            )
        if result[label]["mixed_epoch"] != 0:
            failures.append(
                f"{label} run saw {result[label]['mixed_epoch']} "
                f"mixed-epoch packets"
            )
    fabric = result["fabric"]
    if fabric is not None:
        if not fabric["identical_detections"]:
            failures.append("fabric detections diverged from "
                            "single-process dynamic run")
        if not fabric["identical_steps"]:
            failures.append("fabric plan steps diverged from "
                            "single-process dynamic run")
        if fabric["gap"] != 0 or fabric["mixed_epoch"] != 0:
            failures.append(
                f"fabric run: gap {fabric['gap']}, mixed-epoch "
                f"{fabric['mixed_epoch']}"
            )
    return failures


def render(result: dict) -> str:
    static, dynamic = result["static"], result["dynamic"]
    workload = result["workload"]
    lines = [
        f"Dynamic planning under a traffic shift "
        f"(Q1 @ {workload['static_registers']} registers, shift at "
        f"window {workload['shift_at']}):",
        f"  static  F1: " + " ".join(
            f"{x:.2f}" for x in static["f1_per_window"]),
        f"  dynamic F1: " + " ".join(
            f"{x:.2f}" for x in dynamic["f1_per_window"]),
        f"  static degradation: {static['degradation']:.0%} "
        f"(pre {static['pre_shift_f1']:.2f} -> post "
        f"{static['post_shift_f1']:.2f})"
        + (f"; NV701: {len(static['nv701'])} diagnostic(s)"
           if static["nv701"] else ""),
        f"  dynamic recovery: "
        + (f"{dynamic['recovery_windows']} window(s) after the shift"
           if dynamic["recovery_windows"] is not None else "never")
        + f" (bound {dynamic['recovery_bound']}), final sketch "
        f"{dynamic['final_registers']} registers",
        f"  plan steps: " + (", ".join(
            f"w{s[0]} {s[2]}->{s[4]}[{s[3]}]" for s in dynamic["steps"]
        ) or "(none)"),
        f"  gaps: static {static['gap']}, dynamic {dynamic['gap']}; "
        f"mixed-epoch: static {static['mixed_epoch']}, dynamic "
        f"{dynamic['mixed_epoch']}",
    ]
    fabric = result["fabric"]
    if fabric is not None:
        lines.append(
            f"  fabric ({fabric['workers']} workers): identical "
            f"detections {fabric['identical_detections']}, identical "
            f"steps {fabric['identical_steps']}, gap {fabric['gap']}, "
            f"mixed-epoch {fabric['mixed_epoch']}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# pytest entry point                                                     #
# --------------------------------------------------------------------- #

def test_planning_recovery(benchmark, show):
    result = benchmark.pedantic(
        lambda: measure(SMOKE_WINDOWS, workers=2),
        rounds=1, iterations=1,
    )
    show(render(result))
    failures = check(result)
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------- #
# script entry point (CI smoke job / BENCH_planning.json producer)       #
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced window count for CI time budgets")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="fabric worker count for the sharded leg "
                             "(1 disables it)")
    parser.add_argument("--windows", type=int, default=None,
                        help="window count (overrides --smoke)")
    parser.add_argument("--json", nargs="?", const="BENCH_planning.json",
                        default=None, metavar="PATH",
                        help="also write measurements as JSON "
                             "(default PATH: BENCH_planning.json)")
    args = parser.parse_args(argv)
    windows = args.windows or (
        SMOKE_WINDOWS if args.smoke else FULL_WINDOWS
    )
    result = measure(windows, workers=args.workers)
    print(render(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    failures = check(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
