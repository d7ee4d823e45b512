"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py                      # all workloads, end to end
    python3 bench/run.py --trace              # all workloads, layer table
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat-check

A run of one workload measures in this process (so start it in a fresh
interpreter); without ``--workload`` each workload gets a child process of
its own.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of BENCHMARK.json with tracing off, its per-layer metrics with
``--trace 1``.  The exit code is non-zero when any operation failed.

Workloads, metrics and what they are for: see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
_CHILD_TIMEOUT_S = 170
#: Runs per workload in each of ``--repeat-check``'s two sets.
REPEAT_RUNS = 10


def _load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and insist that
    ``repro`` comes from it — never from some installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    sys.path[:0] = [src, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported repro from {repro.__file__}, not {src}")


# --------------------------------------------------------------------- #
# One workload, in this process                                          #
# --------------------------------------------------------------------- #


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, spec: dict) -> Tuple[dict, int]:
    """Measure one workload; returns (result object, exit code)."""
    _import_program()
    from bench import harness, setup_probe
    from bench.traces import window_rows
    from bench.workloads import CYCLE_WINDOWS, WORKLOADS

    workload = WORKLOADS[name]
    started = time.perf_counter()
    cycle = workload.make_cycle(seed)
    generate_s = time.perf_counter() - started
    setup = setup_probe.run_probes(
        name, window_rows(cycle, CYCLE_WINDOWS, 0)
    )
    #: The bounded durations as measured, before scaling to reference
    #: speed (:mod:`bench.speed`); printed, not part of the result.
    raw: Dict[str, float] = {}
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        values, result = harness.trace_layers(workload, cycle, generate_s,
                                              spans)
        for phase in setup_probe.PHASES:
            values[f"setup.{phase}"] = setup[phase]
        declared = spec["per_layer"]
    else:
        values, raw, result = harness.measure(workload, cycle, seconds)
        values["setup_s"] = setup["setup_s"]
        raw["setup_s"] = setup["raw_setup_s"]
        declared = spec["end_to_end"]
    harness.check_outputs(workload, cycle, result)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"bench: harness did not produce {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(f"# {name}  seed={seed}  "
          f"{'traced' if trace else f'seconds={seconds:g}'}")
    for metric_name, metric in metrics.items():
        measured = (f"   (as measured {raw[metric_name]:.4f})"
                    if metric_name in raw else "")
        print(f"{metric_name:32s} {metric['value']:14.4f} "
              f"{metric['unit']}{measured}")
    if raw:
        print(f"calibration kernel {raw['kernel_ms']:.4f} ms "
              "(1.0 is reference speed)")
    for kind, count in sorted(result.failures.items()):
        print(f"FAILED {kind}: {count}")
    print(f"ops_attempted {result.attempted}  ops_failed {result.failed}")
    outcome = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    return outcome, (0 if result.failed == 0 else 1)


# --------------------------------------------------------------------- #
# Every workload, each in a fresh interpreter                            #
# --------------------------------------------------------------------- #


def _spawn(name: str, seed: int, seconds: float, trace: bool,
           out_dir: str) -> dict:
    """Run one workload in a child interpreter; returns its result."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--out", out_dir],
        stdout=subprocess.PIPE, timeout=_CHILD_TIMEOUT_S, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"bench: {name} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool, out_dir: str,
            spec: dict) -> int:
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        results[name] = _spawn(name, seed, seconds, trace, out_dir)
    names = list(results)
    declared = spec["per_layer" if trace else "end_to_end"]
    print(f"{'metric':32s} {'unit':8s} " + " ".join(f"{n:>24s}" for n in names))
    for metric in declared:
        row = [results[n]["metrics"][metric["name"]]["value"] for n in names]
        print(f"{metric['name']:32s} {metric['unit']:8s} "
              + " ".join(f"{v:24.4f}" for v in row))
    print(f"{'ops_attempted':41s} "
          + " ".join(f"{results[n]['attempted']:24d}" for n in names))
    print(f"{'ops_failed':41s} "
          + " ".join(f"{results[n]['failed']:24d}" for n in names))
    failed = sum(r["failed"] for r in results.values())
    if trace:
        # A rotation that stopped rotating, or a mice trace that lost its
        # fresh keys, must not pass silently.
        key = "dataplane.hash_miss_per_kpkt"
        mice = results["eval9-linear-mice"]["metrics"][key]["value"]
        elephants = results["eval9-linear-elephants"]["metrics"][key]["value"]
        if mice < 10 * elephants:
            print(f"FAILED {key}: mice {mice:.1f} is under 10x "
                  f"elephants {elephants:.1f}")
            failed += 1
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------- #
# Two sets of runs of the same code                                      #
# --------------------------------------------------------------------- #


def _spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_sets(first: Sequence[float], second: Sequence[float],
                 bound: float) -> Tuple[float, Tuple[float, float], str]:
    """One metric's values in two sets of runs of the same code: how far
    the second median is from the first (signed share of the first), both
    spreads, and what is wrong, if anything.  Same code, so a second set
    that is *better* by more than the bound disagrees just as much as one
    that is worse."""
    med1, med2 = statistics.median(first), statistics.median(second)
    differ = (med2 - med1) / med1
    spreads = (_spread(first), _spread(second))
    if abs(differ) > bound:
        return differ, spreads, "MEDIANS DISAGREE"
    if max(spreads) > bound:
        return differ, spreads, "TOO NOISY"
    return differ, spreads, ""


def repeat_check(seed: int, seconds: float, out_dir: str,
                 spec: dict) -> int:
    """Run every workload :data:`REPEAT_RUNS` times (seeds ``seed`` ...),
    twice over, and hold the two sets against the bounds in
    BENCHMARK.json: the two medians of every end-to-end metric must not
    differ, either way, by more than its bound, and within a set its
    quartile spread must stay inside the bound.  One traced run per set
    checks that the count metrics repeat exactly."""
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, List[dict]]] = []
    traced: List[Dict[str, dict]] = []
    for _ in range(2):
        sets.append({
            name: [_spawn(name, seed + i, seconds, False, out_dir)
                   for i in range(REPEAT_RUNS)]
            for name in names
        })
        traced.append({
            name: _spawn(name, seed, seconds, True, out_dir)
            for name in names
        })
    bad = 0
    print(f"{'workload':24s} {'metric':16s} {'median 1':>12s} "
          f"{'median 2':>12s} {'differ by':>9s} {'spread 1':>9s} "
          f"{'spread 2':>9s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first, second = (
                [r["metrics"][key]["value"] for r in runs_of[name]]
                for runs_of in sets
            )
            differ, spreads, verdict = compare_sets(first, second, bound)
            bad += bool(verdict)
            print(f"{name:24s} {key:16s} {statistics.median(first):12.4f} "
                  f"{statistics.median(second):12.4f} {differ:+9.1%} "
                  f"{spreads[0]:9.1%} {spreads[1]:9.1%} {bound:6.0%}"
                  f"{'  ' + verdict if verdict else ''}")
        failed = sum(r["failed"] for runs_of in sets for r in runs_of[name])
        failed += sum(t[name]["failed"] for t in traced)
        if failed:
            print(f"{name:24s} ops_failed {failed}")
            bad += 1
        for metric in spec["per_layer"]:
            if metric["unit"] != "count":
                continue
            a, b = (t[name]["metrics"][metric["name"]]["value"]
                    for t in traced)
            if a != b:
                print(f"{name:24s} {metric['name']} does not repeat: "
                      f"{a} != {b}")
                bad += 1
    print("repeat-check:", "ok" if bad == 0 else f"{bad} problem(s)")
    return 0 if bad == 0 else 1


# --------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="per-layer metrics from a traced run")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="directory the span files are written to")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two sets of runs held against the bounds")
    args = parser.parse_args(argv)

    if args.repeat_check:
        return repeat_check(args.seed, args.seconds, args.out, spec)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out,
                       spec)
    outcome, code = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.out, spec)
    print(json.dumps(outcome))
    return code


if __name__ == "__main__":
    sys.exit(main())
