"""Switch-failure recovery: detection latency, re-install cost, coverage.

The resilience plane's acceptance benchmark.  The **standard crash
scenario** — Q1 sliced over a 3-switch path, the ingress switch crashes
mid-trace and restarts empty 150 ms later — is run under both execution
engines and must produce *bit-identical* recovered state (register
banks, per-window results, rule epochs).  A seeded sweep then varies
crash timing/duration and checks the no-silent-loss invariant on every
seed: the query is either fully re-installed within bounded windows or
explicitly degraded with epoch-stamped coverage gaps.

Reported (and written to ``BENCH_recovery.json``):

* median detection latency over the sweep (fault start -> DOWN),
* median re-install latency — one recovery transaction, expected inside
  the paper's Figure 11 query-operation band (5-20 ms),
* per-query coverage under the standard scenario.

Runs as a pytest benchmark (``pytest benchmarks/bench_recovery.py``) or
as a script::

    python benchmarks/bench_recovery.py [--seeds N] [--quick] [--json]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

from repro.core.compiler import QueryParams
from repro.fleet import build_fleet, fleet_trace
from repro.resilience import standard_crash
from repro.traffic.generators import syn_flood

N_PACKETS = 20_000
QUICK_PACKETS = 3_000
DURATION_S = 1.0
N_SWITCHES = 3
N_SEEDS = 50
#: Standard crash scenario: the ingress switch fails at 200 ms and
#: restarts empty 150 ms later (detected via its bumped boot id).
CRASH_AT_S = 0.2
DOWN_FOR_S = 0.15

#: The paper's Figure 11 query-operation band; one recovery re-install
#: is a single staged transaction and must land inside it.
BAND_LOW_S, BAND_HIGH_S = 0.005, 0.020

PARAMS = QueryParams(cm_depth=2, reduce_registers=1024)


def _run(engine: str, n_packets: int, crash_at: float = CRASH_AT_S,
         down_for: float = DOWN_FOR_S, seed: int = 11) -> dict:
    """One crashed-and-recovered run; returns measurements + state."""
    deployment = build_fleet(
        N_SWITCHES, ["Q1"], PARAMS, array_size=1 << 13, engine=engine,
        faults=standard_crash(seed, crash_at, down_for),
    )
    stats = deployment.simulator.run(fleet_trace(
        syn_flood(n_packets=n_packets, duration_s=DURATION_S, seed=seed)
    ))
    recovery = deployment.recovery
    report = recovery.report()
    record = deployment.controller.installed.get("Q1")
    hosted = record is not None and all(
        deployment.switches[sid].pipeline.hosts_slice(sub_qid, index)
        for sid, entries in record.by_switch.items()
        for sub_qid, index in entries
    )
    return {
        "engine": engine,
        "incidents": report["incidents"],
        "coverage": report["summary"]["coverage"],
        "gap_epochs": list(recovery.coverage.gap_epochs("Q1")),
        "degraded": report["summary"]["degraded"],
        "hosted": hosted,
        # Recovered-state fingerprint for cross-engine bit-identity.
        "state": {
            "results": {
                qid: {
                    str(epoch): sorted(
                        (list(map(int, key)), int(val))
                        for key, val in window.items()
                    )
                    for epoch, window in
                    deployment.analyzer.results(qid).items()
                }
                for qid in ("Q1",)
            },
            "registers": deployment.register_dumps(),
            "rule_epochs": {
                str(sid): sw.rule_epoch
                for sid, sw in deployment.switches.items()
            },
            "packets": stats.packets,
        },
    }


def measure_standard(n_packets: int) -> dict:
    """The standard crash scenario under both engines."""
    scalar = _run("scalar", n_packets)
    vector = _run("vector", n_packets)
    return {
        "scalar": scalar,
        "vector": vector,
        "identical": scalar["state"] == vector["state"],
    }


def measure_sweep(n_seeds: int, n_packets: int) -> dict:
    """Seeded crash-timing sweep; every seed must recover or degrade
    explicitly (the no-silent-loss invariant)."""
    detect, reinstall, violations = [], [], []
    recovered = degraded = 0
    for seed in range(n_seeds):
        rng = random.Random(seed)
        crash_at = rng.uniform(0.15, 0.45)
        down_for = rng.choice([rng.uniform(0.05, 0.25), None])
        run = _run("scalar", n_packets, crash_at=crash_at,
                   down_for=down_for, seed=seed)
        reinstalls = [i for i in run["incidents"]
                      if i["action"] == "reinstall"]
        if reinstalls:
            recovered += 1
            detect.append(reinstalls[0]["detect_latency_s"])
            reinstall.append(reinstalls[0]["reinstall_delay_s"])
            if not run["hosted"]:
                violations.append(
                    f"seed {seed}: re-install reported but slices are "
                    f"not resident"
                )
        elif run["degraded"] or any(
            i["action"] in ("replace", "degraded")
            for i in run["incidents"]
        ):
            degraded += 1
        else:
            coverage = run["coverage"].get("Q1", {})
            if coverage.get("gap_windows", 0) == 0:
                violations.append(
                    f"seed {seed}: crash at {crash_at:.2f}s left no "
                    f"incident, no degradation, and no coverage gap — "
                    f"silent loss"
                )
        cov = run["coverage"].get("Q1", {})
        full = cov.get("windows_full", 0)
        total = cov.get("windows_total", 0)
        if full + cov.get("gap_windows", 0) < total:
            violations.append(
                f"seed {seed}: {total - full} impaired windows, only "
                f"{cov.get('gap_windows', 0)} on the gap ledger"
            )
    return {
        "seeds": n_seeds,
        "recovered": recovered,
        "degraded_or_replaced": degraded,
        "median_detect_s": statistics.median(detect) if detect else None,
        "median_reinstall_s": (statistics.median(reinstall)
                               if reinstall else None),
        "violations": violations,
    }


def render(standard: dict, sweep: dict) -> str:
    scalar = standard["scalar"]
    incident = scalar["incidents"][0] if scalar["incidents"] else {}
    coverage = scalar["coverage"].get("Q1", {})
    md = sweep["median_detect_s"]
    mr = sweep["median_reinstall_s"]
    return "\n".join([
        "Switch-failure recovery (Q1 on a 3-switch path):",
        f"  standard scenario: s0 crashes at {CRASH_AT_S * 1e3:.0f} ms, "
        f"restarts empty {DOWN_FOR_S * 1e3:.0f} ms later",
        f"    detection latency: "
        f"{incident.get('detect_latency_s', 0) * 1e3:.0f} ms "
        f"(boot-id change at the next window close)",
        f"    re-install latency: "
        f"{incident.get('reinstall_delay_s', 0) * 1e3:.2f} ms "
        f"(Figure 11 band {BAND_LOW_S * 1e3:.0f}-"
        f"{BAND_HIGH_S * 1e3:.0f} ms)",
        f"    coverage: {coverage.get('coverage', 0):.0%} "
        f"({coverage.get('windows_full', 0)}/"
        f"{coverage.get('windows_total', 0)} windows full, gaps at "
        f"epochs {scalar['gap_epochs']})",
        f"    engines bit-identical on recovered state: "
        f"{standard['identical']}",
        f"  seeded sweep ({sweep['seeds']} crash timings):",
        f"    recovered: {sweep['recovered']}, degraded/replaced: "
        f"{sweep['degraded_or_replaced']}",
        f"    median detection: "
        + (f"{md * 1e3:.0f} ms" if md is not None else "n/a"),
        f"    median re-install: "
        + (f"{mr * 1e3:.2f} ms" if mr is not None else "n/a"),
        f"    invariant violations: {len(sweep['violations'])}",
    ])


def check(standard: dict, sweep: dict) -> list:
    """Acceptance criteria; returns a list of failure strings."""
    failures = []
    scalar = standard["scalar"]
    if not standard["identical"]:
        failures.append(
            "scalar and vector engines disagree on recovered state"
        )
    reinstalls = [i for i in scalar["incidents"]
                  if i["action"] == "reinstall"]
    if not reinstalls:
        failures.append("standard scenario produced no re-install")
    elif not scalar["hosted"]:
        failures.append("recovered query's slices are not resident")
    else:
        delay = reinstalls[0]["reinstall_delay_s"]
        if not BAND_LOW_S <= delay <= BAND_HIGH_S:
            failures.append(
                f"re-install latency {delay * 1e3:.2f} ms outside the "
                f"{BAND_LOW_S * 1e3:.0f}-{BAND_HIGH_S * 1e3:.0f} ms band"
            )
    coverage = scalar["coverage"].get("Q1", {})
    if not 0 < coverage.get("coverage", 0) < 1:
        failures.append(
            f"standard-scenario coverage {coverage.get('coverage')} "
            f"should be partial (crash gaps + recovered windows)"
        )
    if scalar["degraded"]:
        failures.append(
            f"standard scenario should recover, not degrade: "
            f"{scalar['degraded']}"
        )
    mr = sweep["median_reinstall_s"]
    if mr is not None and not BAND_LOW_S <= mr <= BAND_HIGH_S:
        failures.append(
            f"sweep median re-install {mr * 1e3:.2f} ms outside the band"
        )
    if sweep["recovered"] == 0:
        failures.append("no sweep seed ever recovered a switch")
    failures.extend(sweep["violations"])
    return failures


def to_json(standard: dict, sweep: dict) -> dict:
    scalar = {k: v for k, v in standard["scalar"].items() if k != "state"}
    return {
        "standard_scenario": {
            "crash_at_s": CRASH_AT_S,
            "down_for_s": DOWN_FOR_S,
            "scalar": scalar,
            "engines_identical": standard["identical"],
        },
        "sweep": sweep,
        "band_s": [BAND_LOW_S, BAND_HIGH_S],
    }


# --------------------------------------------------------------------- #
# pytest entry point                                                     #
# --------------------------------------------------------------------- #

def test_recovery(show):
    standard = measure_standard(QUICK_PACKETS)
    sweep = measure_sweep(10, QUICK_PACKETS)
    show(render(standard, sweep))
    assert not check(standard, sweep)


# --------------------------------------------------------------------- #
# script entry point (CI chaos-smoke job / BENCH_recovery.json producer) #
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=N_SEEDS,
                        help="crash timings in the seeded sweep")
    parser.add_argument("--quick", action="store_true",
                        help="reduced trace size for CI time budgets")
    parser.add_argument("--json", nargs="?", const="BENCH_recovery.json",
                        default="BENCH_recovery.json", metavar="PATH",
                        help="write measurements as JSON "
                             "(default: BENCH_recovery.json)")
    args = parser.parse_args(argv)
    n = QUICK_PACKETS if args.quick else N_PACKETS
    standard = measure_standard(n)
    sweep = measure_sweep(args.seeds, n)
    print(render(standard, sweep))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(to_json(standard, sweep), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    failures = check(standard, sweep)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
