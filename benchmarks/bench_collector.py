"""Collection-plane benchmark: ingest throughput.

Reports/second through the full collector path (decode → fault shim →
bounded queue → windowed executor) on a synthetic report stream, with the
flow invariant ``ingested == processed + dropped + pending`` asserted at
exit.

Runs as a pytest benchmark (``pytest benchmarks/bench_collector.py``) or
as a script::

    python benchmarks/bench_collector.py [--smoke]

``--smoke`` shrinks the workload for CI time budgets.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.collector.metrics import MetricsRegistry
from repro.collector.queue import BackpressurePolicy
from repro.collector.records import QueryRegistration
from repro.collector.collector import CollectorConfig, ReportCollector
from repro.core.rules import Report

REPORTS_PER_WINDOW = 100_000
SMOKE_REPORTS = 20_000
DISTINCT_KEYS = 1_024


def synthetic_registration() -> QueryRegistration:
    """A fully on-path query: empty CPU tail (the common case)."""
    return QueryRegistration(
        qid="bench.q", top_qid="bench.q", key_fields=("dip",),
        result_set=0, cpu_start=4, num_primitives=4, tail=(),
    )


def synthetic_reports(n: int, keys: int = DISTINCT_KEYS) -> List[Report]:
    return [
        Report(
            qid="bench.q", switch_id=f"s{i % 4}", ts=(i % 1000) * 1e-4,
            epoch=0,
            payload={"set0_fields": {"dip": i % keys},
                     "global_result": (i % 97) + 1},
        )
        for i in range(n)
    ]


def measure_ingest_throughput(n: int) -> dict:
    """Reports/second through decode + queue + windowed close."""
    collector = ReportCollector(
        config=CollectorConfig(
            queue_capacity=1 << 16, policy=BackpressurePolicy.BLOCK
        ),
        metrics=MetricsRegistry(),
    )
    collector._registrations["bench.q"] = synthetic_registration()
    reports = synthetic_reports(n)
    start = time.perf_counter()
    ingest = collector.ingest
    for report in reports:
        ingest(report)
    collector.close_window(0)
    elapsed = time.perf_counter() - start
    ingested, accounted = collector.balance()
    assert ingested == accounted, "flow invariant violated"
    return {
        "reports": n,
        "seconds": elapsed,
        "reports_per_s": n / elapsed if elapsed > 0 else float("inf"),
    }


def render(ingest: dict) -> str:
    return "\n".join([
        "Collection plane:",
        f"  ingest:  {ingest['reports']} reports in "
        f"{ingest['seconds'] * 1e3:.1f} ms "
        f"({ingest['reports_per_s'] / 1e3:.0f}k reports/s, full path)",
    ])


# --------------------------------------------------------------------- #
# pytest entry points                                                    #
# --------------------------------------------------------------------- #

def test_ingest_throughput(benchmark, show):
    ingest = benchmark.pedantic(
        lambda: measure_ingest_throughput(REPORTS_PER_WINDOW),
        rounds=1, iterations=1,
    )
    show(render(ingest))


# --------------------------------------------------------------------- #
# script entry point (CI smoke job)                                      #
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for CI time budgets")
    parser.add_argument("--reports", type=int, default=None,
                        help="reports per window (overrides --smoke)")
    args = parser.parse_args(argv)
    n = args.reports or (SMOKE_REPORTS if args.smoke else REPORTS_PER_WINDOW)
    print(render(measure_ingest_throughput(n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
