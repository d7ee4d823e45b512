"""Table 3 — hardware resources consumed by Newton."""

from repro.experiments import EXPERIMENTS

TABLE3 = EXPERIMENTS["table3"]


def test_table3_resource_usage(benchmark, show):
    (rows,) = benchmark(TABLE3.run)
    show(f"{TABLE3.title}\n{TABLE3.render(rows)}")
    # Pin the headline per-stage values against the published table.
    by_key = {(r.category, r.metric): r.values for r in rows}
    compact = by_key[("Per-stage", "Compact Module Layout")]
    assert abs(compact["vliw"] - 16.90) < 0.02
    assert abs(compact["sram"] - 4.929) < 0.002
    baseline = by_key[("Per-stage", "Baseline")]
    assert abs(baseline["crossbar"] - 1.189) < 0.002
