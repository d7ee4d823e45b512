"""Figure 7 — query compilation reduction ratios."""

from repro.experiments import EXPERIMENTS

FIG7 = EXPERIMENTS["fig7"]


def test_fig7_optimization_ratios(benchmark, show):
    (rows,) = benchmark(FIG7.run)
    show(f"{FIG7.title}\n{FIG7.render(rows)}")
    assert min(r.module_reduction_pct for r in rows) >= 42.39
    assert min(r.stage_reduction_pct for r in rows) >= 68.9
