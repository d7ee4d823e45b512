"""Figure 10 — Sonata's update interruption vs Newton's zero outage."""

from repro.experiments import EXPERIMENTS

FIG10 = EXPERIMENTS["fig10"]


def test_fig10_interruption(benchmark, show):
    a, b = benchmark(FIG10.run)
    show(f"{FIG10.title}\n{FIG10.render(a, b)}")
    assert 7.0 < a.sonata_outage_s < 8.0        # ~7.5 s (Figure 10a)
    assert 25.0 < b.delay_s[-1] < 35.0          # ~0.5 min at 60K entries
    assert all(tp == 40.0 for _, tp in a.newton_series)
