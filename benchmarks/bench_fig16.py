"""Figure 16 — resource multiplexing over concurrent Q4 queries."""

from repro.experiments import EXPERIMENTS

FIG16 = EXPERIMENTS["fig16"]


def test_fig16_concurrent_queries(benchmark, show):
    (points,) = benchmark.pedantic(FIG16.run, rounds=1, iterations=1)
    show(f"{FIG16.title}\n{FIG16.render(points)}")
    first, last = points[0], points[-1]
    # Sonata and S-Newton grow linearly with the query count...
    assert last.sonata_stages == 100 * first.sonata_stages
    assert last.s_newton_modules == 100 * first.s_newton_modules
    # ...while P-Newton multiplexes modules and stages (measured on a real
    # switch install), with only table rules growing.
    assert last.p_newton_modules == first.p_newton_modules
    assert last.p_newton_stages == first.p_newton_stages == 10
    assert last.p_newton_rules == 100 * first.p_newton_rules
