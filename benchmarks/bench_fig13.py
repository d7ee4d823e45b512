"""Figure 13 — network-wide monitoring overhead of Q1 vs path length."""

from repro.experiments import EXPERIMENTS

FIG13 = EXPERIMENTS["fig13"]


def test_fig13_hop_count_scaling(benchmark, show):
    (series,) = benchmark.pedantic(FIG13.run, rounds=1, iterations=1)
    show(f"{FIG13.title}\n{FIG13.render(series)}")
    by_name = {s.system: s.messages for s in series}
    newton = by_name["Newton"]
    # Newton is hop-count agnostic (reports exactly once per query)...
    assert len(set(newton.values())) == 1
    # ...while every sole-switch system grows linearly with hops.
    for system in ("Sonata", "TurboFlow", "*Flow", "FlowRadar"):
        msgs = by_name[system]
        assert msgs[4] == 4 * msgs[1], system
    assert newton[4] * 50 < by_name["TurboFlow"][4]
