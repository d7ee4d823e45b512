"""Figure 15 — query compilation evaluation (+ Sonata comparison)."""

from repro.experiments import EXPERIMENTS

FIG15 = EXPERIMENTS["fig15"]


def test_fig15_compilation(benchmark, show):
    rows, sonata = benchmark(FIG15.run)
    show(f"{FIG15.title}\n{FIG15.render(rows, sonata)}")
    for row in rows:
        # Optimisations never hurt, and Opt.3 compresses stages hardest.
        assert row.levels["+Opt.3"][1] <= row.levels["+Opt.2"][1]
        assert row.levels["+Opt.2"][0] <= row.levels["baseline"][0]
    # Q6's parallel sub-queries multiplex stages below its primitive count
    # (the paper's highlighted observation).
    q6 = next(r for r in rows if r.query == "Q6")
    assert q6.levels["+Opt.3"][1] < q6.dataplane_primitives
    # Optimised Newton undercuts Sonata's estimated stages on Q1-Q5.
    by_query = {r.query: r for r in rows}
    for name, (_, stages) in sonata.items():
        assert by_query[name].levels["+Opt.3"][1] < stages
