"""Figure 11 — query install/removal delay (100 repetitions per query)."""

from repro.experiments import EXPERIMENTS

FIG11 = EXPERIMENTS["fig11"]


def test_fig11_operation_delay(benchmark, show):
    (rows,) = benchmark.pedantic(FIG11.run, rounds=1, iterations=1)
    show(f"{FIG11.title}\n{FIG11.render(rows)}")
    for row in rows:
        summary = row.summary()
        assert summary["install_p99"] < 20.0, row.query
        assert summary["remove_p99"] < 20.0, row.query
    q1 = next(r for r in rows if r.query == "Q1")
    assert q1.summary()["install_mean"] < 8.0  # paper: as low as ~5 ms
