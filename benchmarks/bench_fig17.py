"""Figure 17 — network-wide query placement of Q4."""

from repro.experiments import EXPERIMENTS
from repro.experiments.exp_fig17 import compile_q4

FIG17 = EXPERIMENTS["fig17"]


def test_fig17_placement(benchmark, show):
    points_a, points_b = benchmark.pedantic(
        FIG17.run, rounds=1, iterations=1
    )
    show(f"{FIG17.title}\n{FIG17.render(points_a, points_b)}")

    # The compiled Q4 matches the paper's setup: 10 stages, 19 module rules.
    compiled = compile_q4()
    assert compiled.num_stages == 10
    assert compiled.num_modules == 19

    # (a) total entries grow with the required switch count, and the growth
    # is steeper on the ISP topology than on the fat-tree (paper §6.5).
    ft = [p for p in points_a if p.topology.startswith("fat-tree")]
    isp = [p for p in points_a if p.topology.startswith("isp")]
    assert [p.total_entries for p in ft] == sorted(
        p.total_entries for p in ft
    )
    ft_growth = ft[-1].total_entries / ft[0].total_entries
    isp_growth = isp[-1].total_entries / isp[0].total_entries
    assert isp_growth > ft_growth

    # (b) total entries grow linearly with topology scale while the average
    # per switch stabilises to a constant.
    averages = [p.average_entries for p in points_b]
    assert max(averages) - min(averages) < 0.5
    ratio = points_b[-1].total_entries / points_b[0].total_entries
    scale = points_b[-1].num_switches / points_b[0].num_switches
    assert abs(ratio - scale) / scale < 0.05
