"""Ablation benchmarks — what each Newton design choice buys.

Not paper figures: these isolate the compact layout, the resilient
placement, the sketch shape, and the (future-work) admission planner
(the registry's ``ablations`` artefact, what ``newton-repro experiment
ablations`` prints), plus §7's state fragmentation under rerouting.
"""

from repro.experiments import EXPERIMENTS

ABLATIONS = EXPERIMENTS["ablations"]


def test_ablations(benchmark, show):
    layout, placement, shape, admission = benchmark.pedantic(
        ABLATIONS.run, rounds=1, iterations=1
    )
    show(f"{ABLATIONS.title}\n"
         f"{ABLATIONS.render(layout, placement, shape, admission)}")

    assert len(layout.compact_fit) >= 8
    assert len(layout.naive_fit) == 0
    # The paper's '25% of registers at most' claim.
    assert layout.naive_state_banks * 4 == layout.compact_state_banks

    # Resilience costs extra entries, but bounded (rule multiplexing)...
    assert placement.resilient_entries >= placement.oracle_entries
    assert placement.resilience_overhead < 3.0
    # ...and the layered engine over-approximates DFS, never the reverse.
    assert placement.layered_entries >= placement.resilient_entries
    assert placement.layered_seconds < placement.dfs_seconds

    # At a fixed total budget, width beats depth under crossing-based
    # reporting — which is why CQE's pooling (extra rows at constant
    # width, Figure 14) is the right memory axis.
    by_depth = {p.depth: p for p in shape}
    assert by_depth[1].recall >= by_depth[6].recall
    assert by_depth[1].fpr <= by_depth[6].fpr

    for row in admission:
        assert row.degraded_admitted >= row.strict_admitted
    # Capacity grows with memory; degradation helps most when starved.
    admits = [r.strict_admitted for r in admission]
    assert admits == sorted(admits)
    assert admission[0].degraded_admitted > admission[0].strict_admitted


def test_ablation_state_fragmentation(benchmark, show):
    from repro.experiments.ablations import ablate_state_fragmentation

    result = benchmark.pedantic(ablate_state_fragmentation, rounds=1,
                                iterations=1)
    show(
        "Ablation: state fragmentation under mid-window rerouting (§7)\n"
        f"  true SYN count {result.true_count}, threshold "
        f"{result.threshold}\n"
        f"  stable path      -> crossing reported: "
        f"{result.reported_stable}\n"
        f"  mid-window flip  -> crossing reported: "
        f"{result.reported_after_flip} (state split across parallel "
        f"paths)\n"
        f"  register readout -> exact count {result.readout_after_flip} "
        f"(rows summed across switches: the CPU-side recovery the paper "
        f"suggests)"
    )
    assert result.reported_stable
    assert not result.reported_after_flip     # the limitation, reproduced
    assert result.readout_after_flip == result.true_count  # the recovery
