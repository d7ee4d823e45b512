"""Control-op scaling — ``update_query`` latency against resident queries.

An operation should cost what it touches, not what is resident: the same
network-wide threshold update is timed on ``fat_tree(4)`` with 17, 34 and
68 queries installed beside it, and through the service with and without
the post-commit audit (see ``repro.experiments.exp_control_scaling``).
"""

from repro.experiments import EXPERIMENTS

SCALING = EXPERIMENTS["control-scaling"]


def test_control_op_scaling(benchmark, show):
    points, service = benchmark.pedantic(SCALING.run, rounds=1, iterations=1)
    show(f"{SCALING.title}\n{SCALING.render(points, service)}")
    assert [p.resident for p in points] == [17, 34, 68]
    # Four times the residents, at most half as much again per update
    # (before the passes were anchored: 7.9 -> 31.4 ms, 3.96x).
    assert points[-1].update_ms <= 1.5 * points[0].update_ms
    for point in points:
        assert point.gate_ms + point.txn_ms <= point.update_ms
    # The audit is of the operation, not of the fleet: at 68 residents
    # the whole-fleet walk alone cost ~87 ms per PUT.
    for point in service:
        assert point.audited_ms - point.unaudited_ms < 20.0
