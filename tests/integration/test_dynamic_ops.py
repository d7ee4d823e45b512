"""Dynamic query operations: the headline Newton capability.

Installing, removing, and updating queries are pure table-rule
transactions: they must never interrupt forwarding, and they must take
effect immediately (Figure 10/11 behaviours).
"""

from repro.core.compiler import QueryParams
from repro.core.library import (
    QueryThresholds,
    build_query,
    evaluation_thresholds,
)
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.traffic.generators import assign_hosts, syn_flood
from repro.traffic.traces import Trace

PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=512, distinct_registers=512)

#: The paper's Figure 11 query-operation band, in seconds.
BAND_S = (0.005, 0.020)


def syn_stream(n, dip=9, start=0.0, step=0.001):
    return [
        Packet(sip=i + 1, dip=dip, proto=6, tcp_flags=2,
               ts=start + i * step, src_host="h_src0", dst_host="h_dst0")
        for i in range(n)
    ]


def q1(threshold):
    return (
        Query("dyn.q1")
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


class TestNoInterruption:
    def test_forwarding_continues_through_install(self):
        deployment = build_deployment(linear(1), array_size=4096)
        switch = deployment.switch("s0")
        # Packets forwarded before, during (conceptually), and after the
        # install must all be delivered: the switch never goes down.
        stats1 = deployment.simulator.run(Trace(syn_stream(5)))
        deployment.controller.install_query(q1(3), PARAMS, path=["s0"])
        stats2 = deployment.simulator.run(Trace(syn_stream(5, start=0.01)))
        assert stats1.dropped == stats2.dropped == 0
        assert switch.is_forwarding(at=0.0)
        assert not switch.reboots

    def test_install_takes_effect_immediately(self):
        deployment = build_deployment(linear(1), array_size=4096)
        deployment.simulator.run(Trace(syn_stream(10)))  # before: no query
        assert deployment.analyzer.message_count == 0
        deployment.controller.install_query(q1(3), PARAMS, path=["s0"])
        deployment.simulator.run(Trace(syn_stream(10, start=0.02)))
        assert deployment.analyzer.message_count == 1

    def test_remove_stops_monitoring(self):
        deployment = build_deployment(linear(1), array_size=4096)
        deployment.controller.install_query(q1(2), PARAMS, path=["s0"])
        deployment.simulator.run(Trace(syn_stream(3)))
        before = deployment.analyzer.message_count
        deployment.controller.remove_query("dyn.q1")
        deployment.simulator.run(Trace(syn_stream(10, start=0.02)))
        assert deployment.analyzer.message_count == before

    def test_update_swaps_threshold(self):
        deployment = build_deployment(linear(1), array_size=4096)
        deployment.controller.install_query(q1(3), PARAMS, path=["s0"])
        deployment.controller.update_query(q1(100), PARAMS, path=["s0"])
        deployment.simulator.run(Trace(syn_stream(50)))
        # New threshold (100) never crossed: no reports.
        assert len(deployment.analyzer.reports) == 0


class TestOperationLatency:
    def test_all_library_queries_under_20ms(self):
        deployment = build_deployment(linear(1), array_size=1 << 14)
        params = QueryParams(cm_depth=2, bf_hashes=3,
                             reduce_registers=512, distinct_registers=512)
        for name in [f"Q{i}" for i in range(1, 10)]:
            query = build_query(name, QueryThresholds())
            result = deployment.controller.install_query(
                query, params, path=["s0"]
            )
            removal = deployment.controller.remove_query(name)
            assert result.delay_s < 0.020, name
            assert removal.delay_s < 0.020, name

    def test_sonata_equivalent_update_is_seconds(self):
        """The same operation on Sonata reboots the switch for seconds."""
        from repro.baselines.sonata import (
            SWITCH_P4_DEFAULT_ENTRIES,
            interruption_delay,
        )

        sonata = interruption_delay(SWITCH_P4_DEFAULT_ENTRIES)
        deployment = build_deployment(linear(1), array_size=4096)
        newton = deployment.controller.install_query(
            q1(3), PARAMS, path=["s0"]
        ).delay_s
        assert sonata / newton > 100  # orders of magnitude apart


def update_mid_flood(hitless):
    """Swap Q1 on a 3-switch path 200 ms into a 400 ms SYN flood.

    ``hitless``: one make-before-break ``update_query``.  Otherwise the
    pre-transactional model: ``remove_query``, then ``install_query``
    once the removal's channel delay has elapsed.  Returns the
    monitoring gap (matching packets that did not initiate Q1 at their
    ingress), the mixed-epoch packets and the operation's delay.
    """
    deployment = build_deployment(linear(3), array_size=1 << 13)
    controller, sim = deployment.controller, deployment.simulator
    query = build_query("Q1", evaluation_thresholds())
    params = QueryParams(cm_depth=2, reduce_registers=1024)
    path = ["s0", "s1", "s2"]
    controller.install_query(query, params, path=path)
    delays = []

    def update():
        delays.append(controller.update_query(query, params,
                                              path=path).delay_s)

    def remove_then_install():
        delays.append(controller.remove_query("Q1").delay_s)
        sim.at(0.2 + delays[0] + 1e-9, lambda: delays.append(
            controller.install_query(query, params, path=path).delay_s))

    sim.at(0.2, update if hitless else remove_then_install)
    stats = sim.run(assign_hosts(
        syn_flood(n_packets=4000, duration_s=0.4, seed=11),
        [("h_src0", "h_dst0")],
    ))
    gap = stats.packets - stats.initiated_by_query["Q1"]
    return gap, stats.mixed_rule_epoch_packets, sum(delays)


class TestHitlessUpdate:
    def test_an_update_mid_flood_loses_no_packet_inside_the_band(self):
        gap, mixed, delay_s = update_mid_flood(hitless=True)
        assert (gap, mixed) == (0, 0)
        # Simulated channel time: deterministic, inside Figure 11's band.
        assert BAND_S[0] <= delay_s <= BAND_S[1]
        # Remove + install leaves packets unmonitored: the bar is real.
        assert update_mid_flood(hitless=False)[0] > 0


class TestDrillDown:
    def test_reactive_query_refinement(self):
        """The paper's motivating workflow: detect an anomaly with a broad
        query, then dynamically install a drill-down query scoped to the
        victim — without touching the switch program."""
        from repro.core.ast import CmpOp, FieldPredicate

        deployment = build_deployment(linear(1), array_size=1 << 13)
        deployment.controller.install_query(q1(5), PARAMS, path=["s0"])
        deployment.simulator.run(Trace(syn_stream(8, dip=77)))
        detections = deployment.analyzer.detections("dyn.q1")
        assert detections[0] == [(77,)]

        drill = (
            Query("dyn.drill")
            .filter(
                FieldPredicate("proto", CmpOp.EQ, 6),
                FieldPredicate("tcp_flags", CmpOp.EQ, 2),
                FieldPredicate("dip", CmpOp.EQ, 77),
            )
            .map("sip")
            .reduce("sip")
            .where(ge=2)
        )
        deployment.controller.install_query(drill, PARAMS, path=["s0"])
        attackers = [
            Packet(sip=5, dip=77, proto=6, tcp_flags=2, ts=0.02 + i * 1e-4,
                   src_host="h_src0", dst_host="h_dst0")
            for i in range(3)
        ]
        deployment.simulator.run(Trace(attackers))
        drill_hits = deployment.analyzer.detections("dyn.drill")
        assert drill_hits[0] == [(5,)]
