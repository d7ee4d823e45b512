"""Unified declarative FaultPlan: schema, compilation, scheduling."""

import json
import random

import numpy as np
import pytest

from repro.collector import FaultInjector
from repro.ctrlplane import FaultyControlChannel
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import (
    FaultEvent,
    FaultPlan,
    control_faults,
    corrupt_registers,
    crash,
    reboot,
    report_faults,
)


class TestSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor")

    def test_switch_faults_need_a_switch(self):
        for kind in ("crash", "reboot", "corrupt"):
            with pytest.raises(ValueError, match="needs a switch"):
                FaultEvent(kind=kind)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            crash("s0", at=-1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            corrupt_registers("s0", at=0.1, fraction=1.5)

    def test_events_normalised_to_tuple(self):
        plan = FaultPlan(events=[crash("s0", 0.1)])
        assert isinstance(plan.events, tuple)

    @pytest.mark.parametrize("kind, make", [
        ("control", control_faults),
        ("reports", report_faults),
    ])
    def test_one_rate_event_per_kind(self, kind, make):
        with pytest.raises(ValueError, match=f"at most one {kind}"):
            FaultPlan(events=(make(loss=0.1), crash("s0", 0.1),
                              make(loss=0.2)))


class TestRoundTrip:
    def test_json_round_trip(self):
        plans = [
            (
                crash("s0", 0.2, down_for=0.15),
                reboot("s1", 0.5, entries=128),
                corrupt_registers("s2", 0.3, fraction=0.25),
                control_faults(loss=0.1, timeout=0.05),
                report_faults(loss=0.02, delay=0.01),
            ),
            # Values equal to 0 or 1 that differ from the field default.
            (
                crash("s0", 0.2, down_for=0.0),  # back at once, not never
                corrupt_registers("s2", 0.3, fraction=1.0),
                control_faults(loss=1.0),
                report_faults(delay=1.0),
            ),
        ]
        for events in plans:
            plan = FaultPlan(events=events, seed=42)
            back = FaultPlan.from_json(json.dumps(plan.to_dict()))
            assert back == plan

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="missing 'kind'"):
            FaultPlan.from_dict({"events": [{"switch": "s0"}]})


class TestCompilation:
    def test_report_events_become_collector_faults(self):
        plan = FaultPlan(
            events=(report_faults(loss=0.1, duplication=0.02),), seed=9,
        )
        shim = build_deployment(linear(1), faults=plan).collector.faults
        assert isinstance(shim, FaultInjector)
        assert shim.rates.loss == 0.1 and shim.rates.duplication == 0.02
        # Seeded with the plan's seed itself.
        assert shim._rng.getstate() == random.Random(9).getstate()

    def test_no_report_events_no_collector_faults(self):
        plan = FaultPlan(events=(crash("s0", 0.1),))
        dep = build_deployment(linear(1), faults=plan)
        assert dep.collector.faults is None

    def test_control_events_become_faulty_channel(self):
        plan = FaultPlan(events=(control_faults(loss=0.3),), seed=4)
        dep = build_deployment(linear(1), faults=plan)
        channel = dep.controller.txn.channel
        assert isinstance(channel, FaultyControlChannel)
        assert channel.control.loss_rate == 0.3
        # Seeded with the plan's seed itself, keyed by transaction.
        channel.begin_transaction(7)
        expected = np.random.default_rng((4, 7)).random(5)
        assert [channel._fault_rng.random() for _ in range(5)] == list(
            expected
        )

    def test_no_control_events_no_channel(self):
        channel = build_deployment(linear(1), faults=FaultPlan()
                                   ).controller.txn.channel
        assert not isinstance(channel, FaultyControlChannel)

    def test_rates_only_plan_starts_no_resilience_plane(self):
        plan = FaultPlan(events=(control_faults(loss=0.1),
                                 report_faults(loss=0.1)), seed=3)
        dep = build_deployment(linear(1), faults=plan)
        assert dep.detector is None and dep.recovery is None
        assert "resilience_" not in dep.collector.metrics.render_prometheus()
        switch_plan = FaultPlan(events=plan.events + (crash("s0", 0.1),))
        assert build_deployment(linear(1), faults=switch_plan).recovery


class TestScheduling:
    def test_unknown_switch_is_an_error(self):
        plan = FaultPlan(events=(crash("nope", 0.1),))
        dep = build_deployment(linear(2))
        with pytest.raises(KeyError, match="unknown switch"):
            plan.schedule(dep.simulator, dep.switches)

    def test_timed_events_fire_on_the_switch(self):
        plan = FaultPlan(events=(crash("s0", 0.05, down_for=0.02),))
        dep = build_deployment(linear(2), faults=plan)
        from repro.core.packet import Packet
        from repro.traffic.traces import Trace
        dep.simulator.run(Trace([
            Packet(sip=1, dip=2, ts=i * 0.01,
                   src_host="h_src0", dst_host="h_dst0")
            for i in range(12)
        ]))
        assert len(dep.switches["s0"].crashes) == 1
        assert dep.switches["s0"].boot_id == 1

    def test_corruption_is_seed_deterministic(self):
        def corrupted_cells(seed):
            plan = FaultPlan(
                events=(corrupt_registers("s0", 0.0, fraction=0.5),),
                seed=seed,
            )
            dep = build_deployment(linear(1), array_size=512, faults=plan)
            from repro.core.compiler import QueryParams
            from repro.core.query import Query
            q = (Query("fp.q").filter(proto=6).map("dip").reduce("dip")
                 .where(ge=1))
            dep.controller.install_query(
                q, QueryParams(cm_depth=2, reduce_registers=64),
                path=["s0"],
            )
            from repro.core.packet import Packet
            from repro.traffic.traces import Trace
            dep.simulator.run(Trace([
                Packet(sip=1, dip=2, proto=6, ts=0.01,
                       src_host="h_src0", dst_host="h_dst0")
            ]))
            return dep.register_dumps()["s0"]

        assert corrupted_cells(5) == corrupted_cells(5)
        assert corrupted_cells(5) != corrupted_cells(6)
