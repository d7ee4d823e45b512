"""Unified declarative FaultPlan: schema, compilation, scheduling."""

import json

import pytest

from repro.ctrlplane import ChannelFaultPlan, FaultyControlChannel
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


class TestRoundTrip:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(
                crash("s0", 0.2, down_for=0.15),
                reboot("s1", 0.5, entries=128),
                corrupt_registers("s2", 0.3, fraction=0.25),
                control_faults(loss=0.1, timeout=0.05),
                report_faults(loss=0.02, delay=0.01),
            ),
            seed=42,
        )
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
        cfg = plan.collector_faults()
        assert cfg is not None and cfg.active
        assert cfg.loss == 0.1 and cfg.duplication == 0.02
        assert cfg.seed == 10  # derived from the plan seed

    def test_no_report_events_no_collector_faults(self):
        assert FaultPlan(events=(crash("s0", 0.1),)).collector_faults() is None

    def test_control_events_become_faulty_channel(self):
        plan = FaultPlan(events=(control_faults(loss=0.3),), seed=4)
        channel = plan.build_channel()
        assert isinstance(channel, FaultyControlChannel)
        assert isinstance(plan.channel_plan(), ChannelFaultPlan)
        assert plan.channel_plan().loss_rate == 0.3

    def test_no_control_events_no_channel(self):
        assert FaultPlan().build_channel() is None


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
