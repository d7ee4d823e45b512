"""Engine registry, wiring, and the simulator contract engines use."""

from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.engine import (
    ENGINES,
    ExecutionEngine,
    ScalarEngine,
    VectorizedEngine,
    get_engine,
)
from repro.experiments.common import evaluation_thresholds
from repro.fabric.merge import record_reports
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces


class TestGetEngine:
    def test_none_means_scalar(self):
        assert isinstance(get_engine(None), ScalarEngine)

    def test_by_name(self):
        assert isinstance(get_engine("scalar"), ScalarEngine)
        assert isinstance(get_engine("vector"), VectorizedEngine)

    def test_instance_passthrough(self):
        engine = VectorizedEngine(batch_size=8)
        assert get_engine(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("quantum")

    def test_registry_holds_both_builtins(self):
        get_engine("scalar")  # ensure lazy registration happened
        assert {"scalar", "vector"} <= set(ENGINES)
        for cls in ENGINES.values():
            assert issubclass(cls, ExecutionEngine)


class TestVectorizedConfig:
    @pytest.mark.parametrize("bad", [0, -4])
    def test_batch_size_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="batch size"):
            VectorizedEngine(batch_size=bad)

    def test_engine_names(self):
        assert ScalarEngine().name == "scalar"
        assert VectorizedEngine().name == "vector"


class TestDeploymentWiring:
    def test_default_is_scalar(self):
        deployment = build_deployment(linear(1))
        assert isinstance(deployment.simulator.engine, ScalarEngine)

    def test_vector_selected_by_name(self):
        deployment = build_deployment(linear(1), engine="vector")
        assert isinstance(deployment.simulator.engine, VectorizedEngine)


class TenLineEngine(ExecutionEngine):
    """An engine written against the simulator's public contract alone:
    ``advance`` before each packet, ``finish`` at the end."""

    name = "ten-line"

    def run(self, sim, packets, stats):
        forward = ScalarEngine()._forward
        for packet in packets:
            sim.advance(packet.ts)
            stats.packets += 1
            forward(sim, packet, sim.router.path_for(packet), stats)
        return sim.finish(stats)


class TestSimulatorContract:
    """``advance`` / ``next_scheduled_ts`` / ``epoch`` / ``finish`` are
    all an engine needs — no underscore-prefixed simulator attribute."""

    PARAMS = QueryParams(cm_depth=2, reduce_registers=1024,
                         distinct_registers=1024)
    PATH = ["s0", "s1"]

    def observe(self, engine):
        """A trace straddling two window boundaries, with an ``at()``
        update landing mid-window."""
        dep = build_deployment(linear(2), array_size=1 << 13, engine=engine)
        th = replace(evaluation_thresholds(), new_tcp_conns=3)
        dep.controller.install_query(build_query("Q1", th), self.PARAMS,
                                     path=self.PATH)
        recorded = record_reports(dep.switches)
        fired = []

        def update():
            fired.append((dep.simulator.epoch,
                          dep.simulator.next_scheduled_ts()))
            dep.controller.update_query(
                build_query("Q1", replace(th, new_tcp_conns=6)),
                self.PARAMS, path=self.PATH,
            )

        dep.simulator.at(0.13, update)
        dep.simulator.at(0.17, lambda: fired.append("second"))
        assert dep.simulator.next_scheduled_ts() == 0.13
        trace = assign_hosts(merge_traces([
            caida_like(900, duration_s=0.25, seed=5),
            syn_flood(n_packets=300, duration_s=0.25, seed=6),
        ]), [("h_src0", "h_dst0")])
        stats = dep.simulator.run(trace)
        assert dep.simulator.next_scheduled_ts() is None
        assert fired == [(1, 0.17), "second"]
        return (
            stats.packets, stats.delivered, stats.dropped, stats.epochs,
            dict(stats.reports_by_switch), stats.deferred, stats.sp_bytes,
            stats.payload_bytes, stats.mixed_rule_epoch_packets,
            dict(stats.initiated_by_query), tuple(recorded),
            dep.register_dumps(), dep.collector.merged_results("Q1"),
        )

    def test_ten_line_engine_reproduces_the_scalar_engine(self):
        reference = self.observe("scalar")
        assert reference[3] == 3 and reference[4]  # 3 windows, reports
        assert self.observe(TenLineEngine()) == reference

    def test_advance_rejects_an_epoch_regression(self):
        sim = build_deployment(linear(1)).simulator
        sim.advance(0.25)
        assert sim.epoch == 2
        sim.advance(0.21)  # unsorted inside the window is tolerated
        with pytest.raises(ValueError, match="sorted by timestamp"):
            sim.advance(0.05)
