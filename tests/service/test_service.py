"""NewtonService in-process: ticks, CRUD, admission, pruning."""

from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import all_queries
from repro.experiments.common import evaluation_thresholds
from repro.core.query import flatten
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear
from repro.service import (
    GeneratorSource,
    NewtonService,
    ReplaySource,
    ServiceConfig,
)
from repro.service.service import (
    ServiceError,
    params_from_spec,
    query_from_spec,
)
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces

PPS = 2000


def make_service(**overrides) -> NewtonService:
    config = ServiceConfig(switches=2, **overrides)
    return NewtonService(GeneratorSource(pps=PPS, seed=9), config)


class TestQuerySpecs:
    def test_library_spec_builds_the_named_intent(self):
        query = query_from_spec({"query": "Q1"})
        assert query.qid == "Q1"

    def test_threshold_overrides_applied(self):
        query = query_from_spec(
            {"query": "Q1", "thresholds": {"new_tcp_conns": 3}}
        )
        assert query.qid == "Q1"

    def test_unknown_library_name_rejected(self):
        with pytest.raises(ServiceError) as exc:
            query_from_spec({"query": "Q99"})
        assert exc.value.status == 400
        assert "choices" in exc.value.payload

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ServiceError) as exc:
            query_from_spec({"query": "Q1", "thresholds": {"nope": 1}})
        assert exc.value.status == 400

    def test_pipeline_spec_builds_a_custom_query(self):
        query = query_from_spec({
            "qid": "custom.syn",
            "pipeline": [
                {"op": "filter", "eq": {"proto": 6, "tcp_flags": 2}},
                {"op": "map", "keys": ["dip"]},
                {"op": "reduce", "keys": ["dip"]},
                {"op": "where", "ge": 5},
            ],
        })
        assert query.qid == "custom.syn"

    def test_bad_pipeline_op_rejected(self):
        with pytest.raises(ServiceError) as exc:
            query_from_spec({
                "qid": "x", "pipeline": [{"op": "join", "keys": ["dip"]}],
            })
        assert exc.value.status == 400

    def test_spec_needs_query_or_pipeline(self):
        with pytest.raises(ServiceError) as exc:
            query_from_spec({})
        assert exc.value.status == 400


class TestCrud:
    def test_install_reports_commit_and_publishes(self):
        service = make_service()
        sub = service.feed.subscribe()
        payload = service.install({"query": "Q1"})
        assert payload["qid"] == "Q1"
        assert payload["rules_staged"] > 0
        assert payload["committed_epoch"] == service.deployment.controller.txn.epoch >= 1
        assert "Q1" in service.deployment.controller.installed
        events = sub.pop_pending()
        assert [e["op"] for e in events] == ["install"]
        assert service.registry.counter("service_ops_total").value(
            op="install", outcome="ok") == 1

    def test_duplicate_install_conflicts(self):
        service = make_service()
        service.install({"query": "Q1"})
        with pytest.raises(ServiceError) as exc:
            service.install({"query": "Q1"})
        assert exc.value.status == 409

    def test_remove_unknown_is_404(self):
        service = make_service()
        with pytest.raises(ServiceError) as exc:
            service.remove("Q7")
        assert exc.value.status == 404

    def test_update_spec_must_match_url_qid(self):
        service = make_service()
        service.install({"query": "Q1"})
        with pytest.raises(ServiceError) as exc:
            service.update("Q1", {"query": "Q2"})
        assert exc.value.status == 400

    def test_oversubscribed_params_rejected_with_diagnostics(self):
        service = make_service()
        with pytest.raises(ServiceError) as exc:
            service.install({
                "query": "Q1", "params": {"reduce_registers": 10_000_000},
            })
        assert exc.value.status == 422
        codes = {d["code"] for d in exc.value.payload["diagnostics"]}
        assert codes & {"NV203", "NV601"}
        assert "Q1" not in service.deployment.controller.installed
        # Rejected cleanly: nothing staged anywhere.
        assert all(s.staged_rule_count == 0
                   for s in service.deployment.switches.values())

    def test_fleet_accuracy_gate_rolls_the_install_back(self):
        # Declaring a flow population far beyond the sketch width turns
        # the fleet analyzer's accuracy budget into an admission error;
        # the freshly committed query must be rolled back out.
        service = make_service(expected_flows=1_000_000)
        with pytest.raises(ServiceError) as exc:
            service.install({"query": "Q1"})
        assert exc.value.status == 422
        assert any(d["code"].startswith("NV7")
                   for d in exc.value.payload["diagnostics"])
        assert "Q1" not in service.deployment.controller.installed
        assert service.registry.counter("service_ops_total").value(
            op="install", outcome="rejected-fleet") == 1

    def test_refused_update_leaves_the_previous_definition_serving(self):
        # 1,500 declared flows: a 2048-wide sketch passes (NV701 warns),
        # a 1024-wide one is under-provisioned (NV703) and the update is
        # refused — which must put the 2048-wide query back, not remove it.
        service = make_service(expected_flows=1500)
        wide = {"query": "Q1", "params": {"reduce_registers": 2048}}
        service.install(wide)
        controller = service.deployment.controller
        rules_before = controller.rule_count()
        with pytest.raises(ServiceError) as exc:
            service.update("Q1", {"query": "Q1",
                                  "params": {"reduce_registers": 1024}})
        assert exc.value.status == 422
        assert {d["code"] for d in exc.value.payload["diagnostics"]
                if d["severity"] == "error"} == {"NV703"}
        assert list(controller.installed) == ["Q1"]
        assert controller.installed["Q1"].params.reduce_registers == 2048
        assert controller.rule_count() == rules_before
        assert controller.txn.residue()["staged_residue"] == 0
        assert controller.txn.residue()["retired_residue"] == 0
        assert service.registry.counter("service_ops_total").value(
            op="update", outcome="rejected-fleet") == 1
        # Still serving: the next window is monitored, on one epoch.
        event = service.tick()
        assert "Q1" in event["queries"]
        assert event["mixed_epoch_packets"] == 0
        # And still operable: an acceptable update goes through.
        service.update("Q1", {"query": "Q1",
                              "params": {"reduce_registers": 4096}})
        assert controller.installed["Q1"].params.reduce_registers == 4096

    def test_ops_refused_while_stopping(self):
        service = make_service()
        service.request_stop()
        with pytest.raises(ServiceError) as exc:
            service.install({"query": "Q1"})
        assert exc.value.status == 503


class TestIngest:
    def test_tick_publishes_one_window_event(self):
        service = make_service()
        service.install({"query": "Q1"})
        sub = service.feed.subscribe()
        event = service.tick()
        assert event["type"] == "window"
        assert event["epoch"] == 0
        assert event["packets"] > 0
        assert event["mixed_epoch_packets"] == 0
        assert "Q1" in event["queries"]
        assert sub.pop_pending() == [event]
        assert service.deployment.simulator.epoch == 1

    def test_results_surface_in_window_events(self):
        service = make_service()
        # Tiny threshold so background SYNs trip Q1 within one window.
        service.install({
            "query": "Q1", "thresholds": {"new_tcp_conns": 1},
        })
        hits = 0
        for _ in range(5):
            event = service.tick()
            q1 = event["queries"]["Q1"]
            hits += sum(len(r) for r in q1["results"].values())
        assert hits > 0

    def test_reports_view_tracks_history(self):
        service = make_service()
        service.install({"query": "Q1"})
        for _ in range(4):
            service.tick()
        view = service.reports(limit=2)
        assert [e["epoch"] for e in view["reports"]] == [2, 3]
        assert view["window_epoch"] == 4

    def test_source_exhaustion_stops_cleanly(self):
        service = NewtonService(
            GeneratorSource(pps=500, max_windows=2),
            ServiceConfig(switches=1),
        )
        assert service.tick() is not None
        assert service.tick() is not None
        assert service.tick() is None
        assert service.exhausted

    def test_pruning_bounds_retained_state(self):
        service = make_service(prune_lateness=2)
        service.install({
            "query": "Q1", "thresholds": {"new_tcp_conns": 1},
        })
        for _ in range(8):
            service.tick()
        # Windows below the lateness horizon are gone from the collector.
        collector = service.deployment.collector
        record = service.deployment.controller.installed["Q1"]
        for sub in flatten(record.query):
            epochs = collector.merged_results(sub.qid)
            assert all(e >= 8 - 1 - 2 for e in epochs)
        assert all(r.epoch >= 8 - 1 - 2
                   for r in service.deployment.analyzer.reports)

    def test_health_summarises_the_run(self):
        service = make_service()
        service.install({"query": "Q1"})
        service.tick()
        health = service.health()
        assert health["status"] == "ok"
        assert health["windows"] == 1
        assert health["packets"] > 0
        assert health["queries"] == ["Q1"]

    def test_metrics_text_is_prometheus(self):
        service = make_service()
        service.install({"query": "Q1"})
        service.tick()
        text = service.metrics_text()
        assert text.endswith("\n")
        assert "# TYPE service_windows_total counter" in text
        assert "service_windows_total 1" in text
        assert 'service_ops_total{op="install",outcome="ok"} 1' in text


class TestWindowEventKeys:
    """Single-field result / detection keys (Q6's join on ``dip``) are
    bare ints, not tuples; the window event must carry them all the same."""

    def test_eval9_ticks_through_five_windows(self):
        trace = ColumnarTrace.from_trace(assign_hosts(merge_traces([
            caida_like(3000, duration_s=0.5, seed=3),
            syn_flood(n_packets=600, duration_s=0.5, seed=4),
        ]), [("h_src0", "h_dst0")]))
        deployment = build_deployment(linear(2), array_size=1 << 14)
        thresholds = replace(evaluation_thresholds(), syn_flood=1,
                             syn_flood_sub=3)
        for query in all_queries(thresholds).values():
            deployment.controller.install_query(
                query, QueryParams(cm_depth=2, reduce_registers=1024,
                                   distinct_registers=1024),
                path=["s0", "s1"],
            )
        service = NewtonService(ReplaySource(trace), deployment=deployment)
        events = [service.tick() for _ in range(5)]
        assert all(event["type"] == "window" for event in events)
        detections = [key for event in events
                      for key in event["queries"]["Q6"]["detections"]]
        assert detections and all(
            isinstance(key, list) and len(key) == 1 for key in detections
        )
        results = [key for event in events
                   for sub in event["queries"]["Q6"]["results"].values()
                   for key in sub]
        assert results and all(key.isdigit() for key in results)


class TestPlacementFollowsTheTopology:
    """Off a chain, the service places by Algorithm 2 (``topology=``):
    its window answers equal a deployment's whose query was installed
    with ``topology=`` directly — not ``path=`` over the switches in
    creation order, which on a fat-tree parks every slice on a core
    switch no packet enters through."""

    SPEC = {
        "qid": "ft.tcp",
        "pipeline": [
            {"op": "filter", "eq": {"proto": 6}},
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"]},
            {"op": "where", "ge": 3},
        ],
    }

    @staticmethod
    def fat_tree_service():
        config = ServiceConfig(window_ms=100, engine="vector")
        deployment = build_deployment(
            fat_tree(4), num_stages=config.num_stages,
            table_capacity=config.table_capacity,
            array_size=config.array_size, window_ms=config.window_ms,
            engine=config.engine,
        )
        source = GeneratorSource(pps=5000, seed=4, max_windows=4,
                                 hosts=("hp0e0n0", "hp3e1n0"))
        return NewtonService(source, config, deployment=deployment)

    def test_window_answers_equal_a_topology_install(self):
        service, reference = (self.fat_tree_service(),
                              self.fat_tree_service())
        assert set(service.placement) == {"topology"}
        controller = reference.deployment.controller
        topology = reference.deployment.topology

        def reference_op(op, spec):
            op(query_from_spec(spec),
               params_from_spec(spec, reference.config.params),
               topology=topology)

        service.install(self.SPEC)
        reference_op(controller.install_query, self.SPEC)
        events = [service.tick(), service.tick()]
        expected = [reference.tick(), reference.tick()]
        updated = dict(self.SPEC, pipeline=[
            *self.SPEC["pipeline"][:-1], {"op": "where", "ge": 5},
        ])
        service.update("ft.tcp", updated)
        reference_op(controller.update_query, updated)
        events += [service.tick(), service.tick()]
        expected += [reference.tick(), reference.tick()]
        assert events == expected
        assert all(e["queries"]["ft.tcp"]["results"] for e in events)

    def test_a_chain_still_places_along_the_path(self):
        service = make_service()
        assert service.placement == {"path": ["s0", "s1"]}
