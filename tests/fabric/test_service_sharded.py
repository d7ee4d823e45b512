"""The service plane drives a sharded deployment unchanged.

:class:`ShardedDeployment` is a :class:`Deployment`, so
``NewtonService`` runs its CRUD, tick, prune, and health paths against
it without modification — and every published window event matches a
single-process service bit for bit.
"""

from dataclasses import replace

import pytest

from repro.core.library import build_query
from repro.experiments.common import evaluation_thresholds
from repro.fabric import ShardedDeployment
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.resilience import ResilienceConfig
from repro.service.service import NewtonService, ServiceConfig
from repro.service.sources import GeneratorSource

WINDOWS = 8


def make_service(deployment):
    config = ServiceConfig(window_ms=100, engine="vector",
                           prune_lateness=3)
    source = GeneratorSource(pps=20_000, seed=3, max_windows=WINDOWS)
    return NewtonService(source, config, deployment=deployment)


def deploy_kwargs():
    return dict(
        num_stages=12, table_capacity=256, array_size=1 << 13,
        window_ms=100, engine="vector", resilience=ResilienceConfig(),
    )


def install_queries(service):
    th = replace(evaluation_thresholds(), new_tcp_conns=3, port_scan=4)
    for name in ("Q1", "Q4"):
        service.deployment.controller.install_query(
            build_query(name, th), service.config.params,
            **service.placement,
        )


def drive(service):
    events = []
    while True:
        event = service.tick()
        if event is None:
            break
        events.append(event)
    return events


class TestServiceParity:
    def test_window_events_bit_identical(self):
        baseline = make_service(
            build_deployment(linear(3), **deploy_kwargs())
        )
        install_queries(baseline)
        base_events = drive(baseline)

        with ShardedDeployment(
            linear(3), workers=2, inline=True, record_reports=False,
            **deploy_kwargs(),
        ) as sd:
            sharded = make_service(sd)
            install_queries(sharded)
            shard_events = drive(sharded)

        assert len(base_events) == WINDOWS
        assert shard_events == base_events
        assert sum(e["packets"] for e in base_events) > 0

    def test_crud_and_health_through_the_facade(self):
        """Install / update / remove via the service's spec path, plus
        health and metrics, all fanned out by the commit listener."""
        with ShardedDeployment(
            linear(3), workers=2, inline=True, record_reports=False,
            **deploy_kwargs(),
        ) as sd:
            service = make_service(sd)
            spec = {
                "qid": "t.live",
                "pipeline": [
                    {"op": "filter", "eq": {"proto": 6}},
                    {"op": "map", "keys": ["dip"]},
                    {"op": "reduce", "keys": ["dip"]},
                    {"op": "where", "ge": 3},
                ],
            }
            out = service.install(spec)
            assert out["qid"] == "t.live"
            assert "t.live" in sd.qpart.owners()

            service.tick()
            health = service.health()
            assert health["queries"] == ["t.live"]
            assert health["window_epoch"] == 1
            assert "service_windows_total" in service.metrics_text()

            spec["pipeline"][-1] = {"op": "where", "ge": 9}
            service.update("t.live", spec)
            assert "t.live" in sd.qpart.owners()

            service.remove("t.live")
            assert "t.live" not in sd.qpart.owners()
            assert service.health()["queries"] == []

    def test_simulator_has_no_at(self):
        """Opaque callbacks cannot fan out: the sharded simulator has no
        ``at`` at all (``ShardedDeployment.schedule`` takes an op)."""
        with ShardedDeployment(
            linear(3), workers=2, inline=True, **deploy_kwargs()
        ) as sd:
            with pytest.raises(AttributeError):
                sd.simulator.at(0.1, lambda: None)
