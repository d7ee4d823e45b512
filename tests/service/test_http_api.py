"""The HTTP API at the dispatch layer (no sockets).

``dispatch`` is a pure coroutine from (method, path, query, body) to a
``Response``; driving it in-process exercises routing, status mapping,
and the NV-diagnostics error bodies without network flakiness.
"""

import asyncio
import json

import pytest

from repro.service import GeneratorSource, NewtonService, ServiceConfig
from repro.service.http import dispatch


@pytest.fixture
def service():
    return NewtonService(
        GeneratorSource(pps=1000, seed=2), ServiceConfig(switches=2)
    )


def call(service, method, path, query=None, body=b""):
    return asyncio.run(dispatch(service, method, path, query or {}, body))


def decode(response):
    return json.loads(response.body.decode())


def install_body(name="Q1", **extra):
    return json.dumps({"query": name, **extra}).encode()


class TestRouting:
    def test_index_lists_endpoints(self, service):
        response = call(service, "GET", "/")
        assert response.status == 200
        assert "GET /metrics" in decode(response)["endpoints"]

    def test_unknown_path_404(self, service):
        assert call(service, "GET", "/nope").status == 404

    def test_wrong_method_405(self, service):
        response = call(service, "PATCH", "/queries")
        assert response.status == 405
        assert decode(response)["allowed"] == "GET, POST"


class TestQueryCrud:
    def test_install_created(self, service):
        response = call(service, "POST", "/queries", body=install_body())
        assert response.status == 201
        payload = decode(response)
        assert payload["qid"] == "Q1"
        assert payload["rules_staged"] > 0
        listed = decode(call(service, "GET", "/queries"))
        assert "Q1" in listed["queries"]
        assert listed["committed_epoch"] == payload["committed_epoch"]

    def test_missing_body_400(self, service):
        assert call(service, "POST", "/queries").status == 400

    def test_malformed_json_400(self, service):
        response = call(service, "POST", "/queries", body=b"{nope")
        assert response.status == 400
        assert "bad JSON" in decode(response)["error"]

    @pytest.mark.parametrize("path", ["/queries", "/plan"])
    @pytest.mark.parametrize("body", [
        {"query": ["Q1"]},
        {"query": {}},
        {"query": "Q1", "thresholds": {"syn_flood": "x"}},
    ])
    def test_malformed_query_spec_400(self, tmp_path, path, body):
        service = NewtonService(
            GeneratorSource(pps=1000, seed=2),
            ServiceConfig(switches=2, wal_dir=str(tmp_path)),
        )
        response = call(service, "POST", path,
                        body=json.dumps(body).encode())
        assert response.status == 400, decode(response)
        assert service.tick() is not None  # still ticking
        assert decode(call(service, "GET", "/queries"))["queries"] == {}
        assert [r for r in service.wal.records() if r["kind"] == "op"] == []

    def test_duplicate_install_409(self, service):
        call(service, "POST", "/queries", body=install_body())
        assert call(
            service, "POST", "/queries", body=install_body()
        ).status == 409

    def test_admission_failure_422_with_nv_diagnostics(self, service):
        response = call(service, "POST", "/queries", body=install_body(
            params={"reduce_registers": 10_000_000},
        ))
        assert response.status == 422
        payload = decode(response)
        assert payload["error"] == "static verification failed"
        codes = {d["code"] for d in payload["diagnostics"]}
        assert codes, "rejections must carry NV diagnostics"
        assert all(code.startswith("NV") for code in codes)

    def test_update_and_remove(self, service):
        call(service, "POST", "/queries", body=install_body())
        updated = call(service, "PUT", "/queries/Q1", body=install_body(
            thresholds={"new_tcp_conns": 50},
        ))
        assert updated.status == 200
        assert decode(updated)["op"] == "update"
        removed = call(service, "DELETE", "/queries/Q1")
        assert removed.status == 200
        assert decode(call(service, "GET", "/queries"))["queries"] == {}

    def test_remove_unknown_404(self, service):
        assert call(service, "DELETE", "/queries/Q9").status == 404


class TestReadSide:
    def test_healthz(self, service):
        payload = decode(call(service, "GET", "/healthz"))
        assert payload["status"] == "ok"
        assert payload["window_epoch"] == 0

    def test_reports_respects_limit_and_validates_it(self, service):
        call(service, "POST", "/queries", body=install_body())
        for _ in range(3):
            service.tick()
        payload = decode(call(service, "GET", "/reports",
                              query={"limit": ["2"]}))
        assert [e["epoch"] for e in payload["reports"]] == [1, 2]
        assert call(service, "GET", "/reports",
                    query={"limit": ["two"]}).status == 400

    def test_coverage_shape(self, service):
        payload = decode(call(service, "GET", "/coverage"))
        assert set(payload) == {"coverage", "degraded"}

    def test_metrics_content_type_and_body(self, service):
        call(service, "POST", "/queries", body=install_body())
        service.tick()
        response = call(service, "GET", "/metrics")
        assert response.status == 200
        assert response.content_type == "text/plain; version=0.0.4"
        text = response.body.decode()
        assert "# TYPE service_packets_total counter" in text
        assert "feed_events_published_total" in text
