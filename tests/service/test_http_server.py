"""End-to-end over real sockets: server, client, and the SSE feed.

The service loop runs on an event loop owned by a background thread
(the same shape ``newton-repro serve`` uses); the test talks to it
with the stdlib-only :class:`ServiceClient`.
"""

import asyncio
import threading

import pytest

from repro.service import (
    GeneratorSource,
    NewtonService,
    ServiceAPIError,
    ServiceClient,
    ServiceConfig,
    ServiceHTTP,
)


class LiveServer:
    """A running service + HTTP API on an ephemeral port."""

    def __init__(self):
        self.service = NewtonService(
            GeneratorSource(pps=1000, seed=4),
            ServiceConfig(switches=2),
        )
        self.http = ServiceHTTP(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        self.call(self.http.start())

        async def _start_ingest():
            self.service.start()

        self.call(_start_ingest())
        return self

    def __exit__(self, *exc):
        self.summary = self.call(self.service.shutdown())
        self.call(self.http.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)

    def call(self, coro, timeout=60):
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout=timeout)

    @property
    def client(self):
        return ServiceClient(self.http.url, timeout=60)


@pytest.fixture(scope="module")
def server():
    with LiveServer() as live:
        yield live


def test_live_install_streams_reports(server):
    client = server.client
    assert client.health()["status"] == "ok"

    payload = client.install({"query": "Q1"})
    assert payload["rules_staged"] > 0

    events = list(client.stream(max_events=3, timeout=60))
    assert [e["type"] for e in events] == ["window"] * 3
    epochs = [e["epoch"] for e in events]
    assert epochs == sorted(epochs)
    assert all(e["mixed_epoch_packets"] == 0 for e in events)
    assert all("Q1" in e["queries"] for e in events)

    reports = client.reports(qid="Q1", limit=2)["reports"]
    assert len(reports) == 2


def test_live_rejection_carries_diagnostics(server):
    with pytest.raises(ServiceAPIError) as exc:
        server.client.install({
            "query": "Q3", "params": {"distinct_registers": 10_000_000},
        })
    assert exc.value.status == 422
    assert exc.value.diagnostics
    assert all(d["code"].startswith("NV") for d in exc.value.diagnostics)


def test_live_metrics_scrape(server):
    text = server.client.metrics()
    assert text.endswith("\n")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    for line in lines:
        name_and_labels, _, value = line.rpartition(" ")
        assert name_and_labels and float(value) >= 0
    assert any(ln.startswith("service_windows_total ") for ln in lines)


def test_live_bad_query_is_400_not_a_crash(server):
    with pytest.raises(ServiceAPIError) as exc:
        server.client.install({"query": "Q99"})
    assert exc.value.status == 400
    assert server.client.health()["status"] == "ok"


def test_live_handler_bug_is_500_not_a_dropped_connection(server,
                                                          monkeypatch):
    def broken():
        raise RuntimeError("handler bug")

    monkeypatch.setattr(server.service, "coverage", broken)
    with pytest.raises(ServiceAPIError) as exc:
        server.client.coverage()
    assert exc.value.status == 500
    assert exc.value.payload == {"error": "internal error"}
    monkeypatch.undo()
    assert server.client.health()["status"] == "ok"
