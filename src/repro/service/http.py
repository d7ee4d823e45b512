"""Dependency-light asyncio HTTP API (stdlib only).

A deliberately small HTTP/1.1 server: request-line + headers +
``Content-Length`` bodies, one request per connection.  Routing lives in
:func:`dispatch`, a pure coroutine from ``(method, path, query, body)``
to a :class:`Response` — tests drive it in-process without sockets, and
the socket server is a thin shell around it.

Endpoints::

    GET    /healthz            liveness + current window epoch
    GET    /queries            installed queries + committed epoch
    POST   /queries            install (JSON query spec)
    PUT    /queries/<qid>      hitless update
    DELETE /queries/<qid>      remove
    GET    /reports            recent window reports (?qid=&limit=)
    GET    /stream             SSE feed of window events (?qid=)
    GET    /coverage           resilience-plane coverage/degradation
    GET    /plan               dynamic-planner state (plans, history)
    POST   /plan               hand a query to the dynamic planner
    GET    /metrics            Prometheus text exposition

Admission errors (the static verifier, which refuses before commit) come
back as 4xx with the NV diagnostics in the JSON body; aborted 2PC
transactions as 503 — the deployment is unchanged in both cases.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.service import NewtonService, ServiceError

__all__ = ["Response", "ServiceHTTP", "dispatch"]

logger = logging.getLogger("repro.service")


class Response(NamedTuple):
    status: int
    content_type: str
    body: bytes

    @classmethod
    def json(cls, status: int, payload: object) -> "Response":
        return cls(
            status, "application/json",
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
        )

    @classmethod
    def text(cls, status: int, body: str,
             content_type: str = "text/plain; version=0.0.4") -> "Response":
        return cls(status, content_type, body.encode())


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY = 1 << 20

_INDEX = {
    "endpoints": [
        "GET /healthz", "GET /queries", "POST /queries",
        "PUT /queries/<qid>", "DELETE /queries/<qid>", "GET /reports",
        "GET /stream", "GET /coverage", "GET /plan", "POST /plan",
        "GET /metrics",
    ],
}


def _parse_body(body: bytes) -> Dict[str, object]:
    if not body:
        raise ServiceError(400, {"error": "missing JSON request body"})
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(400, {"error": f"bad JSON: {exc}"}) from exc
    if not isinstance(parsed, dict):
        raise ServiceError(400, {"error": "body must be a JSON object"})
    return parsed


def _first(query: Dict[str, list], key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None


async def dispatch(service: NewtonService, method: str, path: str,
                   query: Dict[str, list],
                   body: bytes) -> Response:
    """Route one request; the service's op handlers run inline on the
    caller's event loop (which is what serializes them with ticks)."""
    try:
        if path == "/" and method == "GET":
            return Response.json(200, _INDEX)
        if path == "/healthz" and method == "GET":
            return Response.json(200, service.health())
        if path == "/queries":
            if method == "GET":
                return Response.json(200, service.queries())
            if method == "POST":
                payload = service.install(_parse_body(body))
                return Response.json(201, payload)
            return _method_not_allowed("GET, POST")
        if path.startswith("/queries/"):
            qid = path[len("/queries/"):]
            if not qid:
                return Response.json(404, {"error": "missing query id"})
            if method == "PUT":
                payload = service.update(qid, _parse_body(body))
                return Response.json(200, payload)
            if method == "DELETE":
                return Response.json(200, service.remove(qid))
            return _method_not_allowed("PUT, DELETE")
        if path == "/reports" and method == "GET":
            limit = _first(query, "limit")
            try:
                limit_n = int(limit) if limit else 0
            except ValueError:
                raise ServiceError(
                    400, {"error": f"bad limit {limit!r}"}
                ) from None
            return Response.json(200, service.reports(
                qid=_first(query, "qid"), limit=limit_n,
            ))
        if path == "/coverage" and method == "GET":
            return Response.json(200, service.coverage())
        if path == "/plan":
            if method == "GET":
                return Response.json(200, service.plan_state())
            if method == "POST":
                payload = service.plan_manage(_parse_body(body))
                return Response.json(201, payload)
            return _method_not_allowed("GET, POST")
        if path == "/metrics" and method == "GET":
            return Response.text(200, service.metrics_text())
        return Response.json(404, {"error": f"no such endpoint {path!r}"})
    except ServiceError as exc:
        return Response.json(exc.status, exc.payload)


def _method_not_allowed(allowed: str) -> Response:
    return Response.json(405, {"error": "method not allowed",
                               "allowed": allowed})


class ServiceHTTP:
    """The socket shell: accepts connections, parses one request each,
    answers via :func:`dispatch`, and streams ``/stream`` as SSE."""

    def __init__(self, service: NewtonService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ----------------------------------------------------------------- #

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, target, body = parsed
            split = urlsplit(target)
            path = split.path
            query = parse_qs(split.query)
            if path == "/stream" and method == "GET":
                await self._stream(writer, query)
                return
            response = await dispatch(
                self.service, method, path, query, body
            )
            self._write_response(writer, response)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except ValueError as exc:
            await self._last_words(
                writer, Response.json(400, {"error": str(exc)})
            )
        except Exception:
            # A handler bug must not cost the client its answer (or the
            # loop an unretrieved task exception): log it, say 500.
            logger.exception("request handler failed")
            await self._last_words(
                writer, Response.json(500, {"error": "internal error"})
            )
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover
                pass

    async def _last_words(self, writer: asyncio.StreamWriter,
                          response: Response) -> None:
        """Answer a request that failed; the peer may already be gone."""
        try:
            self._write_response(writer, response)
            await writer.drain()
        except OSError:  # pragma: no cover - peer already gone
            pass

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    def _write_response(self, writer: asyncio.StreamWriter,
                        response: Response) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + response.body)

    async def _stream(self, writer: asyncio.StreamWriter,
                      query: Dict[str, list]) -> None:
        """Server-Sent Events: one ``data:`` frame per window event."""
        qid = _first(query, "qid")
        if self.service.feed.closed:
            self._write_response(writer, Response.json(
                503, {"error": "service is shutting down"},
            ))
            await writer.drain()
            return
        sub = self.service.feed.subscribe(qid=qid)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
            b": stream open\n\n"
        )
        try:
            await writer.drain()
            while True:
                event = await sub.next_event()
                if event is None:
                    writer.write(b"event: end\ndata: {}\n\n")
                    await writer.drain()
                    return
                frame = json.dumps(event, sort_keys=True)
                writer.write(f"data: {frame}\n\n".encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            sub.unsubscribe()
