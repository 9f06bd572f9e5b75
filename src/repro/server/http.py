"""Minimal asyncio HTTP/JSON front end over a :class:`Supervisor`.

Hand-rolled on ``asyncio.start_server`` (the repo's zero-dependency rule
means no aiohttp): enough HTTP/1.1 to serve four routes to curl, a load
balancer, and the chaos harness —

``POST /query``
    ``{"query": ..., "database"?: ..., "top_k"?: ..., "deadline"?: ...}``
    → the supervisor's :class:`~repro.server.supervisor.ServerResponse`
    as JSON.  Status encodes the failure class: 200 ok, 400 for
    translation-level errors, 429 shed, 500 for worker crash/timeout
    (the HTTP face of exit code 8), 503 while draining.
``GET /healthz``
    Liveness: 200 while the event loop runs, 503 once closed.
``GET /readyz``
    Readiness: the supervisor's per-shard readiness plus drain state;
    200 only when every shard has a live worker and no drain has begun.
``GET /metrics``
    Prometheus text exposition of the shared registry.

**Graceful drain.**  :meth:`ServerApp.begin_drain` — wired to SIGTERM
by :func:`serve` — immediately flips ``/readyz`` to 503 (so load
balancers stop routing here), lets the supervisor refuse new work
typed, waits for admitted requests to finish, joins the workers and
logs the final snapshot.  In-flight HTTP requests complete; nothing
admitted is lost.

**Framing bounds.**  A request is refused before it reaches a route with
400 for a negative or non-numeric ``Content-Length``, 413 for a body
over :data:`MAX_BODY_BYTES`, and 431 for a request or header line over
the stream reader's 64 KiB line limit.  Every refusal is answered; none
drops the connection silently.

The app is testable without sockets: :meth:`ServerApp.dispatch` maps
``(method, path, body)`` → ``(status, content_type, body_bytes)``
directly, and :func:`serve` binds port 0 happily for tests.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, Optional

from ..errors import ReproError
from ..service import ServiceOverloaded
from .errors import ServerDraining, WorkerError
from .supervisor import Supervisor

#: request bodies larger than this are refused with 413
MAX_BODY_BYTES = 1 * 1024 * 1024


def _status_for(error: Optional[BaseException]) -> int:
    """Map a typed failure to an HTTP status (mirrors CLI exit codes)."""
    if error is None:
        return 200
    if isinstance(error, ServerDraining):
        return 503
    if isinstance(error, ServiceOverloaded):
        return 429
    if isinstance(error, WorkerError):
        return 500  # the HTTP face of CLI exit code 8
    if isinstance(error, ReproError):
        return 400  # translation-level: the query's fault, not ours
    return 500


class ServerApp:
    """Route dispatch for the serving front end (socket-free core)."""

    def __init__(self, supervisor: Supervisor, metrics=None) -> None:
        self.supervisor = supervisor
        self.metrics = metrics if metrics is not None else supervisor.metrics
        self._drain_task: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()
        self.final_snapshot: Optional[dict[str, Any]] = None

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """One request in, ``(status, content_type, body)`` out."""
        path = path.split("?", 1)[0]
        if path == "/query" and method == "POST":
            return await self._query(body)
        if path == "/healthz" and method == "GET":
            alive = not self.supervisor.closed
            return (
                200 if alive else 503,
                "application/json",
                _json({"status": "ok" if alive else "closed"}),
            )
        if path == "/readyz" and method == "GET":
            readiness = self.supervisor.readiness()
            return (
                200 if readiness["ready"] else 503,
                "application/json",
                _json(readiness),
            )
        if path == "/metrics" and method == "GET":
            if self.metrics is None:
                return 404, "text/plain", b"no metrics registry configured\n"
            return (
                200,
                "text/plain; version=0.0.4",
                self.metrics.render_text().encode("utf-8"),
            )
        return 404, "application/json", _json({"error": "no such route"})

    async def _query(self, body: bytes) -> tuple[int, str, bytes]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            query = payload["query"]
            if not isinstance(query, str):
                raise ValueError("'query' must be a string")
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return (
                400,
                "application/json",
                _json({"error": f"bad request body: {exc}"}),
            )
        try:
            future = self.supervisor.submit(
                query,
                database=payload.get("database", "default"),
                top_k=payload.get("top_k"),
                deadline=payload.get("deadline"),
            )
        except KeyError as exc:
            return 404, "application/json", _json({"error": str(exc)})
        response = await asyncio.wrap_future(future)
        doc = response.to_dict()
        doc["ok"] = response.ok
        return _status_for(response.error), "application/json", _json(doc)

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Start the graceful drain exactly once (SIGTERM handler)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        # Supervisor.drain blocks on worker joins — keep the loop alive
        # so in-flight HTTP responses still flush while it runs
        self.final_snapshot = await loop.run_in_executor(
            None, self.supervisor.drain
        )
        self._drained.set()

    async def wait_drained(self) -> dict[str, Any]:
        await self._drained.wait()
        assert self.final_snapshot is not None
        return self.final_snapshot


def _json(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _Refused(Exception):
    """A request answered with an error status before it reaches a route."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line overran the reader's 64 KiB limit
        raise _Refused(431, "request line or header field too large") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, bytes]]:
    """``(method, path, body)`` of one request, or None for a request
    line too short to answer."""
    parts = (await _read_line(reader)).decode("latin-1").split()
    if len(parts) < 2:
        return None
    content_length = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            text = value.strip()
            if not text.isdecimal():  # negative, signed or not a number
                raise _Refused(400, f"bad Content-Length {text!r}")
            content_length = int(text)
    if content_length > MAX_BODY_BYTES:
        raise _Refused(413, "request body too large")
    body = await reader.readexactly(content_length) if content_length else b""
    return parts[0].upper(), parts[1], body


async def _handle_connection(
    app: ServerApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Parse one HTTP/1.1 request, answer it, close the connection."""
    try:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            status, ctype, body = await app.dispatch(*request)
        except _Refused as refused:
            status, ctype = refused.status, "application/json"
            body = _json({"error": str(refused)})
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass  # the client went away mid-request; nothing to answer
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    supervisor: Supervisor,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signals: bool = True,
) -> None:
    """Run the front end until SIGTERM (or cancellation) drains it.

    Binds, serves the four routes, and on SIGTERM performs the graceful
    shutdown sequence: ``/readyz`` goes 503, the supervisor stops
    admitting, admitted work flushes, workers join, and the final
    snapshot is printed to stderr as one JSON line.
    """
    app = ServerApp(supervisor)
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host=host, port=port
    )
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, app.begin_drain)
    sockets = server.sockets or []
    for sock in sockets:
        print(
            f"repro server listening on {sock.getsockname()!r}",
            file=sys.stderr,
        )
    async with server:
        snapshot = await app.wait_drained()
        server.close()
        await server.wait_closed()
        print(json.dumps({"drain": snapshot}), file=sys.stderr)
