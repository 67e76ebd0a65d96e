"""The asyncio HTTP/JSON front of the allocation service.

A deliberately small stdlib-only HTTP/1.1 server (no web framework in
the dependency budget): request line + headers + ``Content-Length``
body in, JSON out, keep-alive connections.  Routes:

* ``POST /v1/simulate`` | ``/v1/conflict_graph`` | ``/v1/allocate`` |
  ``/v1/evaluate`` | ``/v1/sweep`` — one
  :mod:`repro.serve.schema` request per call; the response envelope
  carries the healed outcome status even for failed solves (HTTP 200),
  shed requests get 503 + ``Retry-After``, malformed payloads a
  *schema-shaped* 400 (an ``error.response`` body, never a bare HTTP
  error or a 500) and unknown routes 404.
* ``GET /healthz`` — liveness: 200 while the executor is not stalled
  on one unit (any verb's) and the daemon is not draining; the JSON
  body is ``{healthy, draining, run_id, current, busy_s}``.
* ``GET /readyz`` — readiness: 200 while new requests would be
  admitted; flips to 503 the instant a drain begins.
* ``GET /metrics`` — Prometheus text exposition of the service's
  counters, gauges and latency summaries.

Hardening at this layer (the service handles admission/deadlines):

* bodies above ``max_body_bytes`` and oversized header blocks are
  refused with structured 400s before any allocation work;
* reads are bounded by ``client_timeout_s`` so a slow-loris client
  cannot hold a connection open indefinitely
  (``serve.client_timeouts``);
* a client that disconnects mid-request has its in-flight work
  cancelled (``serve.client_disconnects``) instead of leaking an
  orphaned solve or a stack trace;
* the ``serve.accept`` / ``serve.parse`` / ``serve.respond`` fault
  sites let the chaos harness fail each stage deliberately.

:func:`run_daemon` is the blocking entry point behind ``repro serve``;
on SIGTERM/SIGINT it drains gracefully — new work sheds immediately,
``/healthz`` and ``/readyz`` flip to 503, in-flight requests
(queued ones included) get ``drain_timeout_s`` to finish, and the
process exits 0.  :func:`start_in_thread` runs the same daemon on a background
thread for tests, benches and the smoke gate.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Callable

from repro.errors import ConfigurationError, ReproError
from repro.obs.logging import log_event
from repro.resilience.faults import maybe_inject
from repro.serve.schema import ErrorResponse, request_from_json
from repro.serve.service import AllocationService

#: URL prefix of the verb endpoints.
API_PREFIX = "/v1/"

#: Default bound on request body size.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Default bound on how long one read from a client may take.
DEFAULT_CLIENT_TIMEOUT_S = 30.0

#: Default budget for in-flight requests to finish during drain.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: How often the respond-wait loop re-checks client liveness.
_DISCONNECT_POLL_S = 0.02

#: HTTP reason phrases for the status codes the daemon emits.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json",
                   extra_headers: dict[str, str] | None = None
                   ) -> bytes:
    """Serialise one HTTP/1.1 response with keep-alive headers."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    return head.encode("latin-1") + body


def _json_body(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _error_body(error_type: str, message: str,
                site: str = "serve.parse") -> bytes:
    """A schema-shaped error payload (an ``error.response`` body)."""
    return _json_body(ErrorResponse(
        error={"type": error_type, "message": message, "site": site},
    ).to_json())


class _HttpError(Exception):
    """A request refused at the HTTP layer with a structured body.

    Attributes:
        status: HTTP status to answer with.
        error_type: the structured error's ``type`` field.
        message: the structured error's ``message`` field.
        close: whether the connection must close afterwards (set when
            the offending bytes were never consumed, e.g. an
            oversized body left unread on the socket).
    """

    def __init__(self, status: int, error_type: str, message: str,
                 close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.message = message
        self.close = close

    def response(self) -> bytes:
        return _http_response(
            self.status, _error_body(self.error_type, self.message))


class _SlowClient(Exception):
    """A read from the client exceeded ``client_timeout_s``."""


class ServeDaemon:
    """One HTTP listener bound to one :class:`AllocationService`.

    Args:
        service: the engine-facing service answering the requests.
        host: interface to bind (default loopback).
        port: TCP port; ``0`` picks an ephemeral port, readable from
            :attr:`port` after :meth:`start`.
        max_body_bytes: refuse request bodies above this size with a
            structured 400 (``<= 0`` = unbounded).
        client_timeout_s: bound on each read from a client; a
            slower-than-this client is disconnected
            (``None``/``<= 0`` = unbounded).
    """

    def __init__(self, service: AllocationService,
                 host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 client_timeout_s: float | None =
                 DEFAULT_CLIENT_TIMEOUT_S) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.client_timeout_s = client_timeout_s \
            if client_timeout_s and client_timeout_s > 0 else None
        self._server: asyncio.AbstractServer | None = None

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port request)."""
        self._server = await asyncio.start_server(
            self._client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and wait for it to wind down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Serve until cancelled (the listener must be started)."""
        assert self._server is not None
        await self._server.serve_forever()

    async def drain(self, timeout_s: float =
                    DEFAULT_DRAIN_TIMEOUT_S) -> bool:
        """Gracefully wind down: shed new work, finish in-flight.

        The listener stays open throughout so already-connected
        clients observe structured 503s instead of connection resets;
        :meth:`stop` closes it afterwards.  Returns whether all
        in-flight work finished inside *timeout_s*.
        """
        return await self.service.drain(timeout_s)

    # -- connection handling --------------------------------------------------

    def _count(self, name: str) -> None:
        self.service.registry.counter(name).inc()

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one keep-alive connection until EOF or ``close``."""
        try:
            maybe_inject("serve.accept")
            await self._exchange_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            self._count("serve.client_disconnects")
        except _SlowClient:
            self._count("serve.client_timeouts")
        except asyncio.CancelledError:
            pass  # daemon shutting down with the connection open
        except Exception as error:
            # An injected serve.accept fault or anything else the
            # stages missed: close this connection, never the daemon.
            self._count("serve.connection_errors")
            log_event("serve.connection_error",
                      error=type(error).__name__, message=str(error))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # CancelledError: the daemon is shutting down and
                # cancelled this task mid-close; the transport is
                # already going away, so finish quietly instead of
                # surfacing a cancellation traceback from the loop.
                pass

    async def _exchange_loop(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """The request/response loop of one keep-alive connection."""
        while True:
            try:
                request = await self._read_request(reader)
            except _HttpError as error:
                writer.write(error.response())
                await writer.drain()
                if error.close:
                    return
                continue
            if request is None:
                return
            method, path, headers, body = request
            response = await self._respond(reader, writer, method,
                                           path, body)
            if response is None:
                return  # client disconnected mid-request
            maybe_inject("serve.respond")
            writer.write(response)
            await writer.drain()
            if headers.get("connection", "").lower() == "close":
                return

    async def _respond(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter, method: str,
                       path: str, body: bytes) -> bytes | None:
        """Run the route while watching for a client disconnect.

        The route runs as its own task; if the client goes away while
        it is in flight the task is cancelled — the cancellation
        propagates through the service (releasing the admission slot)
        so orphaned work never occupies the executor.  Returns
        ``None`` when the client disconnected.
        """
        route = asyncio.ensure_future(
            self._route(method, path, body))
        while True:
            done, _ = await asyncio.wait(
                {route}, timeout=_DISCONNECT_POLL_S)
            gone = reader.at_eof() or writer.is_closing() \
                or reader.exception() is not None
            if done:
                # Fast routes can finish inside the first poll window;
                # writing into a freshly closed loopback socket does
                # not raise, so the disconnect must be noticed here or
                # it leaves no trace at all.  (A well-behaved client
                # never half-closes before reading its response, so
                # EOF at this point always means the client is gone.)
                if gone:
                    self._count("serve.client_disconnects")
                    route.exception()  # retrieve, nobody to tell
                    return None
                return route.result()
            if gone:
                self._count("serve.client_disconnects")
                route.cancel()
                try:
                    await route
                except (asyncio.CancelledError, Exception):
                    pass
                return None

    async def _read(self, awaitable):
        """One bounded read; :class:`_SlowClient` on timeout."""
        if self.client_timeout_s is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable,
                                          self.client_timeout_s)
        except asyncio.TimeoutError:
            raise _SlowClient() from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP request; ``None`` on a closed connection.

        Raises :class:`_HttpError` for refusals that deserve a
        structured 400 and :class:`_SlowClient` when the client is
        too slow to finish a read.
        """
        try:
            head = await self._read(reader.readuntil(b"\r\n\r\n"))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(
                400, "OversizedHeader",
                "request header block exceeds the stream limit",
                close=True) from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, separator, value = line.partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise _HttpError(
                400, "MalformedRequest",
                "content-length is not an integer",
                close=True) from None
        if 0 < self.max_body_bytes < length:
            raise _HttpError(
                400, "OversizedBody",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit", close=True)
        try:
            body = await self._read(reader.readexactly(length)) \
                if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        return method, path, headers, body

    async def _route(self, method: str, path: str,
                     body: bytes) -> bytes:
        """Dispatch one parsed request to the service."""
        if path == "/healthz":
            if method != "GET":
                return _http_response(
                    405, _error_body("MethodNotAllowed", "GET only"))
            healthy, payload = self.service.healthz()
            return _http_response(200 if healthy else 503,
                                  _json_body(payload))
        if path == "/readyz":
            if method != "GET":
                return _http_response(
                    405, _error_body("MethodNotAllowed", "GET only"))
            ready = self.service.readyz()
            return _http_response(
                200 if ready else 503,
                _json_body({"ready": ready,
                            "draining": self.service.draining}))
        if path == "/metrics":
            if method != "GET":
                return _http_response(
                    405, _error_body("MethodNotAllowed", "GET only"))
            text = self.service.metrics_text()
            return _http_response(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        if path.startswith(API_PREFIX):
            if method != "POST":
                return _http_response(
                    405, _error_body("MethodNotAllowed", "POST only"))
            verb = path[len(API_PREFIX):]
            return await self._verb(verb, body)
        return _http_response(
            404, _error_body("UnknownRoute", f"no route {path!r}",
                             site="serve.route"))

    async def _verb(self, verb: str, body: bytes) -> bytes:
        """Decode, execute and encode one schema-typed verb call."""
        try:
            maybe_inject("serve.parse")
            data = json.loads(body.decode("utf-8"))
            if not isinstance(data, dict):
                raise ConfigurationError(
                    "request body must be a JSON object")
            data.setdefault("kind", verb)
            if data.get("kind") != verb:
                raise ConfigurationError(
                    f"kind {data.get('kind')!r} posted to /v1/{verb}")
            request = request_from_json(data)
        except json.JSONDecodeError as error:
            return _http_response(
                400, _error_body("MalformedRequest",
                                 f"invalid JSON: {error}"))
        except UnicodeDecodeError:
            return _http_response(
                400, _error_body("MalformedRequest",
                                 "request body is not valid UTF-8"))
        except (ValueError, ReproError) as error:
            error_type = "UnknownVerb" \
                if "unknown request kind" in str(error) \
                else type(error).__name__
            return _http_response(
                400, _error_body(error_type, str(error)))
        response = await self.service.handle(request)
        payload = _json_body(response.to_json())
        if response.status == "shed":
            return _http_response(
                503, payload,
                extra_headers={"Retry-After":
                               f"{response.retry_after_s:g}"})
        return _http_response(200, payload)


def run_daemon(service: AllocationService, host: str = "127.0.0.1",
               port: int = 0,
               announce: Callable[[str], None] | None = None,
               max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
               client_timeout_s: float | None =
               DEFAULT_CLIENT_TIMEOUT_S,
               drain_timeout_s: float =
               DEFAULT_DRAIN_TIMEOUT_S) -> None:
    """Run the daemon in the foreground until interrupted.

    Starts the service (instruments installed process-wide), binds the
    listener, calls *announce* with the bound base URL, and serves
    until SIGTERM/SIGINT — then drains gracefully: admission refuses
    new work (``/healthz`` and ``/readyz`` flip to 503 immediately),
    in-flight requests (queued ones included) get *drain_timeout_s* to
    finish, and both daemon and service unwind cleanly (exit 0).
    """
    async def main() -> None:
        daemon = ServeDaemon(service, host, port,
                             max_body_bytes=max_body_bytes,
                             client_timeout_s=client_timeout_s)
        await daemon.start()
        if announce is not None:
            announce(daemon.url)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        serving = asyncio.ensure_future(daemon.serve_forever())
        try:
            await stopping.wait()
            log_event("serve.signal")
            await daemon.drain(drain_timeout_s)
        finally:
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await daemon.stop()

    service.start()
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()


class DaemonHandle:
    """A daemon running on a background thread (tests and benches).

    Attributes:
        url: base URL of the bound listener.
        port: bound TCP port.
    """

    def __init__(self, daemon: ServeDaemon,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread,
                 service: AllocationService) -> None:
        self._daemon = daemon
        self._loop = loop
        self._thread = thread
        self._service = service
        self.url = daemon.url
        self.port = daemon.port

    def drain(self, timeout_s: float =
              DEFAULT_DRAIN_TIMEOUT_S) -> bool:
        """Run a graceful drain on the daemon's loop (blocking)."""
        return asyncio.run_coroutine_threadsafe(
            self._daemon.drain(timeout_s), self._loop
        ).result(timeout=timeout_s + 10)

    def stop(self) -> None:
        """Stop the listener, the event loop and the service."""
        asyncio.run_coroutine_threadsafe(
            self._daemon.stop(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._service.stop()


def start_in_thread(service: AllocationService,
                    host: str = "127.0.0.1",
                    port: int = 0,
                    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                    client_timeout_s: float | None =
                    DEFAULT_CLIENT_TIMEOUT_S) -> DaemonHandle:
    """Start the service + daemon on a background thread.

    Returns a :class:`DaemonHandle` once the listener is bound; the
    caller owns the handle and must :meth:`~DaemonHandle.stop` it.
    """
    service.start()
    ready = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        daemon = ServeDaemon(service, host, port,
                             max_body_bytes=max_body_bytes,
                             client_timeout_s=client_timeout_s)
        loop.run_until_complete(daemon.start())
        box["daemon"] = daemon
        box["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(
                    *pending, return_exceptions=True))
            loop.close()

    thread = threading.Thread(target=runner, name="serve-daemon",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        service.stop()
        raise RuntimeError("serve daemon failed to bind a listener")
    return DaemonHandle(box["daemon"], box["loop"], thread, service)
