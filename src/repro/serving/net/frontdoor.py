"""The asyncio HTTP front door over :class:`~repro.serving.server.RavenServer`.

``HttpFrontDoor`` is the network half of ROADMAP item 2: an HTTP/1.1
server (stdlib :mod:`asyncio` streams, no framework) that puts the
existing bounded-admission serving stack on a real wire. Routes:

* ``POST /query`` — ad-hoc SQL: ``{"sql", "params"?, "data"?}``.
* ``POST /prepared/{name-or-fingerprint}/execute`` — a query prepared
  on the server: ``{"params"?, "data"?}``.
* ``GET /stats`` — ``server.stats()`` plus the front door's own
  counters under ``"net"``.
* ``GET /metrics`` — Prometheus text exposition of ``server.metrics``,
  the same event-fed registry ``/stats`` reports under ``"metrics"``
  (it folds the ``net.*`` events this front door emits, too).
* ``GET /healthz`` — liveness; ``503`` while the circuit breaker is
  shedding.

Resilience (the POST routes): per-client token-bucket backpressure
(``429 Retry-After``), idempotency-key replay (byte-identical, with
in-flight joining), per-request timeouts with cooperative cancellation
(a timed-out or disconnected client's *queued* work is cancelled, so
no worker slot is spent on a response nobody will read), and a circuit
breaker that sheds with ``503 Retry-After`` when the admission queue
saturates repeatedly. Every decision emits ``net.*`` events on the
process-wide bus, so the PR 6/9 observability stack (metrics,
watchdog, profiler) sees network traffic for free.

Lifecycle::

    with HttpFrontDoor(server, port=0) as door:   # own thread + loop
        requests.post(f"{door.url}/query", json={"sql": ...})

The front door owns one background thread running one event loop; all
resilience state is loop-confined, so none of it needs locks.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time

from repro.errors import (
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.observability import events
from repro.observability.export import render_prometheus
from repro.serving.net import http11
from repro.serving.net.codec import (
    parse_json_body,
    payload_to_tables,
    table_to_payload,
)
from repro.serving.net.http11 import (
    HttpError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
)
from repro.serving.net.resilience import (
    CircuitBreaker,
    IdempotencyCache,
    TokenBucketLimiter,
)


class _Disconnected(Exception):
    """The client hung up while its request was executing."""

    def __init__(self, cancelled_in_queue: bool):
        super().__init__("client disconnected")
        self.cancelled_in_queue = cancelled_in_queue


class _RequestTimeout(Exception):
    """The request exceeded the front door's per-request deadline."""

    def __init__(self, cancelled_in_queue: bool):
        super().__init__("request timed out")
        self.cancelled_in_queue = cancelled_in_queue


class HttpFrontDoor:
    """Serve a :class:`RavenServer` over HTTP with resilience middleware."""

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = 1 << 20,
        max_connections: int = 256,
        max_connections_per_client: int = 64,
        request_timeout_seconds: float = 30.0,
        rate_limit_per_client: float | None = None,
        rate_limit_burst: float | None = None,
        idempotency_ttl_seconds: float = 60.0,
        idempotency_capacity: int = 1024,
        breaker_failure_threshold: int = 5,
        breaker_cooldown_seconds: float = 1.0,
        disconnect_poll_seconds: float = 0.025,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.max_connections = max_connections
        self.max_connections_per_client = max_connections_per_client
        self.request_timeout_seconds = request_timeout_seconds
        self.disconnect_poll_seconds = disconnect_poll_seconds
        self.limiter = TokenBucketLimiter(
            rate_limit_per_client, rate_limit_burst
        )
        self.idempotency = IdempotencyCache(
            idempotency_capacity, idempotency_ttl_seconds
        )
        self.breaker = CircuitBreaker(
            breaker_failure_threshold, breaker_cooldown_seconds
        )
        self._counters = {
            "connections_opened": 0,
            "connections_active": 0,
            "connections_rejected": 0,
            "requests": 0,
            "rejected_oversized": 0,
            "rejected_rate_limited": 0,
            "rejected_circuit_open": 0,
            "rejected_overload": 0,
            "timeouts": 0,
            "disconnects": 0,
            "cancelled_in_queue": 0,
            "idempotent_replays": 0,
        }
        self._per_client: dict[str, int] = {}
        self._writers: set = set()  # loop-confined open connections
        self._loop: asyncio.AbstractEventLoop | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._closed = False
        self._state_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> tuple[str, int]:
        """Serve from a background thread; returns the bound address."""
        with self._state_lock:
            if self._closed:
                raise ServingError("front door has been closed")
            if self._thread is not None:
                return self.host, self.port
            ready = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(ready,),
                name="raven-net",
                daemon=True,
            )
            self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            with self._state_lock:
                self._thread = None
            raise error
        return self.host, self.port

    def close(self) -> None:
        """Stop accepting, drop open connections, and join the thread."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)

    def __enter__(self) -> "HttpFrontDoor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.start_async())
        except BaseException as exc:  # noqa: BLE001 — reported to start()
            self._startup_error = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()  # until close() stops it
            loop.run_until_complete(self.stop_async())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def start_async(self) -> None:
        """Bind and start serving on the *current* event loop."""
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=http11.MAX_LINE_BYTES,
        )
        bound = self._asyncio_server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def stop_async(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Abort open connections so their handler tasks unwind through
        # the normal EOF path instead of being cancelled mid-await, then
        # give them a bounded grace period to finish; stragglers (e.g.
        # still polling a worker future) are cancelled by _run_loop.
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        deadline = asyncio.get_running_loop().time() + 0.5
        while self._writers and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        counters = self._counters
        if (
            counters["connections_active"] >= self.max_connections
            or self._per_client.get(client, 0)
            >= self.max_connections_per_client
        ):
            counters["connections_rejected"] += 1
            events.emit(
                "net.rejected",
                reason="connection_limit",
                route="",
                client=client,
                retry_after=1,
            )
            writer.write(
                error_response(
                    503, "connection limit reached", retry_after=1, close=True
                ).encode()
            )
            await self._close_writer(writer)
            return
        counters["connections_opened"] += 1
        counters["connections_active"] += 1
        self._per_client[client] = self._per_client.get(client, 0) + 1
        self._writers.add(writer)
        try:
            await self._connection_loop(reader, writer, client)
        finally:
            self._writers.discard(writer)
            counters["connections_active"] -= 1
            remaining = self._per_client.get(client, 1) - 1
            if remaining <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = remaining
            await self._close_writer(writer)

    async def _connection_loop(self, reader, writer, client: str) -> None:
        while True:
            try:
                request = await read_request(reader, self.max_body_bytes)
            except HttpError as exc:
                if exc.status == 413:
                    self._counters["rejected_oversized"] += 1
                    events.emit(
                        "net.rejected",
                        reason="oversized",
                        route="",
                        client=client,
                        retry_after=0,
                    )
                writer.write(exc.response().encode())
                await self._drain_quietly(writer)
                if exc.close:
                    return
                continue
            if request is None:
                return
            started = time.perf_counter()
            try:
                response = await self._dispatch(request, client, reader)
            except _Disconnected:
                return
            self._counters["requests"] += 1
            events.emit(
                "net.request",
                method=request.method,
                route=_route_label(request.path),
                status=response.status,
                latency_seconds=time.perf_counter() - started,
                client=client,
            )
            writer.write(response.encode())
            if not await self._drain_quietly(writer):
                return
            if response.close or not request.keep_alive:
                return

    async def _drain_quietly(self, writer) -> bool:
        try:
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            return False

    async def _close_writer(self, writer) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this handler mid-close. The transport
            # is already closing (or aborted); finishing quietly lets
            # the connection task end clean instead of logging a spent
            # cancellation through the loop's exception handler.
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: Request, client: str, reader
    ) -> Response:
        method, path = request.method, request.path
        try:
            if path == "/healthz":
                if method != "GET":
                    return error_response(405, "use GET")
                return self._healthz()
            if path == "/stats":
                if method != "GET":
                    return error_response(405, "use GET")
                return json_response(self._stats_payload())
            if path == "/metrics":
                if method != "GET":
                    return error_response(405, "use GET")
                return self._metrics()
            if path == "/query":
                if method != "POST":
                    return error_response(405, "use POST")
                return await self._guarded(
                    request, client, reader, self._submit_query
                )
            parts = path.strip("/").split("/")
            if (
                len(parts) == 3
                and parts[0] == "prepared"
                and parts[2] == "execute"
            ):
                if method != "POST":
                    return error_response(405, "use POST")
                return await self._guarded(
                    request, client, reader, self._submit_prepared
                )
            return error_response(404, f"no route for {path!r}")
        except HttpError as exc:
            return exc.response()

    def _healthz(self) -> Response:
        state = self.breaker.state
        if state == CircuitBreaker.OPEN:
            return json_response(
                {"status": "shedding", "breaker": state},
                status=503,
                headers=(("Retry-After", "1"),),
            )
        return json_response({"status": "ok", "breaker": state})

    def _stats_payload(self) -> dict:
        snapshot = self.server.stats()
        snapshot["net"] = self.stats()
        return snapshot

    def _metrics(self) -> Response:
        text = render_prometheus(self.server.metrics.registry.snapshot())
        return Response(
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- resilience middleware ---------------------------------------------

    async def _guarded(
        self, request: Request, client: str, reader, submit
    ) -> Response:
        """Circuit breaker -> rate limit -> idempotency -> execute."""
        route = _route_label(request.path)
        allowed, retry_after = self.breaker.allow()
        if not allowed:
            self._counters["rejected_circuit_open"] += 1
            events.emit(
                "net.rejected",
                reason="circuit_open",
                route=route,
                client=client,
                retry_after=retry_after,
            )
            return error_response(
                503,
                "circuit breaker open: the admission queue is saturated",
                retry_after=math.ceil(retry_after),
            )
        wait = self.limiter.acquire(client)
        if wait > 0:
            self._counters["rejected_rate_limited"] += 1
            events.emit(
                "net.rejected",
                reason="rate_limited",
                route=route,
                client=client,
                retry_after=wait,
            )
            return error_response(
                429,
                f"client {client} exceeded its request rate",
                retry_after=math.ceil(wait),
            )
        idem_key = request.header("idempotency-key")
        if idem_key is None:
            return await self._execute(request, client, reader, submit)
        key = (route, idem_key)
        kind, value = self.idempotency.begin(key)
        if kind == "replay":
            self._counters["idempotent_replays"] += 1
            events.emit(
                "net.idempotent_replay", route=route, key=idem_key
            )
            return value
        if kind == "join":
            # The original request is still executing; share its result
            # instead of running the (possibly non-idempotent) work twice.
            try:
                shared = await asyncio.wait_for(
                    asyncio.shield(value), self.request_timeout_seconds
                )
            except asyncio.TimeoutError:
                self._counters["timeouts"] += 1
                return error_response(
                    504, "request timed out", retry_after=1
                )
            if shared is None:
                return error_response(
                    503, "original request was abandoned; retry",
                    retry_after=1,
                )
            self._counters["idempotent_replays"] += 1
            events.emit(
                "net.idempotent_replay", route=route, key=idem_key
            )
            return shared
        try:
            response = await self._execute(request, client, reader, submit)
        except _Disconnected:
            self.idempotency.abandon(key)
            raise
        except HttpError as exc:
            # Deterministic 4xx rejection: cache it like any response so
            # the pending entry never strands its joiners.
            response = exc.response()
        if response.status < 500 and response.status != 429:
            # Deterministic outcomes (results and 4xx rejections) replay;
            # transient ones (overload, timeout, crash) must re-execute.
            self.idempotency.finish(key, response)
        else:
            self.idempotency.abandon(key, response)
        return response

    async def _execute(
        self, request: Request, client: str, reader, submit
    ) -> Response:
        route = _route_label(request.path)
        try:
            future = submit(request)
        except HttpError:
            raise
        except ServerOverloadedError:
            self.breaker.record_overload()
            self._counters["rejected_overload"] += 1
            events.emit(
                "net.rejected",
                reason="overload",
                route=route,
                client=client,
                retry_after=1,
            )
            return error_response(
                429, "admission queue is full", retry_after=1
            )
        except ServerClosedError:
            return error_response(
                503, "server is shutting down", close=True
            )
        except ReproError as exc:
            return error_response(400, f"{type(exc).__name__}: {exc}")
        try:
            result = await self._await_result(future, reader)
        except _RequestTimeout as exc:
            self._counters["timeouts"] += 1
            if exc.cancelled_in_queue:
                self._counters["cancelled_in_queue"] += 1
            events.emit(
                "net.rejected",
                reason="timeout",
                route=route,
                client=client,
                retry_after=1,
            )
            return error_response(504, "request timed out", retry_after=1)
        except _Disconnected as exc:
            self._counters["disconnects"] += 1
            if exc.cancelled_in_queue:
                self._counters["cancelled_in_queue"] += 1
            events.emit(
                "net.disconnect",
                route=route,
                client=client,
                cancelled=exc.cancelled_in_queue,
            )
            raise
        except ServerOverloadedError:
            self.breaker.record_overload()
            self._counters["rejected_overload"] += 1
            events.emit(
                "net.rejected",
                reason="overload",
                route=route,
                client=client,
                retry_after=1,
            )
            return error_response(
                429, "admission queue is full", retry_after=1
            )
        except ReproError as exc:
            # Parse/bind/execution failures are deterministic properties
            # of the request; the queue itself is healthy.
            self.breaker.record_success()
            return error_response(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 — surfaced as 500
            return error_response(
                500, f"{type(exc).__name__}: {exc}"
            )
        self.breaker.record_success()
        return json_response(table_to_payload(result))

    async def _await_result(self, future, reader):
        """Await a worker future with a deadline and disconnect watch.

        The concurrent future is polled via a shielded asyncio wrapper;
        between polls the client's stream is checked for EOF. On
        timeout or disconnect the future is cancelled — if it was still
        queued the cancellation sticks and the worker pool never spends
        a slot on it.
        """
        loop = asyncio.get_running_loop()
        wrapped = asyncio.ensure_future(asyncio.wrap_future(future))
        deadline = loop.time() + self.request_timeout_seconds
        try:
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise _RequestTimeout(future.cancel())
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(wrapped),
                        min(self.disconnect_poll_seconds, remaining),
                    )
                except asyncio.TimeoutError:
                    if reader is not None and reader.at_eof():
                        raise _Disconnected(future.cancel()) from None
        finally:
            if not wrapped.done():
                wrapped.cancel()
            else:
                # Retrieve a pending exception so the loop never logs
                # "exception was never retrieved" for abandoned work.
                wrapped.exception()

    # -- route bodies ------------------------------------------------------

    def _submit_query(self, request: Request):
        payload = parse_json_body(request.body)
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HttpError(400, '"sql" must be a non-empty string')
        params = _parse_params(payload.get("params"))
        data = payload_to_tables(payload.get("data"))
        return self.server.submit_sql(sql, data=data, params=params)

    def _submit_prepared(self, request: Request):
        ref = request.path.strip("/").split("/")[1]
        try:
            name = self.server.resolve_prepared(ref)
        except ServingError as exc:
            raise HttpError(404, str(exc)) from None
        payload = parse_json_body(request.body)
        params = _parse_params(payload.get("params"))
        data = payload_to_tables(payload.get("data"))
        return self.server.submit(name, params, data)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The front door's own counters and middleware state."""
        snapshot = dict(self._counters)
        snapshot["breaker"] = self.breaker.stats()
        snapshot["rate_limiter"] = self.limiter.stats()
        snapshot["idempotency"] = self.idempotency.stats()
        snapshot["address"] = f"{self.host}:{self.port}"
        return snapshot


def _route_label(path: str) -> str:
    """A bounded-cardinality route label for events and metrics."""
    parts = path.strip("/").split("/")
    if len(parts) == 3 and parts[0] == "prepared" and parts[2] == "execute":
        return "/prepared/{ref}/execute"
    return path


def _parse_params(raw):
    if raw is None:
        return None
    if isinstance(raw, dict):
        return raw
    if isinstance(raw, list):
        return tuple(raw)
    raise HttpError(400, '"params" must be a JSON array or object')
