"""Tests for the HTTP front door: framing, routes, resilience middleware.

The edge cases the front door exists for are exercised on a real wire:
oversized bodies are rejected before buffering, idempotency replays are
byte-identical, the circuit breaker opens / half-opens / closes, and a
client that disconnects mid-query has its queued work cancelled without
spending a worker slot.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.observability import events
from repro.serving.net import HttpFrontDoor
from repro.serving.net.codec import payload_to_table, table_to_payload
from repro.serving.net.http11 import HttpError, Request, Response
from repro.serving.net.resilience import (
    CircuitBreaker,
    IdempotencyCache,
    TokenBucketLimiter,
)
from repro.serving.server import RavenServer

POINTS_SQL = "SELECT id, x FROM points WHERE id < ? ORDER BY id"


@pytest.fixture(scope="module")
def net_db():
    db = Database()
    db.register_table(
        "points",
        Table.from_dict(
            {
                "id": np.arange(10, dtype=np.int64),
                "x": np.arange(10, dtype=np.float64) * 1.5,
            }
        ),
    )
    yield db
    db.close()


@contextmanager
def front_door(db, *, workers=2, max_queue=64, prepare=False, **door_kw):
    session = RavenSession(db)
    server = RavenServer(session, workers=workers, max_queue=max_queue)
    if prepare:
        server.prepare("less_than", POINTS_SQL)
    door = HttpFrontDoor(server, **door_kw)
    door.start()
    try:
        yield server, door
    finally:
        door.close()
        server.shutdown()


def _request(door, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, lowercased headers, raw body)."""
    conn = http.client.HTTPConnection(door.host, door.port, timeout=10)
    try:
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, raw
    finally:
        conn.close()


def _post_json(door, path, body, headers=None):
    status, _headers, raw = _request(door, "POST", path, body, headers)
    return status, json.loads(raw)


def _raw_exchange(door, data: bytes, timeout=10.0) -> bytes:
    """Send raw bytes, then read the response until the server closes."""
    with socket.create_connection(
        (door.host, door.port), timeout=timeout
    ) as sock:
        if data:
            sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # server closed with unread data still buffered
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _block_worker(server, gate):
    """Occupy one worker thread until ``gate`` is set."""
    return server._enqueue(lambda: gate.wait(15), label="block")


# -- routes ----------------------------------------------------------------


def test_query_roundtrip_with_params(net_db):
    with front_door(net_db) as (_server, door):
        status, payload = _post_json(
            door, "/query", {"sql": POINTS_SQL, "params": [4]}
        )
        assert status == 200
        assert payload["num_rows"] == 4
        assert payload["columns"]["id"] == [0, 1, 2, 3]
        assert payload["columns"]["x"] == [0.0, 1.5, 3.0, 4.5]


def test_query_with_inline_data(net_db):
    with front_door(net_db) as (_server, door):
        body = {
            "sql": "SELECT a FROM requests WHERE a < ? ORDER BY a",
            "params": [3.0],
            "data": {"requests": {"a": [3.0, 1.0, 2.0]}},
        }
        status, payload = _post_json(door, "/query", body)
        assert status == 200
        assert payload["columns"]["a"] == [1.0, 2.0]


def test_prepared_by_name_and_fingerprint(net_db):
    with front_door(net_db, prepare=True) as (server, door):
        status, payload = _post_json(
            door, "/prepared/less_than/execute", {"params": [3]}
        )
        assert status == 200
        assert payload["columns"]["id"] == [0, 1, 2]

        fingerprint = server.stats()["prepared"]["less_than"]
        status, by_fp = _post_json(
            door, f"/prepared/{fingerprint}/execute", {"params": [3]}
        )
        assert status == 200
        assert by_fp == payload

        status, payload = _post_json(
            door, "/prepared/nonexistent/execute", {"params": [3]}
        )
        assert status == 404
        assert "unknown prepared" in payload["detail"]


def test_route_and_request_errors(net_db):
    with front_door(net_db) as (_server, door):
        status, _h, _b = _request(door, "GET", "/nope")
        assert status == 404
        status, _h, _b = _request(door, "GET", "/query")
        assert status == 405
        status, _h, _b = _request(door, "POST", "/healthz")
        assert status == 405
        status, payload = _post_json(door, "/query", {"params": [1]})
        assert status == 400 and "sql" in payload["detail"]
        status, payload = _post_json(
            door, "/query", {"sql": "SELECT nope FROM missing"}
        )
        assert status == 400
        status, payload = _post_json(
            door, "/query", {"sql": POINTS_SQL, "params": "bad"}
        )
        assert status == 400 and "params" in payload["detail"]
        # Malformed JSON body.
        status, _h, raw = _request(
            door,
            "POST",
            "/query",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400


def test_healthz_stats_metrics(net_db):
    with front_door(net_db, prepare=True) as (_server, door):
        status, _h, raw = _request(door, "GET", "/healthz")
        payload = json.loads(raw)
        assert status == 200
        assert payload == {"status": "ok", "breaker": "closed"}

        _post_json(door, "/query", {"sql": POINTS_SQL, "params": [2]})

        status, _h, raw = _request(door, "GET", "/stats")
        assert status == 200
        stats = json.loads(raw)
        assert stats["net"]["requests"] >= 2
        assert "less_than" in stats["prepared"]
        assert stats["net"]["breaker"]["state"] == "closed"

        status, headers, raw = _request(door, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = raw.decode("utf-8")
        assert "repro_net_requests" in text
        assert "repro_net_latency_seconds" in text


# -- framing edge cases ----------------------------------------------------


def test_oversized_body_rejected_before_buffering(net_db):
    with front_door(net_db, max_body_bytes=1024) as (_server, door):
        # Declare a huge body but never send a byte of it: the 413 must
        # come back anyway, from the Content-Length alone.
        head = (
            b"POST /query HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: 100000000\r\n"
            b"\r\n"
        )
        raw = _raw_exchange(door, head)
        assert raw.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in raw
        assert door.stats()["rejected_oversized"] == 1


def test_transfer_encoding_and_bad_length_rejected(net_db):
    with front_door(net_db) as (_server, door):
        raw = _raw_exchange(
            door,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 501 ")
        raw = _raw_exchange(
            door,
            b"POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        raw = _raw_exchange(door, b"GARBAGE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")
        raw = _raw_exchange(door, b"GET / HTTP/2.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 505 ")


def test_connection_limit_sheds(net_db):
    with front_door(net_db, max_connections_per_client=1) as (_srv, door):
        with socket.create_connection((door.host, door.port), timeout=10):
            assert _wait_until(
                lambda: door.stats()["connections_active"] == 1
            )
            # The over-limit connection is rejected at accept time —
            # nothing needs to be sent to draw the 503.
            raw = _raw_exchange(door, b"")
            assert raw.startswith(b"HTTP/1.1 503 ")
            assert b"Retry-After" in raw
        assert door.stats()["connections_rejected"] == 1


# -- resilience middleware -------------------------------------------------


def test_idempotency_replay_is_byte_identical(net_db):
    with front_door(net_db) as (_server, door):
        body = json.dumps({"sql": POINTS_SQL, "params": [3]}).encode()
        request = (
            b"POST /query HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Idempotency-Key: retry-me\r\n"
            b"Connection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        first = _raw_exchange(door, request)
        second = _raw_exchange(door, request)
        assert first.startswith(b"HTTP/1.1 200 ")
        assert first == second
        stats = door.stats()
        assert stats["idempotent_replays"] == 1
        assert stats["idempotency"]["stores"] == 1
        assert stats["idempotency"]["replays"] == 1


def test_idempotent_error_responses_replay_too(net_db):
    with front_door(net_db) as (_server, door):
        body = {"sql": "SELECT nope FROM missing"}
        headers = {"Idempotency-Key": "bad-sql"}
        status1, payload1 = _post_json(door, "/query", body, headers)
        status2, payload2 = _post_json(door, "/query", body, headers)
        assert status1 == status2 == 400
        assert payload1 == payload2
        assert door.stats()["idempotent_replays"] == 1


def test_idempotent_concurrent_requests_execute_once(net_db):
    with front_door(net_db, workers=1) as (server, door):
        gate = threading.Event()
        blocker = _block_worker(server, gate)
        with events.BUS.subscribe_queue("serving.submitted") as sub:
            results = []

            def hit():
                results.append(
                    _post_json(
                        door,
                        "/query",
                        {"sql": POINTS_SQL, "params": [5]},
                        {"Idempotency-Key": "shared"},
                    )
                )

            threads = [threading.Thread(target=hit) for _ in range(2)]
            threads[0].start()
            # Let the first request own the idempotency entry before the
            # second arrives (a late second request replays instead of
            # joining — also correct, also asserted below).
            _wait_until(lambda: door.stats()["idempotency"]["entries"] == 1)
            threads[1].start()
            time.sleep(0.05)
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
            blocker.result(5)

            submitted_sql = [
                e for e in sub.drain() if e.attrs.get("query") == "sql"
            ]
        assert len(submitted_sql) == 1  # the work ran exactly once
        assert [r[0] for r in results] == [200, 200]
        assert results[0][1] == results[1][1]
        assert door.stats()["idempotent_replays"] == 1


def test_rate_limit_returns_429_with_retry_after(net_db):
    with front_door(
        net_db, rate_limit_per_client=5.0, rate_limit_burst=1.0
    ) as (_server, door):
        status, _payload = _post_json(
            door, "/query", {"sql": POINTS_SQL, "params": [1]}
        )
        assert status == 200
        status, headers, raw = _request(
            door, "POST", "/query", {"sql": POINTS_SQL, "params": [1]}
        )
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert door.stats()["rejected_rate_limited"] == 1
        # GET routes are not rate limited.
        assert _request(door, "GET", "/healthz")[0] == 200


def test_circuit_breaker_opens_half_opens_closes(net_db):
    with front_door(
        net_db,
        workers=1,
        max_queue=1,
        breaker_failure_threshold=2,
        breaker_cooldown_seconds=0.3,
    ) as (server, door):
        with events.BUS.subscribe_queue("net.*") as sub:
            gate = threading.Event()
            blocker = _block_worker(server, gate)
            # Wait for the worker to pick the blocker up, then fill the
            # (single-slot) admission queue.
            assert _wait_until(lambda: server._queue.qsize() == 0)
            filler = server._enqueue(lambda: None, label="fill")
            body = {"sql": POINTS_SQL, "params": [1]}

            # Queue is full: overloads trip the breaker at the threshold.
            assert _post_json(door, "/query", body)[0] == 429
            assert _post_json(door, "/query", body)[0] == 429
            status, headers, _raw = _request(door, "POST", "/query", body)
            assert status == 503
            assert "retry-after" in headers
            assert door.breaker.state == CircuitBreaker.OPEN
            assert door.stats()["rejected_circuit_open"] >= 1

            # Liveness reflects shedding.
            status, _h, raw = _request(door, "GET", "/healthz")
            assert status == 503
            assert json.loads(raw)["status"] == "shedding"

            # Drain the queue, wait out the cooldown: the next request
            # is the half-open probe, and its success closes the circuit.
            gate.set()
            blocker.result(5)
            filler.result(5)
            time.sleep(0.35)
            status, payload = _post_json(door, "/query", body)
            assert status == 200
            assert door.breaker.state == CircuitBreaker.CLOSED

            names = [
                e.name for e in sub.drain()
                if e.name.startswith("net.circuit_")
            ]
        assert "net.circuit_open" in names
        assert "net.circuit_half_open" in names
        assert "net.circuit_closed" in names


def test_disconnect_mid_query_cancels_queued_work(net_db):
    with front_door(
        net_db, workers=1, disconnect_poll_seconds=0.01
    ) as (server, door):
        gate = threading.Event()
        blocker = _block_worker(server, gate)
        body = json.dumps({"sql": POINTS_SQL, "params": [5]}).encode()
        request = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        sock = socket.create_connection((door.host, door.port), timeout=10)
        try:
            sock.sendall(request)
            # The request is parsed and queued behind the blocked worker.
            assert _wait_until(lambda: server._queue.qsize() >= 1)
        finally:
            sock.close()

        # The front door notices the hang-up and cancels the queued
        # future — no worker ever runs it.
        assert _wait_until(lambda: door.stats()["disconnects"] == 1)
        assert door.stats()["cancelled_in_queue"] == 1

        gate.set()
        blocker.result(5)
        # The worker slot was not leaked: a fresh request completes.
        status, payload = _post_json(
            door, "/query", {"sql": POINTS_SQL, "params": [2]}
        )
        assert status == 200
        assert payload["num_rows"] == 2


def test_request_timeout_cancels_queued_work(net_db):
    with front_door(
        net_db,
        workers=1,
        request_timeout_seconds=0.2,
        disconnect_poll_seconds=0.01,
    ) as (server, door):
        gate = threading.Event()
        blocker = _block_worker(server, gate)
        status, headers, _raw = _request(
            door, "POST", "/query", {"sql": POINTS_SQL, "params": [5]}
        )
        assert status == 504
        assert "retry-after" in headers
        stats = door.stats()
        assert stats["timeouts"] == 1
        assert stats["cancelled_in_queue"] == 1
        gate.set()
        blocker.result(5)


def test_concurrent_clients_over_keep_alive(net_db):
    with front_door(net_db, workers=4, prepare=True) as (_server, door):
        errors = []

        def client(limit):
            try:
                conn = http.client.HTTPConnection(
                    door.host, door.port, timeout=10
                )
                for _ in range(5):
                    conn.request(
                        "POST",
                        "/prepared/less_than/execute",
                        body=json.dumps({"params": [limit]}),
                    )
                    resp = conn.getresponse()
                    payload = json.loads(resp.read())
                    if resp.status != 200 or payload["num_rows"] != limit:
                        errors.append((resp.status, payload))
                conn.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(1 + i % 5,))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert door.stats()["requests"] == 40


def test_front_door_restart_and_closed_lifecycle(net_db):
    session = RavenSession(net_db)
    server = RavenServer(session, workers=1)
    door = HttpFrontDoor(server)
    try:
        door.start()
        assert door.start() == (door.host, door.port)  # idempotent
        assert _request(door, "GET", "/healthz")[0] == 200
    finally:
        door.close()
        door.close()  # idempotent
        server.shutdown()
    from repro.errors import ServingError

    with pytest.raises(ServingError):
        door.start()


# -- middleware unit tests (fake clocks, no sockets) -----------------------


def test_token_bucket_limiter_refill_and_lru():
    clock = [0.0]
    limiter = TokenBucketLimiter(
        2.0, burst=2.0, max_clients=2, clock=lambda: clock[0]
    )
    assert limiter.acquire("a") == 0.0
    assert limiter.acquire("a") == 0.0
    wait = limiter.acquire("a")
    assert wait == pytest.approx(0.5)
    clock[0] += 0.5
    assert limiter.acquire("a") == 0.0
    # LRU bound: a third client evicts the oldest bucket.
    limiter.acquire("b")
    limiter.acquire("c")
    assert limiter.stats()["clients"] == 2
    # Disabled limiter always grants.
    assert TokenBucketLimiter(None).acquire("x") == 0.0


def test_circuit_breaker_state_machine():
    clock = [0.0]
    breaker = CircuitBreaker(2, 1.0, clock=lambda: clock[0])
    assert breaker.allow() == (True, 0.0)
    breaker.record_overload()
    assert breaker.state == CircuitBreaker.CLOSED  # below threshold
    breaker.record_overload()
    assert breaker.state == CircuitBreaker.OPEN
    admit, retry_after = breaker.allow()
    assert not admit and retry_after == pytest.approx(1.0)
    clock[0] += 1.1
    assert breaker.allow() == (True, 0.0)  # the half-open probe
    assert breaker.state == CircuitBreaker.HALF_OPEN
    admit, _wait = breaker.allow()  # only one probe at a time
    assert not admit
    breaker.record_overload()  # probe failed: re-open immediately
    assert breaker.state == CircuitBreaker.OPEN
    clock[0] += 1.1
    assert breaker.allow()[0]
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.stats()["opens"] == 2


def test_idempotency_cache_lifecycle():
    async def scenario():
        clock = [0.0]
        cache = IdempotencyCache(2, 10.0, clock=lambda: clock[0])
        kind, value = cache.begin(("r", "k1"))
        assert (kind, value) == ("own", None)
        kind, future = cache.begin(("r", "k1"))
        assert kind == "join"
        cache.finish(("r", "k1"), "response-1")
        assert await future == "response-1"
        assert cache.begin(("r", "k1")) == ("replay", "response-1")
        # TTL expiry turns a replay back into ownership.
        clock[0] += 11.0
        assert cache.begin(("r", "k1"))[0] == "own"
        cache.abandon(("r", "k1"))
        # Pending entries are pinned; only completed ones are evicted.
        assert cache.begin(("r", "p1"))[0] == "own"
        assert cache.begin(("r", "p2"))[0] == "own"
        cache.finish(("r", "p1"), "done")
        assert cache.begin(("r", "p3"))[0] == "own"
        cache.finish(("r", "p3"), "done")
        cache.finish(("r", "p2"), "done")
        assert cache.stats()["entries"] <= 2
        assert cache.stats()["evictions"] >= 1
        # Abandon wakes joiners with the fallback response.
        assert cache.begin(("r", "k2"))[0] == "own"
        kind, future = cache.begin(("r", "k2"))
        cache.abandon(("r", "k2"), None)
        assert await future is None

    asyncio.run(scenario())


# -- framing / codec unit tests --------------------------------------------


def test_response_encoding_is_deterministic():
    response = Response(status=200, body=b'{"a": 1}')
    assert response.encode() == response.encode()
    assert b"Date:" not in response.encode()
    assert b"Content-Length: 8" in response.encode()
    closed = Response(status=503, body=b"", close=True)
    assert b"Connection: close" in closed.encode()


def test_request_keep_alive_semantics():
    def req(version, connection=None):
        headers = {"connection": connection} if connection else {}
        return Request("GET", "/", "", version, headers, b"")

    assert req("HTTP/1.1").keep_alive
    assert not req("HTTP/1.1", "close").keep_alive
    assert not req("HTTP/1.0").keep_alive
    assert req("HTTP/1.0", "keep-alive").keep_alive


def test_codec_roundtrip_and_errors(net_db):
    table = net_db.table("points")
    payload = table_to_payload(table)
    assert payload["num_rows"] == 10
    back = payload_to_table(payload["columns"])
    assert back.column("id").tolist() == table.column("id").tolist()
    with pytest.raises(HttpError):
        payload_to_table(["not", "a", "mapping"])
    with pytest.raises(HttpError):
        payload_to_table({"a": [1, 2], "b": [1]})  # ragged columns
    with pytest.raises(HttpError, match="int64"):
        payload_to_table({"id": [2**64 - 1]})  # would wrap to -1
