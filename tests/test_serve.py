"""Tests for ``repro.serve`` — batching core, HTTP front end, client.

The service-level tests drive :class:`EvaluationService` directly inside
``asyncio.run`` with an injected, gate-controlled evaluator, so admission
and batching behavior is deterministic (no sleeps standing in for
synchronization). The HTTP-level tests run a real :class:`ServerThread`
and talk to it with :class:`ServeClient` over loopback.
"""

import asyncio
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.api import ScenarioSpec
from repro.api.batch import SpecRun
from repro.cli import build_parser
from repro.obs.log import EventLog
from repro.serve import (
    EvaluateRequestError,
    EvaluationService,
    QueueFull,
    ReproServer,
    ServeClient,
    ServeError,
    ServerConfig,
    ServerThread,
    ShuttingDown,
    parse_evaluate_request,
    wire,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_spec() -> ScenarioSpec:
    """The spec behind ``tests/golden/serve_evaluate.json`` (and
    ``simulate.txt``): Figure 5b slices, sim mode, telemetry output."""
    payload = json.loads((GOLDEN_DIR / "serve_request.json").read_text())
    return ScenarioSpec.from_dict(payload)


def cheap_spec(seed: int = 42) -> ScenarioSpec:
    """A closed-form cost spec — milliseconds to evaluate, distinct per seed."""
    return ScenarioSpec(
        slices=(api.SliceSpec("S", (2, 2, 1), (0, 0, 0)),),
        outputs=("costs",),
        seed=seed,
    )


@pytest.fixture(scope="module")
def cheap_result():
    """One real RunResult to hand out from fake evaluators."""
    return api.run(cheap_spec())


def fake_rows(result, *, record=None, gate=None, delay_s=0.0):
    """An injectable ``evaluate_batch`` with test hooks.

    Args:
        result: the RunResult every row carries.
        record: list collecting each call's batch size.
        gate: a ``threading.Event`` the evaluator blocks on first.
        delay_s: extra sleep per call (timeout tests).
    """

    def evaluate(session, specs):
        if gate is not None:
            assert gate.wait(timeout=30), "test gate never opened"
        if delay_s:
            time.sleep(delay_s)
        if record is not None:
            record.append(len(specs))
        return [
            SpecRun(spec=s, result=result, elapsed_s=0.0, from_cache=False)
            for s in specs
        ]

    return evaluate


async def _poll(predicate, timeout_s=10.0):
    """Await ``predicate()`` turning true without blocking the loop."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


class TestServerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"jobs": -2},
            {"max_batch": 0},
            {"linger_ms": -1.0},
            {"queue_limit": 0},
            {"request_timeout_s": 0.0},
            {"port": -1},
            {"port": 70000},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.port == 8421
        assert config.jobs >= 1


class TestAdmission:
    def test_queue_full_is_exact(self, cheap_result):
        """With one busy session and ``queue_limit`` waiters, the next
        submit raises QueueFull — the bound is the queue, nothing hidden."""

        async def main():
            gate = threading.Event()
            service = EvaluationService(
                ServerConfig(
                    jobs=1, max_batch=1, queue_limit=2, no_cache=True
                ),
                evaluate_batch=fake_rows(cheap_result, gate=gate),
            )
            service.start()
            futures = [service.submit(cheap_spec(0))]
            # Wait for the batcher to pull it so the queue is empty again.
            await _poll(lambda: service._queue.qsize() == 0)
            futures.append(service.submit(cheap_spec(1)))
            futures.append(service.submit(cheap_spec(2)))
            with pytest.raises(QueueFull) as excinfo:
                service.submit(cheap_spec(3))
            assert excinfo.value.retry_after_s > 0
            gate.set()
            rows = await asyncio.gather(*futures)
            assert [r.spec.seed for r in rows] == [0, 1, 2]
            await service.drain()
            snapshot = service.metrics.snapshot()
            assert snapshot["serve.requests_admitted"]["value"] == 3
            assert snapshot["serve.requests_rejected_full"]["value"] == 1

        asyncio.run(main())

    def test_draining_rejects_new_submits(self, cheap_result):
        async def main():
            service = EvaluationService(
                ServerConfig(jobs=1, no_cache=True),
                evaluate_batch=fake_rows(cheap_result),
            )
            service.start()
            await service.drain()
            with pytest.raises(ShuttingDown):
                service.submit(cheap_spec())

        asyncio.run(main())


class TestPriorityAdmission:
    def test_batch_shed_at_watermark_interactive_admitted(self, cheap_result):
        """``batch`` hits its tighter bound (429) while ``interactive``
        still has queue headroom at the same instant."""

        async def main():
            gate = threading.Event()
            service = EvaluationService(
                ServerConfig(
                    jobs=1, max_batch=1, queue_limit=4,
                    batch_shed_fraction=0.5, no_cache=True,
                ),
                evaluate_batch=fake_rows(cheap_result, gate=gate),
            )
            assert service.config.batch_queue_limit == 2
            service.start()
            futures = [service.submit(cheap_spec(0))]
            await _poll(lambda: service._queue.qsize() == 0)
            # Two queued requests: the batch watermark is reached...
            futures.append(service.submit(cheap_spec(1)))
            futures.append(service.submit(cheap_spec(2), priority="batch"))
            with pytest.raises(QueueFull):
                service.submit(cheap_spec(3), priority="batch")
            # ...but interactive still gets in.
            futures.append(service.submit(cheap_spec(3)))
            gate.set()
            await asyncio.gather(*futures)
            await service.drain()
            snapshot = service.metrics.snapshot()
            assert snapshot["serve.requests_shed_batch"]["value"] == 1
            assert snapshot["serve.requests_admitted.batch"]["value"] == 1
            assert (
                snapshot["serve.requests_admitted.interactive"]["value"] == 3
            )
            assert snapshot["serve.request_seconds.batch"]["count"] == 1

        asyncio.run(main())

    def test_unknown_priority_rejected(self, cheap_result):
        async def main():
            service = EvaluationService(
                ServerConfig(jobs=1, no_cache=True),
                evaluate_batch=fake_rows(cheap_result),
            )
            service.start()
            with pytest.raises(ValueError):
                service.submit(cheap_spec(), priority="urgent")
            await service.drain()

        asyncio.run(main())

    def test_invalid_shed_fraction_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(batch_shed_fraction=0.0)
        with pytest.raises(ValueError):
            ServerConfig(batch_shed_fraction=1.5)

    def test_priority_header_404s_nothing_else(self, live_client):
        """Over HTTP: an unknown priority header is a 400 with its own
        error code; a valid one is accepted."""
        status, _, body = live_client.evaluate_response(
            cheap_spec(3), priority="batch"
        )
        assert status == 200
        bad_status, _, bad_body = live_client._request(
            "POST",
            "/v1/evaluate",
            json.dumps(cheap_spec(3).to_dict()).encode(),
            headers={"X-Repro-Priority": "urgent"},
        )
        assert bad_status == 400
        assert json.loads(bad_body)["error"]["code"] == "bad_priority"


class TestBatching:
    def test_concurrent_requests_coalesce(self, cheap_result):
        """Requests queued while the lone session is busy come out as one
        batch (max_batch permitting) once the session frees up."""

        async def main():
            gate = threading.Event()
            sizes = []
            service = EvaluationService(
                ServerConfig(
                    jobs=1, max_batch=8, linger_ms=20.0, no_cache=True
                ),
                evaluate_batch=fake_rows(cheap_result, record=sizes, gate=gate),
            )
            service.start()
            first = service.submit(cheap_spec(0))
            # Wait past the linger window: the first batch must be
            # dispatched (blocked on the gate) before the rest arrive.
            await _poll(lambda: len(service._inflight) == 1)
            rest = [service.submit(cheap_spec(i)) for i in range(1, 5)]
            gate.set()
            await asyncio.gather(first, *rest)
            assert sizes == [1, 4]
            await service.drain()
            snapshot = service.metrics.snapshot()
            assert snapshot["serve.batches"]["value"] == 2
            assert snapshot["serve.batch_size"]["max"] == 4

        asyncio.run(main())

    def test_max_batch_splits_backlog(self, cheap_result):
        async def main():
            gate = threading.Event()
            sizes = []
            service = EvaluationService(
                ServerConfig(
                    jobs=1, max_batch=3, linger_ms=20.0, queue_limit=16,
                    no_cache=True,
                ),
                evaluate_batch=fake_rows(cheap_result, record=sizes, gate=gate),
            )
            service.start()
            first = service.submit(cheap_spec(0))
            await _poll(lambda: len(service._inflight) == 1)
            rest = [service.submit(cheap_spec(i)) for i in range(1, 7)]
            gate.set()
            await asyncio.gather(first, *rest)
            assert sizes == [1, 3, 3]
            await service.drain()

        asyncio.run(main())


class TestDrain:
    def test_drain_answers_every_accepted_request(self, cheap_result):
        """Every admitted request resolves during drain — none dropped."""

        async def main():
            gate = threading.Event()
            service = EvaluationService(
                ServerConfig(
                    jobs=1, max_batch=2, queue_limit=16, no_cache=True
                ),
                evaluate_batch=fake_rows(cheap_result, gate=gate),
            )
            service.start()
            futures = [service.submit(cheap_spec(i)) for i in range(6)]
            drainer = asyncio.ensure_future(service.drain())
            gate.set()
            rows = await asyncio.gather(*futures)
            await drainer
            assert sorted(r.spec.seed for r in rows) == list(range(6))
            snapshot = service.metrics.snapshot()
            assert snapshot["serve.requests_completed"]["value"] == 6

        asyncio.run(main())


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """A real server (real evaluator, disk cache in a temp dir)."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    config = ServerConfig(
        port=0, jobs=2, linger_ms=1.0, cache_dir=cache_dir
    )
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def live_client(live_server):
    return ServeClient(port=live_server.port)


class TestHttpEvaluate:
    def test_response_is_byte_identical_to_cli_json(self, live_client):
        """The served body is exactly the RunResult JSON the CLI prints —
        asserted against both a fresh in-process run and the checked-in
        golden."""
        spec = golden_spec()
        body = live_client.evaluate_bytes(spec)
        expected = (api.run(spec).to_json(indent=2, sort_keys=True) + "\n").encode()
        assert body == expected
        golden = (GOLDEN_DIR / "serve_evaluate.json").read_bytes()
        assert body == golden

    def test_repeat_request_hits_cache(self, live_client):
        spec = golden_spec()
        first = live_client.evaluate_response(spec)
        second = live_client.evaluate_response(spec)
        assert first[0] == second[0] == 200
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_spec_envelope_accepted(self, live_client):
        payload = {"spec": golden_spec().to_dict()}
        status, headers, body = live_client.evaluate_response(payload)
        assert status == 200
        assert body == (GOLDEN_DIR / "serve_evaluate.json").read_bytes()

    def test_typed_client_round_trip(self, live_client):
        result = live_client.evaluate(cheap_spec())
        assert result.costs is not None


class TestHttpErrors:
    def test_malformed_json_is_400(self, live_client):
        status, _, body = live_client._request(
            "POST", "/v1/evaluate", b"{ not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_json"

    def test_invalid_spec_is_400(self, live_client):
        bad = golden_spec().to_dict()
        bad["mode"] = "quantum"
        status, _, body = live_client.evaluate_response(bad)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_spec"

    def test_unknown_fabric_is_400(self, live_client):
        bad = golden_spec().to_dict()
        bad["fabric"] = "warpdrive"
        status, _, body = live_client.evaluate_response(bad)
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["code"] == "bad_spec"
        assert "warpdrive" in envelope["message"]

    def test_non_object_body_is_400(self, live_client):
        status, _, body = live_client._request("POST", "/v1/evaluate", b"[1, 2]")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_unknown_route_is_404(self, live_client):
        status, _, body = live_client._request("GET", "/v2/evaluate")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_wrong_method_is_405_with_allow(self, live_client):
        status, headers, body = live_client._request("GET", "/v1/evaluate")
        assert status == 405
        assert headers["allow"] == "POST"
        status, headers, _ = live_client._request("POST", "/healthz", b"{}")
        assert status == 405
        assert headers["allow"] == "GET"

    def test_oversized_body_is_413(self, live_server):
        # The server answers 413 from the Content-Length header alone and
        # closes without reading the body, so speak raw sockets here (a
        # well-behaved HTTP client would die on the reset mid-upload).
        import socket

        from repro.serve import wire

        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {wire.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            head = sock.recv(4096).decode()
        assert head.startswith("HTTP/1.1 413 ")

    def test_client_raises_typed_error(self, live_client):
        bad = golden_spec().to_dict()
        bad["fabric"] = "warpdrive"
        with pytest.raises(ServeError) as excinfo:
            live_client.evaluate_bytes(bad)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_spec"


#: Longer than ``asyncio.StreamReader``'s default 64 KiB line limit.
OVERSIZED = 70_000


def _read_with(reader_fn, data: bytes):
    """Run a wire reader over ``data`` (then EOF) and return its result."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await reader_fn(reader)

    return asyncio.run(main())


def _raw_exchange(
    port: int, data: bytes, *, half_close: bool = True
) -> tuple[int, dict[str, str], bytes]:
    """Send ``data`` on a fresh socket (then shut down the write side,
    unless ``half_close`` is false); parse the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert status_line.startswith("HTTP/1.1 ")
    return int(status_line.split()[1]), headers, body


#: Bodies ``json.loads`` refuses with other errors than a decode error:
#: an integer past Python's 4,300-digit limit (``ValueError``) and
#: arrays nested past the recursion limit (``RecursionError``).
UNDECODABLE_BODIES = [
    b'{"seed": ' + b"1" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
]


#: Well-formed messages for the readers' fuzz tests to mutate.
_REQUESTS = [
    wire.request_bytes(
        "POST", "/v1/evaluate", b'{"seed": 1}',
        headers=((wire.PRIORITY_HEADER, "batch"),),
    ),
    wire.request_bytes("GET", "/metrics?format=prometheus"),
]
_RESPONSES = [
    wire.response_bytes(
        200, b'{"result": 1}\n', extra_headers=((wire.CACHE_HEADER, "hit"),)
    ),
    wire.error_response(404, "not_found", "no route"),
]
_NOISE = st.sampled_from(
    [b"\r\n", b"\n", b":", b" ", b"0", b"9", b"+", b"_", b"\xff", b"Content-Length: "]
) | st.binary(min_size=1, max_size=8)


@st.composite
def _mutated(draw, messages):
    """One of ``messages`` cut, spliced, shortened or bit-flipped."""
    data = bytearray(draw(st.sampled_from(messages)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["cut", "insert", "delete", "flip"]))
        if action == "cut":
            del data[at:]
        elif action == "insert":
            data[at:at] = draw(_NOISE)
        elif at < len(data) and action == "delete":
            del data[at]
        elif at < len(data):
            data[at] ^= draw(st.integers(1, 255))
    return bytes(data)


class TestKeepAliveFraming:
    def test_kept_alive_swaps_only_the_closing_header(self):
        body = b"Connection: close\r\n\r\nin the body"
        closed = wire.response_bytes(200, body)
        kept = wire.kept_alive(closed)
        assert kept == closed.replace(b"close", b"keep-alive", 1)
        assert kept.endswith(body)

    @pytest.mark.parametrize(
        "value, expected",
        [(None, False), ("close", False), ("keep-alive", True), ("Keep-Alive, Upgrade", True)],
    )
    def test_request_asks_for_keep_alive(self, value, expected):
        headers = {} if value is None else {"connection": value}
        assert wire.Request("GET", "/healthz", headers).keep_alive is expected

    def test_status_line_callback_fires_only_for_a_status_line(self):
        seen = []

        async def read(reader):
            return await wire.read_response(reader, on_status_line=lambda: seen.append(1))

        with pytest.raises(wire.ProtocolError):
            _read_with(read, b"")
        assert seen == []
        assert _read_with(read, wire.response_bytes(200, b"{}"))[0] == 200
        assert seen == [1]


class TestWireLimits:
    """Oversized, header-flooded or undecodable input is a typed
    protocol error."""

    def _request_error(self, data):
        with pytest.raises(wire.ProtocolError) as excinfo:
            _read_with(wire.read_request, data)
        return excinfo.value

    def _response_error(self, data):
        with pytest.raises(wire.ProtocolError) as excinfo:
            _read_with(wire.read_response, data)
        return excinfo.value

    def test_oversized_request_line_is_400(self):
        error = self._request_error(
            b"GET /" + b"a" * OVERSIZED + b" HTTP/1.1\r\n\r\n"
        )
        assert error.status == 400
        assert "request line too long" in str(error)

    def test_oversized_header_line_is_431(self):
        error = self._request_error(
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * OVERSIZED + b"\r\n\r\n"
        )
        assert error.status == 431

    def test_header_count_is_capped(self):
        def request(count):
            lines = b"".join(b"X-H%d: v\r\n" % i for i in range(count))
            return b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"

        parsed = _read_with(wire.read_request, request(wire.MAX_HEADERS))
        assert len(parsed.headers) == wire.MAX_HEADERS
        error = self._request_error(request(wire.MAX_HEADERS + 1))
        assert error.status == 431
        assert f"more than {wire.MAX_HEADERS} header lines" in str(error)

    def test_worker_response_limits_are_502(self):
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n"
        for data in (
            b"HTTP/1.1 200 " + b"a" * OVERSIZED + b"\r\n\r\n",
            ok + b"X-Big: " + b"a" * OVERSIZED + b"\r\n\r\n",
            ok + b"X-H: v\r\n" * wire.MAX_HEADERS + b"\r\n",
        ):
            assert self._response_error(data).status == 502

    @pytest.mark.parametrize("length", [b"1_0", b"+2"])
    def test_content_length_is_digits_only(self, length):
        head = b"Content-Length: " + length + b"\r\n\r\n0123456789"
        request = self._request_error(b"POST /v1/evaluate HTTP/1.1\r\n" + head)
        assert request.status == 400
        assert "invalid Content-Length" in str(request)
        assert self._response_error(b"HTTP/1.1 200 OK\r\n" + head).status == 502

    @pytest.mark.parametrize(
        "rest",
        [b"Content-Length: 10\r\n\r\n{}", b"Content-Length: 2\r\n"],
        ids=["body", "headers"],
    )
    def test_truncated_message_is_protocol_error(self, rest):
        request = self._request_error(b"POST /v1/evaluate HTTP/1.1\r\n" + rest)
        assert request.status == 400
        assert "cut short" in str(request)
        assert self._response_error(b"HTTP/1.1 200 OK\r\n" + rest).status == 502

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200) | _mutated(_REQUESTS))
    def test_read_request_raises_only_protocol_error(self, data):
        try:
            parsed = _read_with(wire.read_request, data)
        except wire.ProtocolError as exc:
            assert exc.status in (400, 413, 431)
        else:
            assert parsed is None or isinstance(parsed, wire.Request)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200) | _mutated(_RESPONSES))
    def test_read_response_raises_only_protocol_error(self, data):
        try:
            status, headers, body = _read_with(wire.read_response, data)
        except wire.ProtocolError as exc:
            assert exc.status == 502
        else:
            assert isinstance(status, int)
            assert isinstance(headers, dict) and isinstance(body, bytes)

    @pytest.mark.parametrize(
        "data, status",
        [
            (b"GET /" + b"a" * OVERSIZED + b" HTTP/1.1\r\n\r\n", 400),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"a" * OVERSIZED
                + b"\r\n\r\n",
                431,
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"X-H: v\r\n" * (wire.MAX_HEADERS + 1)
                + b"\r\n",
                431,
            ),
            # ~160 KB, more than the socket buffers hold: the rest must be
            # read and discarded, or the close resets the 431 away.
            (b"GET /healthz HTTP/1.1\r\n" + b"X-H: v\r\n" * 20_000 + b"\r\n", 431),
        ],
        ids=["request-line", "header-line", "header-count", "header-flood"],
    )
    def test_server_answers_well_formed_4xx(self, live_server, data, status):
        got, headers, body = _raw_exchange(live_server.port, data)
        assert got == status
        assert int(headers["content-length"]) == len(body)
        error = json.loads(body)["error"]
        assert error["status"] == status
        assert error["code"] == "protocol_error"

    @pytest.mark.parametrize(
        "body", UNDECODABLE_BODIES, ids=["long-integer", "deep-nesting"]
    )
    def test_undecodable_json_is_400(self, body):
        request = wire.Request("POST", "/v1/evaluate", {}, body)
        with pytest.raises(wire.ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "body", UNDECODABLE_BODIES, ids=["long-integer", "deep-nesting"]
    )
    def test_server_answers_undecodable_json_with_400(self, live_server, body):
        got, headers, reply = _raw_exchange(
            live_server.port,
            b"POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert got == 400
        assert int(headers["content-length"]) == len(reply)
        error = json.loads(reply)["error"]
        assert error["status"] == 400
        assert error["code"] == "bad_json"


#: Spec bodies a parser must refuse, with the ``Class.field`` the 400
#: names: wrong JSON kinds at the top level and inside plans, values the
#: parser once coerced, and an unknown key.
BAD_SPEC_BODIES = [
    ({"failures": []}, "ScenarioSpec.failures"),
    ({"fleet": None}, "ScenarioSpec.fleet"),
    ({"fleet": "x"}, "ScenarioSpec.fleet"),
    ({"tenancy": [1]}, "ScenarioSpec.tenancy"),
    ({"seed": []}, "ScenarioSpec.seed"),
    ({"collective": {}}, "ScenarioSpec.collective"),
    ({"rack_shape": ["4", "4", "4"]}, "ScenarioSpec.rack_shape"),
    ({"failures": {"max_hops": 5.0}}, "FailurePlan.max_hops"),
    ({"tenancy": {"steering": 1}}, "TenancyPlan.steering"),
    ({"buffer_byte": 1}, "ScenarioSpec.buffer_byte"),
]


#: Plan floats that must be finite, as ``(spec key, Class.field)``.
FINITE_PLAN_FIELDS = [
    ("failures", "FailurePlan.fleet_days"),
    ("fleet", "FleetPlan.days"),
    ("fleet", "FleetPlan.batch_interval_s"),
    ("fleet", "FleetPlan.spare_replenish_s"),
    ("fleet", "FleetPlan.mtbf_years"),
    ("tenancy", "TenancyPlan.days"),
    ("tenancy", "TenancyPlan.arrivals_per_day"),
    ("tenancy", "TenancyPlan.mean_duration_s"),
    ("tenancy", "TenancyPlan.max_queue_wait_s"),
]


def _evaluate_request(body) -> wire.Request:
    return wire.Request(
        "POST", "/v1/evaluate", {}, json.dumps(body).encode("utf-8")
    )


def _keys(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


#: Any JSON value (NaN and infinities included: the parser accepts them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _object(cls) -> st.SearchStrategy:
    """A JSON object keyed mostly by ``cls``'s fields, arbitrary values."""
    keys = st.sampled_from(_keys(cls)) | st.text(max_size=6)
    return st.dictionaries(keys, _JSON, max_size=4)


_PLAN_OBJECTS = {
    "slices": st.lists(_object(api.SliceSpec), max_size=2),
    "failures": _object(api.FailurePlan),
    "fleet": _object(api.FleetPlan),
    "tenancy": _object(api.TenancyPlan),
    "device": _object(api.DeviceSpec),
}
_SPEC_BODIES = st.fixed_dictionaries(
    {},
    optional={
        key: (_PLAN_OBJECTS[key] | _JSON) if key in _PLAN_OBJECTS else _JSON
        for key in _keys(ScenarioSpec)
    },
)


class TestSpecBoundary:
    """A spec body of the wrong shape is a 400 ``bad_spec``, never an
    escaped exception or a spec that fails later."""

    @pytest.mark.parametrize(
        "body, where", BAD_SPEC_BODIES,
        ids=[json.dumps(body) for body, _ in BAD_SPEC_BODIES],
    )
    def test_wrong_kind_is_400_naming_the_field(self, body, where):
        with pytest.raises(EvaluateRequestError) as excinfo:
            parse_evaluate_request(_evaluate_request(body))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_spec"
        assert where in str(excinfo.value)

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "key, where", FINITE_PLAN_FIELDS,
        ids=[where for _, where in FINITE_PLAN_FIELDS],
    )
    def test_non_finite_plan_float_is_400_naming_the_field(
        self, key, where, literal
    ):
        name = where.partition(".")[2]
        body = f'{{"{key}": {{"{name}": {literal}}}}}'.encode()
        with pytest.raises(EvaluateRequestError) as excinfo:
            parse_evaluate_request(
                wire.Request("POST", "/v1/evaluate", {}, body)
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_spec"
        assert f"{where} must be finite" in str(excinfo.value)

    def test_server_answers_wrong_kind_with_400_envelope(self, live_server):
        body = b'{"failures": []}'
        got, headers, reply = _raw_exchange(
            live_server.port,
            b"POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert got == 400
        assert int(headers["content-length"]) == len(reply)
        error = json.loads(reply)["error"]
        assert error["status"] == 400
        assert error["code"] == "bad_spec"
        assert "ScenarioSpec.failures" in error["message"]

    @settings(max_examples=300, deadline=None)
    @given(body=_SPEC_BODIES)
    def test_any_json_gives_a_keyable_spec_or_400(self, body):
        try:
            spec, _ = parse_evaluate_request(_evaluate_request(body))
        except EvaluateRequestError as exc:
            assert exc.status == 400
        else:
            assert len(api.spec_key(spec)) == 64


#: DeviceSpec values JSON parses that no device report can use.
BAD_DEVICE_FIELDS = [
    ("mzi_duration_s", "NaN"),
    ("mzi_duration_s", "Infinity"),
    ("mzi_duration_s", "-1.0"),
    ("mzi_duration_s", "0.0"),
    ("mzi_samples", "0"),
    ("mzi_samples", "1"),
    ("stitch_samples", "0"),
    ("stitch_bins", "0"),
]


class TestDeviceSpecBoundary:
    """A device field no report can use is refused where the spec is
    built, so the worker answers 400 before it spends an evaluation."""

    @pytest.mark.parametrize("field, literal", BAD_DEVICE_FIELDS)
    def test_from_dict_rejects(self, field, literal):
        data = json.loads(f'{{"device": {{"{field}": {literal}}}}}')
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("field, literal", BAD_DEVICE_FIELDS)
    def test_worker_answers_400_without_evaluating(
        self, live_client, field, literal
    ):
        def admitted():
            metrics = live_client.metrics()["metrics"]
            return metrics.get("serve.requests_admitted", {"value": 0})["value"]

        before = admitted()
        body = f'{{"outputs": ["device"], "device": {{"{field}": {literal}}}}}'
        status, _, reply = live_client._request(
            "POST", "/v1/evaluate", body.encode()
        )
        assert status == 400
        error = json.loads(reply)["error"]
        assert error["code"] == "bad_spec"
        assert error["message"].startswith("invalid spec:")
        assert field in error["message"]
        assert admitted() == before


class TestTenancyRackBoundary:
    """A ``tenancy`` spec on a rack that is not 3-D (the job catalog's
    shapes are) is refused where the spec is built, not mid-evaluation."""

    @pytest.mark.parametrize("shape", [[4, 4], [4, 4, 4, 1]])
    def test_from_dict_rejects(self, shape):
        data = {"rack_shape": shape, "outputs": ["tenancy"], "tenancy": {"days": 0.01}}
        with pytest.raises(ValueError, match=re.escape(f"rack_shape {tuple(shape)}")):
            ScenarioSpec.from_dict(data)

    def test_other_outputs_keep_any_rack(self):
        assert ScenarioSpec(rack_shape=(4, 4), outputs=("capabilities",)).rack_shape == (4, 4)

    @pytest.mark.parametrize("shape", [[4, 4], [4, 4, 4, 1]])
    def test_worker_answers_400_without_evaluating(self, live_client, shape):
        def admitted():
            metrics = live_client.metrics()["metrics"]
            return metrics.get("serve.requests_admitted", {"value": 0})["value"]

        before = admitted()
        body = {"rack_shape": shape, "outputs": ["tenancy"], "tenancy": {"days": 0.01}}
        status, _, reply = live_client._request(
            "POST", "/v1/evaluate", json.dumps(body).encode()
        )
        assert status == 400
        error = json.loads(reply)["error"]
        assert error["code"] == "bad_spec"
        assert "rack_shape" in error["message"]
        assert admitted() == before


class TestAnswerMemo:
    """Repeated specs are answered from the rendered-bytes memo before
    admission, and the memo's hits count everywhere a cache hit does."""

    def test_hit_returns_evaluated_bytes_without_a_batch(self, tmp_path):
        config = ServerConfig(port=0, jobs=1, linger_ms=1.0, cache_dir=tmp_path)
        spec = golden_spec()
        with ServerThread(config) as handle:
            client = ServeClient(port=handle.port)
            first = client.evaluate_response(spec)
            before = client.metrics()
            second = client.evaluate_response(spec)
            after = client.metrics()
        assert first[0] == second[0] == 200
        assert first[2] == second[2] == (GOLDEN_DIR / "serve_evaluate.json").read_bytes()
        assert (first[1]["x-repro-cache"], second[1]["x-repro-cache"]) == ("miss", "hit")

        def value(payload, name):
            return payload["metrics"].get(name, {"value": 0})["value"]

        assert value(after, "serve.batches") == value(before, "serve.batches") == 1
        assert value(after, "serve.requests_admitted") == 1
        assert value(after, "serve.memo_hits") == value(before, "serve.memo_hits") + 1 == 1
        assert value(after, "serve.requests_completed") == 2
        for name in ("serve.request_seconds", "serve.request_seconds.interactive"):
            assert after["metrics"][name]["count"] == 2
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1
        assert after["cache"]["per_backend"]["photonic"]["hits"] >= 1
        assert after["metrics"]["serve.cache_hit_ratio"]["value"] == 0.5

    def test_byte_bound_evicts_oldest_and_skips_oversized(self, monkeypatch):
        monkeypatch.setattr("repro.serve.service.MEMO_MAX_BYTES", 10)

        async def main():
            service = EvaluationService(ServerConfig(jobs=1, cache_dir=None))
            a, b, c, d = (cheap_spec(seed) for seed in range(4))
            for spec, body in ((a, b"aaaa"), (b, b"bbbb"), (c, b"cccc")):
                service.remember(spec, body)
            assert service.recall(a) is None
            assert (service.recall(b), service.recall(c)) == (b"bbbb", b"cccc")
            service.remember(d, b"d" * 11)
            assert service.recall(d) is None
            assert (service.recall(b), service.recall(c)) == (b"bbbb", b"cccc")
            assert service.metrics.snapshot()["serve.memo_hits"]["value"] == 4

        asyncio.run(main())

    def test_no_cache_evaluates_every_repeat(self, cheap_result):
        sizes = []
        config = ServerConfig(port=0, jobs=1, linger_ms=1.0, no_cache=True)
        with ServerThread(
            config, evaluate_batch=fake_rows(cheap_result, record=sizes)
        ) as handle:
            client = ServeClient(port=handle.port)
            replies = [client.evaluate_response(cheap_spec()) for _ in range(3)]
            metrics = client.metrics()["metrics"]
        assert [reply[1]["x-repro-cache"] for reply in replies] == ["miss"] * 3
        assert sizes == [1, 1, 1]
        assert metrics["serve.batches"]["value"] == 3
        assert "serve.memo_hits" not in metrics

    def test_draining_worker_answers_503_to_a_memoized_spec(
        self, cheap_result, tmp_path
    ):
        async def main():
            server = ReproServer(
                ServerConfig(port=0, jobs=1, cache_dir=tmp_path),
                evaluate_batch=fake_rows(cheap_result),
            )
            await server.start()
            request = _evaluate_request(cheap_spec().to_dict())
            first = await server._route(request)
            await server.shutdown()
            return first, await server._route(request), server.metrics.snapshot()

        first, second, snapshot = asyncio.run(main())
        assert first.startswith(b"HTTP/1.1 200 ")
        assert second.startswith(b"HTTP/1.1 503 ")
        assert json.loads(second.partition(b"\r\n\r\n")[2])["error"]["code"] == "draining"
        assert snapshot["serve.requests_rejected_draining"]["value"] == 1
        assert "serve.memo_hits" not in snapshot


class TestHttpIntrospection:
    def test_healthz_shape(self, live_client):
        health = live_client.healthz()
        assert health["status"] == "ok"
        assert health["queue_limit"] == 64
        assert health["sessions"] == 2
        assert health["uptime_s"] >= 0

    def test_metrics_payload(self, live_client):
        # At least one evaluation has happened by now (fixture ordering
        # within the class does not matter — force one).
        live_client.evaluate_bytes(cheap_spec())
        payload = live_client.metrics()
        metrics = payload["metrics"]
        assert metrics["serve.requests_admitted"]["value"] >= 1
        assert metrics["serve.batch_size"]["count"] >= 1
        assert metrics["serve.request_seconds"]["count"] >= 1
        assert "serve.queue_depth" in metrics
        assert 0.0 <= metrics["serve.cache_hit_ratio"]["value"] <= 1.0
        assert payload["cache"]["hits"] + payload["cache"]["misses"] >= 1
        assert payload["disk_cache"]["entries"] >= 1
        assert payload["disk_cache"]["evictions"] == 0


class TestHttpBackpressureAndTimeout:
    def test_timeout_answers_504(self, cheap_result):
        config = ServerConfig(
            port=0, jobs=1, max_batch=1, request_timeout_s=0.05, no_cache=True
        )
        slow = fake_rows(cheap_result, delay_s=0.5)
        with ServerThread(config, evaluate_batch=slow) as handle:
            client = ServeClient(port=handle.port)
            with pytest.raises(ServeError) as excinfo:
                client.evaluate_bytes(cheap_spec())
            assert excinfo.value.status == 504
            assert excinfo.value.code == "timeout"
            metrics = client.metrics()["metrics"]
            assert metrics["serve.requests_timed_out"]["value"] == 1

    def test_overflow_answers_429_with_retry_after(self, cheap_result):
        gate = threading.Event()
        config = ServerConfig(
            port=0, jobs=1, max_batch=1, queue_limit=1, no_cache=True,
            retry_after_s=2.0,
        )
        with ServerThread(
            config, evaluate_batch=fake_rows(cheap_result, gate=gate)
        ) as handle:
            client = ServeClient(port=handle.port)
            statuses = []

            def post(seed):
                status, _, _ = client.evaluate_response(cheap_spec(seed))
                statuses.append(status)

            workers = [
                threading.Thread(target=post, args=(seed,)) for seed in (0, 1)
            ]
            workers[0].start()
            # Wait until request 0 is the in-flight batch...
            deadline = time.monotonic() + 10
            while client.healthz()["inflight_batches"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            workers[1].start()
            # ...and request 1 occupies the only queue slot.
            while client.healthz()["queue_depth"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(ServeError) as excinfo:
                client.evaluate_bytes(cheap_spec(2))
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after_s == 2.0
            gate.set()
            for worker in workers:
                worker.join(timeout=30)
            assert statuses == [200, 200]

    def test_stop_under_load_drains_accepted_requests(self, cheap_result):
        """A graceful stop while requests are queued answers all of them."""
        gate = threading.Event()
        config = ServerConfig(
            port=0, jobs=1, max_batch=2, queue_limit=16, no_cache=True
        )
        handle = ServerThread(
            config, evaluate_batch=fake_rows(cheap_result, gate=gate)
        ).start()
        client = ServeClient(port=handle.port)
        statuses = []

        def post(seed):
            status, _, body = client.evaluate_response(cheap_spec(seed))
            statuses.append((status, len(body)))

        workers = [
            threading.Thread(target=post, args=(seed,)) for seed in range(5)
        ]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10
        while True:
            admitted = client.metrics()["metrics"].get(
                "serve.requests_admitted", {"value": 0}
            )["value"]
            if admitted == 5:
                break
            assert time.monotonic() < deadline, "requests never all admitted"
            time.sleep(0.005)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        gate.set()
        for worker in workers:
            worker.join(timeout=30)
        stopper.join(timeout=60)
        assert [s for s, _ in statuses] == [200] * 5
        assert all(size > 0 for _, size in statuses)


class TestConnectionLoop:
    """The front end's read deadline, rejection path and drain."""

    def test_stalled_request_is_408_counted_and_logged(
        self, cheap_result, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.http.READ_TIMEOUT_S", 0.3)
        stream = io.StringIO()
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        with ServerThread(
            config,
            evaluate_batch=fake_rows(cheap_result),
            log=EventLog(stream, level="warning"),
        ) as handle:
            status, headers, body = _raw_exchange(
                handle.port,
                b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
                half_close=False,
            )
            snapshot = handle.server.metrics.snapshot()
        assert status == 408
        assert int(headers["content-length"]) == len(body)
        error = json.loads(body)["error"]
        assert (error["status"], error["code"]) == (408, "protocol_error")
        assert snapshot["serve.protocol_errors.408"]["value"] == 1
        (record,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert (record["event"], record["level"]) == ("request.failed", "warning")
        assert (record["status"], record["code"]) == (408, "protocol_error")

    def test_stop_closes_idle_connections(self, cheap_result):
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        handle = ServerThread(config, evaluate_batch=fake_rows(cheap_result))
        handle.start()
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as idle:
            deadline = time.monotonic() + 10
            while not handle.server._handlers:
                assert time.monotonic() < deadline, "connection never accepted"
                time.sleep(0.005)
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive(), "stop() waited on an idle client"
            assert idle.recv(1) == b""

    def test_kept_alive_connection_answers_requests_in_turn(self, cheap_result):
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        keep = wire.kept_alive(wire.request_bytes(
            "POST", "/v1/evaluate", json.dumps(cheap_spec().to_dict()).encode()
        ))
        with ServerThread(config, evaluate_batch=fake_rows(cheap_result)) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
                replies = []
                for message in (keep, keep, wire.request_bytes("GET", "/healthz")):
                    sock.sendall(message)
                    replies.append(_read_response(sock))
                assert sock.recv(1) == b""
        assert [status for status, _, _ in replies] == [200, 200, 200]
        assert [headers["connection"] for _, headers, _ in replies] == [
            "keep-alive", "keep-alive", "close"
        ]
        assert replies[0][2] == replies[1][2]

    def test_idle_kept_alive_connection_closes_without_a_byte(
        self, cheap_result, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.http.READ_TIMEOUT_S", 0.5)
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        keep = wire.kept_alive(wire.request_bytes("GET", "/healthz"))
        with ServerThread(config, evaluate_batch=fake_rows(cheap_result)) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
                sock.sendall(keep)
                assert _read_response(sock)[1]["connection"] == "keep-alive"
                began = time.monotonic()
                assert sock.recv(65536) == b""
                assert time.monotonic() - began < 5
            # A request that stalls after its request line still gets a 408.
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
                sock.sendall(keep)
                _read_response(sock)
                sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
                status, headers, _ = _read_response(sock)
                assert (status, headers["connection"]) == (408, "close")
                assert sock.recv(65536) == b""
            snapshot = handle.server.metrics.snapshot()
        assert snapshot["serve.protocol_errors.408"]["value"] == 1


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """One whole response from ``sock``, framed by its Content-Length."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    while len(body) < int(headers["content-length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def _serve_process(*args: str, stdin: int) -> tuple[subprocess.Popen, int]:
    """``python -m repro serve --port 0`` with ``args``; its bound port."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1", *args],
        env=env, stdin=stdin, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    for line in process.stderr:
        match = re.search(r"listening on http://[\w.]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
    process.kill()
    raise AssertionError("repro serve never printed its listen line")


def _stop(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)
    process.stderr.close()


class TestStdinLifeline:
    """``--exit-on-stdin-eof`` (the router's workers) drains at end of
    file on stdin; without it, stdin does not matter."""

    def test_standalone_server_ignores_stdin_at_eof(self):
        process, port = _serve_process("--no-cache", stdin=subprocess.DEVNULL)
        try:
            time.sleep(0.2)
            status, _, _ = ServeClient(port=port).evaluate_response(cheap_spec())
            assert status == 200
            assert process.poll() is None
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _stop(process)

    def test_flag_drains_at_stdin_eof(self):
        process, port = _serve_process(
            "--no-cache", "--exit-on-stdin-eof", stdin=subprocess.PIPE
        )
        try:
            assert ServeClient(port=port).evaluate_response(cheap_spec())[0] == 200
            process.stdin.close()
            assert process.wait(timeout=30) == 0
            assert "drained cleanly (1 requests completed)" in process.stderr.read()
        finally:
            _stop(process)

    def test_flag_is_not_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "stdin" not in capsys.readouterr().out
        assert build_parser().parse_args(["serve", "--exit-on-stdin-eof"]).exit_on_stdin_eof
