"""End-to-end trace-id propagation: client -> router -> worker.

Router-level tests drive :class:`ShardRouter` in-process with a
recording fake worker transport, so header propagation is asserted
directly; the live test runs a real :class:`ServerThread` and checks the
echo contract holds with tracing off (the default, zero-overhead path).
"""

import asyncio
import json
import time

import pytest

from repro import api
from repro.api import ScenarioSpec
from repro.obs.tracer import Tracer, valid_trace_id
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ShardConfig,
    ShardRouter,
    wire,
)

RESULT_BODY = b'{"result": "canned"}\n'


def cheap_spec(seed: int = 42) -> ScenarioSpec:
    return ScenarioSpec(
        slices=(api.SliceSpec("S", (2, 2, 1), (0, 0, 0)),),
        outputs=("costs",),
        seed=seed,
    )


def evaluate_request(spec, trace_id=None) -> wire.Request:
    headers = {"content-type": "application/json"}
    if trace_id is not None:
        headers[wire.TRACE_HEADER.lower()] = trace_id
    return wire.Request(
        "POST", "/v1/evaluate", headers, json.dumps(spec.to_dict()).encode()
    )


def parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


class RecordingWorkers:
    """Minimal worker transport that records forwarded headers."""

    def __init__(self, workers=2):
        self.count = workers
        self.forwarded: list[tuple[int, str, dict[str, str]]] = []

    async def start(self):
        pass

    async def stop(self):
        pass

    def alive(self, slot):
        return True

    async def ensure_alive(self):
        return 0

    async def forward(self, slot, method, path, body=b"", headers=()):
        self.forwarded.append((slot, path, {k.lower(): v for k, v in headers}))
        return 200, {"x-repro-cache": "miss"}, RESULT_BODY

    def describe(self):
        return [
            {"name": f"w{slot}", "alive": True, "port": 10000 + slot,
             "pid": None, "restarts": 0}
            for slot in range(self.count)
        ]


def router_config(workers=2) -> ShardConfig:
    return ShardConfig(
        workers=workers, port=0,
        worker=ServerConfig(port=0, jobs=1, no_cache=True),
    )


def traced_router(fake):
    runtime = Tracer("router", clock=time.time, pid=1)
    router = ShardRouter(router_config(), workers=fake, runtime=runtime)
    return router, runtime


class TestRouterPropagation:
    def test_client_id_echoed_and_forwarded(self):
        async def main():
            fake = RecordingWorkers()
            router, runtime = traced_router(fake)
            raw = await router._evaluate(
                evaluate_request(cheap_spec(), trace_id="client-id-1")
            )
            status, headers, _ = parse_response(raw)
            assert status == 200
            assert headers["x-repro-trace-id"] == "client-id-1"
            (slot, path, forwarded) = fake.forwarded[0]
            assert path == "/v1/evaluate"
            assert forwarded[wire.TRACE_HEADER.lower()] == "client-id-1"
            spans = runtime.spans("router")
            assert spans, "router left no spans"
            tagged = {dict(s.args).get("trace_id") for s in spans}
            assert tagged == {"client-id-1"}

        asyncio.run(main())

    def test_invalid_client_id_replaced_with_minted(self):
        async def main():
            fake = RecordingWorkers()
            router, _ = traced_router(fake)
            hostile = "bad id\nwith newline"
            raw = await router._evaluate(
                evaluate_request(cheap_spec(), trace_id=hostile)
            )
            status, headers, _ = parse_response(raw)
            echoed = headers["x-repro-trace-id"]
            assert status == 200
            assert echoed != hostile
            assert valid_trace_id(echoed)
            (_, _, forwarded) = fake.forwarded[0]
            assert forwarded[wire.TRACE_HEADER.lower()] == echoed

        asyncio.run(main())

    def test_tracing_enabled_mints_id_without_client_header(self):
        async def main():
            fake = RecordingWorkers()
            router, runtime = traced_router(fake)
            raw = await router._evaluate(evaluate_request(cheap_spec()))
            status, headers, _ = parse_response(raw)
            assert status == 200
            minted = headers["x-repro-trace-id"]
            assert valid_trace_id(minted)
            (_, _, forwarded) = fake.forwarded[0]
            assert forwarded[wire.TRACE_HEADER.lower()] == minted
            assert {dict(s.args).get("trace_id")
                    for s in runtime.spans("router")} == {minted}

        asyncio.run(main())

    def test_tracing_off_and_no_header_adds_nothing(self):
        async def main():
            fake = RecordingWorkers()
            router = ShardRouter(router_config(), workers=fake)
            raw = await router._evaluate(evaluate_request(cheap_spec()))
            status, headers, _ = parse_response(raw)
            assert status == 200
            assert "x-repro-trace-id" not in headers
            (_, _, forwarded) = fake.forwarded[0]
            assert wire.TRACE_HEADER.lower() not in forwarded

        asyncio.run(main())

    def test_error_responses_echo_trace_id(self):
        async def main():
            fake = RecordingWorkers()
            router, _ = traced_router(fake)
            request = wire.Request(
                "POST", "/v1/evaluate",
                {wire.TRACE_HEADER.lower(): "err-trace"},
                b'{"fabric": "warpdrive"}',
            )
            raw = await router._evaluate(request)
            status, headers, _ = parse_response(raw)
            assert status == 400
            assert headers["x-repro-trace-id"] == "err-trace"

        asyncio.run(main())


class TestLiveWorkerEcho:
    @pytest.fixture(scope="class")
    def handle(self):
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        with ServerThread(config) as handle:
            yield handle

    def test_echoes_client_id_with_tracing_off(self, handle):
        client = ServeClient(port=handle.port)
        status, headers, _ = client.evaluate_response(
            cheap_spec(), trace_id="through-the-wire"
        )
        assert status == 200
        assert headers["x-repro-trace-id"] == "through-the-wire"

    def test_no_header_means_no_echo_when_untraced(self, handle):
        client = ServeClient(port=handle.port)
        status, headers, _ = client.evaluate_response(cheap_spec(seed=43))
        assert status == 200
        assert "x-repro-trace-id" not in headers

    def test_worker_traced_request_spans_share_id(self):
        runtime = Tracer("serve", clock=time.time, pid=2)
        config = ServerConfig(port=0, jobs=1, no_cache=True)
        with ServerThread(config, runtime=runtime) as handle:
            client = ServeClient(port=handle.port)
            status, headers, _ = client.evaluate_response(
                cheap_spec(seed=44), trace_id="worker-trace"
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == "worker-trace"
        names = {s.name for s in runtime.spans("serve")}
        assert {"serve.request", "serve.queue", "serve.evaluate"} <= names
        # Per-request spans all carry the id; batch-level spans
        # (serve.batch) aggregate many requests and carry none.
        for per_request in ("serve.request", "serve.queue", "serve.evaluate"):
            tagged = {
                dict(s.args).get("trace_id")
                for s in runtime.spans("serve") if s.name == per_request
            }
            assert tagged == {"worker-trace"}, per_request

    def test_prometheus_exposition_parses(self, handle):
        from repro.obs.prometheus import parse_exposition

        client = ServeClient(port=handle.port)
        families = parse_exposition(client.metrics_text())
        assert any(name.startswith("repro_serve_") for name in families)

    def test_bad_metrics_format_is_400(self, handle):
        client = ServeClient(port=handle.port)
        status, _, body = client._request("GET", "/metrics?format=xml")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_format"

    def test_json_metrics_unchanged_by_default(self, handle):
        client = ServeClient(port=handle.port)
        payload = client.metrics()
        assert "serve.requests_completed" in payload["metrics"]
