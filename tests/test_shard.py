"""Tests for the sharded serving tier: router, single-flight, failover.

Two layers, mirroring ``tests/test_serve.py``:

* Router-level tests drive :class:`ShardRouter` directly inside
  ``asyncio.run`` with an injected in-process worker transport
  (``FakeWorkers``), so routing, coalescing, admission, and failover are
  deterministic — the gate is an ``asyncio.Event``, not a sleep.
* End-to-end tests run a real :class:`ShardThread` over real
  ``python -m repro serve`` subprocess workers and assert the tier's
  headline contract: responses byte-identical to the single-process
  service, the CLI, and the checked-in golden — for multiple worker
  counts, across a reshard, and through a worker kill.
"""

import asyncio
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

import pytest

from repro import api
from repro.api import ScenarioSpec, spec_key
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ShardConfig,
    ShardRouter,
    ShardThread,
    SubprocessWorkers,
    WorkerUnavailable,
    wire,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_spec() -> ScenarioSpec:
    payload = json.loads((GOLDEN_DIR / "serve_request.json").read_text())
    return ScenarioSpec.from_dict(payload)


def cheap_spec(seed: int = 42) -> ScenarioSpec:
    return ScenarioSpec(
        slices=(api.SliceSpec("S", (2, 2, 1), (0, 0, 0)),),
        outputs=("costs",),
        seed=seed,
    )


def evaluate_request(spec, priority=None) -> wire.Request:
    headers = {"content-type": "application/json"}
    if priority is not None:
        headers[wire.PRIORITY_HEADER.lower()] = priority
    body = json.dumps(spec.to_dict()).encode()
    return wire.Request("POST", "/v1/evaluate", headers, body)


def parse_response(raw: bytes):
    """Split serialized response bytes into (status, headers, body)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


async def _poll(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


RESULT_BODY = b'{"result": "canned"}\n'


class FakeWorkers:
    """An in-process worker transport with test hooks.

    Implements the protocol :class:`ShardRouter` needs (``start`` /
    ``stop`` / ``alive`` / ``ensure_alive`` / ``forward`` /
    ``describe``) without subprocesses: every forward returns the same
    canned body, optionally blocking on an ``asyncio.Event`` gate first.
    """

    def __init__(self, workers=2, body=RESULT_BODY, gated=False):
        self.count = workers
        self.body = body
        self.gate = asyncio.Event() if gated else None
        self.dead: set[int] = set()
        self.calls: list[tuple[int, str, str]] = []
        self.respawns = 0
        self.started = False
        self.stopped = False

    async def start(self):
        self.started = True

    async def stop(self):
        self.stopped = True

    def alive(self, slot):
        return slot not in self.dead

    async def ensure_alive(self):
        self.respawns += len(self.dead)
        return 0

    async def forward(self, slot, method, path, body=b"", headers=()):
        if slot in self.dead:
            raise WorkerUnavailable(f"worker w{slot} is down", slot=slot)
        self.calls.append((slot, method, path))
        if self.gate is not None and path == "/v1/evaluate":
            await self.gate.wait()
        if path == "/metrics":
            payload = {"cache": {"hits": 2, "misses": 1, "eval_seconds": 0.5}}
            return 200, {}, json.dumps(payload).encode()
        return 200, {"x-repro-cache": "miss"}, self.body

    def describe(self):
        return [
            {
                "name": f"w{slot}",
                "alive": self.alive(slot),
                "port": 10000 + slot,
                "pid": None,
                "restarts": 0,
            }
            for slot in range(self.count)
        ]


def router_config(workers=2, **overrides) -> ShardConfig:
    worker = ServerConfig(
        port=0, jobs=1, no_cache=True, **overrides.pop("worker_kwargs", {})
    )
    return ShardConfig(workers=workers, port=0, worker=worker, **overrides)


class TestShardConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"ring_replicas": 0},
            {"router_queue_limit": 0},
            {"port": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_admission_defaults_to_worker_capacity(self):
        config = ShardConfig(workers=3, worker=ServerConfig(queue_limit=10))
        assert config.admission_limit == 30
        assert config.batch_admission_limit == 15
        assert ShardConfig(workers=3, router_queue_limit=7).admission_limit == 7

    def test_worker_cache_namespaces(self, tmp_path):
        config = ShardConfig(worker=ServerConfig(cache_dir=tmp_path))
        assert config.worker_cache_dir(1) == tmp_path / "worker-1"
        cacheless = ShardConfig(worker=ServerConfig(no_cache=True))
        assert cacheless.cache_root() is None
        assert cacheless.worker_cache_dir(0) is None


class TestRouting:
    def test_routes_to_ring_owner(self):
        async def main():
            fake = FakeWorkers(workers=4)
            router = ShardRouter(router_config(4), workers=fake)
            specs = [cheap_spec(seed) for seed in range(12)]
            for spec in specs:
                raw = await router._evaluate(evaluate_request(spec))
                status, headers, body = parse_response(raw)
                owner = router.ring.lookup(spec_key(spec))
                assert status == 200
                assert body == RESULT_BODY
                assert headers["x-repro-worker"] == owner
                assert headers["x-repro-coalesced"] == "leader"
                assert headers["x-repro-cache"] == "miss"
            slots = [slot for slot, _, _ in fake.calls]
            assert slots == [
                int(router.ring.lookup(spec_key(s))[1:]) for s in specs
            ]
            assert len(set(slots)) > 1, "ring never spread the specs"

        asyncio.run(main())

    def test_fails_over_to_next_ring_node(self):
        async def main():
            fake = FakeWorkers(workers=3)
            router = ShardRouter(router_config(3), workers=fake)
            spec = cheap_spec(1)
            order = router.ring.lookup_order(spec_key(spec))
            fake.dead.add(int(order[0][1:]))
            raw = await router._evaluate(evaluate_request(spec))
            status, headers, body = parse_response(raw)
            assert status == 200
            assert body == RESULT_BODY
            assert headers["x-repro-worker"] == order[1]
            snapshot = router.metrics.snapshot()
            assert snapshot["serve.router_failovers"]["value"] == 1

        asyncio.run(main())

    def test_all_workers_down_is_502(self):
        async def main():
            fake = FakeWorkers(workers=2)
            fake.dead.update({0, 1})
            router = ShardRouter(router_config(2), workers=fake)
            raw = await router._evaluate(evaluate_request(cheap_spec()))
            status, _, body = parse_response(raw)
            assert status == 502
            assert json.loads(body)["error"]["code"] == "no_worker"

        asyncio.run(main())

    def test_invalid_spec_rejected_before_routing(self):
        async def main():
            fake = FakeWorkers()
            router = ShardRouter(router_config(), workers=fake)
            request = wire.Request(
                "POST", "/v1/evaluate", {}, b'{"fabric": "warpdrive"}'
            )
            status, _, body = parse_response(await router._evaluate(request))
            assert status == 400
            assert fake.calls == []

        asyncio.run(main())


class TestSingleFlight:
    def test_identical_specs_coalesce_to_one_evaluation(self):
        """M concurrent requests for one spec -> exactly one forwarded
        evaluation; every waiter gets the same bytes; one leader."""

        async def main():
            fake = FakeWorkers(gated=True)
            router = ShardRouter(router_config(), workers=fake)
            spec = cheap_spec()
            tasks = [
                asyncio.ensure_future(
                    router._evaluate(evaluate_request(spec))
                )
                for _ in range(6)
            ]
            await _poll(lambda: len(fake.calls) == 1 and router._active == 6)
            fake.gate.set()
            responses = [parse_response(raw) for raw in await asyncio.gather(*tasks)]
            assert len(fake.calls) == 1, "backend saw more than one evaluation"
            assert all(status == 200 for status, _, _ in responses)
            bodies = {body for _, _, body in responses}
            assert bodies == {RESULT_BODY}, "waiters saw different bytes"
            roles = sorted(h["x-repro-coalesced"] for _, h, _ in responses)
            assert roles == ["follower"] * 5 + ["leader"]
            snapshot = router.metrics.snapshot()
            assert snapshot["serve.requests_coalesced"]["value"] == 5
            assert router._inflight == {}

        asyncio.run(main())

    def test_distinct_specs_do_not_coalesce(self):
        async def main():
            fake = FakeWorkers(gated=True)
            router = ShardRouter(router_config(), workers=fake)
            tasks = [
                asyncio.ensure_future(
                    router._evaluate(evaluate_request(cheap_spec(seed)))
                )
                for seed in range(3)
            ]
            await _poll(lambda: len(fake.calls) == 3)
            fake.gate.set()
            await asyncio.gather(*tasks)
            assert "serve.requests_coalesced" not in router.metrics.snapshot()

        asyncio.run(main())

    def test_expired_waiter_504_without_cancelling_shared_flight(self):
        """The leader's deadline expires -> it gets 504 — but the shared
        evaluation keeps running and a later waiter still rides it."""

        async def main():
            fake = FakeWorkers(gated=True)
            config = router_config(
                worker_kwargs={"request_timeout_s": 1.0}
            )
            router = ShardRouter(config, workers=fake)
            spec = cheap_spec()
            leader = asyncio.ensure_future(
                router._evaluate(evaluate_request(spec))
            )
            await _poll(lambda: len(fake.calls) == 1)
            await asyncio.sleep(0.3)
            follower = asyncio.ensure_future(
                router._evaluate(evaluate_request(spec))
            )
            status, _, body = parse_response(await leader)
            assert status == 504
            assert json.loads(body)["error"]["code"] == "timeout"
            # The shared flight survived its waiter's deadline.
            assert len(router._inflight) == 1
            shared = next(iter(router._inflight.values()))
            assert not shared.cancelled()
            fake.gate.set()
            status, headers, body = parse_response(await follower)
            assert status == 200
            assert body == RESULT_BODY
            assert headers["x-repro-coalesced"] == "follower"
            assert len(fake.calls) == 1, "the evaluation re-ran"
            snapshot = router.metrics.snapshot()
            assert snapshot["serve.requests_timed_out"]["value"] == 1

        asyncio.run(main())


class TestPriorityAdmission:
    def test_batch_shed_before_interactive(self):
        """Past the batch watermark, batch gets 429 while interactive is
        still admitted up to the full router bound."""

        async def main():
            fake = FakeWorkers(gated=True)
            config = router_config(router_queue_limit=4)
            assert config.batch_admission_limit == 2
            router = ShardRouter(config, workers=fake)
            held = [
                asyncio.ensure_future(
                    router._evaluate(evaluate_request(cheap_spec(seed)))
                )
                for seed in range(2)
            ]
            await _poll(lambda: router._active == 2)
            # Batch is past its watermark: shed.
            raw = await router._evaluate(
                evaluate_request(cheap_spec(10), priority="batch")
            )
            status, headers, body = parse_response(raw)
            assert status == 429
            assert json.loads(body)["error"]["code"] == "queue_full"
            assert "retry-after" in headers
            # Interactive still has headroom at the same instant.
            third = asyncio.ensure_future(
                router._evaluate(evaluate_request(cheap_spec(11)))
            )
            await _poll(lambda: router._active == 3)
            fake.gate.set()
            responses = [
                parse_response(raw)
                for raw in await asyncio.gather(*held, third)
            ]
            assert [status for status, _, _ in responses] == [200] * 3
            snapshot = router.metrics.snapshot()
            assert snapshot["serve.requests_shed_batch"]["value"] == 1
            assert snapshot["serve.requests_admitted.interactive"]["value"] == 3

        asyncio.run(main())

    def test_interactive_overflow_is_429_too(self):
        async def main():
            fake = FakeWorkers(gated=True)
            router = ShardRouter(
                router_config(router_queue_limit=1), workers=fake
            )
            held = asyncio.ensure_future(
                router._evaluate(evaluate_request(cheap_spec(0)))
            )
            await _poll(lambda: router._active == 1)
            status, _, _ = parse_response(
                await router._evaluate(evaluate_request(cheap_spec(1)))
            )
            assert status == 429
            fake.gate.set()
            await held
            snapshot = router.metrics.snapshot()
            assert snapshot["serve.requests_rejected_full"]["value"] == 1

        asyncio.run(main())

    def test_unknown_priority_is_400(self):
        async def main():
            router = ShardRouter(router_config(), workers=FakeWorkers())
            raw = await router._evaluate(
                evaluate_request(cheap_spec(), priority="urgent")
            )
            status, _, body = parse_response(raw)
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_priority"

        asyncio.run(main())

    def test_draining_router_answers_503(self):
        async def main():
            router = ShardRouter(router_config(), workers=FakeWorkers())
            router._draining = True
            status, _, body = parse_response(
                await router._evaluate(evaluate_request(cheap_spec()))
            )
            assert status == 503
            assert json.loads(body)["error"]["code"] == "draining"

        asyncio.run(main())


class TestIntrospection:
    def test_health_reflects_worker_liveness(self):
        async def main():
            fake = FakeWorkers(workers=2)
            router = ShardRouter(router_config(2), workers=fake)
            assert router.health()["status"] == "ok"
            fake.dead.add(1)
            health = router.health()
            assert health["status"] == "degraded"
            assert health["role"] == "router"
            assert [w["name"] for w in health["workers"]] == ["w0", "w1"]
            assert health["router_queue_limit"] == 2 * 64

        asyncio.run(main())

    def test_metrics_aggregate_worker_caches(self):
        async def main():
            fake = FakeWorkers(workers=2)
            router = ShardRouter(router_config(2), workers=fake)
            payload = await router.metrics_payload()
            assert sorted(payload["workers"]) == ["w0", "w1"]
            tier = payload["tier_cache"]
            assert tier == {
                "hits": 4,
                "misses": 2,
                "eval_seconds": 1.0,
                "hit_rate": 4 / 6,
            }

        asyncio.run(main())

    def test_metrics_survive_a_dead_worker(self):
        async def main():
            fake = FakeWorkers(workers=2)
            fake.dead.add(0)
            router = ShardRouter(router_config(2), workers=fake)
            payload = await router.metrics_payload()
            assert "error" in payload["workers"]["w0"]
            assert payload["tier_cache"]["hits"] == 2

        asyncio.run(main())


class TestShutdown:
    def test_stop_closes_idle_connections(self):
        handle = ShardThread(router_config(), workers=FakeWorkers()).start()
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as idle:
            deadline = time.monotonic() + 10
            while not handle.router._handlers:
                assert time.monotonic() < deadline, "connection never accepted"
                time.sleep(0.005)
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive(), "stop() waited on an idle client"
            assert idle.recv(1) == b""
        assert handle.router.workers.stopped


@pytest.fixture(scope="module")
def shard_live(tmp_path_factory):
    """A real sharded tier: router + 2 subprocess workers, shared tmp
    cache root split into per-worker namespaces."""
    cache_root = tmp_path_factory.mktemp("shard-cache")
    config = ShardConfig(
        workers=2,
        port=0,
        worker=ServerConfig(
            port=0, jobs=1, linger_ms=1.0, cache_dir=cache_root
        ),
        supervise_interval_s=0.1,
    )
    with ShardThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def shard_client(shard_live):
    return ServeClient(port=shard_live.port)


class _Running:
    """Stands in for a worker process that the test runs in-process."""

    pid = os.getpid()
    stdin = None

    def poll(self):
        return None

    def send_signal(self, signum):
        pass

    def wait(self, timeout=None):
        return 0


def _workers_over(port: int) -> SubprocessWorkers:
    """Subprocess transport whose one slot is the in-process server at
    ``port``."""
    workers = SubprocessWorkers(router_config(workers=1))
    workers.slots[0].process = _Running()
    workers.slots[0].port = port
    return workers


class TestPooledHops:
    """Router-to-worker connections are kept alive and reused; one the
    worker closed while idle is retried on a fresh connection."""

    def test_sequential_forwards_reuse_one_connection(self):
        with ServerThread(ServerConfig(port=0, jobs=1, no_cache=True)) as handle:

            async def main():
                workers = _workers_over(handle.port)
                pool = workers.slots[0].pool
                body = json.dumps(cheap_spec().to_dict()).encode()
                answers, held = [], []
                for _ in range(3):
                    answers.append(await workers.forward(0, "POST", "/v1/evaluate", body))
                    held.append(list(pool))
                await workers.stop()
                return answers, held, pool

            answers, held, pool = asyncio.run(main())
        assert [status for status, _, _ in answers] == [200, 200, 200]
        assert len({body for _, _, body in answers}) == 1
        assert all(headers["connection"] == "keep-alive" for _, headers, _ in answers)
        assert len(held[0]) == 1 and held == [held[0]] * 3
        assert pool == []

    def test_connection_closed_while_idle_is_retried(self, monkeypatch):
        monkeypatch.setattr("repro.serve.http.READ_TIMEOUT_S", 0.2)
        with ServerThread(ServerConfig(port=0, jobs=1, no_cache=True)) as handle:

            async def main():
                workers = _workers_over(handle.port)
                router = ShardRouter(router_config(workers=1), workers=workers)
                first = await router._route(evaluate_request(cheap_spec()))
                (stale,) = workers.slots[0].pool
                await _poll(stale[0].at_eof)  # the worker closes it, idle
                second = await router._route(evaluate_request(cheap_spec()))
                (fresh,) = workers.slots[0].pool
                await workers.stop()
                return first, second, fresh is not stale, router.metrics.snapshot()

            first, second, replaced, snapshot = asyncio.run(main())
        first, second = parse_response(first), parse_response(second)
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        assert replaced
        assert "serve.router_failovers" not in snapshot


class TestSubprocessEndToEnd:
    def test_response_byte_identical_to_single_process_cli_and_golden(
        self, shard_client
    ):
        spec = golden_spec()
        body = shard_client.evaluate_bytes(spec)
        golden = (GOLDEN_DIR / "serve_evaluate.json").read_bytes()
        cli = (api.run(spec).to_json(indent=2, sort_keys=True) + "\n").encode()
        assert body == golden
        assert body == cli

    def test_repeat_hits_owner_worker_cache(self, shard_client):
        spec = golden_spec()
        first = shard_client.evaluate_response(spec)
        second = shard_client.evaluate_response(spec)
        assert first[0] == second[0] == 200
        assert second[1]["x-repro-cache"] == "hit"
        assert first[1]["x-repro-worker"] == second[1]["x-repro-worker"]
        assert first[2] == second[2]

    def test_worker_kill_reroutes_byte_identically(
        self, shard_live, shard_client
    ):
        """SIGKILL the spec's owner: the very next request fails over
        along the ring and answers the same bytes; the supervisor then
        respawns the slot."""
        spec = golden_spec()
        body_before = shard_client.evaluate_bytes(spec)
        router = shard_live.router
        owner = router.ring.lookup(spec_key(spec))
        slot = router.workers.slots[int(owner[1:])]
        assert slot.process is not None
        slot.process.kill()
        slot.process.wait(timeout=30)
        assert shard_client.evaluate_bytes(spec) == body_before
        deadline = time.monotonic() + 30
        while not all(w["alive"] for w in shard_client.healthz()["workers"]):
            assert time.monotonic() < deadline, "worker never respawned"
            time.sleep(0.05)
        assert slot.restarts >= 1
        # The respawned slot serves the same bytes from the same
        # cache namespace it had before the kill.
        assert shard_client.evaluate_bytes(spec) == body_before

    def test_health_and_metrics_endpoints(self, shard_client):
        health = shard_client.healthz()
        assert health["role"] == "router"
        assert len(health["workers"]) == 2
        payload = shard_client.metrics()
        assert sorted(payload["workers"]) == ["w0", "w1"]
        assert payload["tier_disk_cache"]["workers"] == 2
        assert payload["tier_disk_cache"]["entries"] >= 1

    def test_memo_hits_count_in_tier_cache(self, shard_client):
        spec = cheap_spec(11)
        before = shard_client.metrics()["tier_cache"]["hits"]
        first = shard_client.evaluate_response(spec)
        second = shard_client.evaluate_response(spec)
        assert first[2] == second[2]
        assert second[1]["x-repro-cache"] == "hit"
        payload = shard_client.metrics()
        assert payload["tier_cache"]["hits"] == before + 1
        owner = payload["workers"][second[1]["x-repro-worker"]]["metrics"]
        assert owner["serve.memo_hits"]["value"] >= 1

    def test_priority_header_reaches_worker_metrics(self, shard_client):
        shard_client.evaluate_bytes(cheap_spec(7), priority="batch")
        payload = shard_client.metrics()
        batch = sum(
            worker.get("metrics", {})
            .get("serve.requests_admitted.batch", {"value": 0})["value"]
            for worker in payload["workers"].values()
        )
        assert batch >= 1


class TestReshardByteIdentity:
    def test_worker_counts_answer_identically(self, tmp_path):
        """workers=1 and workers=3 serve the same bytes for the same
        specs — a reshard (different ring, different owners) changes
        placement only, never the answer."""
        spec = golden_spec()
        golden = (GOLDEN_DIR / "serve_evaluate.json").read_bytes()
        owners = {}
        for workers in (1, 3):
            config = ShardConfig(
                workers=workers,
                port=0,
                worker=ServerConfig(
                    port=0, jobs=1, linger_ms=1.0,
                    cache_dir=tmp_path / f"tier-{workers}",
                ),
            )
            with ShardThread(config) as handle:
                client = ServeClient(port=handle.port)
                status, headers, body = client.evaluate_response(spec)
                assert status == 200
                assert body == golden
                owners[workers] = headers["x-repro-worker"]
        assert owners[1] == "w0"


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestWorkersFollowTheirRouter:
    def test_sigkilled_router_takes_its_worker_down(self, tmp_path):
        """The worker reads end of file on the stdin pipe its router held,
        however the router died, and drains and exits: its runtime trace,
        written only after a clean drain, is there."""
        src = str(Path(api.__file__).resolve().parent.parent.parent)
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        )
        router = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1", "--jobs", "1",
             "--port", "0", "--no-cache", "--trace-dir", str(tmp_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            port = None
            for line in router.stderr:
                match = re.search(r"router listening on http://[\w.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "router never printed its listen line"
            (worker,) = ServeClient(port=port).healthz()["workers"]
            assert _running(worker["pid"])
            router.kill()
            router.wait(timeout=30)
            deadline = time.monotonic() + 10
            while _running(worker["pid"]):
                assert time.monotonic() < deadline, "worker outlived its router by 10 s"
                time.sleep(0.05)
            assert (tmp_path / f"w0-{worker['pid']}.trace.json").is_file()
        finally:
            try:
                os.killpg(router.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            router.wait(timeout=30)
            router.stderr.close()


class TestWorkerPipesClosed:
    def test_stderr_closed_after_respawn_and_stop(self):
        """The router closes its end of each worker's stderr pipe: the
        killed worker's when its slot respawns, every one after stop()."""

        async def main():
            workers = SubprocessWorkers(router_config(workers=1))
            await workers.start()
            first = workers.slots[0].process
            first.kill()
            first.wait(timeout=30)
            assert await workers.ensure_alive() == 1
            second = workers.slots[0].process
            closed_at_respawn = first.stderr.closed
            await workers.stop()
            return first, second, closed_at_respawn

        first, second, closed_at_respawn = asyncio.run(main())
        assert first is not second
        assert closed_at_respawn
        for process in (first, second):
            assert process.stderr.closed
            assert process.stdin.closed
