"""The sharded serving tier: a router front end over N worker processes.

One :mod:`repro.serve` process tops out at one core's worth of serving
work. This module grows it horizontally without giving up any of the
single-process contracts (byte-identical responses, bounded admission,
graceful drain):

* **Worker supervision** — the router spawns ``--workers`` subprocesses,
  each running today's single-process service (``python -m repro serve``)
  on an ephemeral port with its own cache namespace
  (``<cache-dir>/worker-<slot>``), and respawns any worker that exits
  unexpectedly onto the *same slot*, so its disk cache stays hot across
  restarts. Each worker's stdin is a pipe only the router writes to;
  the worker drains and exits at its end of file, so the workers go
  down with their router however it dies.
* **Pooled hops** — the router keeps its connections to each worker
  open (``Connection: keep-alive``) and reuses them. A pooled connection
  that fails before its status line (the worker closed it while idle)
  is retried once on a fresh one before the request fails over.
* **Consistent-hash routing** — a fixed-point :class:`HashRing` over
  :func:`~repro.api.cache.spec_key` maps every spec to a worker slot.
  Each worker therefore sees a stable shard of the key space: its
  :class:`~repro.api.session.FabricSession` memoization and
  :class:`~repro.api.cache.DiskResultCache` namespace stay hot, and
  resizing the tier from N to N±1 workers moves only ~1/N of the keys
  (proven in ``tests/test_hashring.py``). When a worker is mid-restart,
  the request fails over to the next distinct slot on the ring — results
  are deterministic, so any worker answers byte-identically.
* **Single-flight dedup** — concurrent requests for the same spec key
  coalesce at the router into one forwarded evaluation; every waiter
  gets the same bytes plus an ``X-Repro-Coalesced: leader|follower``
  provenance header. A waiter whose deadline expires gets its 504
  without cancelling the shared evaluation (late duplicates still
  coalesce onto it, and it still warms the worker's cache).
* **Priority classes** — ``X-Repro-Priority: interactive|batch`` is
  honored at the router's own admission bound (and forwarded to the
  workers' queues): under overload, ``batch`` is shed with 429 first,
  keeping ``interactive`` p99 bounded.

The routing key is the *content* hash of the spec, so the tier answers
byte-identically to a single-process server and to the CLI for every
spec, for every worker count, and across a reshard — asserted in
``tests/test_shard.py`` and the ``scripts/shard_smoke.py`` CI job.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Sequence

from ..api.cache import default_cache_dir, spec_key, tier_cache_stats
from ..obs import log as obs_log
from ..obs import prometheus
from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from . import wire
from .http import HttpFrontEnd, LoopThread, run_until_signal
from .service import (
    DEFAULT_PORT,
    EvaluateRequestError,
    ServerConfig,
    parse_evaluate_request,
)

__all__ = [
    "HashRing",
    "ShardConfig",
    "WorkerUnavailable",
    "SubprocessWorkers",
    "ShardRouter",
    "ShardThread",
    "run_sharded",
]

_LISTEN_RE = re.compile(r"http://[\w.\-]+:(\d+)")


class HashRing:
    """A consistent-hash ring with fixed-point (sha256) placement.

    Every node is projected onto a 64-bit ring at ``replicas`` points
    (``sha256("<node>#<i>")``), and a key lands on the first node point
    at or after its own hash. The hash is content-addressed — no
    ``hash()``, no ``PYTHONHASHSEED`` — so placement is identical across
    processes, machines, and runs, which is what lets every router
    replica and every test agree on which worker owns a key.

    Adding or removing one of N nodes remaps only the ring arcs adjacent
    to that node's points: ~1/N of the key space, versus ~(N-1)/N for
    modulo hashing. ``tests/test_hashring.py`` holds this bound on
    randomized key populations.

    Attributes:
        nodes: the node names, sorted, as a tuple.
        replicas: ring points per node.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = 64) -> None:
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names: {sorted(nodes)}")
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.nodes = tuple(sorted(nodes))
        self.replicas = replicas
        points = []
        for node in self.nodes:
            for index in range(replicas):
                points.append((self._point(f"{node}#{index}"), node))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    @staticmethod
    def _point(label: str) -> int:
        """A label's 64-bit position on the ring."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (the first point at or after its hash)."""
        index = bisect.bisect_left(self._hashes, self._point(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def lookup_order(self, key: str) -> tuple[str, ...]:
        """Every node in ring order from ``key``: owner first, then failovers.

        Walking the ring (instead of re-hashing) keeps the failover
        assignment consistent too: all routers agree on the second
        choice for a key, and a key's fallback set is stable under
        resharding the same way its owner is.
        """
        start = bisect.bisect_left(self._hashes, self._point(key))
        seen: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self.nodes):
                    break
        return tuple(seen)

    def with_nodes(self, nodes: Sequence[str]) -> "HashRing":
        """A new ring over ``nodes`` with the same replica count."""
        return HashRing(nodes, replicas=self.replicas)

    def __len__(self) -> int:
        return len(self.nodes)


class _ClosedIdle(Exception):
    """A pooled connection failed before the answer's status line."""


class WorkerUnavailable(Exception):
    """No worker could serve the forwarded request (maps to 502).

    Attributes:
        slot: the last slot tried, or ``None`` when every slot failed.
    """

    def __init__(self, message: str, slot: int | None = None) -> None:
        super().__init__(message)
        self.slot = slot


@dataclass(frozen=True)
class ShardConfig:
    """Tunables of the sharded tier: the router plus its workers.

    Attributes:
        workers: worker processes to spawn and supervise.
        host: interface the router binds (workers bind loopback).
        port: router TCP port (0 = ephemeral).
        worker: the per-worker :class:`ServerConfig`; its ``port`` is
            ignored (workers always bind an ephemeral port) and its
            ``cache_dir`` is treated as the *tier* cache root — worker
            ``slot`` uses ``<cache_dir>/worker-<slot>``.
        ring_replicas: ring points per worker on the consistent-hash
            ring (more = smoother key balance).
        router_queue_limit: concurrent client requests the router admits
            at most; overflow answers 429 (``None`` = ``workers x
            worker.queue_limit``). ``batch`` requests are shed past
            ``worker.batch_shed_fraction`` of this bound.
        worker_ready_timeout_s: how long a spawned worker may take to
            print its listen line before the spawn is abandoned.
        supervise_interval_s: how often the supervisor checks for (and
            respawns) dead workers.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    worker: ServerConfig = field(default_factory=ServerConfig)
    ring_replicas: int = 64
    router_queue_limit: int | None = None
    worker_ready_timeout_s: float = 60.0
    supervise_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.ring_replicas < 1:
            raise ValueError(
                f"ring_replicas must be positive, got {self.ring_replicas}"
            )
        if self.router_queue_limit is not None and self.router_queue_limit < 1:
            raise ValueError(
                f"router_queue_limit must be positive, got "
                f"{self.router_queue_limit}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")

    @property
    def admission_limit(self) -> int:
        """Router-level concurrent-request bound (interactive class)."""
        if self.router_queue_limit is not None:
            return self.router_queue_limit
        return self.workers * self.worker.queue_limit

    @property
    def batch_admission_limit(self) -> int:
        """Router-level bound for the ``batch`` class (shed earlier)."""
        return max(
            1, int(self.admission_limit * self.worker.batch_shed_fraction)
        )

    def cache_root(self) -> Path | None:
        """The tier cache root directory (``None`` with ``no_cache``)."""
        if self.worker.no_cache:
            return None
        if self.worker.cache_dir is not None:
            return Path(self.worker.cache_dir).expanduser()
        return default_cache_dir()

    def worker_cache_dir(self, slot: int) -> Path | None:
        """Worker ``slot``'s private cache namespace under the tier root."""
        root = self.cache_root()
        return None if root is None else root / f"worker-{slot}"


#: An open connection to a worker: its stream reader and writer.
_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


@dataclass
class _WorkerSlot:
    """One supervised worker slot: stable identity, replaceable process.

    ``pool`` holds the idle kept-alive connections to ``pool_process``;
    it is dropped once ``process`` is another one.
    """

    index: int
    process: subprocess.Popen | None = None
    port: int | None = None
    restarts: int = 0
    log_tail: deque = field(default_factory=lambda: deque(maxlen=50))
    pool: list[_Connection] = field(default_factory=list)
    pool_process: subprocess.Popen | None = None
    drain: threading.Thread | None = None

    @property
    def name(self) -> str:
        return f"w{self.index}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class SubprocessWorkers:
    """Spawns, proxies to, and supervises the worker subprocesses.

    Each worker is a full ``python -m repro serve`` process — exactly the
    service an operator would run standalone — so the sharded tier's
    responses are the single-process service's responses by
    construction. The router talks plain HTTP to each worker over
    loopback.
    """

    def __init__(
        self,
        config: ShardConfig,
        metrics: MetricsRegistry | None = None,
        log: EventLog | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else NULL_LOG
        self.slots = [_WorkerSlot(index) for index in range(config.workers)]
        self._stopping = False
        self._spawn_locks = [threading.Lock() for _ in range(config.workers)]

    # -- process lifecycle -------------------------------------------------------

    def _command(self, slot: int) -> list[str]:
        worker = self.config.worker
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--jobs", str(worker.jobs),
            "--max-batch", str(worker.max_batch),
            "--linger-ms", str(worker.linger_ms),
            "--queue-limit", str(worker.queue_limit),
            "--batch-shed-fraction", str(worker.batch_shed_fraction),
            "--timeout-s", str(worker.request_timeout_s),
            "--log-level", worker.log_level,
            "--exit-on-stdin-eof",
        ]
        if worker.trace_dir is not None:
            command.extend(
                ["--trace-dir", str(worker.trace_dir), "--trace-name",
                 f"w{slot}"]
            )
        cache_dir = self.config.worker_cache_dir(slot)
        if cache_dir is None:
            command.append("--no-cache")
        else:
            command.extend(["--cache-dir", str(cache_dir)])
            if worker.cache_max_entries is not None:
                command.extend(
                    ["--cache-max-entries", str(worker.cache_max_entries)]
                )
            if worker.cache_max_bytes is not None:
                command.extend(
                    ["--cache-max-bytes", str(worker.cache_max_bytes)]
                )
        return command

    def _environment(self) -> dict[str, str]:
        """The worker environment: inherit, but guarantee the package
        is importable even when the router was launched via PYTHONPATH
        manipulation done in-process (tests, notebooks)."""
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH", "")
        entries = existing.split(os.pathsep) if existing else []
        if package_root not in entries:
            env["PYTHONPATH"] = os.pathsep.join([package_root, *entries])
        return env

    def _spawn_sync(self, slot: _WorkerSlot) -> None:
        """Start (or restart) ``slot``'s process and wait for its port.

        Blocking (Popen + stderr readline); run it in an executor.
        """
        with self._spawn_locks[slot.index]:
            if self._stopping or slot.alive:
                return
            if slot.process is not None:
                self._release(slot)
            # The stdin pipe's write end stays with the router alone
            # (pipes are not inherited by the other workers): the worker
            # reads end of file when the router exits, by any means.
            process = subprocess.Popen(
                self._command(slot.index),
                env=self._environment(),
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            assert process.stderr is not None
            deadline = time.monotonic() + self.config.worker_ready_timeout_s
            port: int | None = None
            while time.monotonic() < deadline:
                line = process.stderr.readline()
                if not line:
                    break
                slot.log_tail.append(line.rstrip())
                match = _LISTEN_RE.search(line)
                if match:
                    port = int(match.group(1))
                    break
            if port is None:
                process.kill()
                process.wait(timeout=10)
                process.stdin.close()
                process.stderr.close()
                tail = "\n".join(slot.log_tail)
                raise RuntimeError(
                    f"worker {slot.name} never reported a port; log tail:\n"
                    f"{tail}"
                )
            # Keep draining stderr so the worker never blocks on a full
            # pipe; the tail stays available for diagnostics.
            slot.drain = threading.Thread(
                target=self._drain_stderr,
                args=(process.stderr, slot.log_tail),
                name=f"repro-shard-{slot.name}-stderr",
                daemon=True,
            )
            slot.drain.start()
            slot.process = process
            slot.port = port
            if self.log.enabled_for(obs_log.INFO):
                self.log.info(
                    "worker.spawn", slot=slot.index, port=port, pid=process.pid
                )

    @staticmethod
    def _drain_stderr(stream: IO[str], tail: deque) -> None:
        with stream:  # closed at end of file: the worker has exited
            for line in stream:
                tail.append(line.rstrip())

    @staticmethod
    def _release(slot: _WorkerSlot) -> None:
        """Close the router's ends of an exited worker's pipes: stdin
        here, stderr once its drain thread reads end of file."""
        assert slot.process is not None
        if slot.process.stdin is not None:
            slot.process.stdin.close()
        if slot.drain is not None:
            slot.drain.join(timeout=10)

    async def start(self) -> None:
        """Spawn every worker slot concurrently."""
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._spawn_sync, slot)
                for slot in self.slots
            )
        )

    async def ensure_alive(self) -> int:
        """Respawn every dead slot; returns how many were respawned."""
        if self._stopping:
            return 0
        dead = [slot for slot in self.slots if not slot.alive]
        if not dead:
            return 0
        loop = asyncio.get_running_loop()
        for slot in dead:
            slot.restarts += 1
            self.metrics.counter("serve.worker_restarts").inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "worker.death", slot=slot.index, restarts=slot.restarts
                )
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._spawn_sync, slot)
                for slot in dead
            )
        )
        if self.log.enabled_for(obs_log.INFO):
            for slot in dead:
                self.log.info("worker.respawn", slot=slot.index)
        return len(dead)

    def _terminate_sync(self) -> None:
        for slot in self.slots:
            if slot.alive:
                assert slot.process is not None
                slot.process.send_signal(signal.SIGTERM)
        for slot in self.slots:
            if slot.process is not None:
                try:
                    slot.process.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    slot.process.kill()
                    slot.process.wait(timeout=10)
                self._release(slot)

    async def stop(self) -> None:
        """Close the pooled connections, SIGTERM every worker (each
        drains) and reap the processes."""
        self._stopping = True
        for slot in self.slots:
            self._drop_pool(slot)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._terminate_sync)

    # -- proxying ----------------------------------------------------------------

    def alive(self, slot: int) -> bool:
        return self.slots[slot].alive

    async def forward(
        self,
        slot: int,
        method: str,
        path: str,
        body: bytes = b"",
        headers: wire.Headers = (),
    ) -> tuple[int, dict[str, str], bytes]:
        """One proxied HTTP exchange with worker ``slot``, on a pooled
        connection when one is idle.

        Raises:
            WorkerUnavailable: the worker is down, unreachable, or died
                mid-response (the router fails over or respawns).
        """
        target = self.slots[slot]
        if target.port is None or not target.alive:
            raise WorkerUnavailable(
                f"worker {target.name} is not running", slot=slot
            )
        if target.pool_process is not target.process:
            self._drop_pool(target)
            target.pool_process = target.process
        message = wire.kept_alive(wire.request_bytes(method, path, body, headers=headers))
        if target.pool:
            try:
                return await self._exchange(target, target.pool.pop(), message, pooled=True)
            except _ClosedIdle:
                pass  # the worker closed it while idle: one fresh try
        try:
            connection = await asyncio.open_connection("127.0.0.1", target.port)
        except OSError as exc:
            raise WorkerUnavailable(
                f"worker {target.name} refused the connection: {exc}",
                slot=slot,
            ) from exc
        return await self._exchange(target, connection, message, pooled=False)

    async def _exchange(
        self, target: _WorkerSlot, connection: _Connection, message: bytes,
        *, pooled: bool,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send ``message`` on ``connection`` and read the answer; pool the
        connection again when the worker keeps it open.

        Raises:
            _ClosedIdle: a ``pooled`` connection failed before a status
                line came.
            WorkerUnavailable: the exchange failed otherwise.
        """
        reader, writer = connection
        answered = False

        def on_status_line() -> None:
            nonlocal answered
            answered = True

        reuse = False
        try:
            writer.write(message)
            await writer.drain()
            status, headers, body = await wire.read_response(
                reader, on_status_line=on_status_line
            )
        except (ConnectionError, wire.ProtocolError) as exc:
            if pooled and not answered:
                raise _ClosedIdle() from exc
            raise WorkerUnavailable(
                f"worker {target.name} died mid-response: {exc}", slot=target.index
            ) from exc
        else:
            reuse = (
                headers.get("connection") == "keep-alive"
                and not self._stopping
                and target.pool_process is target.process
            )
            return status, headers, body
        finally:
            if reuse:
                target.pool.append(connection)
            else:
                writer.close()

    @staticmethod
    def _drop_pool(slot: _WorkerSlot) -> None:
        for _reader, writer in slot.pool:
            writer.close()
        slot.pool.clear()

    def describe(self) -> list[dict[str, Any]]:
        """Per-slot status for ``/healthz``."""
        return [
            {
                "name": slot.name,
                "alive": slot.alive,
                "port": slot.port,
                "pid": slot.process.pid if slot.process is not None else None,
                "restarts": slot.restarts,
            }
            for slot in self.slots
        ]


class ShardRouter(HttpFrontEnd):
    """The HTTP front end that routes, coalesces, and supervises.

    Attributes:
        workers: the worker transport (subprocess-backed by default;
            tests inject an in-process fake).
        ring: the consistent-hash ring over the worker slots.

    ``metrics`` is the router's own registry; worker registries are
    aggregated into ``/metrics`` live.
    """

    def __init__(
        self,
        config: ShardConfig,
        metrics: MetricsRegistry | None = None,
        workers: Any | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        super().__init__(config, metrics, log, runtime)
        self.workers = (
            workers
            if workers is not None
            else SubprocessWorkers(config, self.metrics, log=self.log)
        )
        self.ring = HashRing(
            [f"w{index}" for index in range(config.workers)],
            replicas=config.ring_replicas,
        )
        self._inflight: dict[str, asyncio.Task] = {}
        self._active = 0
        self._draining = False
        self._supervisor: asyncio.Task | None = None
        self.started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------------

    async def _open(self) -> None:
        """Spawn the workers and start supervising them."""
        await self.workers.start()
        self._supervisor = asyncio.get_running_loop().create_task(
            self._supervise(), name="repro-shard-supervisor"
        )

    async def _drain(self) -> None:
        """Stop supervising, finish the single-flight tasks, stop workers."""
        self._draining = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        if self._inflight:
            await asyncio.gather(
                *self._inflight.values(), return_exceptions=True
            )
        await self.workers.stop()

    async def _supervise(self) -> None:
        """Respawn dead workers until the router drains."""
        while not self._draining:
            await asyncio.sleep(self.config.supervise_interval_s)
            try:
                await self.workers.ensure_alive()
            except Exception as exc:  # noqa: BLE001 - keep supervising
                self.metrics.counter("serve.worker_respawn_failures").inc()
                if self.log.enabled_for(obs_log.ERROR):
                    self.log.error("worker.respawn_failed", error=str(exc))

    # -- evaluation: admission, single-flight, routing ---------------------------

    async def _evaluate(self, request: wire.Request) -> bytes:
        trace_id, trace_headers = self._trace(request)
        try:
            spec, priority = parse_evaluate_request(request)
        except EvaluateRequestError as exc:
            return wire.error_response(
                exc.status, exc.code, str(exc), extra_headers=trace_headers
            )
        if self._draining:
            self.metrics.counter("serve.requests_rejected_draining").inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "request.shed", priority=priority, reason="draining"
                )
            return wire.error_response(
                503,
                "draining",
                "the service is shutting down",
                extra_headers=trace_headers,
            )
        limit = (
            self.config.admission_limit
            if priority == "interactive"
            else self.config.batch_admission_limit
        )
        if self._active >= limit:
            counter = (
                "serve.requests_shed_batch"
                if priority == "batch"
                else "serve.requests_rejected_full"
            )
            self.metrics.counter(counter).inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "request.shed",
                    priority=priority,
                    reason="router_admission_limit",
                )
            retry_after = self.config.worker.retry_after_s
            return wire.error_response(
                429,
                "queue_full",
                f"router admission limit reached for {priority!r} requests; "
                f"retry after {retry_after:g} s",
                extra_headers=trace_headers
                + (("Retry-After", f"{max(1, round(retry_after))}"),),
            )
        self._active += 1
        self.metrics.counter("serve.requests_admitted").inc()
        self.metrics.counter(f"serve.requests_admitted.{priority}").inc()
        self.metrics.gauge("serve.active_requests").set(self._active)
        if self.log.enabled_for(obs_log.DEBUG):
            self.log.debug("request.admitted", priority=priority)
        began = time.monotonic()
        try:
            if not self.runtime.enabled:
                return await self._evaluate_admitted(
                    request, spec, priority, began, trace_id, trace_headers
                )
            with self.runtime.span(
                "router.request", "router", trace_id=trace_id
            ):
                return await self._evaluate_admitted(
                    request, spec, priority, began, trace_id, trace_headers
                )
        finally:
            self._active -= 1
            self.metrics.gauge("serve.active_requests").set(self._active)

    async def _evaluate_admitted(
        self,
        request: wire.Request,
        spec: Any,
        priority: str,
        began: float,
        trace_id: str | None,
        trace_headers: wire.Headers,
    ) -> bytes:
        key = spec_key(spec)
        task = self._inflight.get(key)
        if task is None:
            role = "leader"
            task = asyncio.get_running_loop().create_task(
                self._forward_with_failover(key, request, trace_id)
            )
            self._inflight[key] = task
            task.add_done_callback(self._discard_inflight(key, task))
        else:
            role = "follower"
            self.metrics.counter("serve.requests_coalesced").inc()
            if self.log.enabled_for(obs_log.DEBUG):
                self.log.debug("request.coalesced", role=role, key=key[:16])
        if self.runtime.enabled:
            self.runtime.instant(
                "router.singleflight",
                "router",
                trace_id=trace_id,
                args={"role": role, "key": key[:16]},
            )
        try:
            # shield(): a waiter's deadline (or disconnect) must not
            # cancel the shared evaluation other waiters ride on.
            status, headers, body = await asyncio.wait_for(
                asyncio.shield(task), self.config.worker.request_timeout_s
            )
        except asyncio.TimeoutError:
            return self._timed_out(
                self.config.worker.request_timeout_s, trace_headers
            )
        except WorkerUnavailable as exc:
            if self.log.enabled_for(obs_log.ERROR):
                self.log.error(
                    "request.failed", status=502, code="no_worker",
                    message=str(exc),
                )
            return wire.error_response(
                502,
                "no_worker",
                f"no worker could serve the request: {exc}",
                extra_headers=trace_headers,
            )
        elapsed = time.monotonic() - began
        self.metrics.histogram("serve.request_seconds").observe(elapsed)
        self.metrics.histogram(
            f"serve.request_seconds.{priority}"
        ).observe(elapsed)
        if status == 200:
            self.metrics.counter("serve.requests_completed").inc()
        passthrough = []
        for name in (wire.CACHE_HEADER, "Retry-After"):
            value = headers.get(name.lower())
            if value is not None:
                passthrough.append((name, value))
        passthrough.append(
            (wire.WORKER_HEADER, headers.get(wire.WORKER_HEADER.lower(), "?"))
        )
        passthrough.append((wire.COALESCED_HEADER, role))
        passthrough.extend(trace_headers)
        return wire.response_bytes(
            status, body, extra_headers=tuple(passthrough)
        )

    def _discard_inflight(self, key: str, task: asyncio.Task):
        def callback(done: asyncio.Task) -> None:
            if self._inflight.get(key) is task:
                del self._inflight[key]
            if not done.cancelled():
                done.exception()  # consume; every waiter saw it already

        return callback

    async def _forward_with_failover(
        self, key: str, request: wire.Request, trace_id: str | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """Forward to the key's owner; fail over along the ring if down.

        Results are deterministic, so a failover answer is byte-identical
        to the owner's — the ring order only decides whose cache gets
        warmed. The supervisor respawns the dead owner in the background.
        The leader's ``trace_id`` is forwarded over
        :data:`~repro.serve.wire.TRACE_HEADER`, so the worker's spans
        join the router's timeline.
        """
        forwarded = (
            (
                wire.PRIORITY_HEADER,
                request.headers.get(
                    wire.PRIORITY_HEADER.lower(), wire.DEFAULT_PRIORITY
                ),
            ),
        )
        if trace_id is not None:
            forwarded += ((wire.TRACE_HEADER, trace_id),)
        runtime = self.runtime
        last: WorkerUnavailable | None = None
        for node in self.ring.lookup_order(key):
            slot = int(node[1:])
            hop_start = runtime.now() if runtime.enabled else 0.0
            try:
                status, headers, body = await self.workers.forward(
                    slot, "POST", "/v1/evaluate", request.body, forwarded
                )
            except WorkerUnavailable as exc:
                if runtime.enabled:
                    runtime.complete(
                        "router.proxy",
                        "router",
                        hop_start,
                        runtime.now(),
                        trace_id=trace_id,
                        args={"worker": node, "outcome": "unavailable"},
                    )
                self.metrics.counter("serve.router_failovers").inc()
                if self.log.enabled_for(obs_log.WARNING):
                    self.log.warning(
                        "request.failover", slot=slot, key=key[:16]
                    )
                last = exc
                continue
            if runtime.enabled:
                runtime.complete(
                    "router.proxy",
                    "router",
                    hop_start,
                    runtime.now(),
                    trace_id=trace_id,
                    args={"worker": node, "status": status},
                )
            headers[wire.WORKER_HEADER.lower()] = node
            return status, headers, body
        raise WorkerUnavailable(f"all {len(self.ring)} workers down: {last}")

    # -- introspection -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The router's ``/healthz`` payload."""
        workers = self.workers.describe()
        if self._draining:
            status = "draining"
        elif all(worker["alive"] for worker in workers):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "role": "router",
            "workers": workers,
            "ring_replicas": self.config.ring_replicas,
            "active_requests": self._active,
            "router_queue_limit": self.config.admission_limit,
            "batch_queue_limit": self.config.batch_admission_limit,
            "inflight_keys": len(self._inflight),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }

    async def _fetch_worker_metrics(self) -> list[dict[str, Any]]:
        """Every worker's ``/metrics`` payload, fetched concurrently.

        ``asyncio.gather`` preserves input order, so the result list is
        in slot-numeric order — ``w10`` never sorts before ``w2`` the
        way a lexical key sort would put it.
        """

        async def fetch(slot: int) -> dict[str, Any]:
            try:
                status, _, body = await self.workers.forward(
                    slot, "GET", "/metrics"
                )
                if status == 200:
                    return json.loads(body)
                return {"error": f"HTTP {status}"}
            except WorkerUnavailable as exc:
                return {"error": str(exc)}

        return list(
            await asyncio.gather(
                *(fetch(index) for index in range(self.config.workers))
            )
        )

    async def metrics_payload(self) -> dict[str, Any]:
        """The router's ``/metrics``: own registry + per-worker payloads
        + shared-tier cache totals (workers keyed ``w0``..``wN`` in slot
        order)."""
        payload: dict[str, Any] = {"metrics": self.metrics.snapshot()}
        worker_payloads = await self._fetch_worker_metrics()
        payload["workers"] = {
            f"w{index}": worker_payload
            for index, worker_payload in enumerate(worker_payloads)
        }
        tier = {"hits": 0, "misses": 0, "eval_seconds": 0.0}
        for worker_payload in worker_payloads:
            cache = worker_payload.get("cache")
            if isinstance(cache, dict):
                tier["hits"] += cache.get("hits", 0)
                tier["misses"] += cache.get("misses", 0)
                tier["eval_seconds"] += cache.get("eval_seconds", 0.0)
        lookups = tier["hits"] + tier["misses"]
        tier["hit_rate"] = tier["hits"] / lookups if lookups else 0.0
        payload["tier_cache"] = tier
        root = self.config.cache_root()
        if root is not None:
            payload["tier_disk_cache"] = tier_cache_stats(
                [
                    self.config.worker_cache_dir(slot)
                    for slot in range(self.config.workers)
                ]
            )
        return payload

    async def metrics_prometheus(self) -> str:
        """The router's ``/metrics?format=prometheus`` exposition.

        The router's own registry renders with full histogram bucket
        series; each worker's snapshot (held only as JSON) renders as
        additional ``{worker="wN"}``-labeled samples without TYPE
        re-declarations, so the combined text stays parseable.
        """
        extra: list[str] = []
        for index, worker_payload in enumerate(
            await self._fetch_worker_metrics()
        ):
            snapshot = worker_payload.get("metrics")
            if not isinstance(snapshot, dict):
                continue
            extra.extend(
                prometheus.render_snapshot(
                    snapshot,
                    labels={"worker": f"w{index}"},
                    declare_types=False,
                )
            )
        return prometheus.render_exposition(self.metrics, extra_lines=extra)


class ShardThread(LoopThread):
    """A :class:`ShardRouter` on a background thread (tests, benches)."""

    def __init__(
        self,
        config: ShardConfig,
        metrics: MetricsRegistry | None = None,
        workers: Any | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        super().__init__(
            functools.partial(ShardRouter, config, metrics, workers, log, runtime),
            name="router",
            ready_timeout_s=config.worker_ready_timeout_s + 30,
        )

    @property
    def router(self) -> ShardRouter | None:
        """The running router (after :meth:`start`)."""
        return self.front


def run_sharded(config: ShardConfig, *, exit_on_stdin_eof: bool = False) -> int:
    """Run the sharded tier until SIGTERM/SIGINT (or, with
    ``exit_on_stdin_eof``, end of file on stdin); the ``repro serve
    --workers N`` body.

    Returns:
        0 after a clean drain.
    """
    return run_until_signal(
        lambda log, runtime: ShardRouter(config, log=log, runtime=runtime),
        name="router",
        log_level=config.worker.log_level,
        trace_dir=config.worker.trace_dir,
        title="repro serve router",
        settings=(
            f"workers={config.workers}, jobs={config.worker.jobs}, "
            f"queue_limit={config.admission_limit}, "
            f"batch_limit={config.batch_admission_limit}, "
            f"cache={'off' if config.worker.no_cache else 'on'}"
        ),
        exit_on_stdin_eof=exit_on_stdin_eof,
    )
