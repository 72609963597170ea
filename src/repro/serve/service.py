"""The asyncio evaluation service: micro-batched, admission-controlled.

One long-lived process answers many concurrent scenario queries against
a shared fabric model — the multi-tenant regime the roadmap targets,
versus the one-shot CLI that pays interpreter startup and cold caches
per query. The moving parts:

* **A memo of answers** — the rendered body of every 200 evaluation,
  keyed by :func:`~repro.api.cache.spec_key` and bounded by
  :data:`MEMO_MAX_BYTES`. A repeated spec is answered from it on the
  event loop before admission: no queue slot, linger, executor hop,
  disk read or JSON decode and encode.
* **Admission control** — a bounded queue in front of the batcher. When
  it is full, ``submit`` raises :class:`QueueFull` and the HTTP layer
  answers 429 with a ``Retry-After`` header, so overload degrades into
  fast rejections instead of unbounded latency. Memo hits take no
  queue slot, so the bound covers evaluations only.
* **Micro-batching** — the batcher coalesces queued requests until the
  batch is full (``max_batch``) or the oldest request has lingered
  ``linger_ms``, then evaluates the batch through
  :func:`repro.api.run_many` on a session leased from the pool.
  Batching lets :func:`run_many` deduplicate identical concurrent specs
  and lets one session amortize topology artifacts across the batch.
* **A session pool** — ``jobs`` persistent
  :class:`~repro.api.session.FabricSession` instances sharing one
  :class:`~repro.api.cache.DiskResultCache`, so every worker sees every
  other worker's results and a warm cache survives restarts. The
  batcher leases a session *before* collecting a batch, which is what
  makes the admission bound exact: when all sessions are busy, requests
  wait in the bounded queue, not in hidden batcher state.
* **Graceful shutdown** — ``drain()`` stops admissions (503 for new
  requests), flushes everything already accepted through the batcher,
  and waits for in-flight batches, so SIGTERM never drops an accepted
  request or truncates a response.

:class:`ReproServer` puts this behind the HTTP front end it shares with
the shard router (:mod:`repro.serve.http`; :mod:`repro.serve.wire` for
the framing): ``POST /v1/evaluate`` plus ``GET /healthz`` and
``GET /metrics`` backed by a :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..api.backends import UnsupportedOutput, available_backends
from ..api.batch import SpecRun, run_many
from ..api.cache import (
    CacheStats,
    DiskResultCache,
    NullResultCache,
    ResultCache,
    default_cache_dir,
    spec_key,
)
from ..api.session import FabricSession
from ..api.spec import ScenarioSpec
from ..obs import log as obs_log
from ..obs import prometheus
from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from . import wire
from .http import HttpFrontEnd, LoopThread, run_until_signal

__all__ = [
    "DEFAULT_PORT",
    "ServerConfig",
    "QueueFull",
    "ShuttingDown",
    "EvaluateRequestError",
    "parse_evaluate_request",
    "EvaluationService",
    "ReproServer",
    "ServerThread",
    "run_server",
]

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8421

#: Bytes of rendered answers one service keeps to answer repeated specs
#: before admission. perfbench's 50-scenario ``serve_warm`` set renders
#: 0.31 MiB (median 5.6 KiB per answer), so this holds ~1,400 typical
#: answers while bounding what the memo adds to the process.
MEMO_MAX_BYTES = 8 << 20


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one evaluation service instance.

    Attributes:
        host: interface to bind.
        port: TCP port to bind (0 = ephemeral; the bound port is
            exposed as ``ReproServer.port`` / ``ServerThread.port``).
        jobs: persistent sessions in the pool = concurrently evaluating
            batches.
        max_batch: requests coalesced into one batch at most.
        linger_ms: how long the batcher waits for the batch to fill
            before flushing a partial one.
        queue_limit: admitted-but-unbatched requests at most; overflow
            is rejected with 429.
        batch_shed_fraction: fraction of ``queue_limit`` past which
            ``batch``-priority requests are shed with 429 while
            ``interactive`` requests are still admitted — overload
            degrades the background class first, keeping interactive
            p99 bounded. ``1.0`` disables the distinction.
        request_timeout_s: per-request evaluation deadline; exceeding it
            answers 504 (the batch keeps running and still warms the
            cache).
        retry_after_s: value of the ``Retry-After`` header on 429.
        cache_dir: directory of the shared
            :class:`~repro.api.cache.DiskResultCache` (``None`` =
            :func:`~repro.api.cache.default_cache_dir`).
        no_cache: run without any persistent result cache.
        cache_max_entries: oldest-first eviction cap on the disk cache's
            entry count (``None`` = unbounded).
        cache_max_bytes: same cap in payload bytes.
        trace_dir: directory the process writes its wall-clock
            :class:`~repro.obs.tracer.Tracer` timeline into on
            drain (``None`` = runtime tracing off, the zero-overhead
            default).
        trace_name: process track label inside the trace file
            (``None`` = ``serve``; the shard router names its workers
            ``w0``, ``w1``, ...).
        log_level: minimum severity of the structured JSONL event log
            on stderr (``debug`` logs every request; the ``info``
            default logs lifecycle only).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    jobs: int = 2
    max_batch: int = 8
    linger_ms: float = 2.0
    queue_limit: int = 64
    batch_shed_fraction: float = 0.5
    request_timeout_s: float = 60.0
    retry_after_s: float = 1.0
    cache_dir: str | Path | None = None
    no_cache: bool = False
    cache_max_entries: int | None = None
    cache_max_bytes: int | None = None
    trace_dir: str | Path | None = None
    trace_name: str | None = None
    log_level: str = "info"

    def __post_init__(self) -> None:
        if self.log_level not in obs_log.LEVELS:
            raise ValueError(
                f"unknown log_level {self.log_level!r}; choose from "
                f"{list(obs_log.LEVELS)}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.linger_ms < 0:
            raise ValueError(f"linger_ms cannot be negative, got {self.linger_ms}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be positive, got {self.queue_limit}"
            )
        if not 0 < self.batch_shed_fraction <= 1:
            raise ValueError(
                f"batch_shed_fraction must be in (0, 1], got "
                f"{self.batch_shed_fraction}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")

    @property
    def batch_queue_limit(self) -> int:
        """Queue depth past which ``batch`` requests are shed (at least 1)."""
        return max(1, int(self.queue_limit * self.batch_shed_fraction))


class _BodyMemo:
    """Rendered answers by spec key, at most ``max_bytes`` of them; the
    least recently used goes first, and an answer over the bound is not
    kept."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.bytes = 0
        self._bodies: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> bytes | None:
        body = self._bodies.get(key)
        if body is not None:
            self._bodies.move_to_end(key)
        return body

    def put(self, key: str, body: bytes) -> None:
        if len(body) > self.max_bytes:
            return
        old = self._bodies.pop(key, None)
        self.bytes += len(body) - (len(old) if old is not None else 0)
        self._bodies[key] = body
        while self.bytes > self.max_bytes:
            _, evicted = self._bodies.popitem(last=False)
            self.bytes -= len(evicted)


class EvaluateRequestError(Exception):
    """An evaluate request the service must reject before admission.

    Attributes:
        status: HTTP status to answer with.
        code: machine-readable error code for the JSON envelope.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def parse_evaluate_request(
    request: wire.Request,
) -> tuple[ScenarioSpec, str]:
    """Parse and validate one ``POST /v1/evaluate`` request.

    Shared by the single-process front end and the shard router (which
    must parse the spec anyway to compute its routing key).

    Returns:
        ``(spec, priority)``.

    Raises:
        EvaluateRequestError: on a malformed body, invalid spec, unknown
            fabric, or unknown priority header.
    """
    try:
        payload = request.json()
    except wire.ProtocolError as exc:
        raise EvaluateRequestError(exc.status, "bad_json", str(exc)) from exc
    if isinstance(payload, dict) and isinstance(payload.get("spec"), dict):
        payload = payload["spec"]
    if not isinstance(payload, dict):
        raise EvaluateRequestError(
            400, "bad_request", "request body must be a ScenarioSpec object"
        )
    try:
        spec = ScenarioSpec.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise EvaluateRequestError(
            400, "bad_spec", f"invalid spec: {exc}"
        ) from exc
    if spec.fabric not in available_backends():
        raise EvaluateRequestError(
            400,
            "bad_spec",
            f"unknown fabric {spec.fabric!r}; registered backends: "
            f"{list(available_backends())}",
        )
    priority = request.headers.get(
        wire.PRIORITY_HEADER.lower(), wire.DEFAULT_PRIORITY
    )
    if priority not in wire.PRIORITIES:
        raise EvaluateRequestError(
            400,
            "bad_priority",
            f"unknown {wire.PRIORITY_HEADER} {priority!r}; expected one "
            f"of {list(wire.PRIORITIES)}",
        )
    return spec, priority


class QueueFull(Exception):
    """The admission queue is at ``queue_limit``; retry later (429).

    Attributes:
        retry_after_s: suggested client backoff.
    """

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full; retry after {retry_after_s:g} s"
        )
        self.retry_after_s = retry_after_s


class ShuttingDown(Exception):
    """The service is draining and admits no new requests (503)."""


@dataclass
class _Pending:
    """One admitted request waiting for its batch.

    ``trace_id``/``trace_start`` ride along here because the batcher
    evaluates in an executor thread, where contextvars from the
    admitting coroutine are not reliably visible — the batch maps 1:1
    onto its pending entries, so explicit plumbing is exact.
    """

    spec: ScenarioSpec
    future: asyncio.Future
    priority: str = wire.DEFAULT_PRIORITY
    admitted_at: float = field(default_factory=time.monotonic)
    trace_id: str | None = None
    trace_start: float = 0.0


#: Evaluates one batch on one pooled session (runs in the executor).
EvaluateBatch = Callable[[FabricSession, Sequence[ScenarioSpec]], list[SpecRun]]


def _default_evaluate_batch(
    session: FabricSession, specs: Sequence[ScenarioSpec]
) -> list[SpecRun]:
    """Evaluate one batch on one pooled session (runs in the executor).

    ``run_many`` with an explicit session deduplicates identical specs
    inside the batch and returns one ordered row per request, carrying
    cache provenance the HTTP layer surfaces as ``X-Repro-Cache``.
    """
    return list(run_many(specs, session=session).runs)


class EvaluationService:
    """Micro-batching evaluation core, independent of the HTTP framing.

    Attributes:
        config: the service tunables.
        metrics: the registry ``/metrics`` snapshots (queue depth,
            batch-size and latency histograms, admission counters).
        log: the structured event log (``NULL_LOG`` when unset).
        runtime: the :class:`~repro.obs.tracer.Tracer` on the wall
            clock (``NULL_TRACER`` when unset — the zero-overhead
            default), shared with the session, whose
            ``session.evaluate`` spans carry the ``kernel.*`` counters of
            that evaluation alone, whichever executor thread ran it.
    """

    def __init__(
        self,
        config: ServerConfig,
        metrics: MetricsRegistry | None = None,
        evaluate_batch: EvaluateBatch | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else NULL_LOG
        self.runtime = runtime if runtime is not None else NULL_TRACER
        self._evaluate_batch = evaluate_batch or _default_evaluate_batch
        self._result_cache = self._build_cache(config, self.log)
        self._sessions = [
            FabricSession(result_cache=self._result_cache, runtime=self.runtime)
            for _ in range(config.jobs)
        ]
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(
            maxsize=config.queue_limit
        )
        self._session_pool: asyncio.Queue[FabricSession] = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=config.jobs, thread_name_prefix="repro-serve"
        )
        self._inflight: set[asyncio.Task] = set()
        self._batcher: asyncio.Task | None = None
        # Off without a cache: --no-cache evaluates every request.
        self._memo = None if config.no_cache else _BodyMemo(MEMO_MAX_BYTES)
        self._memo_stats = CacheStats()
        self._draining = False
        self._drain_wakeup = asyncio.Event()
        self.started_at = time.monotonic()

    @staticmethod
    def _build_cache(config: ServerConfig, log: EventLog) -> ResultCache:
        if config.no_cache:
            return NullResultCache()
        root = (
            Path(config.cache_dir).expanduser()
            if config.cache_dir is not None
            else default_cache_dir()
        )
        return DiskResultCache(
            root,
            max_entries=config.cache_max_entries,
            max_bytes=config.cache_max_bytes,
            log=log,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the batcher; call from a running event loop."""
        for session in self._sessions:
            self._session_pool.put_nowait(session)
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="repro-serve-batcher"
        )

    async def drain(self) -> None:
        """Stop admissions, flush the queue, wait for in-flight batches."""
        self._draining = True
        self._drain_wakeup.set()
        if self._batcher is not None:
            await self._batcher
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        """Whether the service has begun its graceful shutdown."""
        return self._draining

    # -- the memo ----------------------------------------------------------------

    def recall(
        self, spec: ScenarioSpec, priority: str = wire.DEFAULT_PRIORITY
    ) -> bytes | None:
        """The body this service rendered for ``spec`` before, or ``None``.

        Called on the event loop before :meth:`submit`. A hit counts as a
        completed request, a cache hit and a ``serve.memo_hits``, and
        takes no queue slot.

        Raises:
            ShuttingDown: the service is draining (map to 503), memo or not.
        """
        self._refuse_if_draining(priority)
        if self._memo is None:
            return None
        began = time.monotonic()
        body = self._memo.get(spec_key(spec))
        if body is None:
            return None
        self._memo_stats.hits += 1
        counts = self._memo_stats.per_backend.setdefault(
            spec.fabric, {"hits": 0, "misses": 0}
        )
        counts["hits"] += 1
        self.metrics.counter("serve.memo_hits").inc()
        self.metrics.counter("serve.requests_completed").inc()
        elapsed = time.monotonic() - began
        self.metrics.histogram("serve.request_seconds").observe(elapsed)
        self.metrics.histogram(f"serve.request_seconds.{priority}").observe(elapsed)
        return body

    def remember(self, spec: ScenarioSpec, body: bytes) -> None:
        """Keep the rendered body of a 200 evaluation for :meth:`recall`."""
        if self._memo is not None:
            self._memo.put(spec_key(spec), body)

    # -- admission ---------------------------------------------------------------

    def _refuse_if_draining(self, priority: str) -> None:
        if self._draining:
            self.metrics.counter("serve.requests_rejected_draining").inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "request.shed", priority=priority, reason="draining"
                )
            raise ShuttingDown("the service is draining")

    def submit(
        self,
        spec: ScenarioSpec,
        priority: str = wire.DEFAULT_PRIORITY,
        trace_id: str | None = None,
    ) -> asyncio.Future:
        """Admit ``spec``; the future resolves to its :class:`SpecRun`.

        ``batch``-priority requests are held to a tighter admission
        bound (``config.batch_queue_limit``) than ``interactive`` ones,
        so overload sheds the background class first. ``trace_id``, when
        given, is stamped on the spans this request leaves in the
        runtime tracer.

        Raises:
            ShuttingDown: the service is draining (map to 503).
            QueueFull: the admission queue is at its limit for this
                priority class (map to 429).
            ValueError: ``priority`` is not one of :data:`wire.PRIORITIES`.
        """
        if priority not in wire.PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                f"{list(wire.PRIORITIES)}"
            )
        self._refuse_if_draining(priority)
        if (
            priority == "batch"
            and self._queue.qsize() >= self.config.batch_queue_limit
        ):
            self.metrics.counter("serve.requests_shed_batch").inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "request.shed", priority=priority, reason="batch_queue_limit"
                )
            raise QueueFull(self.config.retry_after_s)
        future = asyncio.get_running_loop().create_future()
        pending = _Pending(
            spec=spec,
            future=future,
            priority=priority,
            trace_id=trace_id,
            trace_start=self.runtime.now() if self.runtime.enabled else 0.0,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.metrics.counter("serve.requests_rejected_full").inc()
            if self.log.enabled_for(obs_log.WARNING):
                self.log.warning(
                    "request.shed", priority=priority, reason="queue_full"
                )
            raise QueueFull(self.config.retry_after_s) from None
        self.metrics.counter("serve.requests_admitted").inc()
        self.metrics.counter(f"serve.requests_admitted.{priority}").inc()
        self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        if self.log.enabled_for(obs_log.DEBUG):
            self.log.debug(
                "request.admitted",
                priority=priority,
                queue_depth=self._queue.qsize(),
            )
        return future

    # -- batching ----------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Lease a session, collect a batch, dispatch; repeat until drained.

        The session is leased *before* the first request is pulled so
        the bounded queue is the only place requests wait — the
        admission limit stays exact under saturation.
        """
        while True:
            session = await self._session_pool.get()
            first = await self._next_pending()
            if first is None:
                self._session_pool.put_nowait(session)
                return
            batch = [first]
            deadline = asyncio.get_running_loop().time() + (
                self.config.linger_ms / 1000.0
            )
            while len(batch) < self.config.max_batch:
                if self._draining:
                    # Flush fast: take whatever is already queued.
                    try:
                        batch.append(self._queue.get_nowait())
                        continue
                    except asyncio.QueueEmpty:
                        break
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
            task = asyncio.get_running_loop().create_task(
                self._run_batch(session, batch)
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _next_pending(self) -> _Pending | None:
        """The next admitted request, or ``None`` once drained dry."""
        while True:
            try:
                return self._queue.get_nowait()
            except asyncio.QueueEmpty:
                if self._draining:
                    return None
            getter = asyncio.ensure_future(self._queue.get())
            waker = asyncio.ensure_future(self._drain_wakeup.wait())
            done, _ = await asyncio.wait(
                {getter, waker}, return_when=asyncio.FIRST_COMPLETED
            )
            waker.cancel()
            if getter in done:
                return getter.result()
            getter.cancel()
            try:
                await getter
            except asyncio.CancelledError:
                pass
            else:  # pragma: no cover - raced an item in during cancellation
                return getter.result()

    async def _run_batch(
        self, session: FabricSession, batch: list[_Pending]
    ) -> None:
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_size").observe(len(batch))
        specs = [pending.spec for pending in batch]
        loop = asyncio.get_running_loop()
        runtime = self.runtime
        batch_start = 0.0
        if runtime.enabled:
            # The linger/queue wait ends here: one span per request from
            # its admission to the moment its batch dispatches.
            batch_start = runtime.now()
            for pending in batch:
                runtime.complete(
                    "serve.queue",
                    "serve",
                    pending.trace_start,
                    batch_start,
                    trace_id=pending.trace_id,
                    args={"priority": pending.priority},
                )
        try:
            rows = await loop.run_in_executor(
                self._executor, self._evaluate_batch, session, specs
            )
        except Exception as exc:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        else:
            if runtime.enabled:
                batch_end = runtime.now()
                runtime.complete(
                    "serve.batch",
                    "serve",
                    batch_start,
                    batch_end,
                    args={"batch_size": len(batch)},
                )
                for pending, row in zip(batch, rows):
                    runtime.complete(
                        "serve.evaluate",
                        "serve",
                        batch_start,
                        batch_end,
                        trace_id=pending.trace_id,
                        args={
                            "fabric": pending.spec.fabric,
                            "cache": "hit" if row.from_cache else "miss",
                        },
                    )
            for pending, row in zip(batch, rows):
                if not pending.future.done():
                    pending.future.set_result(row)
                elapsed = time.monotonic() - pending.admitted_at
                self.metrics.histogram("serve.request_seconds").observe(elapsed)
                self.metrics.histogram(
                    f"serve.request_seconds.{pending.priority}"
                ).observe(elapsed)
            self.metrics.counter("serve.requests_completed").inc(len(batch))
        finally:
            self._session_pool.put_nowait(session)
            self._refresh_cache_metrics()

    # -- introspection -----------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss view summed over the memo and every pooled session."""
        total = CacheStats()
        for stats in (self._memo_stats, *(s.cache_stats() for s in self._sessions)):
            total.hits += stats.hits
            total.misses += stats.misses
            total.eval_seconds += stats.eval_seconds
            for fabric, counts in stats.per_backend.items():
                merged = total.per_backend.setdefault(
                    fabric, {"hits": 0, "misses": 0}
                )
                merged["hits"] += counts["hits"]
                merged["misses"] += counts["misses"]
        return total

    def _refresh_cache_metrics(self) -> None:
        stats = self.cache_stats()
        self.metrics.gauge("serve.cache_hit_ratio").set(stats.hit_rate)
        if isinstance(self._result_cache, DiskResultCache):
            disk = self._result_cache.cache_stats()
            self.metrics.gauge("serve.disk_cache_entries").set(disk["entries"])
            self.metrics.gauge("serve.disk_cache_bytes").set(disk["bytes"])
            self.metrics.gauge("serve.disk_cache_evictions").set(
                disk["evictions"]
            )

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload."""
        return {
            "status": "draining" if self._draining else "ok",
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "batch_queue_limit": self.config.batch_queue_limit,
            "sessions": self.config.jobs,
            "inflight_batches": len(self._inflight),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }

    def metrics_payload(self) -> dict[str, Any]:
        """The ``/metrics`` payload."""
        self._refresh_cache_metrics()
        payload: dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
            "cache": self.cache_stats().to_dict(),
        }
        if isinstance(self._result_cache, DiskResultCache):
            payload["disk_cache"] = self._result_cache.cache_stats()
        return payload

    def metrics_prometheus(self) -> str:
        """The ``/metrics?format=prometheus`` text exposition."""
        self._refresh_cache_metrics()
        return prometheus.render_exposition(self.metrics)


def _result_body(row: SpecRun) -> bytes:
    """The evaluate response body.

    Exactly the JSON the CLI prints for the same spec (``indent=2``,
    sorted keys, trailing newline) — the byte-identity the tests and the
    CI smoke job assert.
    """
    return (
        json.dumps(row.result.to_dict(), indent=2, sort_keys=True) + "\n"
    ).encode()


class ReproServer(HttpFrontEnd):
    """A worker: the HTTP front end over one :class:`EvaluationService`.

    Attributes:
        service: the batching core.
    """

    def __init__(
        self,
        config: ServerConfig,
        metrics: MetricsRegistry | None = None,
        evaluate_batch: EvaluateBatch | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        super().__init__(config, metrics, log, runtime)
        self.service = EvaluationService(
            config,
            metrics=self.metrics,
            evaluate_batch=evaluate_batch,
            log=self.log,
            runtime=self.runtime,
        )

    async def _open(self) -> None:
        """Start the batcher."""
        self.service.start()

    async def _drain(self) -> None:
        """Flush the batcher and wait for its in-flight batches."""
        await self.service.drain()

    def health(self) -> dict[str, Any]:
        return self.service.health()

    async def metrics_payload(self) -> dict[str, Any]:
        return self.service.metrics_payload()

    async def metrics_prometheus(self) -> str:
        return self.service.metrics_prometheus()

    async def _evaluate(self, request: wire.Request) -> bytes:
        trace_id, trace_headers = self._trace(request)
        if not self.runtime.enabled:
            return await self._evaluate_traced(request, trace_id, trace_headers)
        with self.runtime.span("serve.request", "serve", trace_id=trace_id):
            return await self._evaluate_traced(request, trace_id, trace_headers)

    async def _evaluate_traced(
        self,
        request: wire.Request,
        trace_id: str | None,
        trace_headers: wire.Headers,
    ) -> bytes:
        try:
            spec, priority = parse_evaluate_request(request)
        except EvaluateRequestError as exc:
            return wire.error_response(
                exc.status, exc.code, str(exc), extra_headers=trace_headers
            )
        try:
            body = self.service.recall(spec, priority)
            if body is not None:
                return wire.response_bytes(
                    200, body, extra_headers=((wire.CACHE_HEADER, "hit"),) + trace_headers
                )
            future = self.service.submit(
                spec, priority=priority, trace_id=trace_id
            )
        except ShuttingDown:
            return wire.error_response(
                503,
                "draining",
                "the service is shutting down",
                extra_headers=trace_headers,
            )
        except QueueFull as exc:
            return wire.error_response(
                429,
                "queue_full",
                str(exc),
                extra_headers=trace_headers
                + (("Retry-After", f"{max(1, round(exc.retry_after_s))}"),),
            )
        try:
            row: SpecRun = await asyncio.wait_for(
                future, self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            return self._timed_out(self.config.request_timeout_s, trace_headers)
        except UnsupportedOutput as exc:
            return wire.error_response(
                400, "unsupported_output", str(exc), extra_headers=trace_headers
            )
        except (KeyError, ValueError) as exc:
            return wire.error_response(
                400,
                "bad_spec",
                f"evaluation rejected the spec: {exc}",
                extra_headers=trace_headers,
            )
        except Exception as exc:  # noqa: BLE001 - the envelope must answer
            if self.log.enabled_for(obs_log.ERROR):
                self.log.error(
                    "request.failed", status=500, code="internal", message=str(exc)
                )
            return wire.error_response(
                500,
                "internal",
                f"evaluation failed: {exc}",
                extra_headers=trace_headers,
            )
        body = _result_body(row)
        self.service.remember(spec, body)
        return wire.response_bytes(
            200,
            body,
            extra_headers=(
                (wire.CACHE_HEADER, "hit" if row.from_cache else "miss"),
            )
            + trace_headers,
        )


class ServerThread(LoopThread):
    """A :class:`ReproServer` on a background thread (tests, benches)::

        with ServerThread(ServerConfig(port=0)) as handle:
            client = ServeClient(port=handle.port)
    """

    def __init__(
        self,
        config: ServerConfig,
        metrics: MetricsRegistry | None = None,
        evaluate_batch: EvaluateBatch | None = None,
        log: EventLog | None = None,
        runtime: Tracer | None = None,
    ) -> None:
        super().__init__(
            functools.partial(ReproServer, config, metrics, evaluate_batch, log, runtime),
            name="server",
            ready_timeout_s=30.0,
        )

    @property
    def server(self) -> ReproServer | None:
        """The running server (after :meth:`start`)."""
        return self.front


def run_server(config: ServerConfig, *, exit_on_stdin_eof: bool = False) -> int:
    """Run the service until SIGTERM/SIGINT (or, with
    ``exit_on_stdin_eof``, end of file on stdin); the ``repro serve`` body.

    Returns:
        0 after a clean drain.
    """
    return run_until_signal(
        lambda log, runtime: ReproServer(config, log=log, runtime=runtime),
        name=config.trace_name or "serve",
        log_level=config.log_level,
        trace_dir=config.trace_dir,
        title="repro serve",
        settings=(
            f"jobs={config.jobs}, max_batch={config.max_batch}, "
            f"linger={config.linger_ms:g} ms, queue_limit={config.queue_limit}, "
            f"cache={'off' if config.no_cache else 'on'}"
        ),
        exit_on_stdin_eof=exit_on_stdin_eof,
    )
