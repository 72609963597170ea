"""``repro.serve`` — the asyncio evaluation service, single or sharded.

A long-lived JSON-over-HTTP front end to the experiment API:
``POST /v1/evaluate`` takes a :class:`~repro.api.spec.ScenarioSpec`
body, a micro-batcher coalesces concurrent requests into
:func:`~repro.api.batch.run_many` calls on a pool of persistent
:class:`~repro.api.session.FabricSession`\\ s sharing one
:class:`~repro.api.cache.DiskResultCache`, and the response body is the
exact ``RunResult`` JSON the CLI would print for the same spec; a
repeated spec is answered from a memo of those bytes before admission.
Admission is bounded (429 + ``Retry-After`` on overflow) with
``batch``-priority requests shed first under overload
(``X-Repro-Priority``), every request has a deadline (504), and SIGTERM
drains every accepted request before the process exits. ``GET /healthz``
and ``GET /metrics`` expose liveness and the
:class:`~repro.obs.metrics.MetricsRegistry`.

``repro serve --workers N`` scales the same service horizontally: a
:class:`~repro.serve.shard.ShardRouter` front end spawns and supervises
N worker processes, routes by consistent-hashed spec key so each
worker's caches stay hot (:class:`~repro.serve.shard.HashRing`),
coalesces identical in-flight specs into one evaluation
(``X-Repro-Coalesced``), reuses kept-alive connections to its workers,
and fails over along the ring when a worker is mid-restart — answering
byte-identically to the single-process service throughout. The workers
exit with their router, however it dies.

Start it with ``python -m repro serve`` (see ``--help``), drive it with
:class:`ServeClient`, or embed it in-process with :class:`ServerThread`
/ :class:`ShardThread`.
"""

from .client import ServeClient, ServeError
from .service import (
    DEFAULT_PORT,
    EvaluateRequestError,
    EvaluationService,
    QueueFull,
    ReproServer,
    ServerConfig,
    ServerThread,
    ShuttingDown,
    parse_evaluate_request,
    run_server,
)
from .shard import (
    HashRing,
    ShardConfig,
    ShardRouter,
    ShardThread,
    SubprocessWorkers,
    WorkerUnavailable,
    run_sharded,
)

__all__ = [
    "DEFAULT_PORT",
    "ServerConfig",
    "EvaluationService",
    "ReproServer",
    "ServerThread",
    "run_server",
    "QueueFull",
    "ShuttingDown",
    "EvaluateRequestError",
    "parse_evaluate_request",
    "ServeClient",
    "ServeError",
    "HashRing",
    "ShardConfig",
    "ShardRouter",
    "ShardThread",
    "SubprocessWorkers",
    "WorkerUnavailable",
    "run_sharded",
]
