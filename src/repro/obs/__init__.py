"""Observability: structured event tracing and metrics.

The paper's headline claims are *timeline* claims — 3.7 us MZI
reconfiguration windows, congestion-free failure recovery, bandwidth
steered into the active torus dimension — and this package is where the
stack records them as data rather than prose:

* :class:`Tracer` collects structured spans and instant events,
  exportable as Chrome/Perfetto ``trace_event`` JSON, on one of two
  clocks. On simulation time it records the simulator (flow
  start/finish, rate rebalances, reconfiguration and alpha windows,
  schedule phase boundaries) and the fabric backends (failure injection,
  repair circuits, rack migration). On an injected wall clock it records
  the serving tier — admission wait, batch linger, router→worker proxy
  hops, session evaluation, cache probes — keyed by an
  ``X-Repro-Trace-Id`` propagated across processes, with per-process
  trace files merged into one timeline by :func:`merge_traces` /
  ``repro obs merge``. :data:`NULL_TRACER` is the zero-overhead off
  switch: call sites guard emission behind ``tracer.enabled``, so an
  untraced run does no extra work and its results stay byte-identical
  (CI enforces this against the goldens).
* :class:`MetricsRegistry` holds counters, gauges and histograms with a
  deterministic, name-sorted snapshot — threaded through
  :class:`~repro.api.session.FabricSession` (per-backend memoization,
  evaluation timing and the ``kernel.<op>.calls``/``.seconds`` an
  evaluation's kernels charge) and :func:`~repro.api.batch.run_many`
  (per-stage and per-worker sweep statistics).
  :func:`~repro.obs.metrics.nearest_rank` is the one percentile
  definition.

Both reach the experiment API as opt-in ``trace``/``metrics`` result
sections and the CLI as ``repro trace`` and ``--metrics``. Alongside
them:

* :class:`EventLog` (:mod:`repro.obs.log`) is the structured JSONL
  event log the serve tier narrates itself through (request
  admitted/shed/coalesced/failed-over, worker spawn/death/respawn,
  cache evictions, fleet heartbeats) — leveled, schema-checked, and
  byte-deterministic under an injected clock.
* :mod:`repro.obs.prometheus` renders any registry as the Prometheus
  text exposition (``GET /metrics?format=prometheus``) and re-parses it
  for the CI validity check.
"""

from .log import EVENT_FIELDS, NULL_LOG, EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prometheus import parse_exposition, render_exposition
from .tracer import NULL_TRACER, TraceEvent, Tracer, merge_traces, new_trace_id

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_traces",
    "new_trace_id",
    "EventLog",
    "NULL_LOG",
    "EVENT_FIELDS",
    "render_exposition",
    "parse_exposition",
]
