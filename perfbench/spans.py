"""Span recording for traced runs, from the benchmark's own files.

The program is not edited. :meth:`Recorder.install` looks up each entry point in
:data:`TARGETS` by dotted name and replaces it with a wrapper that records
a span (layer, start, end, enclosing span). A target that no longer exists
is listed in :attr:`Recorder.missing` and skipped, so its time stays with
whichever wrapped layer encloses it; the run does not fail. Module-level
functions are rebound in every loaded ``repro`` module that imported them
by name, so ``from x import f`` call sites are covered too.

Three kinds of target:

* ``span``: a span object per call, nested through a context variable
  (which asyncio tasks inherit, and executor threads do not);
* ``leaf``: a hot function that calls no other target. No object is
  built; its time is added to the enclosing span and subtracted from that
  span's self time at analysis;
* ``probe``: no timing, only a side observation (event engines created).

Spans of one request share a trace id. In the serving tier the id comes
from the ``X-Repro-Trace-Id`` header, read where ``read_request`` returns.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

_now = time.perf_counter

#: Environment variable naming the directory a hooked process dumps its
#: spans into at exit (see ``hook/sitecustomize.py``).
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"

_BACKENDS = ("ElectricalBackend", "PhotonicBackend")
#: Backend method -> result section it produces.
_BACKEND_OUTPUTS = {
    "capability_rows": "capabilities",
    "cost_report": "costs",
    "congestion": "congestion",
    "telemetry": "telemetry",
    "link_utilization": "link_utilization",
    "repair": "repair",
    "fleet_report": "fleet",
    "tenancy_report": "tenancy",
}


def _read_request_trace(span, args, result):
    """Label the connection's root span with the request's trace id."""
    headers = getattr(result, "headers", None) or {}
    trace = headers.get("x-repro-trace-id")
    if span is not None and trace:
        root = span
        while root.parent is not None:
            root = root.parent
        root.trace = trace


def _batch_traces(span, args, result):
    batch = args[2] if len(args) > 2 else ()
    span.trace = [getattr(p, "trace_id", None) for p in batch]
    span.value = len(batch)


def _not_none(span, args, result):
    span.value = result is not None


def _encoded_size(span, args, result):
    if isinstance(result, str):
        span.value = len(result.encode("utf-8"))


def _engine_created(recorder, args, result):
    recorder.engines.append(args[0])


#: (unit, op, target, kind, annotate). ``unit`` is the name self time is
#: reported under; ``op`` names a call whose durations are sampled.
TARGETS: list[tuple] = [
    ("serve.wire", "connection", "repro.serve.service:ReproServer._handle_connection", "span", None),
    ("serve.wire", "connection", "repro.serve.shard:ShardRouter._handle_connection", "span", None),
    ("serve.wire", "read", "repro.serve.wire:read_request", "span", _read_request_trace),
    ("serve.wire", "read", "repro.serve.wire:read_response", "span", None),
    ("serve.wire", "write", "repro.serve.wire:request_bytes", "span", None),
    ("serve.wire", "write", "repro.serve.wire:response_bytes", "span", None),
    ("serve.wire", "write", "repro.serve.wire:json_response", "span", None),
    ("serve.wire", "write", "repro.serve.wire:error_response", "span", None),
    ("serve.shard", "evaluate", "repro.serve.shard:ShardRouter._evaluate", "span", None),
    ("serve.shard", "forward", "repro.serve.shard:SubprocessWorkers.forward", "span", None),
    ("serve.shard", "route", "repro.serve.shard:HashRing.lookup_order", "leaf", None),
    ("serve.service", "evaluate", "repro.serve.service:ReproServer._evaluate", "span", None),
    ("serve.service", "submit", "repro.serve.service:EvaluationService.submit", "span", None),
    ("serve.service", "batch", "repro.serve.service:EvaluationService._run_batch", "span", _batch_traces),
    ("api.spec", "parse", "repro.api.spec:ScenarioSpec.from_dict", "span", None),
    ("api.spec", "key", "repro.api.cache:spec_key", "leaf", None),
    ("api.cache", "get", "repro.api.cache:DiskResultCache.get", "span", _not_none),
    ("api.cache", "put", "repro.api.cache:DiskResultCache.put", "span", None),
    ("api.result", "decode", "repro.api.result:RunResult.from_json", "span", None),
    ("api.result", "decode", "repro.api.result:RunResult.from_dict", "span", None),
    ("api.result", "encode", "repro.api.result:RunResult.to_json", "span", _encoded_size),
    ("api.result", "encode", "repro.api.result:RunResult.to_dict", "span", None),
    ("api.session", "run_many", "repro.api.batch:run_many", "span", None),
    ("api.session", "run", "repro.api.session:FabricSession.run", "span", None),
    *[
        (f"api.backends.{output}", "eval", f"repro.api.backends:{cls}.{method}", "span", None)
        for method, output in _BACKEND_OUTPUTS.items()
        for cls in _BACKENDS
    ],
    ("kernels.waterfill", "call", "repro.kernels.waterfill:waterfill_rates", "leaf", None),
    ("kernels.repair", "call", "repro.kernels.paths:evaluate_all_free_chips_vectorized", "leaf", None),
    ("kernels.repair", "call", "repro.kernels.paths:evaluate_free_chip_vectorized", "leaf", None),
    ("sim.engine", "created", "repro.sim.engine:EventEngine.__init__", "probe", _engine_created),
    ("sim.runner", "run", "repro.sim.runner:run_schedule", "span", None),
    ("sim.runner", "run", "repro.sim.runner:run_concurrent_schedules", "span", None),
    *[
        ("tenancy.policies.place", "call", f"repro.tenancy.policies:{cls}.place", "span", _not_none)
        for cls in ("FirstFitPolicy", "BestFitPolicy", "DefragOnDeparturePolicy", "SteerOnArrivalPolicy")
    ],
    *[
        ("tenancy.policies.on_departure", "call", f"repro.tenancy.policies:{cls}.on_departure", "span", None)
        for cls in ("FirstFitPolicy", "BestFitPolicy", "DefragOnDeparturePolicy", "SteerOnArrivalPolicy")
    ],
    ("tenancy.cluster.find_offset", "call", "repro.tenancy.cluster:ClusterState.find_offset", "leaf", None),
    ("tenancy.cluster.largest_allocatable", "call", "repro.tenancy.cluster:ClusterState.largest_allocatable", "span", None),
    ("tenancy.simulator", "run", "repro.tenancy.simulator:TenancySimulator.run", "span", None),
    ("fleet.process", "call", "repro.fleet.process:RenewalFailureProcess.next_delay_s", "leaf", None),
    ("fleet.simulator", "run", "repro.fleet.simulator:FleetSimulator.run", "span", None),
]

#: Every unit self time is reported under, plus the remainder.
UNITS = tuple(dict.fromkeys(t[0] for t in TARGETS if t[3] != "probe")) + (
    "unattributed",
)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One wrapped call. ``trace`` is a trace id, a list of them (work
    shared by a batch), or ``None`` (inherit from the enclosing span)."""

    __slots__ = ("unit", "op", "start", "end", "parent", "trace", "value", "leaf", "nested")

    def __init__(self, unit: str, op: str, parent: "Span | None", trace=None):
        self.unit = unit
        self.op = op
        self.parent = parent
        self.trace = trace
        self.value = None
        # Leaf unit -> [seconds, calls] spent directly inside this span.
        self.leaf: dict[str, list] | None = None
        # A call inside a span of its own unit and op (a policy delegating
        # to its base policy): timed with its parent, not counted or
        # sampled on its own.
        self.nested = False
        self.start = self.end = 0.0


class Recorder:
    """The spans and counts one process collected."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.engines: list = []
        self.missing: list[str] = []
        self.installed: list[str] = []

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, trace: str):
        """Root span of one benchmark operation: everything wrapped that
        runs inside it belongs to ``trace``. Yields the root span."""
        span = Span("unattributed", "op", None, trace)
        token = _CURRENT.set(span)
        span.start = _now()
        try:
            yield span
        finally:
            span.end = _now()
            _CURRENT.reset(token)
            self.spans.append(span)

    def engine_events(self) -> int:
        """Events run by the engines created since the last call."""
        events = sum(engine.processed for engine in self.engines)
        self.engines.clear()
        return events

    def _wrap(self, unit: str, op: str, kind: str, annotate, fn):
        recorder = self
        if kind == "probe":

            @functools.wraps(fn)
            def probe(*args, **kwargs):
                result = fn(*args, **kwargs)
                annotate(recorder, args, result)
                return result

            return probe
        if kind == "leaf":

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                started = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = _now() - started
                    parent = _CURRENT.get()
                    if parent is not None:
                        if parent.leaf is None:
                            parent.leaf = {}
                        entry = parent.leaf.get(unit)
                        if entry is None:
                            parent.leaf[unit] = [elapsed, 1]
                        else:
                            entry[0] += elapsed
                            entry[1] += 1

            return leaf

        def open_span() -> tuple[Span, contextvars.Token]:
            parent = _CURRENT.get()
            span = Span(unit, op, parent)
            if parent is not None and parent.unit == unit and parent.op == op:
                span.nested = True
            token = _CURRENT.set(span)
            span.start = _now()
            return span, token

        def finish(span: Span, token, args, result) -> None:
            span.end = _now()
            _CURRENT.reset(token)
            if annotate is not None:
                annotate(span, args, result)
            recorder.spans.append(span)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                span, token = open_span()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    finish(span, token, args, result)

            return async_span

        @functools.wraps(fn)
        def sync_span(*args, **kwargs):
            span, token = open_span()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finish(span, token, args, result)

        return sync_span

    # -- installation ----------------------------------------------------------

    def install(self, targets=None) -> None:
        """Wrap every target that resolves; list the rest as missing."""
        done: set[tuple[int, str]] = set()
        for unit, op, target, kind, annotate in targets or TARGETS:
            module_name, _, path = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                if inspect.isclass(owner):
                    # Wrap where the method is defined, once, so subclasses
                    # that inherit it share the wrapper.
                    owner = next(c for c in owner.__mro__ if attr in vars(c))
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError, StopIteration):
                self.missing.append(target)
                continue
            if (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(unit, op, kind, annotate, raw.__func__))
            else:
                wrapped = self._wrap(unit, op, kind, annotate, raw)
            setattr(owner, attr, wrapped)
            if not inspect.isclass(owner):
                _rebind_aliases(raw, wrapped)
            self.installed.append(target)

    # -- export ----------------------------------------------------------------

    def export(self) -> dict:
        """JSON-safe dump: spans reference their parent by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for span in self.spans:
            rows.append(
                [
                    span.unit,
                    span.op,
                    span.start,
                    span.end,
                    index.get(id(span.parent)) if span.parent is not None else None,
                    span.trace,
                    span.value,
                    span.leaf,
                    span.nested,
                ]
            )
        return {
            "pid": os.getpid(),
            "spans": rows,
            "missing": self.missing,
        }


def _rebind_aliases(original, wrapped) -> None:
    """Point every ``repro`` module global that names ``original`` at
    ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install_from_env() -> None:
    """Startup hook body: trace this process when the spans dir is set.

    Imports the whole program surface first so every target resolves, and
    dumps the spans when the interpreter exits.
    """
    out_dir = os.environ.get(SPANS_DIR_ENV)
    if not out_dir:
        return
    importlib.import_module("repro.cli")
    recorder = Recorder()
    recorder.install()

    def dump() -> None:
        data = recorder.export()
        data["engine_events"] = recorder.engine_events()
        path = Path(out_dir) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(data))

    atexit.register(dump)
