"""Structured event tracing, exportable as Chrome ``trace_event`` JSON.

A :class:`Tracer` accumulates :class:`TraceEvent` records — complete
spans (``ph="X"``), instant events (``ph="i"``), counter samples
(``ph="C"``) and track-name metadata (``ph="M"``) — with timestamps in
seconds, converted to the microseconds the ``trace_event`` format
specifies at emission. Load the exported file in ``chrome://tracing`` or
https://ui.perfetto.dev to see the timeline.

One tracer serves two clocks:

* **Simulation time** (no ``clock``): callers pass the sim seconds each
  event happens at. Export sorts by (metadata-first, timestamp,
  insertion order); insertion order is deterministic in sim time, so the
  same scenario always serializes to the same bytes — which is what lets
  ``tests/golden/trace.json`` exist.
* **Wall clock** (a ``clock`` such as ``time.time``): the serving tier's
  request spans — admission wait, batch linger, router→worker hops,
  session evaluation, cache probes — stamped by the clock, keyed by an
  ``X-Repro-Trace-Id`` propagated across processes, and emitted from
  many threads under a lock. Each process exports its own file under its
  pid with a ``process_name`` row; :func:`merge_traces` (``repro obs
  merge``) joins them into one timeline. Ties break by (pid, tid, name),
  because insertion order follows thread scheduling. The clock is
  injectable, so tests drive a fake one and assert the exported bytes.

Tracing must cost nothing when off: every emission site guards with
``if tracer.enabled:``, and :data:`NULL_TRACER` reports
``enabled = False`` and drops every call in either shape, so an
untraced run takes the exact same code path it did before tracing
existed. Instrumentation is observation-only either way — a traced
run's measured results are asserted (and CI-enforced) identical to an
untraced run's.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "select",
    "chrome_trace",
    "TRACE_ID_PATTERN",
    "new_trace_id",
    "valid_trace_id",
    "merge_traces",
    "write_merged",
]

_US_PER_S = 1e6
_PHASES = ("X", "i", "C", "M")

#: What the tier accepts as an ``X-Repro-Trace-Id`` value. Anything else
#: is ignored and replaced with a freshly minted id, so a hostile header
#: cannot inject bytes into trace files or logs.
TRACE_ID_PATTERN = re.compile(r"[A-Za-z0-9_.\-]{1,64}")


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4)."""
    return uuid.uuid4().hex


def valid_trace_id(value: str | None) -> bool:
    """Whether ``value`` is usable as a trace id as-is."""
    return value is not None and TRACE_ID_PATTERN.fullmatch(value) is not None


def _freeze_args(args: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not args:
        return ()
    return tuple(sorted(args.items()))


def _checked(data: dict[str, Any], key: str, kind: Any, what: str, default: Any = None) -> Any:
    """``data[key]`` (``default`` when absent), which must be ``what``."""
    value = data.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValueError(f"trace event {key!r} must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One Chrome-trace event.

    Attributes:
        name: event label (e.g. ``"flow (0, 1, 2)"``, ``"reconfigure"``).
        cat: category (``"flow"``, ``"phase"``, ``"reconfig"``,
            ``"failure"``, ``"recovery"``, ...) — filterable in viewers.
        ph: trace-event phase: ``"X"`` complete span, ``"i"`` instant,
            ``"C"`` counter, ``"M"`` metadata.
        ts_us: start timestamp in microseconds.
        dur_us: span duration in microseconds (``None`` for non-spans).
        pid: process track (0 for a simulated fabric; the process id in
            the serving tier).
        tid: thread track (0 = network, 1..N = per-schedule tracks).
        args: extra payload as sorted ``(key, value)`` pairs (kept as a
            tuple so the event stays frozen and hashable).
    """

    name: str
    cat: str
    ph: str
    ts_us: float
    dur_us: float | None = None
    pid: int = 0
    tid: int = 0
    args: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """The event as a ``trace_event`` JSON object."""
        data: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.dur_us is not None:
            data["dur"] = self.dur_us
        if self.ph == "i":
            data["s"] = "t"  # instant scope: thread
        if self.args:
            data["args"] = dict(self.args)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "TraceEvent":
        """The event a ``trace_event`` JSON object describes.

        The object comes from outside (a file given to ``repro obs
        merge``, a disk-cache entry), so every field is checked here.

        Raises:
            ValueError: when ``data`` is not an object, or a field has
                the wrong type or range.
        """
        if not isinstance(data, dict):
            raise ValueError(f"trace event must be an object, got {data!r}")
        ph = _checked(data, "ph", str, "a string")
        if ph not in _PHASES:
            raise ValueError(f"trace event 'ph' must be one of {_PHASES}, got {ph!r}")
        number = (int, float)
        dur = _checked(data, "dur", number, "a finite number") if "dur" in data else None
        if dur is not None and dur < 0:
            raise ValueError(f"trace event 'dur' must not be negative, got {dur!r}")
        return cls(
            name=_checked(data, "name", str, "a string"),
            cat=_checked(data, "cat", str, "a string"),
            ph=ph,
            ts_us=_checked(data, "ts", number, "a finite number"),
            dur_us=dur,
            pid=_checked(data, "pid", int, "an integer", 0),
            tid=_checked(data, "tid", int, "an integer", 0),
            args=_freeze_args(_checked(data, "args", dict, "an object", {})),
        )

    @property
    def end_us(self) -> float:
        """Span end timestamp (start for instants)."""
        return self.ts_us + (self.dur_us or 0.0)


def select(
    events: Iterable[TraceEvent], ph: str, cat: str | None = None
) -> tuple[TraceEvent, ...]:
    """The events of phase ``ph``, optionally of category ``cat`` only."""
    return tuple(e for e in events if e.ph == ph and (cat is None or e.cat == cat))


def chrome_trace(
    events: Iterable[TraceEvent], wall_clock: bool = False
) -> dict[str, Any]:
    """The Chrome/Perfetto ``trace_event`` JSON object for ``events``.

    Metadata first, then timestamp. Sim-time ties keep insertion order
    (Python's sort is stable); wall-clock ties break by (pid, tid, name),
    which also makes a merge of several files independent of their order.
    """
    if wall_clock:
        ordered = sorted(
            events,
            key=lambda e: (0 if e.ph == "M" else 1, e.ts_us, e.pid, e.tid, e.name),
        )
    else:
        ordered = sorted(events, key=lambda e: (0 if e.ph == "M" else 1, e.ts_us))
    return {
        "displayTimeUnit": "ms" if wall_clock else "ns",
        "traceEvents": [e.to_dict() for e in ordered],
    }


class Tracer:
    """Collects trace events on simulation time, or on ``clock``.

    Attributes:
        enabled: emission guard — call sites skip event construction
            entirely when false (:data:`NULL_TRACER` is the off state).
        name: the process track label (``"router"``, ``"w0"``, ...)
            shown in Perfetto; used only with a clock.
        pid: the process id stamped on every event: ``os.getpid()`` by
            default with a clock (which keeps per-process files mergeable
            without track collisions), 0 without one.
    """

    enabled: bool = True

    def __init__(
        self,
        name: str = "serve",
        *,
        clock: Callable[[], float] | None = None,
        pid: int | None = None,
    ) -> None:
        self.name = name
        self._clock = clock
        if pid is None:
            pid = 0 if clock is None else os.getpid()
        self.pid = pid
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        if clock is not None:
            self._emit("process_name", "__metadata", "M", 0.0, args={"name": name})

    def _emit(
        self,
        name: str,
        cat: str,
        ph: str,
        ts_s: float,
        dur_s: float | None = None,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> None:
        if trace_id is not None:
            args = {**(args or {}), "trace_id": trace_id}
        event = TraceEvent(
            name=name,
            cat=cat,
            ph=ph,
            ts_us=ts_s * _US_PER_S,
            dur_us=None if dur_s is None else dur_s * _US_PER_S,
            pid=self.pid,
            tid=tid,
            args=_freeze_args(args),
        )
        with self._lock:
            self._events.append(event)

    # -- emission --------------------------------------------------------------

    def now(self) -> float:
        """The clock's reading in seconds."""
        return self._clock()

    def complete(
        self,
        name: str,
        cat: str,
        start_s: float,
        end_s: float,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
        *,
        trace_id: str | None = None,
    ) -> None:
        """Record a complete span covering ``[start_s, end_s]`` (a
        negative duration, from a clock stepping back, records as 0)."""
        self._emit(name, cat, "X", start_s, max(0.0, end_s - start_s), tid, args, trace_id)

    def instant(
        self,
        name: str,
        cat: str,
        ts_s: float | None = None,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
        *,
        trace_id: str | None = None,
    ) -> None:
        """Record an instant event at ``ts_s`` (default: the clock's reading)."""
        if ts_s is None:
            ts_s = self._clock()
        self._emit(name, cat, "i", ts_s, None, tid, args, trace_id)

    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        *,
        trace_id: str | None = None,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Record the enclosed block as a complete span on the clock.

        Yields a mutable dict merged into the span's args at exit, so
        the block can attach results discovered mid-flight (cache
        provenance, status codes, kernel timings)::

            with tracer.span("evaluate", "serve", trace_id=tid) as extra:
                row = evaluate(spec)
                extra["cache"] = "hit" if row.from_cache else "miss"
        """
        extra: dict[str, Any] = dict(args) if args else {}
        start = self._clock()
        try:
            yield extra
        finally:
            self.complete(
                name, cat, start, self._clock(), tid, extra, trace_id=trace_id
            )

    def counter(
        self, name: str, cat: str, ts_s: float, value: float, tid: int = 0
    ) -> None:
        """Record a counter sample (rendered as a filled graph)."""
        self._emit(name, cat, "C", ts_s, None, tid, {"value": value})

    def thread_name(self, tid: int, name: str) -> None:
        """Label a thread track (one per schedule, tid 0 = network)."""
        self._emit("thread_name", "__metadata", "M", 0.0, None, tid, {"name": name})

    # -- reading ----------------------------------------------------------------

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Every recorded event, in emission order."""
        with self._lock:
            return tuple(self._events)

    def spans(self, cat: str | None = None) -> tuple[TraceEvent, ...]:
        """Complete spans, optionally filtered by category."""
        return select(self.events, "X", cat)

    def instants(self, cat: str | None = None) -> tuple[TraceEvent, ...]:
        """Instant events, optionally filtered by category."""
        return select(self.events, "i", cat)

    # -- export -----------------------------------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome/Perfetto ``trace_event`` JSON object."""
        return chrome_trace(self.events, wall_clock=self._clock is not None)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialized Chrome trace (sorted keys — byte-deterministic)."""
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace to ``path``; returns the path."""
        return _write(path, self.to_chrome())


class _NullTracer(Tracer):
    """The off state: reports disabled and drops every event.

    Every emission funnels through ``_emit``, a no-op here; guarded sites
    (``if tracer.enabled:``) skip argument construction too. The clock
    lets clock-shaped calls (``instant`` without a timestamp, ``span``)
    run unguarded.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__("off", clock=time.time, pid=0)

    def _emit(self, *args: Any, **kwargs: Any) -> None:
        pass


#: Shared no-op tracer: ``tracer or NULL_TRACER`` is the idiom modules use
#: to accept an optional tracer argument without branching at every site.
NULL_TRACER = _NullTracer()


def merge_traces(paths: Iterable[str | Path]) -> dict[str, Any]:
    """Merge per-process ``trace_event`` JSON files into one timeline.

    Every input keeps its own pid track, so a router file plus its
    worker files render side by side in Perfetto with request spans
    correlated by their ``trace_id`` args — the ``repro obs merge``
    subcommand body.

    Raises:
        ValueError: when no input file contributes any events, or an
            input is not a ``trace_event`` JSON object (the message names
            the file).
    """
    events: list[TraceEvent] = []
    for path in paths:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
                raise ValueError("not a trace_event JSON object (no traceEvents list)")
            events.extend(TraceEvent.from_dict(raw) for raw in data["traceEvents"])
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"{path}: {exc}") from None
    if not events:
        raise ValueError("no events in any input trace")
    return chrome_trace(events, wall_clock=True)


def write_merged(
    paths: Iterable[str | Path], out: str | Path
) -> tuple[Path, int]:
    """Merge ``paths`` into ``out``; returns ``(path, event count)``."""
    merged = merge_traces(paths)
    return _write(out, merged), len(merged["traceEvents"])


def _write(path: str | Path, chrome: dict[str, Any]) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(chrome, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
