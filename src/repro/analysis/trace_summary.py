"""Summaries over event traces: per-category rollups and timeline stats.

A :class:`~repro.obs.tracer.Tracer` (or a
:class:`~repro.api.result.TraceReport`) holds a flat stream of Chrome
``trace_event`` records; this module condenses it into the handful of
numbers a human wants before opening the timeline in a viewer — how many
spans per category, how much cumulative duration each category charged,
and where the trace's horizon sits. The CLI's ``repro trace`` stderr
summary and the failure-recovery example both render from here.

Everything operates on plain :class:`~repro.obs.tracer.TraceEvent`
sequences, so the module depends only on the observability layer and on
:mod:`repro.api.codec`, which imports nothing from ``repro`` (the rest
of the API package imports *this* package for utilization analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..api.codec import Record
from ..obs.tracer import TraceEvent

__all__ = ["CategorySummary", "summarize_trace", "render_trace_summary"]


@dataclass(frozen=True)
class CategorySummary(Record):
    """Rollup of one trace category.

    Attributes:
        category: the ``cat`` field the rollup covers.
        spans: complete ("X") events in the category.
        instants: instant ("i") events in the category.
        total_dur_us: summed span duration in microseconds.
        first_ts_us: earliest event timestamp (0.0 for an empty category).
        last_ts_us: latest event *end* (span end beats span start).
    """

    category: str
    spans: int
    instants: int
    total_dur_us: float
    first_ts_us: float
    last_ts_us: float


def _events_of(trace: Any) -> Sequence[TraceEvent]:
    """Accept a Tracer, a TraceReport, or a raw event sequence."""
    events = getattr(trace, "events", trace)
    return tuple(events)


def summarize_trace(trace: Any) -> list[CategorySummary]:
    """Per-category rollups, sorted by category name.

    ``trace`` may be a :class:`~repro.obs.tracer.Tracer`, a
    ``TraceReport``, or any iterable of ``TraceEvent``. Metadata events
    (``ph == "M"``) carry no timeline information and are skipped.
    """
    buckets: dict[str, dict[str, float]] = {}
    for event in _events_of(trace):
        if event.ph == "M":
            continue
        bucket = buckets.setdefault(
            event.cat,
            {
                "spans": 0,
                "instants": 0,
                "dur": 0.0,
                "first": float("inf"),
                "last": float("-inf"),
            },
        )
        if event.ph == "X":
            bucket["spans"] += 1
            bucket["dur"] += event.dur_us or 0.0
        elif event.ph == "i":
            bucket["instants"] += 1
        bucket["first"] = min(bucket["first"], event.ts_us)
        bucket["last"] = max(bucket["last"], event.end_us)
    return [
        CategorySummary(
            category=cat,
            spans=int(b["spans"]),
            instants=int(b["instants"]),
            total_dur_us=b["dur"],
            first_ts_us=b["first"] if b["first"] != float("inf") else 0.0,
            last_ts_us=b["last"] if b["last"] != float("-inf") else 0.0,
        )
        for cat, b in sorted(buckets.items())
    ]


def render_trace_summary(trace: Any) -> str:
    """A compact multi-line text summary of a trace, for stderr/logs."""
    summaries = summarize_trace(trace)
    if not summaries:
        return "trace: no events"
    horizon = max(s.last_ts_us for s in summaries)
    total = sum(s.spans + s.instants for s in summaries)
    lines = [
        f"trace: {total} events, {len(summaries)} categories, "
        f"horizon {horizon / 1e6:.6f} s"
    ]
    for s in summaries:
        lines.append(
            f"  {s.category:<10} {s.spans:>5} spans  {s.instants:>5} instants"
            f"  {s.total_dur_us:>14.3f} us total"
        )
    return "\n".join(lines)
