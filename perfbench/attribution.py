"""Fold recorded spans into per-layer self times and per-layer metrics.

Each benchmark operation is one trace whose root span the benchmark
opened itself (a client request in ``serve_warm``, one spec evaluation in
the in-process workloads). The spans of a trace may come from several
processes and threads. At every instant of the root's interval, the time
goes to the innermost active span of the trace, taken as the one that
started last: a callee, in this process or downstream of an HTTP hop,
starts after its caller. A leaf's accumulated time is then moved from its
enclosing span to the leaf's own layer.

Work shared by a batch of k traces (the worker's batch evaluation) is
counted 1/k in each of them; the other (k-1)/k of that interval, which is
time a request spent waiting on work already counted, is unattributed.
Time during which only the root is active is unattributed as well. So per
workload the layer self times plus ``unattributed`` equal the total, the
sum of the root spans' durations.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from .common import percentile


@dataclass
class Rec:
    """A span as loaded from a process dump."""

    unit: str
    op: str
    start: float
    end: float
    parent: "Rec | None"
    trace: object
    value: object
    leaf: dict | None
    nested: bool
    pid: int
    seq: int
    traces: list = field(default_factory=list)


def load(dumps: list[dict]) -> list[Rec]:
    """Rebuild span records from :meth:`spans.Recorder.export` dumps."""
    records: list[Rec] = []
    seq = 0
    for dump in dumps:
        local: list[Rec] = []
        for unit, op, start, end, parent, trace, value, leaf, nested in dump["spans"]:
            local.append(
                Rec(unit, op, start, end, parent, trace, value, leaf, nested,
                    dump["pid"], seq)
            )
            seq += 1
        for rec in local:
            rec.parent = local[rec.parent] if rec.parent is not None else None
        records.extend(local)
    _resolve_traces(records)
    return records


def _explicit(trace) -> list:
    if trace is None:
        return []
    return [trace] if isinstance(trace, str) else [t for t in trace if t]


def _resolve_traces(records: list[Rec]) -> None:
    """Give every span the trace ids it belongs to.

    A span takes the ids of its nearest ancestor that names any. A local
    root that names none (work an executor thread ran for a batch) takes
    those of the latest-started batch span (a local root naming a list of
    ids) in the same process whose interval contains it.
    """
    orphans = []
    for rec in records:
        node = rec
        while node is not None and node.trace is None:
            node = node.parent
        if node is not None:
            rec.traces = _explicit(node.trace)
        else:
            orphans.append(rec)
    holders: dict[int, list[Rec]] = {}
    for rec in records:
        if rec.parent is None and isinstance(rec.trace, list):
            holders.setdefault(rec.pid, []).append(rec)
    starts = {}
    for pid, group in holders.items():
        group.sort(key=lambda r: (r.start, r.seq))
        starts[pid] = [r.start for r in group]
    roots: dict[int, list] = {}
    for rec in orphans:
        node = rec
        while node.parent is not None:
            node = node.parent
        if id(node) not in roots:
            roots[id(node)] = []
            group = holders.get(node.pid, [])
            i = bisect.bisect_right(starts.get(node.pid, []), node.start)
            while i > 0:
                i -= 1
                if group[i].end >= node.end and group[i] is not node:
                    roots[id(node)] = group[i].traces
                    break
        rec.traces = roots[id(node)]


def attribute(records: list[Rec], roots: list[Rec]) -> dict[str, float]:
    """Self seconds per unit over the given root spans (one per trace)."""
    by_trace: dict[str, list[Rec]] = {}
    for rec in records:
        for trace in rec.traces:
            by_trace.setdefault(trace, []).append(rec)
    totals: dict[str, float] = {}

    def credit(unit: str, seconds: float) -> None:
        totals[unit] = totals.get(unit, 0.0) + seconds

    for root in roots:
        lo, hi = root.start, root.end
        spans = [root]
        for rec in by_trace.get(root.trace, ()):
            if rec is not root and rec.end > lo and rec.start < hi:
                spans.append(rec)
        events = []
        for rec in spans:
            events.append((max(rec.start, lo), 1, rec))
            events.append((min(rec.end, hi), 0, rec))
        events.sort(key=lambda e: (e[0], e[1], e[2].seq))
        active: list = []  # max-heap on (start, seq), lazily pruned
        ended: set[int] = set()
        previous = lo
        for time, kind, rec in events:
            while active and active[0][2] in ended:
                heapq.heappop(active)
            if active and time > previous:
                top = active[0][3]
                weight = 1.0 / max(1, len(top.traces))
                span_s = time - previous
                credit(top.unit, span_s * weight)
                credit("unattributed", span_s * (1.0 - weight))
            previous = time
            if kind == 1:
                heapq.heappush(active, (-rec.start, -rec.seq, rec.seq, rec))
            else:
                ended.add(rec.seq)
        for rec in spans:
            if rec.leaf:
                weight = 1.0 / max(1, len(rec.traces))
                for unit, (seconds, _calls) in rec.leaf.items():
                    credit(rec.unit, -seconds * weight)
                    credit(unit, seconds * weight)
    return totals


def timed(records: list[Rec], roots: list[Rec]) -> list[Rec]:
    """Every span of the given roots' traces, each listed once."""
    wanted = {root.trace for root in roots}
    return [rec for rec in records if wanted.intersection(rec.traces)]


def _ms_p50(values_s: list[float]) -> float:
    return percentile([v * 1000.0 for v in values_s], 0.5) if values_s else 0.0


def _ratio(hits: int, attempts: int) -> float:
    return hits / attempts if attempts else 0.0


#: Per-layer metrics besides each unit's ``<unit>.self_ms``, with units.
DERIVED_UNITS = {
    "serve.shard.forward_ms_p50": "ms",
    "serve.shard.coalesced_ratio": "ratio",
    "serve.service.wait_ms_p50": "ms",
    "serve.service.batch_size_mean": "count",
    "api.spec.parse_ms_p50": "ms",
    "api.cache.get_ms_p50": "ms",
    "api.cache.hit_ratio": "ratio",
    "api.cache.put_ms_p50": "ms",
    "api.cache.put_bytes": "bytes",
    "api.result.decode_ms_p50": "ms",
    "api.result.encode_ms_p50": "ms",
    "kernels.waterfill.calls": "count",
    "kernels.repair.calls": "count",
    "sim.engine.events": "count",
    "tenancy.policies.place.calls": "count",
    "tenancy.policies.place_success_ratio": "ratio",
    "tenancy.cluster.find_offset.calls": "count",
    "total_ms": "ms",
    "trace_overhead_pct": "%",
}


def per_layer_units(units: tuple[str, ...]) -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    return {**{f"{unit}.self_ms": "ms" for unit in units}, **DERIVED_UNITS}


def layer_metrics(records: list[Rec], roots: list[Rec], untraced_total_s: float,
                  units: tuple[str, ...], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced run, keyed by metric name."""
    self_s = attribute(records, roots)
    total_s = sum(root.end - root.start for root in roots)
    spans = [rec for rec in timed(records, roots) if rec.unit != "unattributed"]
    top = [rec for rec in spans if not rec.nested]

    def durations(unit: str, op: str) -> list[float]:
        return [r.end - r.start for r in top if r.unit == unit and r.op == op]

    def calls(unit: str) -> int:
        spanned = sum(1 for r in top if r.unit == unit)
        leafed = sum(int(r.leaf[unit][1]) for r in spans if r.leaf and unit in r.leaf)
        return spanned + leafed

    def outcomes(unit: str, op: str) -> list:
        return [r.value for r in top if r.unit == unit and r.op == op]

    out = {f"{unit}.self_ms": self_s.get(unit, 0.0) * 1000.0 for unit in units}
    submits = {(r.pid, r.traces[0]): r for r in top
               if r.unit == "serve.service" and r.op == "submit" and r.traces}
    batches = [r for r in top if r.unit == "serve.service" and r.op == "batch"]
    waits = [b.start - submits[(b.pid, t)].start
             for b in batches for t in b.traces if (b.pid, t) in submits]
    gets = outcomes("api.cache", "get")
    places = outcomes("tenancy.policies.place", "call")
    put_bytes = sum(r.value or 0 for r in spans if r.unit == "api.result"
                    and r.op == "encode" and r.parent is not None
                    and r.parent.unit == "api.cache")
    out.update({
        "serve.shard.forward_ms_p50": _ms_p50(durations("serve.shard", "forward")),
        "serve.service.wait_ms_p50": _ms_p50(waits),
        "serve.service.batch_size_mean": (
            sum(b.value or 0 for b in batches) / len(batches) if batches else 0.0
        ),
        "api.spec.parse_ms_p50": _ms_p50(durations("api.spec", "parse")),
        "api.cache.get_ms_p50": _ms_p50(durations("api.cache", "get")),
        "api.cache.hit_ratio": _ratio(sum(1 for g in gets if g), len(gets)),
        "api.cache.put_ms_p50": _ms_p50(durations("api.cache", "put")),
        "api.cache.put_bytes": float(put_bytes),
        "api.result.decode_ms_p50": _ms_p50(durations("api.result", "decode")),
        "api.result.encode_ms_p50": _ms_p50(durations("api.result", "encode")),
        "kernels.waterfill.calls": float(calls("kernels.waterfill")),
        "kernels.repair.calls": float(calls("kernels.repair")),
        "tenancy.policies.place.calls": float(calls("tenancy.policies.place")),
        "tenancy.policies.place_success_ratio": _ratio(sum(1 for p in places if p), len(places)),
        "tenancy.cluster.find_offset.calls": float(calls("tenancy.cluster.find_offset")),
        "total_ms": total_s * 1000.0,
        "trace_overhead_pct": (
            (total_s - untraced_total_s) / untraced_total_s * 100.0
            if untraced_total_s else 0.0
        ),
    })
    out.update(extra)
    return out
