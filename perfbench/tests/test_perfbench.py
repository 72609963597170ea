"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import attribution, common, inprocess, serve_warm, specs, spans  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


# -- inputs are pure functions of the seed ---------------------------------------------


def test_sweep_labels_depend_only_on_the_seed():
    cycles = specs.sweep_cycles(DEFAULT_SECONDS)
    first = specs.sweep_labels(DEFAULT_SEED, cycles)
    assert first == specs.sweep_labels(DEFAULT_SEED, cycles)
    assert first != specs.sweep_labels(DEFAULT_SEED + 1, cycles)
    longest = [label for cycle in specs.sweep_labels(DEFAULT_SEED, specs.MAX_CYCLES) for label in cycle]
    assert len(set(longest)) == len(longest), "a sweep evaluates distinct specs"
    assert set(longest) <= set(specs.sweep_pool())


def test_serve_schedule_depends_only_on_the_seed():
    assert specs.serve_working_set(7) == specs.serve_working_set(7)
    assert specs.serve_working_set(7) != specs.serve_working_set(8)
    assert len(set(specs.serve_working_set(7))) == specs.WORKING_SET
    for stream in ("open", "closed"):
        draw = specs.zipf_requests(7, stream, 500, specs.WORKING_SET)
        assert draw == specs.zipf_requests(7, stream, 500, specs.WORKING_SET)
        assert draw != specs.zipf_requests(8, stream, 500, specs.WORKING_SET)


def test_sim_labels_depend_only_on_the_seed():
    rounds = specs.sim_rounds(DEFAULT_SECONDS)
    assert specs.sim_labels(3, rounds) == specs.sim_labels(3, rounds)
    assert specs.sim_labels(3, rounds) != specs.sim_labels(4, rounds)
    assert {label for r in specs.sim_labels(3, rounds) for label in r} <= set(specs.sim_pool())
    # Each round runs every policy once, at a simulation seed of its own.
    plan_seeds = set()
    for block in specs.sim_labels(3, rounds):
        assert len(block) == len(specs.TENANCY_POLICIES) + len(specs.FLEET_POLICIES)
        assert len({label.rsplit("/", 1)[1] for label in block}) == 1
        plan_seeds.add(block[0].rsplit("/", 1)[1])
    assert len(plan_seeds) == rounds > 1


def test_every_drawable_spec_has_a_recorded_digest():
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert set(specs.sweep_pool()) | set(specs.sim_pool()) == set(recorded)


# -- percentile ranks stay clear of cost-class boundaries -------------------------------


def _clear_of_boundaries(counts: list[int], fraction: float) -> bool:
    """Whether the nearest rank of ``fraction`` sits at least 5% of the
    sample away from every boundary between consecutive cost classes."""
    total = sum(counts)
    rank = math.ceil(fraction * total)
    margin = 0.05 * total
    boundary = 0
    for count in counts[:-1]:
        boundary += count
        if abs(rank - boundary) < margin:
            return False
    return True


def test_sweep_ranks_avoid_cost_class_boundaries():
    rationale = json.loads((ROOT / "perfbench" / "rationale.json").read_text())
    measured = rationale["workloads"]["sweep_cold"]["cost_classes_ms"]
    order = sorted(measured, key=measured.get)  # cheapest first
    # Percentiles are taken per cycle, and every cycle has the same make-up.
    for cycle in specs.sweep_labels(DEFAULT_SEED, specs.sweep_cycles(DEFAULT_SECONDS)):
        classes = [specs.cost_class(label) for label in cycle]
        assert set(classes) <= set(order), "every class drawn has a measured cost"
        counts = [classes.count(name) for name in order]
        assert _clear_of_boundaries(counts, 0.5)
        assert _clear_of_boundaries(counts, 0.9)


def test_serve_ranks_avoid_kind_boundaries():
    working_set = specs.serve_working_set(DEFAULT_SEED)
    schedule = serve_warm.open_schedule(DEFAULT_SEED, DEFAULT_SECONDS, len(working_set))
    # Percentiles are taken per measured segment; either kind may answer
    # faster, so both orders must keep the ranks clear.
    for chunk in schedule[serve_warm.RAMP_UP:]:
        repair = sum(1 for item in chunk if working_set[item].startswith("repair/"))
        for counts in ([repair, len(chunk) - repair], [len(chunk) - repair, repair]):
            assert _clear_of_boundaries(counts, 0.5)
            assert _clear_of_boundaries(counts, 0.9)


# -- the serving tier ------------------------------------------------------------------


def test_serve_peak_rss_counts_the_worker():
    cache_dir = common.scratch_dir("test-tier-")
    tier = serve_warm.Tier(cache_dir)
    try:
        worker = tier.worker_pid()
        assert worker != tier.process.pid
        assert b"serve" in Path(f"/proc/{worker}/cmdline").read_bytes()
        router_mb = common.peak_rss_mb(tier.process.pid)
        worker_mb = common.peak_rss_mb(worker)
        assert worker_mb > 0
        assert tier.peak_rss_mb() >= router_mb + worker_mb
    finally:
        tier.stop()
        common.remove_dir(cache_dir)


# -- attribution -----------------------------------------------------------------------


def _row(unit, op, start, end, parent=None, trace=None, value=None, leaf=None, nested=False):
    return [unit, op, start, end, parent, trace, value, leaf, nested]


def test_parts_plus_unattributed_equal_the_total():
    client = {"pid": 1, "spans": [
        _row("unattributed", "op", 0.0, 10.0, trace="a"),
        _row("unattributed", "op", 1.0, 9.0, trace="b"),
    ]}
    router = {"pid": 2, "spans": [
        _row("serve.wire", "connection", 0.5, 9.5, trace="a"),       # 0
        _row("serve.shard", "evaluate", 1.0, 9.0, parent=0),         # 1
        _row("serve.wire", "read", 2.0, 8.0, parent=1),              # 2
        _row("serve.wire", "connection", 1.5, 8.5, trace="b"),       # 3
    ]}
    worker = {"pid": 3, "spans": [
        _row("serve.wire", "connection", 2.5, 7.5, trace="a"),       # 0
        _row("serve.service", "evaluate", 3.0, 7.0, parent=0),       # 1
        _row("serve.service", "batch", 4.0, 6.0, trace=["a", "b"]),  # 2: shared
        # An executor thread's work: no trace, adopted by the batch.
        _row("api.session", "run", 4.5, 5.5, leaf={"api.spec": [0.25, 3]}),
    ]}
    records = attribution.load([client, router, worker])
    roots = [r for r in records if r.unit == "unattributed" and r.parent is None]
    parts = attribution.attribute(records, roots)
    total = sum(root.end - root.start for root in roots)
    assert math.isclose(sum(parts.values()), total)
    # Trace a: wire 0.5-1, 2-3 (read over the worker's accept), 7-9.5 ...
    assert math.isclose(parts["api.spec"], 0.25)  # the leaf, half per trace
    assert math.isclose(parts["api.session"], 1.0 - 0.25)
    assert math.isclose(parts["serve.service"], 2.0 + 1.0)
    # Half of the shared batch's 2 s is waiting already counted elsewhere.
    assert parts["unattributed"] >= 1.0


def test_nested_spans_give_exact_self_times():
    dump = {"pid": 1, "spans": [
        _row("unattributed", "op", 0.0, 10.0, trace="op0"),             # 0
        _row("api.session", "run", 1.0, 9.0, parent=0),                 # 1
        _row("api.cache", "get", 1.5, 2.0, parent=1),                   # 2
        _row("api.backends.repair", "eval", 2.0, 8.0, parent=1,
             leaf={"kernels.repair": [4.0, 2]}),                        # 3
        _row("api.cache", "put", 8.0, 8.5, parent=1),                   # 4
        _row("api.result", "encode", 8.1, 8.4, parent=4, value=100),    # 5
    ]}
    records = attribution.load([dump])
    roots = [r for r in records if r.parent is None]
    metrics = attribution.layer_metrics(records, roots, 8.0, spans.UNITS, {})
    assert math.isclose(metrics["unattributed.self_ms"], 2000.0)
    assert math.isclose(metrics["api.session.self_ms"], 1000.0)
    assert math.isclose(metrics["api.cache.self_ms"], 700.0)
    assert math.isclose(metrics["api.result.self_ms"], 300.0)
    assert math.isclose(metrics["api.backends.repair.self_ms"], 2000.0)
    assert math.isclose(metrics["kernels.repair.self_ms"], 4000.0)
    assert metrics["kernels.repair.calls"] == 2
    assert metrics["api.cache.put_bytes"] == 100
    assert math.isclose(metrics["trace_overhead_pct"], 25.0)
    parts = sum(metrics[f"{unit}.self_ms"] for unit in spans.UNITS)
    assert math.isclose(parts, metrics["total_ms"])


def test_missing_targets_are_reported_not_fatal():
    recorder = spans.Recorder()
    recorder.install([("api.spec", "parse", "repro.api.spec:NoSuchThing.from_dict", "span", None)])
    assert recorder.missing == ["repro.api.spec:NoSuchThing.from_dict"]
    assert recorder.installed == []


# -- reference speed -------------------------------------------------------------------


def test_times_are_scaled_by_the_probes_read_during_each_spec():
    ref = common.REFERENCE_PROBE_MS
    rows = [
        # Read at half speed throughout, then at half speed for half the time.
        {"label": "a", "seconds": 0.010, "probes_ms": [2 * ref, 2 * ref], "events": 7},
        {"label": "b", "seconds": 0.004, "probes_ms": [ref, 2 * ref], "events": 2},
    ]
    for workload in ("sweep_cold", "sim_churn"):
        [(latencies, rate)] = inprocess.segments(workload, rows, [["a", "b"]])
        assert [round(v, 9) for v in latencies] == [5.0, 3.0]
        work = 2 if workload == "sweep_cold" else 9
        assert math.isclose(rate, work / 0.008)
        [(latencies, _rate)] = inprocess.segments(workload, rows, [["a", "b"]], scaled=False)
        assert [round(v, 9) for v in latencies] == [10.0, 4.0]


def test_speed_sampler_reads_during_the_block_and_unpins():
    affinity = os.sched_getaffinity(0)
    sampler = common.SpeedSampler()
    sampler.interval = 0.005
    with sampler:
        assert len(os.sched_getaffinity(0)) == 1
        started = time.perf_counter()
        deadline = started + 0.2
        while time.perf_counter() < deadline:
            pass
        ended = time.perf_counter()
    assert os.sched_getaffinity(0) == affinity
    during = sampler.during(started, ended)
    assert during and all(0 < probe < 1000 * common.REFERENCE_PROBE_MS for probe in during)


# -- percentiles -----------------------------------------------------------------------


def test_failures_sort_last_in_nearest_rank():
    values = [math.inf, 3.0, 1.0, 2.0]
    assert common.percentile(values, 0.5) == 2.0
    assert common.percentile(values, 0.75) == 3.0
    assert common.percentile(values, 0.9) == math.inf


# -- the contract file -----------------------------------------------------------------


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == attribution.per_layer_units(spans.UNITS)
    assert [w["name"] for w in spec["workloads"]] == ["serve_warm", "sweep_cold", "sim_churn"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "latency_p50_ms", "latency_p90_ms", "throughput_per_s", "setup_s", "peak_rss_mb",
    }
