#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 30 --trace 0

Workloads: ``serve_warm``, ``sweep_cold``, ``sim_churn`` (see
``BENCHMARK.json`` for why each exists). ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` repeats the same
operations with every layer wrapped and prints the per-layer metrics.
The last line of standard output is the result object; the line before
it holds diagnostics (environment, CPU probe, wall-clock figures of the
in-process workloads, missing wrap targets). The exit status is 1 when
any output is wrong, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("serve_warm", "sweep_cold", "sim_churn")
#: Set-ups measured per untraced run; their median is ``setup_s``.
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh interpreter that only sets up, or runs the traced pass.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", metavar="OUT", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]


def probe_setup(args: argparse.Namespace) -> tuple[float, list[float]]:
    """Seconds from spawning a fresh interpreter to its first operation
    being ready to run (imports, inputs, session and cache included), and
    the speed probes the interpreter read meanwhile."""
    started = time.perf_counter()
    with subprocess.Popen(
        child_command(args, "--setup-probe"), cwd=common.ROOT,
        env=common.source_env(), stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        probes = child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed, json.loads(probes)


def setup_probe(args: argparse.Namespace) -> int:
    """The interpreter :func:`probe_setup` spawns: sets up as an
    in-process run does, prints ``ready``, then the speed probes read
    meanwhile (the first right after start, then a sampler's)."""
    with common.SpeedSampler() as sampler:
        probes = [statistics.median(common.speed_probe_ms() for _ in range(3))]
        common.require_source()
        from perfbench import inprocess
        from repro.api import DiskResultCache, FabricSession

        inprocess.plan(args.workload, args.seed, args.seconds)
        cache_dir = common.scratch_dir("probe-")
        FabricSession(result_cache=DiskResultCache(cache_dir))
        print("ready", flush=True)
    print(json.dumps(probes + sampler.probes), flush=True)
    common.remove_dir(cache_dir)
    return 0


# -- in-process workloads -------------------------------------------------------------


def run_inprocess(args: argparse.Namespace, diagnostics: dict) -> dict:
    from perfbench import inprocess

    if args.traced_pass:
        from perfbench import spans

        recorder = spans.Recorder()
        recorder.install()
        pool, cycles = inprocess.plan(args.workload, args.seed, args.seconds)
        rows = inprocess.evaluate(pool, [label for cycle in cycles for label in cycle], recorder)
        Path(args.traced_pass).write_text(
            json.dumps({"dump": recorder.export(), "rows": rows})
        )
        return {}

    setups = (
        [probe_setup(args) for _ in range(SETUP_REPEATS)] if args.trace == 0 else []
    )
    pool, cycles = inprocess.plan(args.workload, args.seed, args.seconds)
    rows = inprocess.evaluate(pool, [label for cycle in cycles for label in cycle])
    failed = inprocess.check(rows)
    diagnostics["operations"] = len(rows)
    diagnostics["seconds_by_class"] = inprocess.seconds_by_class(rows)
    if args.trace == 0:
        rss = common.peak_rss_mb()
        metrics = common.end_to_end(
            inprocess.segments(args.workload, rows, cycles),
            statistics.median(common.at_reference_speed(s, probes) for s, probes in setups),
            rss,
        )
        wall_clock = common.end_to_end(
            inprocess.segments(args.workload, rows, cycles, scaled=False),
            statistics.median(s for s, _probes in setups), rss,
        )
        diagnostics["wall_clock"] = {name: m["value"] for name, m in wall_clock.items()}
        diagnostics["speed_probe_ms_median"] = statistics.median(
            probe for row in rows for probe in row.get("probes_ms", ())
        )
        diagnostics["setup_samples_s"] = [s for s, _probes in setups]
        return {"attempted": len(rows), "failed": failed, "metrics": metrics}

    traced = traced_pass(args)
    traced_rows = traced["rows"]
    # The traced results must match the untraced ones, label by label.
    failed += inprocess.check(traced_rows) + sum(
        1 for a, b in zip(rows, traced_rows)
        if a["label"] != b["label"] or a.get("digest") != b.get("digest")
    )
    metrics = per_layer(
        [traced["dump"]],
        untraced_total_s=sum(r["seconds"] for r in rows if "error" not in r),
        extra={
            "sim.engine.events": float(sum(r.get("engine_events", 0) for r in traced_rows)),
            "serve.shard.coalesced_ratio": 0.0,
        },
        diagnostics=diagnostics,
    )
    return {"attempted": len(rows) + len(traced_rows), "failed": failed, "metrics": metrics}


def traced_pass(args: argparse.Namespace) -> dict:
    out = common.scratch_dir("traced-") / "pass.json"
    try:
        subprocess.run(
            child_command(args, "--traced-pass", str(out)), cwd=common.ROOT,
            env=common.source_env(), stdout=subprocess.DEVNULL, check=True,
            timeout=170,
        )
        return json.loads(out.read_text())
    finally:
        common.remove_dir(out.parent)


def per_layer(dumps: list[dict], untraced_total_s: float, extra: dict,
              diagnostics: dict) -> dict:
    from perfbench import attribution, spans

    records = attribution.load(dumps)
    roots = [r for r in records if r.unit == "unattributed" and r.parent is None]
    values = attribution.layer_metrics(
        records, roots, untraced_total_s, spans.UNITS, extra
    )
    diagnostics["missing_targets"] = sorted(
        {target for dump in dumps for target in dump.get("missing", [])}
    )
    return {
        name: common.metric(values[name], unit)
        for name, unit in attribution.per_layer_units(spans.UNITS).items()
    }


# -- serve_warm -----------------------------------------------------------------------


def run_serve(args: argparse.Namespace, diagnostics: dict) -> dict:
    from perfbench import serve_warm as sw

    bodies = sw.request_bodies(args.seed)
    setups = []
    warm_records = []
    tier = cache_dir = None
    for attempt in range(SETUP_REPEATS if args.trace == 0 else 1):
        tier, cache_dir, records, setup_s = sw.launch(args.seed)
        setups.append(setup_s)
        warm_records += records
        if attempt < SETUP_REPEATS - 1 and args.trace == 0:
            tier.stop()
            common.remove_dir(cache_dir)
    try:
        load, segments = asyncio.run(
            sw.timed(tier.port, bodies, args.seed, args.seconds, None, "u")
        )
        peak_rss = tier.peak_rss_mb()
    finally:
        tier.stop()
        common.remove_dir(cache_dir)
    expected = sw.expected_bodies(args.seed)
    failed = sw.failures(warm_records, expected) + sw.failures(load.records, expected)
    attempted = len(warm_records) + len(load.records)
    measured = [r for r in load.records if r["segment"] >= sw.RAMP_UP]
    opened = [r for r in measured if r["phase"] == "open"]
    diagnostics["open_lateness_p90_ms"] = common.percentile(
        [(r["sent"] - r["due"]) * 1000.0 for r in opened], 0.9
    )
    diagnostics["open_latency_p99_ms"] = common.percentile(sw.latencies_ms(measured), 0.99)
    diagnostics["requests"] = {
        "open": len(opened), "closed": sum(s[0] for s in segments[sw.RAMP_UP:]),
    }
    if args.trace == 0:
        metrics = common.end_to_end(
            sw.segments(load, segments), statistics.median(setups), peak_rss
        )
        diagnostics["setup_samples_s"] = setups
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    spans_dir = common.scratch_dir("spans-")
    try:
        tier, cache_dir, traced_warm, _setup = sw.launch(args.seed, spans_dir)
        try:
            traced, _segments = asyncio.run(
                sw.timed(tier.port, bodies, args.seed, args.seconds, [s[0] for s in segments], "t")
            )
        finally:
            tier.stop()
            common.remove_dir(cache_dir)
        dumps = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("spans-*.json"))]
    finally:
        common.remove_dir(spans_dir)
    failed += sw.failures(traced_warm, expected) + sw.failures(traced.records, expected)
    attempted += len(traced_warm) + len(traced.records)
    if len(dumps) != 2:
        raise RuntimeError(f"expected span dumps from router and worker, got {len(dumps)}")
    client = {
        "pid": os.getpid(),
        "spans": [
            ["unattributed", "op", r["sent"], r["done"], None, r["trace"], None, None, False]
            for r in traced.records
        ],
    }
    ok = [r for r in traced.records if r.get("status") == 200]
    metrics = per_layer(
        [client, *dumps],
        untraced_total_s=sum(r["done"] - r["sent"] for r in load.records),
        extra={
            "sim.engine.events": float(sum(d.get("engine_events", 0) for d in dumps)),
            "serve.shard.coalesced_ratio": (
                sum(1 for r in ok if r.get("coalesced")) / len(ok) if ok else 0.0
            ),
        },
        diagnostics=diagnostics,
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, _frame) -> None:
    # Unwind through the finally blocks that stop the serving tier.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    if args.setup_probe:
        return setup_probe(args)
    try:
        common.require_source()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    internal = args.traced_pass
    diagnostics = {"environment": common.environment(), "workload": args.workload,
                   "seed": args.seed}
    if not internal:
        diagnostics["cpu_probe_before_ms"] = common.cpu_probe_ms()
    runner = run_serve if args.workload == "serve_warm" else run_inprocess
    outcome = runner(args, diagnostics)
    if internal:
        return 0
    diagnostics["cpu_probe_after_ms"] = common.cpu_probe_ms()
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }
    common.emit(result, diagnostics)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
