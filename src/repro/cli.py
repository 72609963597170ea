"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    python -m repro capabilities          # Section 3 capability report
    python -m repro figure3a              # MZI step response + fit
    python -m repro figure3b              # stitch-loss histogram
    python -m repro table1 [--buffer-mib 64]
    python -m repro table2
    python -m repro figure5               # per-slice utilization
    python -m repro figure6a              # electrical replacement attempts
    python -m repro figure7               # optical repair plan
    python -m repro blast-radius [--days 90]
    python -m repro fleet [--days 365] [--policy immediate] [--json PATH]
    python -m repro tenancy [--days 7] [--policy first-fit] [--json PATH]
    python -m repro congestion            # cross-tenant link sharing
    python -m repro simulate [--fabric photonic] [--telemetry] [--metrics PATH]
    python -m repro sweep [--jobs 4] [--no-cache] [--cache-dir DIR] [--telemetry]
    python -m repro utilization           # measured stranded bandwidth (Fig. 5c)
    python -m repro trace [--fabric photonic] [--out PATH]  # Chrome trace JSON
    python -m repro serve [--port 8421] [--jobs 2] [--workers N] [--trace-dir DIR]
    python -m repro obs merge FILE... --out PATH  # merge runtime trace files

Every subcommand builds a :class:`repro.api.ScenarioSpec` and routes
through :func:`repro.api.run`, so the CLI, the benches and the examples
all exercise the same experiment surface. ``simulate`` (and
``congestion``) accept ``--fabric`` with *any* registered backend name,
so a third-party fabric registered via
:func:`repro.api.register_backend` is reachable without touching this
module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import api
from .analysis.tables import cost_row, render_histogram, render_table
from .analysis.trace_summary import render_trace_summary
from .analysis.utilization import compare_link_utilization, dimension_utilization
from .obs.log import EventLog
from .obs.metrics import MetricsRegistry

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _cmd_capabilities(_args: argparse.Namespace) -> int:
    result = api.run(api.ScenarioSpec(fabric="photonic", outputs=("capabilities",)))
    print(render_table(
        ["capability", "value"],
        [list(r) for r in result.capabilities],
        title="Section 3 — LIGHTPATH capabilities",
    ))
    return 0


def _device_result(seed: int) -> api.RunResult:
    return api.run(
        api.ScenarioSpec(fabric="photonic", outputs=("device",), seed=seed)
    )


def _cmd_figure3a(args: argparse.Namespace) -> int:
    device = _device_result(args.seed).device
    print(render_table(
        ["quantity", "value"],
        [
            ["fitted tau", f"{device.mzi_tau_s * 1e6:.2f} us"],
            ["settling time (5 %)", f"{device.mzi_settling_s * 1e6:.2f} us"],
            ["paper", "3.7 us"],
        ],
        title="Figure 3a — MZI switch time response",
    ))
    return 0


def _cmd_figure3b(args: argparse.Namespace) -> int:
    device = _device_result(args.seed).device
    print("Figure 3b — reticle stitch loss distribution")
    print(render_histogram(
        list(device.stitch_bin_edges_db), list(device.stitch_counts), unit=" dB"
    ))
    print(f"\nmean {device.stitch_mean_db:.3f} dB (paper: 0.25 dB), "
          f"p95 {device.stitch_p95_db:.3f} dB")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    spec = api.ScenarioSpec(
        slices=api.table1_slices(),
        buffer_bytes=args.buffer_mib * (1 << 20),
        outputs=("costs",),
    )
    results = api.compare(spec)
    electrical = results["electrical"].costs.by_name("Slice-1")
    optical = results["photonic"].costs.by_name("Slice-1")
    print(render_table(
        ["slice", "elec a", "optics a", "elec b", "optics b", "ratio"],
        [cost_row("Slice-1 (4x2x1)", electrical.cost, optical.cost)],
        title="Table 1 — REDUCESCATTER costs of Slice-1",
    ))
    print(f"\nat N = {args.buffer_mib} MiB: electrical "
          f"{electrical.seconds * 1e3:.3f} ms, optical "
          f"{optical.seconds * 1e3:.3f} ms")
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    spec = api.ScenarioSpec(slices=api.table2_slices(), outputs=("costs",))
    results = api.compare(spec)
    electrical = results["electrical"].costs.by_name("Slice-3").stages
    optical = results["photonic"].costs.by_name("Slice-3").stages
    print(render_table(
        ["stage", "elec a", "optics a", "elec b", "optics b", "ratio"],
        [
            cost_row("X rings (N)", electrical[0], optical[0]),
            cost_row("Y rings (N/4)", electrical[1], optical[1]),
        ],
        title="Table 2 — REDUCESCATTER costs of Slice-3 (D=2)",
    ))
    return 0


def _cmd_figure5(_args: argparse.Namespace) -> int:
    result = api.run(
        api.ScenarioSpec(slices=api.figure5b_slices(), outputs=("utilization",))
    )
    print(render_table(
        ["slice", "shape", "electrical", "optical", "loss"],
        [
            [
                u.name,
                "x".join(map(str, u.shape)),
                f"{u.electrical_fraction:.0%}",
                f"{u.optical_fraction:.0%}",
                f"{u.bandwidth_loss_percent:.0f} %",
            ]
            for u in result.utilization
        ],
        title="Figure 5c — usable per-chip bandwidth",
    ))
    return 0


def _repair_spec(fabric: str, failed: tuple[int, ...]) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        fabric=fabric,
        slices=api.figure6_slices(),
        outputs=("repair",),
        failures=api.FailurePlan(failed_chips=(failed,)),
    )


def _cmd_figure6a(args: argparse.Namespace) -> int:
    failed = tuple(args.failed)
    repair = api.run(_repair_spec("electrical", failed)).repair
    print(render_table(
        ["free chip", "feasible", "congested links"],
        [
            [str(a.free_chip), "yes" if a.feasible else "no",
             str(a.congested_links)]
            for a in repair.attempts
        ],
        title=f"Figure 6a — electrical replacement of {failed}",
    ))
    print(f"\ncongestion-free replacement exists: {repair.feasible}")
    return 0 if not repair.feasible else 1


def _cmd_figure7(args: argparse.Namespace) -> int:
    repair = api.run(_repair_spec("photonic", tuple(args.failed))).repair
    print(render_table(
        ["circuit", "server path", "fibers"],
        [
            [f"{c.src} -> {c.dst}", " -> ".join(map(str, c.server_path)),
             str(c.fiber_hops)]
            for c in repair.circuits
        ],
        title=f"Figure 7 — optical repair via {repair.replacement}",
    ))
    print(f"\nsetup {repair.setup_latency_s * 1e6:.1f} us, "
          f"{repair.fibers_used} fibers, blast radius "
          f"{repair.blast_radius_chips} chip")
    return 0


def _cmd_blast_radius(args: argparse.Namespace) -> int:
    result = api.run(api.ScenarioSpec(
        fabric="photonic",
        outputs=("blast_radius",),
        failures=api.FailurePlan(fleet_days=args.days, seed=args.seed),
    ))
    rack, optical = result.blast_radius.rack_policy, result.blast_radius.optical_policy
    print(render_table(
        ["metric", rack.policy, optical.policy],
        [
            ["failures", str(rack.failures), str(optical.failures)],
            ["blast radius", str(rack.blast_radius_chips),
             str(optical.blast_radius_chips)],
            ["chip impact", str(rack.total_chip_impact),
             str(optical.total_chip_impact)],
        ],
        title=f"Section 4.2 — blast radius over {args.days} days",
    ))
    print(f"\nimprovement: {result.blast_radius.improvement_factor:.0f}x")
    return 0


def _progress_session(args: argparse.Namespace, source: str) -> api.FabricSession:
    """With ``--progress``, a session whose log writes ``<source>.progress``
    heartbeats to stderr as JSONL; the default session otherwise."""
    if not args.progress:
        return api.default_session()
    return api.FabricSession(log=EventLog(sys.stderr, level="info", source=source))


def _cmd_fleet(args: argparse.Namespace) -> int:
    """A year (or ``--days``) of fleet life, electrical vs photonic."""
    result = _progress_session(args, "fleet").run(api.ScenarioSpec(
        fabric="photonic",
        outputs=("fleet",),
        fleet=api.FleetPlan(
            days=args.days,
            seed=args.seed,
            policy=args.policy,
            max_concurrent_migrations=args.migrations,
            spare_inventory=args.spares,
        ),
    ))
    if args.json:
        _write_json(args.json, result.to_dict())
        return 0
    report = result.fleet
    electrical, photonic = report.electrical, report.photonic

    def row(metric: str, fmt) -> list[str]:
        return [metric, fmt(electrical), fmt(photonic)]

    print(render_table(
        ["metric", "electrical", "photonic"],
        [
            row("failures", lambda r: str(r.failures)),
            row("repairs", lambda r: str(r.repairs)),
            row("mean availability",
                lambda r: f"{r.mean_availability:.9f}"),
            row("min available chips",
                lambda r: str(r.min_available_chips)),
            row("lost chip-hours",
                lambda r: f"{r.lost_chip_seconds / 3600:.1f}"),
            row("blast-radius chip-hours",
                lambda r: f"{r.collateral_chip_seconds / 3600:.1f}"),
            row("TTR p50", lambda r: f"{r.ttr_p50_s:.3g} s"),
            row("TTR p99", lambda r: f"{r.ttr_p99_s:.3g} s"),
        ],
        title=(f"Fleet reliability — {report.days:g} days, "
               f"{report.chips} chips, {report.policy} dispatch"),
    ))
    reduction = report.downtime_reduction_factor
    print(f"\navailability gap: {report.availability_gap:.3e}  "
          f"downtime reduction: "
          f"{'inf' if reduction == float('inf') else f'{reduction:.0f}x'}")
    return 0


def _cmd_tenancy(args: argparse.Namespace) -> int:
    """Days of multi-tenant churn, electrical vs photonic."""
    result = _progress_session(args, "tenancy").run(api.ScenarioSpec(
        fabric="photonic",
        outputs=("tenancy",),
        tenancy=api.TenancyPlan(
            days=args.days,
            seed=args.seed,
            arrivals_per_day=args.arrivals_per_day,
            profile=args.profile,
            policy=args.policy,
            steering=not args.no_steering,
        ),
    ))
    if args.json:
        _write_json(args.json, result.to_dict())
        return 0
    report = result.tenancy
    electrical, photonic = report.electrical, report.photonic

    def row(metric: str, fmt) -> list[str]:
        return [metric, fmt(electrical), fmt(photonic)]

    print(render_table(
        ["metric", "electrical", "photonic"],
        [
            row("arrivals", lambda r: str(r.arrivals)),
            row("placed", lambda r: str(r.placed)),
            row("steered placements", lambda r: str(r.steered_placements)),
            row("rejected", lambda r: str(r.rejected)),
            row("rejection rate", lambda r: f"{r.rejection_rate:.4f}"),
            row("queue delay mean", lambda r: f"{r.queue_delay_mean_s:.1f} s"),
            row("queue delay p99", lambda r: f"{r.queue_delay_p99_s:.1f} s"),
            row("mean occupancy", lambda r: f"{r.mean_occupancy:.3f}"),
            row("stranded fraction", lambda r: f"{r.stranded_fraction:.3f}"),
            row("stranded chip-hours",
                lambda r: f"{r.stranded_chip_seconds / 3600:.1f}"),
            row("peak circuits", lambda r: str(r.circuits_peak)),
        ],
        title=(f"Tenant churn — {report.days:g} days, {report.chips} chips, "
               f"{report.policy} placement, {report.profile} arrivals"),
    ))
    factor = report.stranded_reduction_factor
    print(f"\nqueue delay gap: {report.queue_delay_gap_s:.1f} s  "
          f"rejection gap: {report.rejection_gap:.4f}  "
          f"stranded reduction: "
          f"{'inf' if factor == float('inf') else f'{factor:.1f}x'}")
    return 0


def _cmd_congestion(args: argparse.Namespace) -> int:
    result = api.run(api.ScenarioSpec(
        fabric=args.fabric,
        slices=api.figure5b_slices(),
        outputs=("congestion",),
    ))
    congestion = result.congestion
    title = f"Congestion — {result.fabric} fabric, Figure 5b layout"
    if congestion.contention_loss_fraction is not None:
        print(render_table(
            ["metric", "value"],
            [
                ["congestion free", "yes" if congestion.congestion_free else "no"],
                ["host contention loss",
                 f"{congestion.contention_loss_fraction:.0%}"],
            ],
            title=title,
        ))
        return 0
    rows = [
        [f"{s.src} -> {s.dst}", ", ".join(s.users)]
        for s in congestion.shared_links
    ]
    print(render_table(
        ["shared link", "users"],
        rows or [["(none)", "-"]],
        title=title,
    ))
    print(f"\ncongestion free: {congestion.congestion_free}, "
          f"worst multiplicity: {congestion.worst_multiplicity}")
    return 0


def _write_json(path: str, payload: dict) -> None:
    """Write deterministic JSON (sorted keys) to ``path``, or stdout for
    ``-``."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_simulate(args: argparse.Namespace) -> int:
    outputs = ("telemetry",)
    if args.telemetry:
        outputs = ("telemetry", "link_utilization")
    if args.metrics:
        outputs = outputs + ("metrics",)
    spec = api.ScenarioSpec(
        fabric=args.fabric,
        slices=api.figure5b_slices(),
        buffer_bytes=args.buffer_mib * (1 << 20),
        mode="sim",
        outputs=outputs,
    )
    result = api.run(spec)
    if args.metrics:
        # Simulator counters are sim-derived (flows, rebalances, sim
        # horizon), so the file is deterministic and golden-able.
        _write_json(args.metrics, result.metrics.to_dict())
    if args.telemetry:
        # Per-link observability is machine-facing: deterministic JSON
        # (sorted keys, no timing) instead of the human table.
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    telemetry = result.telemetry
    title = (f"Simulated REDUCESCATTER — {result.fabric} fabric, "
             f"{args.buffer_mib} MiB per tenant")
    if telemetry.aggregate_throughput_bytes is not None:
        print(render_table(
            ["metric", "value"],
            [
                ["aggregate throughput",
                 f"{telemetry.aggregate_throughput_bytes / 1e12:.2f} TB/s"],
                ["ideal throughput",
                 f"{telemetry.ideal_throughput_bytes / 1e12:.2f} TB/s"],
            ],
            title=title,
        ))
        return 0
    print(render_table(
        ["tenant", "duration", "transfer", "alpha", "reconfig"],
        [
            [
                entry.name,
                f"{line.duration_s * 1e3:.3f} ms",
                f"{line.transfer_s * 1e3:.3f} ms",
                f"{line.alpha_s * 1e6:.1f} us",
                f"{line.reconfig_s * 1e6:.1f} us",
            ]
            for entry, line in zip(spec.slices, telemetry.schedules)
        ],
        title=title,
    ))
    return 0


_UTILIZATION_LAYOUTS = {
    "table1": "table1_slices",
    "figure5b": "figure5b_slices",
}


def _cmd_utilization(args: argparse.Namespace) -> int:
    """Measured stranded bandwidth: electrical vs photonic, Figure 5c.

    Runs the same workload instrumented on both torus fabrics and prints
    deterministic JSON: per-dimension mean utilization and idle-link
    fractions (the electrical slice's unusable dimensions sit near 0 %
    while steering recovers them), plus the measured bandwidth-loss
    fraction — the paper's 66 % headline for Slice-1, measured rather
    than asserted.
    """
    slices = getattr(api, _UTILIZATION_LAYOUTS[args.layout])()
    outputs = ("link_utilization",)
    if args.metrics:
        outputs = outputs + ("metrics",)
    spec = api.ScenarioSpec(
        slices=slices,
        buffer_bytes=args.buffer_mib * (1 << 20),
        mode="sim",
        outputs=outputs,
    )
    results = api.compare(spec, fabrics=("electrical", "photonic"))
    if args.metrics:
        _write_json(args.metrics, {
            "electrical": results["electrical"].metrics.to_dict(),
            "photonic": results["photonic"].metrics.to_dict(),
        })
    electrical = results["electrical"].link_utilization
    photonic = results["photonic"].link_utilization
    comparison = compare_link_utilization(electrical, photonic)

    def fabric_payload(report: api.LinkUtilizationReport) -> dict:
        return {
            "horizon_s": report.horizon_s,
            "link_capacity_bytes_per_s": report.link_capacity_bytes_per_s,
            "mean_utilization": report.mean_utilization,
            "stranded_link_fraction": report.stranded_fraction,
            "busiest": [line.to_dict() for line in report.busiest()],
            "dimensions": [
                {
                    "dimension": d.dimension,
                    "links": d.links,
                    "mean_utilization": d.mean_utilization,
                    "idle_fraction": d.idle_fraction,
                }
                for d in dimension_utilization(report)
            ],
        }

    payload = {
        "layout": args.layout,
        "buffer_mib": args.buffer_mib,
        "electrical": fabric_payload(electrical),
        "photonic": fabric_payload(photonic),
        "comparison": {
            "speedup": comparison.speedup,
            "bandwidth_loss_fraction": comparison.bandwidth_loss_fraction,
            "electrical_idle_link_fraction": (
                comparison.electrical_idle_link_fraction
            ),
            "photonic_idle_link_fraction": (
                comparison.photonic_idle_link_fraction
            ),
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _parse_workers(text: str) -> int:
    """Parse ``serve --workers``: 0 = single-process (no router), a
    positive integer = sharded tier size, ``auto`` = one worker per CPU."""
    if text.strip().lower() == "auto":
        return -1  # resolved to os.cpu_count() in _cmd_serve
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {text!r}"
        )
    return value


def _parse_jobs(text: str) -> int:
    """Parse a worker count: a positive integer, or ``auto`` = all CPUs.

    Validated at the argparse layer so ``--jobs 0`` and ``--jobs -4``
    produce a usage error instead of surfacing a traceback from deep
    inside the executor machinery.
    """
    if text.strip().lower() == "auto":
        return 0  # run_many's "use every CPU" sentinel
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be a positive integer (or 'auto' for all CPUs), "
            f"got {value}"
        )
    return value


def _parse_shape(text: str) -> tuple[int, ...]:
    """Parse an ``AxBxC`` extent string into an int tuple."""
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a shape like 4x2x1, got {text!r}"
        ) from None
    if not shape or any(s < 1 for s in shape):
        raise argparse.ArgumentTypeError(
            f"shape extents must be positive, got {text!r}"
        )
    return shape


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a scenario grid on the batch engine, printing deterministic JSON.

    Stdout carries only the plan and the per-spec results — no timing, no
    cache counters — so the output is byte-identical whether the sweep ran
    serially, on ``--jobs N`` workers, or entirely from a warm cache (CI
    diffs serial vs parallel output to hold the engine to this). Timing
    goes to stderr as one JSON object per spec (machine-parseable: spec
    index, fabric, content key, elapsed seconds, cache provenance, worker
    pid) followed by one human summary line; ``--metrics PATH`` addition-
    ally writes the sweep's own stage timing as a metrics snapshot.
    """
    plan_kwargs = {}
    if args.fabrics:
        plan_kwargs["fabrics"] = tuple(args.fabrics)
    if args.slice_shapes:
        plan_kwargs["slice_shapes"] = tuple(args.slice_shapes)
    if args.buffer_mib:
        plan_kwargs["buffer_bytes"] = tuple(
            mib * (1 << 20) for mib in args.buffer_mib
        )
    outputs = tuple(args.outputs) if args.outputs else ("costs",)
    mode = "closed_form"
    if args.telemetry:
        outputs = tuple(
            dict.fromkeys(outputs + ("telemetry", "link_utilization"))
        )
        mode = "sim"
    plan = api.SweepPlan(
        rack_shape=args.rack_shape,
        outputs=outputs,
        mode=mode,
        **plan_kwargs,
    )
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = api.default_cache_dir()
    registry = MetricsRegistry() if args.metrics else None
    sweep = api.run_many(
        plan.specs(),
        jobs=args.jobs,
        cache_dir=cache_dir,
        no_cache=args.no_cache,
        metrics=registry,
    )
    payload = {"plan": plan.to_dict(), **sweep.to_dict(include_timing=False)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if registry is not None:
        # Wall-clock stage timing — reproducible in shape, not in value,
        # so it goes to a side file rather than the deterministic stdout.
        _write_json(args.metrics, registry.snapshot())
    # One machine-readable timing record per spec, then one human line:
    # scripts parse every stderr line but the last as JSON.
    for record in sweep.timing_records():
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    stats = sweep.cache_stats
    print(
        f"swept {plan.size} specs ({sweep.unique_specs} unique) in "
        f"{sweep.wall_clock_s:.3f} s with {sweep.jobs} job(s); "
        f"cache: {stats.hits} hits, {stats.misses} misses",
        file=sys.stderr,
    )
    return 0


_TRACE_LAYOUTS = {
    "figure6": "figure6_slices",
    "figure5b": "figure5b_slices",
}


def _parse_categories(text: str) -> tuple[str, ...]:
    """Parse a comma-separated category list."""
    categories = tuple(part.strip() for part in text.split(",") if part.strip())
    if not categories:
        raise argparse.ArgumentTypeError(
            f"expected a category list like schedule,phase, got {text!r}"
        )
    return categories


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export a simulated run as Chrome/Perfetto ``trace_event`` JSON.

    The timeline tells the paper's failure-recovery story end to end: the
    multi-tenant workload's schedules, phase boundaries and 3.7 us switch
    reconfigurations on their own tracks, then (unless ``--no-failure``)
    the injected chip failure and the fabric's recovery — replacement
    attempts and rack migration on the electrical fabric (Figure 6),
    MZI reconfigurations and the optical repair on the photonic one
    (Figure 7). Timestamps are simulated time, so the file is
    deterministic; open it at ``ui.perfetto.dev`` or ``chrome://tracing``.
    A human summary goes to stderr.
    """
    kwargs = {}
    if not args.no_failure:
        kwargs["failures"] = api.FailurePlan(
            failed_chips=(tuple(args.failed),)
        )
    spec = api.ScenarioSpec(
        fabric=args.fabric,
        slices=getattr(api, _TRACE_LAYOUTS[args.layout])(),
        buffer_bytes=args.buffer_mib * (1 << 20),
        mode="sim",
        outputs=("trace",),
        **kwargs,
    )
    report = api.run(spec).trace
    if args.categories:
        unknown = sorted(set(args.categories) - set(report.categories()))
        if unknown:
            raise ValueError(
                f"unknown trace categories {unknown}; this trace has "
                f"{list(report.categories())}"
            )
        report = report.filtered(args.categories)
    _write_json(args.out, report.to_chrome())
    where = "stdout" if args.out == "-" else args.out
    print(
        f"traced {spec.fabric} fabric, {args.layout} layout -> {where}",
        file=sys.stderr,
    )
    print(render_trace_summary(report), file=sys.stderr)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Observability utilities (currently: merge runtime trace files).

    ``repro obs merge`` combines the per-process runtime trace files a
    traced serving tier leaves behind (``router-<pid>.trace.json`` plus
    one ``w<slot>-<pid>.trace.json`` per worker) into a single
    Chrome/Perfetto timeline. Each process keeps its own ``pid`` track,
    and spans carry the request's ``trace_id`` in their args, so one
    request's router hop and worker evaluation line up side by side.
    """
    from .obs.tracer import write_merged

    if args.action == "merge":
        missing = [path for path in args.files if not Path(path).is_file()]
        if missing:
            raise ValueError(f"no such trace file: {missing[0]}")
        out, count = write_merged(args.files, args.out)
        print(
            f"merged {len(args.files)} trace file(s), {count} event(s) "
            f"-> {out}",
            file=sys.stderr,
        )
        return 0
    raise ValueError(f"unknown obs action {args.action!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation service until SIGTERM/SIGINT.

    ``POST /v1/evaluate`` bodies are ``ScenarioSpec`` JSON; responses
    are the exact ``RunResult`` JSON the CLI prints for the same spec.
    ``GET /healthz`` and ``GET /metrics`` expose liveness and the
    service's metrics registry. With ``--workers N`` the process becomes
    a shard router instead: it spawns and supervises N single-process
    workers, routes by consistent-hashed spec key, and coalesces
    identical in-flight specs — same routes, same bytes. See
    ``repro.serve`` for the batching, admission-control, priority and
    drain semantics.
    """
    from .serve import ServerConfig, ShardConfig, run_server, run_sharded

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=jobs,
        max_batch=args.max_batch,
        linger_ms=args.linger_ms,
        queue_limit=args.queue_limit,
        batch_shed_fraction=args.batch_shed_fraction,
        request_timeout_s=args.timeout_s,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        trace_dir=args.trace_dir,
        trace_name=args.trace_name,
        log_level=args.log_level,
    )
    workers = args.workers if args.workers >= 0 else (os.cpu_count() or 1)
    if workers == 0:
        return run_server(config, exit_on_stdin_eof=args.exit_on_stdin_eof)
    return run_sharded(
        ShardConfig(
            workers=workers,
            host=args.host,
            port=args.port,
            worker=config,
        ),
        exit_on_stdin_eof=args.exit_on_stdin_eof,
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce results from 'A case for server-scale "
        "photonic connectivity' (HotNets '24).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("capabilities", help="Section 3 capability report")

    p3a = sub.add_parser("figure3a", help="MZI step response + fit")
    p3a.add_argument("--seed", type=int, default=42)

    p3b = sub.add_parser("figure3b", help="stitch-loss histogram")
    p3b.add_argument("--seed", type=int, default=42)

    p_t1 = sub.add_parser("table1", help="Slice-1 REDUCESCATTER costs")
    p_t1.add_argument("--buffer-mib", type=int, default=64)

    sub.add_parser("table2", help="Slice-3 staged costs")
    sub.add_parser("figure5", help="per-slice bandwidth utilization")

    p6a = sub.add_parser("figure6a", help="electrical replacement attempts")
    p6a.add_argument("--failed", type=int, nargs=3, default=[1, 2, 0])

    p7 = sub.add_parser("figure7", help="optical repair plan")
    p7.add_argument("--failed", type=int, nargs=3, default=[1, 2, 0])

    pbr = sub.add_parser("blast-radius", help="fleet blast-radius comparison")
    pbr.add_argument("--days", type=int, default=90)
    pbr.add_argument("--seed", type=int, default=2024)

    pfl = sub.add_parser(
        "fleet",
        help="year-scale fleet reliability simulation, electrical vs "
        "photonic",
    )
    pfl.add_argument("--days", type=float, default=365.0)
    pfl.add_argument("--seed", type=int, default=0)
    pfl.add_argument(
        "--policy", choices=("immediate", "lazy", "batched"),
        default="immediate",
        help="repair-dispatch policy (default: immediate)",
    )
    pfl.add_argument(
        "--migrations", type=int, default=4, metavar="K",
        help="concurrent rack migrations allowed (electrical budget)",
    )
    pfl.add_argument(
        "--spares", type=int, default=8, metavar="N",
        help="spare chips stocked per rack (photonic budget)",
    )
    pfl.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full result as deterministic JSON to PATH "
        "('-' = stdout) instead of the table",
    )
    pfl.add_argument(
        "--progress", action="store_true",
        help="emit fleet.progress heartbeat events (JSONL on stderr) at "
        "10 sim-time checkpoints per simulation; results stay "
        "byte-identical",
    )

    ptn = sub.add_parser(
        "tenancy",
        help="multi-tenant churn simulation (job arrivals, placement, "
        "fragmentation), electrical vs photonic",
    )
    ptn.add_argument("--days", type=float, default=7.0)
    ptn.add_argument("--seed", type=int, default=0)
    ptn.add_argument(
        "--arrivals-per-day", type=float, default=1500.0, metavar="RATE",
        help="mean job arrival rate (default: 1500)",
    )
    ptn.add_argument(
        "--profile", choices=("poisson", "burst", "trace"),
        default="poisson",
        help="arrival profile (default: poisson)",
    )
    ptn.add_argument(
        "--policy", choices=("first-fit", "best-fit", "defrag"),
        default="first-fit",
        help="placement policy both fabrics run (default: first-fit); "
        "wavelength steering upgrades the photonic run on top",
    )
    ptn.add_argument(
        "--no-steering", action="store_true",
        help="disable the photonic run's wavelength steering (isolates "
        "the placement policy from the fabric's flexibility)",
    )
    ptn.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full result as deterministic JSON to PATH "
        "('-' = stdout) instead of the table",
    )
    ptn.add_argument(
        "--progress", action="store_true",
        help="emit tenancy.progress heartbeat events (JSONL on stderr) at "
        "10 sim-time checkpoints per simulation; results stay "
        "byte-identical",
    )

    pcg = sub.add_parser("congestion", help="cross-tenant link sharing")
    pcg.add_argument("--fabric", default="electrical")

    psim = sub.add_parser("simulate", help="measured collective durations")
    psim.add_argument("--fabric", default="photonic")
    psim.add_argument("--buffer-mib", type=int, default=64)
    psim.add_argument(
        "--telemetry", action="store_true",
        help="also measure per-link utilization and print the full result "
        "as deterministic JSON (torus fabrics only)",
    )
    psim.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also compute simulator counters and write them as "
        "deterministic JSON to PATH ('-' = stdout)",
    )

    put = sub.add_parser(
        "utilization",
        help="measured stranded bandwidth, electrical vs photonic "
        "(Figure 5c from the simulator)",
    )
    put.add_argument(
        "--layout", choices=sorted(_UTILIZATION_LAYOUTS), default="table1",
        help="tenant layout: table1 = Slice-1 alone (the 66 %% story), "
        "figure5b = the four-tenant rack",
    )
    put.add_argument("--buffer-mib", type=int, default=64)
    put.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also write both fabrics' simulator counters as deterministic "
        "JSON to PATH ('-' = stdout)",
    )

    psw = sub.add_parser(
        "sweep",
        help="grid sweep (fabrics x slice shapes x buffer sizes), "
        "parallel and cached",
    )
    psw.add_argument(
        "--fabric", action="append", dest="fabrics", metavar="NAME",
        help="backend to sweep (repeatable; default: electrical, photonic)",
    )
    psw.add_argument(
        "--slice-shape", action="append", dest="slice_shapes",
        type=_parse_shape, metavar="AxBxC",
        help="slice shape to sweep (repeatable; default: 4x2x1 4x4x1 4x4x2)",
    )
    psw.add_argument(
        "--buffer-mib", action="append", type=int, metavar="MIB",
        help="buffer size in MiB (repeatable; default: 64)",
    )
    psw.add_argument(
        "--rack-shape", type=_parse_shape, default=(4, 4, 4), metavar="AxBxC"
    )
    psw.add_argument(
        "--outputs", action="append", choices=api.KNOWN_OUTPUTS,
        help="result section to compute (repeatable; default: costs)",
    )
    psw.add_argument(
        "--jobs", type=_parse_jobs, default=1, metavar="N",
        help="worker processes, a positive integer or 'auto' for all "
        "CPUs (default: 1, serial)",
    )
    psw.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache (reads and writes)",
    )
    psw.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location (default: ~/.cache/repro)",
    )
    psw.add_argument(
        "--telemetry", action="store_true",
        help="run on the simulator and add the telemetry + link_utilization "
        "sections to every spec",
    )
    psw.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the sweep's own instrumentation (per-stage timing, "
        "cache counters) as a metrics snapshot to PATH",
    )

    ptr = sub.add_parser(
        "trace",
        help="export a simulated failure-recovery timeline as "
        "Chrome/Perfetto trace_event JSON",
    )
    ptr.add_argument("--fabric", default="photonic")
    ptr.add_argument(
        "--layout", choices=sorted(_TRACE_LAYOUTS), default="figure6",
        help="tenant layout: figure6 = the repair story's three tenants, "
        "figure5b = the four-tenant rack",
    )
    ptr.add_argument(
        "--failed", type=int, nargs=3, default=[1, 2, 0],
        help="chip whose failure + recovery to trace at the workload horizon",
    )
    ptr.add_argument(
        "--no-failure", action="store_true",
        help="trace the workload only, without failure injection",
    )
    ptr.add_argument("--buffer-mib", type=int, default=64)
    ptr.add_argument(
        "--categories", type=_parse_categories, default=None,
        metavar="CAT[,CAT...]",
        help="keep only these event categories (e.g. "
        "schedule,phase,reconfig,failure,recovery); default: all",
    )
    ptr.add_argument(
        "--out", default="-", metavar="PATH",
        help="write the trace JSON here ('-' = stdout); open in "
        "ui.perfetto.dev or chrome://tracing",
    )

    psv = sub.add_parser(
        "serve",
        help="run the asyncio evaluation service (JSON over HTTP, "
        "micro-batched, drains cleanly on SIGTERM)",
    )
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument(
        "--port", type=int, default=8421,
        help="TCP port (0 = ephemeral; default: 8421)",
    )
    psv.add_argument(
        "--workers", type=_parse_workers, default=0, metavar="N",
        help="shard the service: spawn and supervise N worker processes "
        "behind a consistent-hash router ('auto' = one per CPU; "
        "default: 0 = single process, no router)",
    )
    psv.add_argument(
        "--jobs", type=_parse_jobs, default=2, metavar="N",
        help="persistent evaluation sessions per process, a positive "
        "integer or 'auto' for all CPUs (default: 2)",
    )
    psv.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="requests coalesced into one evaluation batch (default: 8)",
    )
    psv.add_argument(
        "--linger-ms", type=float, default=2.0, metavar="MS",
        help="how long the batcher waits for a batch to fill (default: 2)",
    )
    psv.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission queue bound; overflow answers 429 (default: 64)",
    )
    psv.add_argument(
        "--batch-shed-fraction", type=float, default=0.5, metavar="F",
        help="fraction of the queue bound past which X-Repro-Priority: "
        "batch requests are shed with 429 while interactive ones are "
        "still admitted (default: 0.5)",
    )
    psv.add_argument(
        "--timeout-s", type=float, default=60.0, metavar="S",
        help="per-request evaluation deadline; exceeding it answers 504 "
        "(default: 60)",
    )
    psv.add_argument(
        "--no-cache", action="store_true",
        help="run without the persistent result cache",
    )
    psv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location (default: ~/.cache/repro)",
    )
    psv.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="cap the disk cache at N entries, pruned oldest-first",
    )
    psv.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="cap the disk cache payload bytes, pruned oldest-first",
    )
    psv.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable runtime tracing: each process writes a Chrome "
        "trace_event JSON file here on drain (merge with 'repro obs "
        "merge'); default: off, zero overhead",
    )
    psv.add_argument(
        "--trace-name", default=None, metavar="NAME",
        help="trace/log source name for this process (default: 'serve', "
        "or assigned by the router for sharded workers)",
    )
    psv.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured JSONL event-log threshold on stderr "
        "(default: info)",
    )
    # Internal: drain and exit at end of file on stdin. The shard router
    # passes it to its workers, whose stdin is a pipe only it writes to.
    psv.add_argument("--exit-on-stdin-eof", action="store_true", help=argparse.SUPPRESS)

    pob = sub.add_parser(
        "obs",
        help="observability utilities for runtime traces",
    )
    pob.add_argument(
        "action", choices=("merge",),
        help="merge: combine per-process *.trace.json files into one "
        "Perfetto timeline",
    )
    pob.add_argument(
        "files", nargs="+", metavar="FILE",
        help="runtime trace files written by 'repro serve --trace-dir'",
    )
    pob.add_argument(
        "--out", required=True, metavar="PATH",
        help="write the merged Chrome trace_event JSON here",
    )

    return parser


_HANDLERS = {
    "capabilities": _cmd_capabilities,
    "figure3a": _cmd_figure3a,
    "figure3b": _cmd_figure3b,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure5": _cmd_figure5,
    "figure6a": _cmd_figure6a,
    "figure7": _cmd_figure7,
    "blast-radius": _cmd_blast_radius,
    "congestion": _cmd_congestion,
    "fleet": _cmd_fleet,
    "tenancy": _cmd_tenancy,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "utilization": _cmd_utilization,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (KeyError, ValueError, api.UnsupportedOutput) as exc:
        # Unknown --fabric name, invalid spec (e.g. a failed chip outside
        # the rack), or an output the backend cannot produce.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
