"""Sweep engine performance: serial vs parallel vs warm persistent cache.

The grid is the expensive end of the paper's experiments — optical and
electrical repair plans for every failed-chip placement in Slice-3 of the
Figure 6 rack — because that is where fan-out pays: each electrical
repair runs the exhaustive replacement search. Three benches evaluate the
identical spec list serially, across worker processes, and from a warm
:class:`~repro.api.cache.DiskResultCache`, asserting along the way that
all three produce the same results (the engine's byte-identical
contract). perfbench's ``sweep_cold`` workload
(``python3 perfbench/run.py --workload sweep_cold``) measures cold
evaluation end to end.
"""

import json

from _helpers import emit
from repro.api import FailurePlan, ScenarioSpec, figure6_slices, run_many

PLACEMENTS = 8  # failed-chip positions; x2 fabrics = 16 specs
JOBS = 2


def _grid(placements: int = PLACEMENTS) -> list[ScenarioSpec]:
    chips = [(x, y, 0) for x in range(4) for y in range(4)][:placements]
    return [
        ScenarioSpec(
            fabric=fabric,
            slices=figure6_slices(),
            outputs=("repair",),
            failures=FailurePlan(failed_chips=(chip,)),
        )
        for fabric in ("electrical", "photonic")
        for chip in chips
    ]


def _canonical(sweep) -> str:
    return json.dumps(sweep.to_dict(include_timing=False), sort_keys=True)


def test_sweep_serial(benchmark):
    specs = _grid()
    sweep = benchmark.pedantic(
        lambda: run_many(specs, no_cache=True), rounds=1, iterations=1
    )
    assert len(sweep.runs) == len(specs)
    assert sweep.cache_stats.misses == len(specs)
    emit(
        "Sweep engine — serial baseline",
        f"{len(specs)} repair specs in {sweep.wall_clock_s:.2f} s "
        f"({sweep.wall_clock_s / len(specs) * 1e3:.1f} ms/spec)",
    )


def test_sweep_parallel(benchmark):
    specs = _grid()
    serial = run_many(specs, no_cache=True)
    sweep = benchmark.pedantic(
        lambda: run_many(specs, jobs=JOBS, no_cache=True),
        rounds=1,
        iterations=1,
    )
    assert sweep.jobs == JOBS
    assert _canonical(sweep) == _canonical(serial)
    emit(
        f"Sweep engine — {JOBS} worker processes",
        f"{len(specs)} specs in {sweep.wall_clock_s:.2f} s "
        f"(serial: {serial.wall_clock_s:.2f} s, "
        f"speedup {serial.wall_clock_s / sweep.wall_clock_s:.2f}x); "
        "output byte-identical to serial",
    )


def test_sweep_warm_cache(benchmark, tmp_path):
    specs = _grid()
    cold = run_many(specs, cache_dir=tmp_path)
    assert cold.cache_stats.misses == len(specs)
    sweep = benchmark.pedantic(
        lambda: run_many(specs, cache_dir=tmp_path), rounds=1, iterations=1
    )
    assert sweep.cache_stats.hits == len(specs)
    assert sweep.cache_stats.misses == 0
    assert _canonical(sweep) == _canonical(cold)
    emit(
        "Sweep engine — warm persistent cache",
        f"{len(specs)} specs in {sweep.wall_clock_s:.3f} s from disk "
        f"(cold: {cold.wall_clock_s:.2f} s, "
        f"speedup {cold.wall_clock_s / max(sweep.wall_clock_s, 1e-9):.0f}x, "
        f"hit rate {sweep.cache_stats.hit_rate:.0%})",
    )
