"""Batch execution: evaluate many scenarios in parallel, cached on disk.

The paper's headline numbers come from sweeping scenario variants —
slice shapes, buffer sizes, failure placements — and a sweep is
embarrassingly parallel: every :class:`~repro.api.spec.ScenarioSpec` is
frozen, picklable and independent. :func:`run_many` deduplicates the
specs, fans the unique ones across a ``ProcessPoolExecutor`` (each
worker holds one long-lived :class:`~repro.api.session.FabricSession`
so topology artifacts amortize across its chunk), and merges everything
back into an ordered :class:`SweepResult` with per-spec timing.

Workers and serial runs alike can sit on a persistent
:class:`~repro.api.cache.DiskResultCache`, so a repeated sweep — or a CI
re-run on unchanged code — hits disk instead of recomputing. Atomic
entry writes make a shared cache directory safe under concurrency.

:class:`SweepPlan` is the declarative grid the CLI exposes: fabrics ×
slice shapes × buffer sizes, expanded in a deterministic order.

Usage::

    from repro.api import SweepPlan, run_many

    plan = SweepPlan(buffer_bytes=(1 << 20, 1 << 26, 1 << 30))
    sweep = run_many(plan.specs(), jobs=4, cache_dir="~/.cache/repro")
    for row in sweep.runs:
        print(row.spec.fabric, row.result.costs.slices[0].seconds)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..obs.metrics import MetricsRegistry
from .cache import (
    CacheStats,
    DiskResultCache,
    NullResultCache,
    ResultCache,
    spec_key,
)
from .codec import Record
from .result import RunResult
from .session import FabricSession
from .spec import ScenarioSpec, SliceSpec

__all__ = ["SweepPlan", "SpecRun", "SweepResult", "run_many"]


def _chip_count(shape: Sequence[int]) -> int:
    count = 1
    for extent in shape:
        count *= int(extent)
    return count


@dataclass(frozen=True)
class SweepPlan(Record):
    """A declarative sweep grid: fabrics × slice shapes × buffer sizes.

    Expansion order is deterministic (fabric-major, then shape, then
    buffer), so two plans with equal axes produce identical spec lists —
    the property the CLI's byte-identical serial/parallel check rests on.

    Attributes:
        fabrics: backend names to evaluate each point on.
        slice_shapes: single-tenant slice shapes placed at the rack origin.
        buffer_bytes: per-tenant collective buffer sizes.
        rack_shape: the rack torus every point shares.
        outputs: result sections each spec requests.
        mode: ``"closed_form"`` or ``"sim"``.
    """

    fabrics: tuple[str, ...] = ("electrical", "photonic")
    slice_shapes: tuple[tuple[int, ...], ...] = (
        (4, 2, 1),
        (4, 4, 1),
        (4, 4, 2),
    )
    buffer_bytes: tuple[int, ...] = (1 << 26,)
    rack_shape: tuple[int, ...] = (4, 4, 4)
    outputs: tuple[str, ...] = ("costs",)
    mode: str = "closed_form"

    def __post_init__(self) -> None:
        object.__setattr__(self, "fabrics", tuple(self.fabrics))
        object.__setattr__(
            self,
            "slice_shapes",
            tuple(tuple(int(s) for s in shape) for shape in self.slice_shapes),
        )
        object.__setattr__(
            self, "buffer_bytes", tuple(int(b) for b in self.buffer_bytes)
        )
        object.__setattr__(
            self, "rack_shape", tuple(int(s) for s in self.rack_shape)
        )
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.fabrics or not self.slice_shapes or not self.buffer_bytes:
            raise ValueError("every sweep axis needs at least one value")
        single = [s for s in self.slice_shapes if _chip_count(s) < 2]
        if single:
            raise ValueError(
                f"slice shapes {single} have a single chip — no collective "
                "to sweep; see slice_shape_sweep for skip reporting"
            )

    @property
    def size(self) -> int:
        """Number of grid points."""
        return (
            len(self.fabrics) * len(self.slice_shapes) * len(self.buffer_bytes)
        )

    def specs(self) -> tuple[ScenarioSpec, ...]:
        """The grid expanded to specs, fabric-major."""
        origin = tuple(0 for _ in self.rack_shape)
        return tuple(
            ScenarioSpec(
                fabric=fabric,
                rack_shape=self.rack_shape,
                slices=(SliceSpec("sweep", shape, origin),),
                buffer_bytes=buffer,
                mode=self.mode,
                outputs=self.outputs,
            )
            for fabric in self.fabrics
            for shape in self.slice_shapes
            for buffer in self.buffer_bytes
        )


@dataclass(frozen=True)
class SpecRun:
    """One sweep row: a spec, its result, and how it was obtained.

    Attributes:
        spec: the evaluated spec.
        result: its run result.
        elapsed_s: wall-clock seconds this row took in its process
            (0.0 for duplicates folded by deduplication).
        from_cache: whether the result came from a cache instead of a
            fresh evaluation.
        worker: OS pid of the process that evaluated the row (the parent
            pid for serial runs and deduplicated rows).
    """

    spec: ScenarioSpec
    result: RunResult
    elapsed_s: float
    from_cache: bool
    worker: int = 0


@dataclass(frozen=True)
class SweepResult:
    """Ordered results of one :func:`run_many` call.

    Attributes:
        runs: one row per *input* spec, in input order (duplicates share
            their first occurrence's result).
        wall_clock_s: end-to-end sweep duration.
        jobs: worker processes used (1 = serial, in-process).
        unique_specs: specs actually dispatched after deduplication.
    """

    runs: tuple[SpecRun, ...]
    wall_clock_s: float
    jobs: int
    unique_specs: int

    @property
    def results(self) -> tuple[RunResult, ...]:
        """Just the results, in input order."""
        return tuple(row.result for row in self.runs)

    def timing_records(self) -> list[dict[str, Any]]:
        """One JSON-safe timing record per row, in input order.

        This is the machine-readable form of the sweep's progress
        reporting — the CLI emits one record per stderr line so scripts
        can parse per-spec timing without scraping prose. Fields are
        scalars only: spec position, fabric/mode, the content key
        (truncated to 12 hex chars, enough to join against cache
        entries), elapsed seconds, cache provenance and the worker pid.
        """
        return [
            {
                "spec_index": index,
                "fabric": row.spec.fabric,
                "mode": row.spec.mode,
                "spec_key": spec_key(row.spec)[:12],
                "elapsed_s": round(row.elapsed_s, 6),
                "from_cache": row.from_cache,
                "worker": row.worker,
            }
            for index, row in enumerate(self.runs)
        ]

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss view over the sweep's rows (duplicates count as hits)."""
        stats = CacheStats()
        for row in self.runs:
            if row.from_cache:
                stats.hits += 1
            else:
                stats.misses += 1
                stats.eval_seconds += row.elapsed_s
        return stats

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        """JSON-safe form; ``include_timing=False`` drops every
        non-deterministic field so serial and parallel sweeps of the same
        specs serialize byte-identically."""
        rows = []
        for row in self.runs:
            entry: dict[str, Any] = {"result": row.result.to_dict()}
            if include_timing:
                entry["elapsed_s"] = row.elapsed_s
                entry["from_cache"] = row.from_cache
            rows.append(entry)
        data: dict[str, Any] = {
            "spec_count": len(self.runs),
            "unique_specs": self.unique_specs,
            "runs": rows,
        }
        if include_timing:
            data["wall_clock_s"] = self.wall_clock_s
            data["jobs"] = self.jobs
            data["cache"] = self.cache_stats.to_dict()
        return data


def _make_cache(
    cache_dir: str | Path | None, no_cache: bool
) -> ResultCache | None:
    if no_cache:
        return NullResultCache()
    if cache_dir is not None:
        return DiskResultCache(Path(cache_dir).expanduser())
    return None  # session default: per-process memory cache


# One long-lived session per worker process: topology artifacts (tori,
# allocators, congestion reports) amortize across every spec the worker
# evaluates, mirroring what a serial session gets for free.
_WORKER_SESSION: FabricSession | None = None


def _worker_init(cache_dir: str | None, no_cache: bool) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION = FabricSession(
        result_cache=_make_cache(cache_dir, no_cache)
    )


def _evaluate(
    session: FabricSession, spec: ScenarioSpec
) -> tuple[RunResult, float, bool, int]:
    """One spec on ``session``: the result, the seconds it took, whether
    the session's cache served it, and the evaluating pid."""
    hits_before = session.cache_stats().hits
    started = time.perf_counter()
    result = session.run(spec)
    elapsed = time.perf_counter() - started
    return result, elapsed, session.cache_stats().hits > hits_before, os.getpid()


def _worker_eval(spec: ScenarioSpec) -> tuple[RunResult, float, bool, int]:
    assert _WORKER_SESSION is not None, "worker used without initialization"
    return _evaluate(_WORKER_SESSION, spec)


def run_many(
    specs: Iterable[ScenarioSpec],
    *,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    session: FabricSession | None = None,
    chunksize: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> SweepResult:
    """Evaluate many specs, deduplicated, optionally in parallel + cached.

    Args:
        jobs: worker processes; ``None`` or ``1`` evaluates serially in
            this process, ``0`` uses every available CPU.
        cache_dir: directory of a persistent
            :class:`~repro.api.cache.DiskResultCache` shared by all
            workers (and future sweeps). ``None`` keeps results
            process-local.
        no_cache: bypass persistent cache reads *and* writes (takes
            precedence over ``cache_dir``).
        session: evaluate on this session instead (serial only) — lets
            sweeps share artifacts with surrounding code. Mutually
            exclusive with ``jobs > 1``.
        chunksize: specs per worker dispatch; defaults to spreading the
            unique specs ~4 chunks per worker (small specs dominate, so
            chunking matters more than balance).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            the sweep reports into — spec/hit counters, per-stage
            timing gauges (``sweep.plan_seconds``,
            ``sweep.evaluate_seconds``, ``sweep.merge_seconds``) and a
            ``sweep.spec_elapsed_s`` histogram. Purely observational:
            ``None`` (the default) records nothing and changes nothing.

    Returns:
        A :class:`SweepResult` with one row per input spec, in input
        order. Results are byte-identical (as JSON) whether evaluated
        serially, in parallel, or from a warm cache.

    Raises:
        ValueError: for a parallel run with an explicit ``session``.
        Exception: the first evaluation error, re-raised from workers.
    """
    ordered = list(specs)
    started = time.perf_counter()
    unique = list(dict.fromkeys(ordered))
    jobs = 1 if jobs is None else int(jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs cannot be negative, got {jobs}")
    jobs = max(1, min(jobs, len(unique) or 1))
    planned = time.perf_counter()

    if jobs == 1:
        if session is None:
            session = FabricSession(
                result_cache=_make_cache(cache_dir, no_cache)
            )
        evaluated = [_evaluate(session, spec) for spec in unique]
    else:
        if session is not None:
            raise ValueError(
                "session sharing is per-process; drop the session argument "
                "or run with jobs=1"
            )
        if chunksize is None:
            chunksize = max(1, len(unique) // (jobs * 4))
        cache_arg = (
            str(Path(cache_dir).expanduser()) if cache_dir is not None else None
        )
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_worker_init,
            initargs=(cache_arg, no_cache),
        ) as pool:
            evaluated = list(
                pool.map(_worker_eval, unique, chunksize=chunksize)
            )
    evaluated_at = time.perf_counter()

    by_spec = dict(zip(unique, evaluated))
    parent = os.getpid()
    runs = []
    seen: set[ScenarioSpec] = set()
    for spec in ordered:
        result, elapsed, from_cache, worker = by_spec[spec]
        if spec in seen:
            # A duplicate folded by dedup: served from the first
            # occurrence, no additional work in any worker.
            runs.append(SpecRun(spec, result, 0.0, True, parent))
        else:
            seen.add(spec)
            runs.append(SpecRun(spec, result, elapsed, from_cache, worker))
    sweep = SweepResult(
        runs=tuple(runs),
        wall_clock_s=time.perf_counter() - started,
        jobs=jobs,
        unique_specs=len(unique),
    )
    if metrics is not None:
        _record_sweep_metrics(
            metrics,
            sweep,
            plan_s=planned - started,
            evaluate_s=evaluated_at - planned,
            merge_s=time.perf_counter() - evaluated_at,
        )
    return sweep


def _record_sweep_metrics(
    metrics: MetricsRegistry,
    sweep: SweepResult,
    *,
    plan_s: float,
    evaluate_s: float,
    merge_s: float,
) -> None:
    """Report one finished sweep into ``metrics``.

    Stage gauges decompose the wall clock: planning (dedup + job
    sizing), evaluation (serial loop or pool map — for parallel runs
    this includes worker startup and result-queue wait), and the merge
    back into input order. Evaluation time spent *inside* specs is the
    ``sweep.spec_elapsed_s`` histogram; the gap between the evaluate
    gauge and the histogram total is scheduling overhead.
    """
    metrics.counter("sweep.specs").inc(len(sweep.runs))
    metrics.counter("sweep.unique_specs").inc(sweep.unique_specs)
    stats = sweep.cache_stats
    metrics.counter("sweep.cache_hits").inc(stats.hits)
    metrics.counter("sweep.cache_misses").inc(stats.misses)
    metrics.gauge("sweep.jobs").set(sweep.jobs)
    metrics.gauge("sweep.workers_used").set(
        len({row.worker for row in sweep.runs})
    )
    metrics.gauge("sweep.plan_seconds").set(plan_s)
    metrics.gauge("sweep.evaluate_seconds").set(evaluate_s)
    metrics.gauge("sweep.merge_seconds").set(merge_s)
    metrics.gauge("sweep.wall_clock_s").set(sweep.wall_clock_s)
    metrics.gauge("sweep.scheduling_overhead_s").set(
        max(0.0, evaluate_s - sum(r.elapsed_s for r in sweep.runs))
    )
    spec_hist = metrics.histogram("sweep.spec_elapsed_s")
    for row in sweep.runs:
        spec_hist.observe(row.elapsed_s)
