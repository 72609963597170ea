"""FabricSession: memoized artifact construction and spec execution.

The session is the single place topology artifacts are built: tori,
slice allocators, electrical interconnects, and full run results are
memoized per spec (specs are frozen and hashable), so sweeps that share a
geometry pay construction once. Mutable artifacts that a run would dirty
(the LIGHTPATH rack fabric during a repair) are deliberately *not*
memoized — backends build those fresh per run.

Usage::

    from repro.api import ScenarioSpec, run, figure5b_slices

    spec = ScenarioSpec(
        fabric="photonic", slices=figure5b_slices(),
        outputs=("costs", "utilization"),
    )
    result = run(spec)
    print(result.costs.by_name("Slice-1").seconds)
"""

from __future__ import annotations

import time
from typing import Iterable

from ..analysis.congestion_report import (
    RackCongestionReport,
    analyze_rack_congestion,
)
from ..analysis.utilization import slice_utilization
from ..kernels import metered
from ..obs.log import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..topology.electrical import ElectricalInterconnect
from ..topology.slices import Slice, SliceAllocator
from ..topology.torus import Torus
from .backends import FabricBackend, UnsupportedOutput, create_backend
from .cache import CacheStats, MemoryResultCache, ResultCache, spec_key
from .result import RunResult, UtilizationRow
from .spec import ScenarioSpec

__all__ = ["FabricSession", "run", "compare", "default_session"]


class FabricSession:
    """Builds and caches the artifacts one or many specs need.

    Evaluated results are stored in a pluggable :class:`ResultCache`
    under the layout-independent content key of the spec
    (:func:`~repro.api.cache.spec_key`), so the in-memory default and a
    persistent :class:`~repro.api.cache.DiskResultCache` agree on what a
    "repeat" is — including across processes and runs.

    Attributes:
        result_cache: where evaluated results are stored; defaults to a
            per-process :class:`~repro.api.cache.MemoryResultCache`.
        runs_executed: specs actually evaluated (cache misses) — lets
            callers verify memoization in sweeps.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            the session reports into (``session.<fabric>.cache_hits``,
            ``.cache_misses`` counters and an ``.eval_seconds``
            histogram per fabric, plus ``kernel.<op>.calls`` /
            ``.seconds`` counters for kernel hot-path time). ``None``
            reports nothing.
        runtime: optional wall-clock :class:`~repro.obs.tracer.Tracer`
            the session emits cache-probe and evaluation spans into (the
            serving tier passes its per-process tracer; defaults to the
            zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`).

    While metrics or tracing is on, each evaluation runs under its own
    kernel registry (:func:`repro.kernels.metered`): the kernel calls it
    makes, and no other thread's, land in ``metrics`` and in the
    ``session.evaluate`` span's args.
        log: optional :class:`~repro.obs.log.EventLog` for the fleet and
            tenancy simulations' ``*.progress`` heartbeats; a result
            served from the cache runs no simulation and sends none.
    """

    def __init__(
        self,
        result_cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        runtime: Tracer | None = None,
        log: EventLog | None = None,
    ) -> None:
        self.runtime = runtime if runtime is not None else NULL_TRACER
        self.log = log
        self._backends: dict[str, FabricBackend] = {}
        self._tori: dict[tuple[int, ...], Torus] = {}
        self._allocators: dict[tuple, SliceAllocator] = {}
        self._electrical: dict[tuple[int, ...], ElectricalInterconnect] = {}
        self._congestion: dict[tuple, RackCongestionReport] = {}
        self.result_cache: ResultCache = (
            result_cache if result_cache is not None else MemoryResultCache()
        )
        self.metrics = metrics
        # Hit/miss/eval-time bookkeeping is kept per fabric so a
        # multi-backend sweep can tell which backend's memoization is
        # actually doing the work; cache_stats() sums for the totals.
        self._per_fabric: dict[str, dict[str, float]] = {}
        self._eval_seconds = 0.0
        self.runs_executed = 0

    def _fabric_stats(self, fabric: str) -> dict[str, float]:
        stats = self._per_fabric.get(fabric)
        if stats is None:
            stats = {"hits": 0, "misses": 0, "eval_seconds": 0.0}
            self._per_fabric[fabric] = stats
        return stats

    # -- memoized artifacts --------------------------------------------------------

    def backend(self, name: str) -> FabricBackend:
        """The backend registered under ``name`` (one instance per session)."""
        if name not in self._backends:
            self._backends[name] = create_backend(name)
        return self._backends[name]

    def torus(self, rack_shape: tuple[int, ...]) -> Torus:
        """The rack torus for ``rack_shape``."""
        if rack_shape not in self._tori:
            self._tori[rack_shape] = Torus(rack_shape)
        return self._tori[rack_shape]

    def electrical(self, rack_shape: tuple[int, ...]) -> ElectricalInterconnect:
        """The electrical interconnect model over the rack torus."""
        if rack_shape not in self._electrical:
            self._electrical[rack_shape] = ElectricalInterconnect(
                self.torus(rack_shape)
            )
        return self._electrical[rack_shape]

    @staticmethod
    def _layout_key(spec: ScenarioSpec) -> tuple:
        return (spec.rack_shape, spec.slices)

    def allocator(self, spec: ScenarioSpec) -> SliceAllocator:
        """The slice allocator with the spec's tenants allocated.

        Memoized per (rack shape, slices); backends must treat it as
        read-only.

        Raises:
            ValueError: when the spec has no slices (nothing to allocate).
        """
        if not spec.slices:
            raise ValueError(f"spec for {spec.fabric!r} declares no slices")
        key = self._layout_key(spec)
        if key not in self._allocators:
            allocator = SliceAllocator(self.torus(spec.rack_shape))
            for entry in spec.slices:
                allocator.allocate(entry.name, entry.shape, entry.offset)
            self._allocators[key] = allocator
        return self._allocators[key]

    def slices(self, spec: ScenarioSpec) -> list[Slice]:
        """The spec's slices in allocation order."""
        allocator = self.allocator(spec)
        by_name = {slc.name: slc for slc in allocator.slices}
        return [by_name[entry.name] for entry in spec.slices]

    def slice_of_chip(self, spec: ScenarioSpec, chip: tuple[int, ...]) -> Slice:
        """The tenant slice containing ``chip``.

        Raises:
            ValueError: when no slice contains the chip.
        """
        for slc in self.allocator(spec).slices:
            if slc.contains(chip):
                return slc
        raise ValueError(f"no slice of the spec contains chip {chip}")

    def rack_congestion(self, spec: ScenarioSpec) -> RackCongestionReport:
        """Cross-tenant ring congestion for the spec's layout (memoized)."""
        key = self._layout_key(spec)
        if key not in self._congestion:
            self._congestion[key] = analyze_rack_congestion(self.allocator(spec))
        return self._congestion[key]

    # -- execution ---------------------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunResult:
        """Evaluate ``spec``, returning the cached result on a repeat.

        Raises:
            KeyError: for an unregistered fabric name.
            UnsupportedOutput: when the backend cannot produce a section.
        """
        key = spec_key(spec)
        runtime = self.runtime
        probe_start = runtime.now() if runtime.enabled else 0.0
        cached = self.result_cache.get(key)
        if runtime.enabled:
            runtime.complete(
                "session.cache_probe",
                "session",
                probe_start,
                runtime.now(),
                args={
                    "fabric": spec.fabric,
                    "outcome": "hit" if cached is not None else "miss",
                },
            )
        if cached is not None:
            self._fabric_stats(spec.fabric)["hits"] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    f"session.{spec.fabric}.cache_hits"
                ).inc()
            return cached
        backend = self.backend(spec.fabric)
        methods = {
            "capabilities": "capability_rows",
            "costs": "cost_report",
            "congestion": "congestion",
            "telemetry": "telemetry",
            "link_utilization": "link_utilization",
            "repair": "repair",
            "blast_radius": "blast_radius",
            "device": "device_report",
            "trace": "trace",
            "metrics": "metrics",
            "fleet": "fleet_report",
            "tenancy": "tenancy_report",
        }
        started = time.perf_counter()
        eval_start = runtime.now() if runtime.enabled else 0.0
        kernels = (
            MetricsRegistry()
            if self.metrics is not None or runtime.enabled
            else None
        )
        refusals = getattr(backend, "refusals", {})
        sections: dict[str, object] = {}
        with metered(kernels):
            for output in spec.outputs:
                if output == "utilization":
                    sections["utilization"] = self._utilization(spec)
                    continue
                if output in refusals:
                    raise UnsupportedOutput(refusals[output])
                method = getattr(backend, methods[output], None)
                if method is None:
                    raise UnsupportedOutput(
                        f"backend {spec.fabric!r} does not implement the"
                        f" {output!r} output"
                    )
                sections[output] = method(self, spec)
        result = RunResult(spec=spec, fabric=backend.name, **sections)
        elapsed = time.perf_counter() - started
        kernel_time = (
            {name: kernels.counter(name).value for name in kernels.names()}
            if kernels is not None
            else {}
        )
        if runtime.enabled:
            runtime.complete(
                "session.evaluate",
                "session",
                eval_start,
                runtime.now(),
                args={
                    "fabric": spec.fabric,
                    "outputs": len(spec.outputs),
                    **{
                        name: int(value) if name.endswith(".calls") else round(value, 9)
                        for name, value in kernel_time.items()
                    },
                },
            )
        self._eval_seconds += elapsed
        stats = self._fabric_stats(spec.fabric)
        stats["misses"] += 1
        stats["eval_seconds"] += elapsed
        if self.metrics is not None:
            for name, value in kernel_time.items():
                self.metrics.counter(name).inc(value)
            self.metrics.counter(f"session.{spec.fabric}.cache_misses").inc()
            self.metrics.histogram(
                f"session.{spec.fabric}.eval_seconds"
            ).observe(elapsed)
        self.runs_executed += 1
        self.result_cache.put(key, result)
        return result

    def cache_stats(self) -> CacheStats:
        """Result-cache counters and evaluation seconds so far.

        Totals sum over every fabric the session evaluated;
        ``per_backend`` breaks hits/misses out by fabric name, so a
        multi-backend sweep can see whose memoization is working rather
        than one conflated counter.
        """
        return CacheStats(
            hits=int(sum(s["hits"] for s in self._per_fabric.values())),
            misses=int(sum(s["misses"] for s in self._per_fabric.values())),
            eval_seconds=self._eval_seconds,
            per_backend={
                fabric: {
                    "hits": int(stats["hits"]),
                    "misses": int(stats["misses"]),
                }
                for fabric, stats in sorted(self._per_fabric.items())
            },
        )

    def _utilization(self, spec: ScenarioSpec) -> tuple[UtilizationRow, ...]:
        """Figure 5c rows: both interconnects side by side, sorted by name."""
        rows = []
        for slc in sorted(self.allocator(spec).slices, key=lambda s: s.name):
            u = slice_utilization(slc)
            rows.append(
                UtilizationRow(
                    name=u.name,
                    shape=u.shape,
                    chips=u.chips,
                    electrical_fraction=u.electrical_fraction,
                    optical_fraction=u.optical_fraction,
                    electrical_bandwidth_bytes=u.electrical_bandwidth_bytes,
                    optical_bandwidth_bytes=u.optical_bandwidth_bytes,
                )
            )
        return tuple(rows)

    def compare(
        self,
        spec: ScenarioSpec,
        fabrics: Iterable[str] = ("electrical", "photonic"),
    ) -> dict[str, RunResult]:
        """Evaluate the same scenario on several backends.

        Topology artifacts are shared through the session caches, so a
        comparison costs one topology build plus one evaluation per
        fabric.
        """
        return {fabric: self.run(spec.with_fabric(fabric)) for fabric in fabrics}


_DEFAULT_SESSION = FabricSession()


def default_session() -> FabricSession:
    """The process-wide session behind :func:`run` and :func:`compare`."""
    return _DEFAULT_SESSION


def run(spec: ScenarioSpec, session: FabricSession | None = None) -> RunResult:
    """Evaluate ``spec`` on the default (or a provided) session."""
    return (session or _DEFAULT_SESSION).run(spec)


def compare(
    spec: ScenarioSpec,
    fabrics: Iterable[str] = ("electrical", "photonic"),
    session: FabricSession | None = None,
) -> dict[str, RunResult]:
    """Evaluate the same scenario on several backends (default session)."""
    return (session or _DEFAULT_SESSION).compare(spec, fabrics)
