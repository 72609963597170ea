"""Typed run results — the output side of the experiment API.

A :class:`RunResult` packages everything one :class:`~repro.api.spec.
ScenarioSpec` evaluation produced: symbolic collective costs grounded in
seconds, congestion analysis, simulator telemetry, repair plans, fleet
blast-radius comparisons, bandwidth-utilization rows, and device-level
physical reports. Every section is an optional typed dataclass, and the
whole result round-trips through JSON via ``to_dict``/``from_dict`` so
runs can be archived and compared across backends and code versions.
Each section is a :class:`~repro.api.codec.Record`: its JSON form
follows from its annotated fields by the codec's one rule. A section
that reports a model's run nests the record the model returns (a plain
frozen dataclass: :class:`~repro.sim.runner.ScheduleResult`,
:class:`~repro.failures.blast_radius.BlastRadiusReport`,
:class:`~repro.fleet.simulator.FleetPolicyReport`,
:class:`~repro.tenancy.simulator.TenancyPolicyReport`), which the codec
encodes by the same rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..collectives.cost_model import CollectiveCost
from ..failures.blast_radius import BlastRadiusReport
from ..fleet.simulator import FleetPolicyReport, FleetSeriesPoint
from ..obs.tracer import TraceEvent, Tracer, chrome_trace, select
from ..sim.runner import ScheduleResult
from ..tenancy.simulator import TenancyPolicyReport, TenancySeriesPoint
from .codec import OPTIONAL, Record, decode, encode
from .spec import ScenarioSpec

__all__ = [
    "SliceCost",
    "CostReport",
    "UtilizationRow",
    "SharedLinkLine",
    "CongestionSummary",
    "TelemetryReport",
    "LinkLoadLine",
    "LinkUtilizationReport",
    "CircuitLine",
    "AttemptLine",
    "RepairReport",
    "BlastRadiusSummary",
    "FleetSeriesPoint",
    "FleetPolicyReport",
    "FleetReport",
    "TenancySeriesPoint",
    "TenancyPolicyReport",
    "TenancyReport",
    "DeviceReport",
    "TraceReport",
    "MetricLine",
    "MetricsReport",
    "RunResult",
]


@dataclass(frozen=True)
class SliceCost(Record):
    """Collective cost of one tenant under the spec's backend.

    Attributes:
        slice_name: tenant label.
        shape: slice shape.
        chips: chip count.
        cost: total symbolic alpha-beta-r cost.
        stages: per-stage costs (one entry for single-ring strategies,
            one per bucket dimension otherwise) — the rows of Table 2.
        seconds: total cost grounded at the spec's ``buffer_bytes``.
    """

    slice_name: str
    shape: tuple[int, ...]
    chips: int
    cost: CollectiveCost
    stages: tuple[CollectiveCost, ...]
    seconds: float


@dataclass(frozen=True)
class CostReport(Record):
    """Per-slice collective costs for one backend."""

    interconnect: str
    buffer_bytes: int
    slices: tuple[SliceCost, ...]

    def by_name(self, slice_name: str) -> SliceCost:
        """The cost line of ``slice_name``.

        Raises:
            KeyError: when the slice is not in the report.
        """
        for line in self.slices:
            if line.slice_name == slice_name:
                return line
        raise KeyError(slice_name)


@dataclass(frozen=True)
class UtilizationRow(Record):
    """Usable per-chip bandwidth of one slice (Figure 5c series)."""

    name: str
    shape: tuple[int, ...]
    chips: int
    electrical_fraction: float
    optical_fraction: float
    electrical_bandwidth_bytes: float
    optical_bandwidth_bytes: float

    @property
    def bandwidth_loss_percent(self) -> float:
        """Percent of chip bandwidth the electrical slice strands."""
        return (1.0 - self.electrical_fraction) * 100.0


@dataclass(frozen=True)
class SharedLinkLine(Record):
    """One physical link shared by multiple tenants' rings."""

    src: tuple[int, ...]
    dst: tuple[int, ...]
    users: tuple[str, ...]


@dataclass(frozen=True)
class CongestionSummary(Record):
    """Link-sharing (or switch-contention) analysis of the scenario.

    Attributes:
        congestion_free: whether no physical resource is shared.
        shared_links: links carrying multiple tenants (torus fabrics).
        worst_multiplicity: most users on one link (1 = none).
        per_slice_congested_dims: dimensions whose rings are congested.
        contention_loss_fraction: throughput lost to host contention
            (switched fabrics; ``None`` for torus fabrics).
    """

    congestion_free: bool
    shared_links: tuple[SharedLinkLine, ...] = ()
    worst_multiplicity: int = 1
    per_slice_congested_dims: dict[str, tuple[int, ...]] | None = None
    contention_loss_fraction: float | None = None


@dataclass(frozen=True)
class TelemetryReport(Record):
    """Simulator measurements for the whole scenario.

    Attributes:
        schedules: per-tenant measured runs, as the simulator's runner
            returns them (torus fabrics).
        aggregate_throughput_bytes: achieved switch throughput under the
            all-to-all pattern (switched fabrics; ``None`` otherwise).
        ideal_throughput_bytes: contention-free switch throughput.
    """

    schedules: tuple[ScheduleResult, ...] = ()
    aggregate_throughput_bytes: float | None = None
    ideal_throughput_bytes: float | None = None


@dataclass(frozen=True)
class LinkLoadLine(Record):
    """Measured load on one torus link over the run horizon.

    Attributes:
        src: link source chip.
        dst: link destination chip.
        dimension: torus dimension the link runs along.
        carried_bytes: bytes the link actually moved.
        mean_utilization: carried bytes over capacity x horizon.
        peak_utilization: highest instantaneous rate over capacity.
    """

    src: tuple[int, ...]
    dst: tuple[int, ...]
    dimension: int
    carried_bytes: float
    mean_utilization: float
    peak_utilization: float


#: Relative carried-bytes slack under which a link counts as idle; mirrors
#: ``repro.sim.telemetry.IDLE_TOLERANCE`` (summed float integrals are never
#: compared against exact zero).
_IDLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LinkUtilizationReport(Record):
    """Measured per-link load for the whole scenario — the stranded-
    bandwidth story (Figure 5c) told from the simulator rather than
    closed form.

    Attributes:
        horizon_s: time span the utilizations are normalized over (the
            last tenant's finish time).
        link_capacity_bytes_per_s: the uniform per-link capacity the
            fabric charges.
        mean_utilization: capacity-weighted mean over every rack link.
        links: per-link load lines, deterministically ordered by
            (src, dst).
    """

    horizon_s: float
    link_capacity_bytes_per_s: float
    mean_utilization: float
    links: tuple[LinkLoadLine, ...]

    def idle_links(
        self, tolerance: float = _IDLE_TOLERANCE
    ) -> tuple[LinkLoadLine, ...]:
        """Links that carried ~nothing — the stranded bandwidth.

        A link is idle when its carried bytes are at most ``tolerance``
        times the busiest link's.
        """
        threshold = tolerance * max(
            (line.carried_bytes for line in self.links), default=0.0
        )
        return tuple(
            line for line in self.links if line.carried_bytes <= threshold
        )

    @property
    def stranded_fraction(self) -> float:
        """Fraction of rack links (uniform capacity) that sat idle."""
        if not self.links:
            return 0.0
        return len(self.idle_links()) / len(self.links)

    def busiest(self, top: int = 5) -> tuple[LinkLoadLine, ...]:
        """The ``top`` links by carried bytes, descending."""
        ranked = sorted(
            self.links,
            key=lambda line: (-line.carried_bytes, line.src, line.dst),
        )
        return tuple(ranked[:top])

    def mean_utilization_by_dimension(self) -> dict[int, float]:
        """Mean link utilization grouped by torus dimension."""
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for line in self.links:
            sums[line.dimension] = sums.get(line.dimension, 0.0) + (
                line.mean_utilization
            )
            counts[line.dimension] = counts.get(line.dimension, 0) + 1
        return {d: sums[d] / counts[d] for d in sorted(sums)}

    def idle_fraction_by_dimension(
        self, tolerance: float = _IDLE_TOLERANCE
    ) -> dict[int, float]:
        """Fraction of each dimension's links that sat idle."""
        idle = set()
        for line in self.idle_links(tolerance):
            idle.add((line.src, line.dst))
        totals: dict[int, int] = {}
        idles: dict[int, int] = {}
        for line in self.links:
            totals[line.dimension] = totals.get(line.dimension, 0) + 1
            if (line.src, line.dst) in idle:
                idles[line.dimension] = idles.get(line.dimension, 0) + 1
        return {
            d: idles.get(d, 0) / totals[d] for d in sorted(totals)
        }

    #: Views for human readers: written after the fields, recomputed —
    #: not read back — so the round trip stays exact.
    _derived = {
        "idle_links": lambda report: [
            {"src": line.src, "dst": line.dst} for line in report.idle_links()
        ],
        "stranded_fraction": lambda report: report.stranded_fraction,
        "busiest": lambda report: report.busiest(),
    }


@dataclass(frozen=True)
class CircuitLine(Record):
    """One established repair circuit (optical repair, Figure 7)."""

    src: tuple[int, ...]
    dst: tuple[int, ...]
    server_path: tuple[tuple[int, ...], ...]
    fiber_hops: int


@dataclass(frozen=True)
class AttemptLine(Record):
    """One candidate free chip evaluated as an electrical replacement."""

    free_chip: tuple[int, ...]
    feasible: bool
    congested_links: int


@dataclass(frozen=True)
class RepairReport(Record):
    """Outcome of repairing the spec's failed chip on this fabric.

    Attributes:
        kind: ``"optical"`` (circuit splice, Figure 7) or
            ``"electrical"`` (replacement-path analysis, Figure 6a).
        failed: the failed chip.
        feasible: whether a congestion-free repair exists.
        replacement: the spare spliced in (optical; best effort for
            electrical reports it stays ``None``).
        circuits: established circuits (optical).
        setup_latency_s: time to bring the repair up (optical).
        fibers_used: fibers consumed (optical).
        blast_radius_chips: chips lost after repair (optical).
        attempts: per-free-chip evaluations (electrical).
    """

    kind: str
    failed: tuple[int, ...]
    feasible: bool
    replacement: tuple[int, ...] | None = None
    circuits: tuple[CircuitLine, ...] = ()
    setup_latency_s: float = 0.0
    fibers_used: int = 0
    blast_radius_chips: int = 0
    attempts: tuple[AttemptLine, ...] = ()


@dataclass(frozen=True)
class BlastRadiusSummary(Record):
    """Rack-migration vs optical-repair comparison (Section 4.2): the two
    reports :func:`~repro.failures.blast_radius.compare_policies` makes."""

    days: float
    rack_policy: BlastRadiusReport
    optical_policy: BlastRadiusReport
    improvement_factor: float


@dataclass(frozen=True)
class FleetReport(Record):
    """Electrical vs photonic fleet reliability (the ``"fleet"`` output).

    Both fabrics simulate the same seeded failure renewal process under
    the same dispatch policy; the gap between their availabilities is the
    year-scale version of the paper's Section 4.2 blast-radius argument.

    Attributes:
        days: simulated span.
        chips: fleet size.
        seed: renewal-process seed.
        policy: dispatch policy both runs used.
        electrical: the rack-migration fabric's measured span.
        photonic: the LIGHTPATH fabric's measured span.

    Raises:
        ValueError: when a fabric's capacity low or failure peak exceeds
            the fleet size (each report checks its own counts).
    """

    days: float
    chips: int
    seed: int
    policy: str
    electrical: FleetPolicyReport
    photonic: FleetPolicyReport

    def __post_init__(self) -> None:
        for section in (self.electrical, self.photonic):
            for name in ("min_available_chips", "peak_failed_chips"):
                if getattr(section, name) > self.chips:
                    raise ValueError(
                        f"{section.fabric} {name} {getattr(section, name)} "
                        f"outside [0, {self.chips}]"
                    )

    @property
    def availability_gap(self) -> float:
        """Photonic minus electrical mean availability."""
        return (
            self.photonic.mean_availability
            - self.electrical.mean_availability
        )

    @property
    def downtime_reduction_factor(self) -> float:
        """Electrical over photonic lost chip-seconds (inf when 0)."""
        if self.photonic.lost_chip_seconds == 0:
            return float("inf")
        return (
            self.electrical.lost_chip_seconds
            / self.photonic.lost_chip_seconds
        )

    #: The gap figures, written for human readers and recomputed on read.
    _derived = {
        "availability_gap": lambda report: report.availability_gap,
        "downtime_reduction_factor": (
            lambda report: report.downtime_reduction_factor
        ),
    }


@dataclass(frozen=True)
class TenancyReport(Record):
    """Electrical vs photonic scheduling quality (``"tenancy"`` output).

    Both fabrics place the same seeded job stream under the same base
    policy; only the photonic run may steer wavelengths. The gaps are
    the dynamic version of the paper's Section 4.1 provisioning
    argument: flexibility converts fragmentation into placements.

    Attributes:
        days: simulated span.
        chips: cluster size.
        seed: workload seed.
        policy: base placement policy both runs used.
        profile: arrival profile.
        electrical: the static fabric's measured span.
        photonic: the steerable fabric's measured span.
    """

    days: float
    chips: int
    seed: int
    policy: str
    profile: str
    electrical: TenancyPolicyReport
    photonic: TenancyPolicyReport

    @property
    def queue_delay_gap_s(self) -> float:
        """Electrical minus photonic mean queueing delay."""
        return (
            self.electrical.queue_delay_mean_s
            - self.photonic.queue_delay_mean_s
        )

    @property
    def rejection_gap(self) -> float:
        """Electrical minus photonic rejection rate."""
        return self.electrical.rejection_rate - self.photonic.rejection_rate

    @property
    def stranded_reduction_factor(self) -> float:
        """Electrical over photonic stranded chip-seconds (inf when 0)."""
        if self.photonic.stranded_chip_seconds == 0:
            return float("inf")
        return (
            self.electrical.stranded_chip_seconds
            / self.photonic.stranded_chip_seconds
        )

    #: The gap figures, written for human readers and recomputed on read.
    _derived = {
        "queue_delay_gap_s": lambda report: report.queue_delay_gap_s,
        "rejection_gap": lambda report: report.rejection_gap,
        "stranded_reduction_factor": (
            lambda report: report.stranded_reduction_factor
        ),
    }


@dataclass(frozen=True)
class DeviceReport(Record):
    """Physical-layer device characterization (Figures 3a/3b)."""

    mzi_tau_s: float
    mzi_settling_s: float
    stitch_bin_edges_db: tuple[float, ...]
    stitch_counts: tuple[int, ...]
    stitch_mean_db: float
    stitch_p95_db: float


@dataclass(frozen=True)
class TraceReport(Record):
    """The scenario's event timeline (the ``"trace"`` output).

    Events come from a :class:`~repro.obs.tracer.Tracer` the backend
    threads through the simulator run, plus the failure-recovery
    timeline when the spec injects failures. Timestamps are simulation
    microseconds, so the report is fully deterministic and
    golden-testable.

    Attributes:
        time_unit: timestamp unit (always ``"us"``).
        events: every recorded event, in emission order.
    """

    time_unit: str = "us"
    events: tuple[TraceEvent, ...] = ()

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceReport":
        return cls(events=tracer.events)

    def spans(self, cat: str | None = None) -> tuple[TraceEvent, ...]:
        """Complete spans, optionally filtered by category."""
        return select(self.events, "X", cat)

    def instants(self, cat: str | None = None) -> tuple[TraceEvent, ...]:
        """Instant events, optionally filtered by category."""
        return select(self.events, "i", cat)

    def categories(self) -> tuple[str, ...]:
        """Event categories present, sorted (metadata excluded)."""
        return tuple(
            sorted({e.cat for e in self.events if e.ph != "M"})
        )

    def filtered(self, categories: set[str] | frozenset[str]) -> "TraceReport":
        """The report restricted to ``categories`` (metadata kept)."""
        return TraceReport(
            events=tuple(
                e for e in self.events
                if e.ph == "M" or e.cat in categories
            ),
            time_unit=self.time_unit,
        )

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome/Perfetto ``trace_event`` JSON object, ordered as a
        sim-time :class:`~repro.obs.tracer.Tracer` exports it."""
        return chrome_trace(self.events)


@dataclass(frozen=True)
class MetricLine(Record):
    """One named metric value (the rows of a :class:`MetricsReport`).

    Attributes:
        name: dotted metric name (``"sim.flows_completed"``).
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        value: the counter total / gauge value / histogram mean.
        count: observation count (histograms; 0 otherwise).
    """

    name: str
    kind: str
    value: float
    count: int = 0


@dataclass(frozen=True)
class MetricsReport(Record):
    """Deterministic simulator counters (the ``"metrics"`` output).

    Entries are sorted by name, and every value derives from simulation
    state (event counts, sim-time durations) — never wall clock — so the
    report is byte-stable across runs and machines.
    """

    entries: tuple[MetricLine, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(self.entries, key=lambda line: line.name)),
        )

    def value(self, name: str) -> float:
        """The value of metric ``name``.

        Raises:
            KeyError: for an unknown metric name.
        """
        for line in self.entries:
            if line.name == name:
                return line.value
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        """Metric names, sorted."""
        return tuple(line.name for line in self.entries)

    @classmethod
    def from_registry(cls, registry: Any) -> "MetricsReport":
        """Build from a :class:`~repro.obs.metrics.MetricsRegistry`.

        Histograms keep their mean as the value and their observation
        count; counters and gauges carry their value directly.
        """
        entries = []
        for name, snap in registry.snapshot().items():
            if snap["kind"] == "histogram":
                entries.append(
                    MetricLine(
                        name=name,
                        kind="histogram",
                        value=snap["mean"],
                        count=snap["count"],
                    )
                )
            else:
                entries.append(
                    MetricLine(name=name, kind=snap["kind"], value=snap["value"])
                )
        return cls(entries=tuple(entries))


@dataclass(frozen=True)
class RunResult(Record):
    """Everything one spec evaluation produced; sections not requested
    by ``spec.outputs`` are ``None``.
    """

    spec: ScenarioSpec
    fabric: str
    capabilities: tuple[tuple[str, str], ...] | None = None
    costs: CostReport | None = None
    utilization: tuple[UtilizationRow, ...] | None = None
    congestion: CongestionSummary | None = None
    telemetry: TelemetryReport | None = None
    link_utilization: LinkUtilizationReport | None = None
    repair: RepairReport | None = None
    blast_radius: BlastRadiusSummary | None = None
    device: DeviceReport | None = None
    # Written only when present: results that never requested these
    # sections keep the bytes they had before the sections existed.
    trace: TraceReport | None = field(default=None, metadata=OPTIONAL)
    metrics: MetricsReport | None = field(default=None, metadata=OPTIONAL)
    fleet: FleetReport | None = field(default=None, metadata=OPTIONAL)
    tenancy: TenancyReport | None = field(default=None, metadata=OPTIONAL)

    # The entry points are RunResult's own (not Record's), so per-class
    # instrumentation can tell result decoding from spec parsing.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        return decode(cls, data)

    def to_json(self, **kwargs: Any) -> str:
        """Serialize to a JSON string."""
        return json.dumps(encode(self), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return decode(cls, json.loads(text))
