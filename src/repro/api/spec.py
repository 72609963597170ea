"""Frozen experiment specifications — the input side of the experiment API.

A :class:`ScenarioSpec` is a complete, hashable description of one
experiment: which fabric backend evaluates it, the rack geometry, the
tenant slices, the collective and buffer size, whether costs are derived
closed-form or measured on the discrete-event simulator, and an optional
failure plan. Because the spec is frozen and built from tuples it can key
the :class:`~repro.api.session.FabricSession` memoization caches, and its
``to_dict``/``from_dict`` pair round-trips through JSON so specs can be
stored, diffed, and replayed. Every spec class is a
:class:`~repro.api.codec.Record`, so a value of the wrong JSON kind or an
unknown key is a ``TypeError`` naming ``Class.field``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from ..sim.scaffold import require_finite
from .codec import OPTIONAL, Record, decode, encode

__all__ = [
    "SliceSpec",
    "FailurePlan",
    "FleetPlan",
    "TenancyPlan",
    "DeviceSpec",
    "ScenarioSpec",
    "KNOWN_OUTPUTS",
    "figure5b_slices",
    "figure6_slices",
    "table1_slices",
    "table2_slices",
]

#: Result sections a spec may request; see ``RunResult`` for their shapes.
KNOWN_OUTPUTS = (
    "capabilities",
    "costs",
    "utilization",
    "congestion",
    "telemetry",
    "link_utilization",
    "repair",
    "blast_radius",
    "device",
    "trace",
    "metrics",
    "fleet",
    "tenancy",
)

_MODES = ("closed_form", "sim")


def _int_tuple(values: Any) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class SliceSpec(Record):
    """One tenant slice of the rack torus.

    Attributes:
        name: tenant label (e.g. ``"Slice-1"``).
        shape: slice extent per torus dimension.
        offset: slice origin within the rack.
    """

    name: str
    shape: tuple[int, ...]
    offset: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _int_tuple(self.shape))
        object.__setattr__(self, "offset", _int_tuple(self.offset))
        if len(self.shape) != len(self.offset):
            raise ValueError(
                f"slice {self.name}: shape {self.shape} and offset "
                f"{self.offset} disagree on dimensionality"
            )


@dataclass(frozen=True)
class FailurePlan(Record):
    """What fails and how the recovery is evaluated.

    Attributes:
        failed_chips: chip coordinates that fail (today the repair path
            evaluates the first entry; the tuple keeps the spec extensible
            to correlated failures).
        max_hops: path-length bound for the exhaustive electrical
            replacement search (Figure 6a).
        replacement: override the spare chip chosen by the optical repair.
        fleet_days: when positive, sample a fleet-scale failure trace over
            this horizon and compare blast-radius policies (Section 4.2).
        seed: RNG seed for the fleet failure trace.
    """

    failed_chips: tuple[tuple[int, ...], ...] = ()
    max_hops: int = 5
    replacement: tuple[int, ...] | None = None
    fleet_days: float = 0.0
    seed: int = 2024

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "failed_chips", tuple(_int_tuple(c) for c in self.failed_chips)
        )
        if self.replacement is not None:
            object.__setattr__(self, "replacement", _int_tuple(self.replacement))
        require_finite(self, "fleet_days")
        if self.fleet_days < 0:
            raise ValueError("fleet_days cannot be negative")


@dataclass(frozen=True)
class FleetPlan(Record):
    """Year-scale fleet reliability simulation (the ``"fleet"`` output).

    Parameterizes :mod:`repro.fleet`: a renewal failure process over the
    full cluster with budgeted repairs, run once per fabric so the
    report can compare electrical and photonic availability.

    Attributes:
        days: simulated span; the ``"fleet"`` output requires it
            positive (the backend refuses a zero-length simulation).
        seed: base RNG seed of the renewal process.
        policy: repair-dispatch policy (``"immediate"``, ``"lazy"``,
            ``"batched"``).
        lazy_threshold: pending failures that trigger a lazy dispatch.
        batch_interval_s: cadence of the batched policy.
        max_concurrent_migrations: electrical repair-bandwidth budget.
        spare_inventory: spare chips stocked per rack (photonic budget).
        spare_replenish_s: time to restock one consumed spare.
        mtbf_years: per-chip mean time between failures.
        racks: racks in the simulated cluster.
        series_points: buckets in the availability time series.
    """

    days: float = 0.0
    seed: int = 0
    policy: str = "immediate"
    lazy_threshold: int = 4
    batch_interval_s: float = 21600.0
    max_concurrent_migrations: int = 4
    spare_inventory: int = 8
    spare_replenish_s: float = 86400.0
    mtbf_years: float = 5.0
    racks: int = 64
    series_points: int = 48

    def __post_init__(self) -> None:
        require_finite(
            self, "days", "batch_interval_s", "spare_replenish_s", "mtbf_years"
        )
        if self.days < 0:
            raise ValueError("days cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.policy not in ("immediate", "lazy", "batched"):
            raise ValueError(
                f"unknown fleet policy {self.policy!r}; "
                'choose "immediate", "lazy" or "batched"'
            )
        if self.lazy_threshold < 1:
            raise ValueError("lazy_threshold must be at least 1")
        if self.batch_interval_s <= 0:
            raise ValueError("batch_interval_s must be positive")
        if self.max_concurrent_migrations < 1:
            raise ValueError("max_concurrent_migrations must be at least 1")
        if self.spare_inventory < 0:
            raise ValueError("spare_inventory cannot be negative")
        if self.spare_replenish_s <= 0:
            raise ValueError("spare_replenish_s must be positive")
        if self.mtbf_years <= 0:
            raise ValueError("mtbf_years must be positive")
        if self.racks < 1:
            raise ValueError("racks must be at least 1")
        if self.series_points < 1:
            raise ValueError("series_points must be at least 1")


@dataclass(frozen=True)
class TenancyPlan(Record):
    """Multi-tenant churn simulation (the ``"tenancy"`` output).

    Parameterizes :mod:`repro.tenancy`: a seeded stream of tenant jobs
    placed by a pluggable policy over a multi-rack cluster of the spec's
    ``rack_shape`` tori, run once per fabric so the report can compare
    electrical and photonic scheduling quality (queueing delay,
    rejections, fragmentation, stranded bandwidth).

    Attributes:
        days: simulated span; the ``"tenancy"`` output requires it
            positive (the backend refuses a zero-length simulation).
        seed: base RNG seed of the workload generator.
        arrivals_per_day: mean job arrival rate.
        profile: arrival profile (``"poisson"``, ``"burst"``,
            ``"trace"``).
        policy: placement policy both fabrics run (``"first-fit"``,
            ``"best-fit"``, ``"defrag"``); wavelength steering is the
            *photonic upgrade*, controlled separately.
        steering: let the photonic run steer wavelengths (ring closure
            plus scattered-chip placements). The electrical run never
            steers.
        mean_duration_s: mean job run time.
        max_queue_wait_s: queueing patience before rejection.
        racks: racks in the simulated cluster.
        steer_circuits: wavelength circuits per rack.
        series_points: buckets in the occupancy/fragmentation series.
    """

    days: float = 0.0
    seed: int = 0
    arrivals_per_day: float = 1500.0
    profile: str = "poisson"
    policy: str = "first-fit"
    steering: bool = True
    mean_duration_s: float = 1200.0
    max_queue_wait_s: float = 3600.0
    racks: int = 4
    steer_circuits: int = 64
    series_points: int = 24

    def __post_init__(self) -> None:
        require_finite(
            self, "days", "arrivals_per_day", "mean_duration_s", "max_queue_wait_s"
        )
        if self.days < 0:
            raise ValueError("days cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.arrivals_per_day <= 0:
            raise ValueError("arrivals_per_day must be positive")
        if self.profile not in ("poisson", "burst", "trace"):
            raise ValueError(
                f"unknown arrival profile {self.profile!r}; "
                'choose "poisson", "burst" or "trace"'
            )
        if self.policy not in ("first-fit", "best-fit", "defrag"):
            raise ValueError(
                f"unknown tenancy policy {self.policy!r}; "
                'choose "first-fit", "best-fit" or "defrag"'
            )
        if self.mean_duration_s <= 0:
            raise ValueError("mean_duration_s must be positive")
        if self.max_queue_wait_s <= 0:
            raise ValueError("max_queue_wait_s must be positive")
        if self.racks < 1:
            raise ValueError("racks must be at least 1")
        if self.steer_circuits < 0:
            raise ValueError("steer_circuits cannot be negative")
        if self.series_points < 1:
            raise ValueError("series_points must be at least 1")


@dataclass(frozen=True)
class DeviceSpec(Record):
    """Sampling parameters for the physical-layer device reports.

    Defaults reproduce the paper's Figure 3a (MZI step response) and
    Figure 3b (reticle stitch loss) measurements.
    """

    mzi_duration_s: float = 12e-6
    mzi_samples: int = 4000
    stitch_samples: int = 20000
    stitch_bins: int = 24

    def __post_init__(self) -> None:
        require_finite(self, "mzi_duration_s")
        if self.mzi_duration_s <= 0:
            raise ValueError("mzi_duration_s must be positive")
        if self.mzi_samples < 2:
            raise ValueError("mzi_samples must be at least 2")
        if self.stitch_samples < 1:
            raise ValueError("stitch_samples must be at least 1")
        if self.stitch_bins < 1:
            raise ValueError("stitch_bins must be at least 1")


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """A complete, frozen description of one fabric experiment.

    Attributes:
        fabric: registered backend name (``"electrical"``, ``"photonic"``,
            ``"switched"``, or any third-party registration).
        rack_shape: extent of the rack torus.
        slices: tenant slices, in allocation order.
        collective: collective the tenants run (``"reduce_scatter"``).
        buffer_bytes: per-tenant collective buffer size ``N``.
        mode: ``"closed_form"`` for symbolic alpha-beta-r costs,
            ``"sim"`` to measure on the discrete-event simulator
            (required for the ``"telemetry"`` and ``"link_utilization"``
            outputs).
        outputs: result sections to compute (subset of
            :data:`KNOWN_OUTPUTS`).
        failures: the failure plan, when repair/blast-radius is requested.
        fleet: the fleet-simulation plan, when ``"fleet"`` is requested.
        tenancy: the tenant-churn plan, when ``"tenancy"`` is requested.
        device: device-model sampling parameters for ``"device"``.
        seed: RNG seed for seeded device models.
    """

    fabric: str = "photonic"
    rack_shape: tuple[int, ...] = (4, 4, 4)
    slices: tuple[SliceSpec, ...] = ()
    collective: str = "reduce_scatter"
    buffer_bytes: int = 1 << 26
    mode: str = "closed_form"
    outputs: tuple[str, ...] = ("costs",)
    failures: FailurePlan = field(default_factory=FailurePlan)
    # Written only when configured: default-plan specs keep the bytes
    # (and spec keys, and goldens) they had before these plans existed.
    fleet: FleetPlan = field(default_factory=FleetPlan, metadata=OPTIONAL)
    tenancy: TenancyPlan = field(default_factory=TenancyPlan, metadata=OPTIONAL)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    seed: int = 42

    def __post_init__(self) -> None:
        object.__setattr__(self, "rack_shape", _int_tuple(self.rack_shape))
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        unknown = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if unknown:
            raise ValueError(
                f"unknown outputs {unknown}; known outputs: {list(KNOWN_OUTPUTS)}"
            )
        if "telemetry" in self.outputs and self.mode != "sim":
            raise ValueError('the "telemetry" output requires mode="sim"')
        if "link_utilization" in self.outputs and self.mode != "sim":
            raise ValueError(
                'the "link_utilization" output requires mode="sim" '
                "(per-link load is measured, not derived)"
            )
        if "trace" in self.outputs and self.mode != "sim":
            raise ValueError(
                'the "trace" output requires mode="sim" '
                "(event timelines come from the discrete-event simulator)"
            )
        if "metrics" in self.outputs and self.mode != "sim":
            raise ValueError(
                'the "metrics" output requires mode="sim" '
                "(simulator counters are measured, not derived)"
            )
        if "tenancy" in self.outputs and len(self.rack_shape) != 3:
            raise ValueError(
                f'the "tenancy" output needs a three-dimensional rack (its job '
                f"shapes are 3-D), got rack_shape {self.rack_shape}"
            )
        if self.buffer_bytes < 0:
            raise ValueError("buffer_bytes cannot be negative")
        for chip in self.failures.failed_chips:
            if len(chip) != len(self.rack_shape) or any(
                not 0 <= c < d for c, d in zip(chip, self.rack_shape)
            ):
                raise ValueError(
                    f"failed chip {chip} is outside the rack {self.rack_shape}"
                )

    # -- derived ----------------------------------------------------------------

    def with_fabric(self, fabric: str) -> "ScenarioSpec":
        """The same scenario evaluated by a different backend."""
        return replace(self, fabric=fabric)

    def with_outputs(self, *outputs: str) -> "ScenarioSpec":
        """The same scenario computing different result sections."""
        return replace(self, outputs=tuple(outputs))

    # -- serialization -----------------------------------------------------------
    # The entry points are ScenarioSpec's own (not Record's), so per-class
    # instrumentation can tell spec parsing from result decoding.

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        return decode(cls, data)

    def to_json(self, **kwargs: Any) -> str:
        """Serialize to a JSON string."""
        return json.dumps(encode(self), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return decode(cls, json.loads(text))


# -- canonical paper scenarios ---------------------------------------------------


def figure5b_slices() -> tuple[SliceSpec, ...]:
    """The four tenants of the paper's Figure 5b rack layout."""
    return (
        SliceSpec("Slice-3", (4, 4, 1), (0, 0, 0)),
        SliceSpec("Slice-4", (4, 4, 2), (0, 0, 1)),
        SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),
        SliceSpec("Slice-2", (4, 2, 1), (0, 2, 3)),
    )


def figure6_slices() -> tuple[SliceSpec, ...]:
    """The Figure 6a/7 rack: three tenants, eight free chips."""
    return (
        SliceSpec("Slice-3", (4, 4, 1), (0, 0, 0)),
        SliceSpec("Slice-4", (4, 4, 2), (0, 0, 1)),
        SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),
    )


def table1_slices() -> tuple[SliceSpec, ...]:
    """Table 1's Slice-1 alone on a fresh rack."""
    return (SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),)


def table2_slices() -> tuple[SliceSpec, ...]:
    """Table 2's Slice-3 alone on a fresh rack."""
    return (SliceSpec("Slice-3", (4, 4, 1), (0, 0, 0)),)
