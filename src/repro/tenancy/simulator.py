"""Event-driven multi-tenant scheduling simulator (a week of churn).

The paper's provisioning argument (Section 4.1) is a static snapshot:
one slice, one placement, one stranding number. This module runs the
dynamic extension — days of tenant jobs arriving, queueing, running and
departing over a multi-rack cluster — on the existing
:class:`~repro.sim.engine.EventEngine`. A seeded workload
(:mod:`repro.tenancy.workload`) drives a pluggable placement policy
(:mod:`repro.tenancy.policies`) over live :class:`~repro.tenancy.cluster.
ClusterState`; the fabric choice decides what a placement *costs*:

* **electrical** — only contiguous boxes are placeable, and a sub-rack
  box strands the bandwidth of every ring it does not span
  (``Slice.electrical_utilization``).
* **photonic** — the same boxes ring fully once wavelength steering
  closes their broken rings, and when no box fits the slice can be
  assembled from scattered free chips (each chip consuming one of the
  rack's steering circuits).

Jobs that cannot place queue per priority class (production drains
first) and are rejected after ``max_queue_wait_s``. Every statistic
derives from simulation state, never wall clock, so runs are
deterministic per seed and golden-testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import nearest_rank
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.engine import EventEngine, SimulationError
from ..sim.scaffold import FABRICS, StepSeries, require_finite, run_horizon
from .cluster import ClusterState
from .policies import (
    CATALOG_SHAPES,
    PlacementPolicy,
    SteerOnArrivalPolicy,
    make_placement_policy,
)
from .workload import PRIORITIES, TenantJob, generate_jobs

__all__ = [
    "TenancyConfig",
    "TenancyStats",
    "TenancySimulator",
    "simulate_tenancy",
    "FABRICS",
]

#: Seconds per day.
DAY_S = 86400.0


@dataclass(frozen=True)
class TenancyConfig:
    """Cluster geometry and workload of one tenancy run.

    Defaults model a 4-rack pod of 4x4x4 torus cubes (256 chips) under a
    week of Poisson churn at ~70% offered load — about 10,500 arrivals,
    enough pressure that placement quality shows up in the queue.

    Attributes:
        rack_shape: extent of each rack torus.
        racks: racks in the cluster.
        horizon_s: simulated time span.
        arrivals_per_day: mean job arrival rate.
        profile: arrival profile (:data:`repro.tenancy.workload.PROFILES`).
        seed: base RNG seed of the workload generator.
        mean_duration_s: mean job run time.
        max_queue_wait_s: queueing patience; a job unplaced this long
            after arrival is rejected.
        steer_circuits: wavelength circuits per rack for steering.
        series_points: buckets in the occupancy/fragmentation series.
    """

    rack_shape: tuple[int, ...] = (4, 4, 4)
    racks: int = 4
    horizon_s: float = 7 * DAY_S
    arrivals_per_day: float = 1500.0
    profile: str = "poisson"
    seed: int = 0
    mean_duration_s: float = 1200.0
    max_queue_wait_s: float = 3600.0
    steer_circuits: int = 64
    series_points: int = 24

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rack_shape", tuple(int(s) for s in self.rack_shape)
        )
        if len(self.rack_shape) < 1 or any(s < 1 for s in self.rack_shape):
            raise ValueError("rack_shape extents must be positive")
        require_finite(
            self,
            "horizon_s",
            "arrivals_per_day",
            "mean_duration_s",
            "max_queue_wait_s",
        )
        if self.racks < 1:
            raise ValueError("the cluster needs at least one rack")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if self.arrivals_per_day <= 0:
            raise ValueError("arrivals_per_day must be positive")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.max_queue_wait_s <= 0:
            raise ValueError("max_queue_wait_s must be positive")
        if self.steer_circuits < 0:
            raise ValueError("steer_circuits cannot be negative")
        if self.series_points < 1:
            raise ValueError("the series needs at least one bucket")
        # mean_duration_s validates in generate_jobs (shared floor).

    @property
    def total_chips(self) -> int:
        """Chips in the whole cluster."""
        chips = 1
        for ext in self.rack_shape:
            chips *= ext
        return chips * self.racks


@dataclass(frozen=True)
class TenancyStats:
    """Everything one tenancy simulation measured.

    Attributes:
        fabric: ``"electrical"`` or ``"photonic"``.
        policy: placement policy name.
        steering: whether wavelength steering was available.
        total_chips: cluster size.
        horizon_s: simulated span.
        seed: workload seed.
        profile: arrival profile.
        arrivals: jobs submitted.
        placed: jobs that got a slice (immediately or from the queue).
        steered_placements: placements assembled from scattered chips.
        rejected: jobs that timed out in the queue.
        completed: jobs that ran to completion inside the horizon.
        running_at_horizon / queued_at_horizon: jobs still in flight.
        defrag_moves: survivor relocations the policy performed.
        events_processed: engine events executed.
        mean_occupancy: time-averaged fraction of chips allocated.
        queue_delay_mean_s: mean placement delay over placed jobs
            (immediate placements count as zero).
        queue_delay_p50_s / p90 / p99 / max_s: delay percentiles,
            nearest-rank over placed jobs.
        rejection_rate: rejected / arrivals.
        stranded_chip_seconds: integral of ``chips x (1 - utilization)``
            over live allocations — bandwidth-capacity the fabric could
            not deliver to the tenants holding it.
        stranded_fraction: stranded share of occupied chip-seconds.
        circuits_peak: most wavelength circuits simultaneously lit.
        series: ``(start_s, end_s, mean_occupied_chips,
            largest_allocatable_chips, free_chips)`` buckets; the last
            two sample fragmentation at each bucket's end.

    Raises:
        ValueError: when the job counts do not add up or a fraction
            leaves ``[0, 1]`` (a bookkeeping fault in the simulator that
            built them).
    """

    fabric: str
    policy: str
    steering: bool
    total_chips: int
    horizon_s: float
    seed: int
    profile: str
    arrivals: int
    placed: int
    steered_placements: int
    rejected: int
    completed: int
    running_at_horizon: int
    queued_at_horizon: int
    defrag_moves: int
    events_processed: int
    mean_occupancy: float
    queue_delay_mean_s: float
    queue_delay_p50_s: float
    queue_delay_p90_s: float
    queue_delay_p99_s: float
    queue_delay_max_s: float
    rejection_rate: float
    stranded_chip_seconds: float
    stranded_fraction: float
    circuits_peak: int
    series: tuple[tuple[float, float, float, int, int], ...]

    def __post_init__(self) -> None:
        if self.arrivals != self.placed + self.rejected + self.queued_at_horizon:
            raise ValueError(
                f"{self.arrivals} arrivals != {self.placed} placed + "
                f"{self.rejected} rejected + {self.queued_at_horizon} queued"
            )
        if self.placed != self.completed + self.running_at_horizon:
            raise ValueError(
                f"{self.placed} placed != {self.completed} completed + "
                f"{self.running_at_horizon} running"
            )
        for name in ("mean_occupancy", "stranded_fraction", "rejection_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} {getattr(self, name)} outside [0, 1]")


class TenancySimulator:
    """One fabric's scheduling dynamics over the horizon.

    Build one simulator (and one fresh policy) per run; :meth:`run`
    consumes the instance, and once it returns the instance holds no
    reference cycle, so dropping it frees the run.
    """

    def __init__(
        self,
        config: TenancyConfig,
        fabric: str,
        policy: PlacementPolicy | None = None,
        log: EventLog | None = None,
        tracer: Tracer | None = None,
    ):
        if fabric not in FABRICS:
            raise ValueError(f"unknown fabric {fabric!r}; choose from {FABRICS}")
        self.config = config
        self.fabric = fabric
        self.policy = (
            policy if policy is not None else make_placement_policy("first-fit")
        )
        if self.policy.requires_steering and fabric == "electrical":
            raise ValueError(
                f"policy {self.policy.name!r} needs wavelength steering; "
                "the electrical fabric has none"
            )
        self.log = log if log is not None else NULL_LOG
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._engine = EventEngine()
        self.cluster = ClusterState(
            rack_shape=config.rack_shape,
            racks=config.racks,
            steer_circuits=config.steer_circuits,
        )
        self.jobs = generate_jobs(
            horizon_s=config.horizon_s,
            arrivals_per_day=config.arrivals_per_day,
            profile=config.profile,
            seed=config.seed,
            mean_duration_s=config.mean_duration_s,
        )
        # Priority queues: production drains first, each FIFO with
        # head-of-line stop. Entries are job names; the waiting dict is
        # the source of truth (timeouts lazy-delete from the deques).
        self._queues: dict[str, deque[str]] = {p: deque() for p in PRIORITIES}
        self._waiting: dict[str, tuple[TenantJob, object]] = {}
        self._placed_at: dict[str, float] = {}
        # Occupancy/stranding accounting, integrated before each change.
        self._occupied = StepSeries(
            self._engine, "occupied chips", config.total_chips, level=0, integrals=2
        )
        self._frag_samples: list[tuple[int, int]] = []
        self._arrivals = 0
        self._placed = 0
        self._steered = 0
        self._rejected = 0
        self._completed = 0
        self._defrag_moves = 0
        self._circuits_peak = 0
        self._delays: list[float] = []
        self._ran = False

    # -- accounting ---------------------------------------------------------------

    def _account(self) -> None:
        """Integrate occupancy and stranding up to the current time."""
        self._occupied.advance(
            self.cluster.occupied_chips(),
            self.cluster.stranded_fraction_rate(self.fabric),
        )

    def _record(self) -> None:
        """Snapshot occupied capacity after a state change."""
        self._occupied.record(self.cluster.occupied_chips())

    def _note_circuits(self) -> None:
        lit = sum(
            self.cluster.circuits_used(r) for r in range(self.config.racks)
        )
        if lit > self._circuits_peak:
            self._circuits_peak = lit

    def _heartbeat(self) -> None:
        """Emit one ``tenancy.progress`` record at the current sim time."""
        self.log.info(
            "tenancy.progress",
            fabric=self.fabric,
            t_days=round(self._engine.now_s / DAY_S, 3),
            arrivals=self._arrivals,
            running=len(self.cluster.allocations),
            queued=len(self._waiting),
            rejected=self._rejected,
        )

    # -- job lifecycle ------------------------------------------------------------

    def _try_place(self, job: TenantJob) -> bool:
        allocation = self.policy.place(self.cluster, job.name, job.shape)
        if allocation is None:
            return False
        now = self._engine.now_s
        self._placed += 1
        if not allocation.contiguous:
            self._steered += 1
        self._note_circuits()
        self._placed_at[job.name] = now
        delay = now - job.arrival_s
        self._delays.append(delay)
        if self.tracer.enabled and delay > 0:
            self.tracer.complete(
                job.name,
                "tenancy.queue",
                job.arrival_s,
                now,
                args={"priority": job.priority},
            )
        self._engine.schedule_after(job.duration_s, lambda: self._depart(job))
        self._record()
        return True

    def _arrive(self, job: TenantJob) -> None:
        self._account()
        self._arrivals += 1
        if self._try_place(job):
            return
        timeout = self._engine.schedule_after(
            self.config.max_queue_wait_s, lambda: self._timeout(job)
        )
        self._waiting[job.name] = (job, timeout)
        self._queues[job.priority].append(job.name)

    def _timeout(self, job: TenantJob) -> None:
        if job.name not in self._waiting:  # pragma: no cover - defensive
            return
        del self._waiting[job.name]
        self._rejected += 1
        if self.tracer.enabled:
            self.tracer.instant(
                job.name,
                "tenancy.reject",
                self._engine.now_s,
                args={"shape": "x".join(map(str, job.shape))},
            )

    def _depart(self, job: TenantJob) -> None:
        self._account()
        allocation = self.cluster.release(job.name)
        self._completed += 1
        self._record()
        if self.tracer.enabled:
            self.tracer.complete(
                job.name,
                "tenancy.job",
                self._placed_at[job.name],
                self._engine.now_s,
                args={
                    "shape": "x".join(map(str, job.shape)),
                    "chips": job.chips,
                    "priority": job.priority,
                    "steered": not allocation.contiguous,
                },
            )
        del self._placed_at[job.name]
        self._defrag_moves += self.policy.on_departure(
            self.cluster, allocation.rack
        )
        self._drain()

    def _drain(self) -> None:
        """Place queued jobs, production first, head-of-line stop."""
        for priority in PRIORITIES:
            queue = self._queues[priority]
            while queue:
                name = queue[0]
                entry = self._waiting.get(name)
                if entry is None:  # timed out already
                    queue.popleft()
                    continue
                job, timeout = entry
                if not self._try_place(job):
                    break
                queue.popleft()
                timeout.cancel()
                del self._waiting[name]

    # -- run ---------------------------------------------------------------------

    def _sample_fragmentation(self) -> None:
        """Series-edge probe: contiguous vs total headroom, plus the
        cluster-wide consistency invariant."""
        self._frag_samples.append(
            (
                self.cluster.largest_allocatable(CATALOG_SHAPES),
                self.cluster.total_free(),
            )
        )
        self.cluster.check_consistent()

    def run(self) -> TenancyStats:
        """Simulate the horizon and return the measured statistics.

        Raises:
            SimulationError: on an occupancy invariant violation — a
                simulator bug, not a workload property.
        """
        if self._ran:
            raise SimulationError("a TenancySimulator instance runs once")
        self._ran = True
        cfg = self.config
        for job in self.jobs:
            self._engine.schedule_at(
                job.arrival_s, lambda job=job: self._arrive(job)
            )
        width = cfg.horizon_s / cfg.series_points
        for i in range(cfg.series_points):
            self._engine.schedule_at(
                (i + 1) * width, self._sample_fragmentation
            )
        run_horizon(self._engine, cfg.horizon_s, self._heartbeat)
        self._account()
        self.cluster.check_consistent()
        delays = sorted(self._delays)
        occupied_cs, stranded_cs = self._occupied.totals
        return TenancyStats(
            fabric=self.fabric,
            policy=self.policy.name,
            steering=self.policy.requires_steering,
            total_chips=cfg.total_chips,
            horizon_s=cfg.horizon_s,
            seed=cfg.seed,
            profile=cfg.profile,
            arrivals=self._arrivals,
            placed=self._placed,
            steered_placements=self._steered,
            rejected=self._rejected,
            completed=self._completed,
            running_at_horizon=len(self.cluster.allocations),
            queued_at_horizon=len(self._waiting),
            defrag_moves=self._defrag_moves,
            events_processed=self._engine.processed,
            mean_occupancy=occupied_cs / (cfg.total_chips * cfg.horizon_s),
            queue_delay_mean_s=(
                sum(delays) / len(delays) if delays else 0.0
            ),
            queue_delay_p50_s=nearest_rank(delays, 0.50),
            queue_delay_p90_s=nearest_rank(delays, 0.90),
            queue_delay_p99_s=nearest_rank(delays, 0.99),
            queue_delay_max_s=delays[-1] if delays else 0.0,
            rejection_rate=(
                self._rejected / self._arrivals if self._arrivals else 0.0
            ),
            stranded_chip_seconds=stranded_cs,
            stranded_fraction=stranded_cs / occupied_cs if occupied_cs else 0.0,
            circuits_peak=self._circuits_peak,
            # Occupancy buckets joined with the fragmentation probes
            # taken at each bucket's end.
            series=tuple(
                (*bucket, *probe)
                for bucket, probe in zip(
                    self._occupied.buckets(cfg.horizon_s, cfg.series_points),
                    self._frag_samples,
                    strict=True,
                )
            ),
        )


def simulate_tenancy(
    config: TenancyConfig,
    fabric: str,
    policy: str = "first-fit",
    steering: bool | None = None,
    log: EventLog | None = None,
    tracer: Tracer | None = None,
) -> TenancyStats:
    """Run one fabric's tenancy simulation with a fresh policy instance.

    ``steering`` defaults to the fabric's nature — on for photonic, off
    for electrical — and wraps the base policy in
    :class:`~repro.tenancy.policies.SteerOnArrivalPolicy` when enabled
    (a no-op if ``policy`` is already ``"steer"``). Requesting steering
    on the electrical fabric raises ``ValueError``: static wiring has no
    reconfigurable reach.

    ``log`` (when given and at ``info`` or lower) receives a
    ``tenancy.progress`` heartbeat at each tenth of the horizon; the
    returned stats are byte-identical either way.
    """
    if fabric not in FABRICS:
        raise ValueError(f"unknown fabric {fabric!r}; choose from {FABRICS}")
    if steering is None:
        steering = fabric == "photonic"
    if steering and fabric == "electrical":
        raise ValueError("the electrical fabric cannot steer wavelengths")
    placement = make_placement_policy(policy)
    if steering and not placement.requires_steering:
        placement = SteerOnArrivalPolicy(placement)
    simulator = TenancySimulator(
        config,
        fabric,
        placement,
        log=log,
        tracer=tracer,
    )
    stats = simulator.run()
    # Report the caller's policy choice, not the steering wrapper's name.
    if stats.policy != policy:
        stats = replace(stats, policy=policy, steering=True)
    return stats
