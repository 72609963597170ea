"""Event-driven fleet reliability simulator (a year of Section 4.2).

The paper's blast-radius argument is a single-failure snapshot; this
module runs the ambitious extension — months of fleet life over the full
4096-chip cluster — on the existing :class:`~repro.sim.engine.EventEngine`.
Chips fail as independent renewal processes
(:class:`~repro.fleet.process.RenewalFailureProcess`), a pluggable policy
(:mod:`repro.fleet.policies`) decides when repairs dispatch, and the
fabric's repair executor enforces its bandwidth budget:

* **electrical** — a failure is repaired by migrating the whole rack
  (the production policy [60]): every chip of the rack is out for the
  checkpoint-restore window, at most ``max_concurrent_migrations``
  migrations run fleet-wide, and one migration fixes every failed chip
  of its rack.
* **photonic** — the failed chip's server stalls for the 3.7 us circuit
  setup while a spare chip is spliced in over LIGHTPATH circuits; each
  rack holds ``spare_inventory`` spares, and a consumed spare returns
  ``spare_replenish_s`` later (the physical replacement), so failure
  bursts can exhaust the inventory and queue.

Occupancy is tracked live — failed chips and blast-radius collateral are
integrated separately — and every number in the resulting
:class:`FleetStats` derives from simulation state, never wall clock, so
runs are deterministic per seed and golden-testable.

Each in-service chip's next failure time sits in a per-rack array, and
the engine holds one event per rack, at that rack's earliest entry: a
rack migration clears 63 entries and re-arms one event instead of
cancelling 63.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..failures.recovery import RackMigrationPolicy
from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import nearest_rank
from ..phy.constants import CHIPS_PER_SERVER, RACKS_PER_CLUSTER, RECONFIG_LATENCY_S
from ..sim.engine import Event, EventEngine, SimulationError
from ..sim.scaffold import FABRICS, StepSeries, require_finite, run_horizon
from .policies import RepairPolicy, make_policy
from .process import RenewalFailureProcess

__all__ = [
    "FleetConfig",
    "FleetStats",
    "FleetSimulator",
    "simulate_fleet",
    "FABRICS",
]

#: Seconds in the simulator's year.
YEAR_S = 365.0 * 24.0 * 3600.0

_OPERATIONAL, _FAILED, _SUSPENDED = 0, 1, 2

_MIGRATION_S = RackMigrationPolicy().recovery_latency_s()


@dataclass(frozen=True)
class FleetConfig:
    """Geometry, failure statistics and repair budgets of one fleet run.

    Defaults reproduce the paper's TPUv4 deployment (64 racks x 64 chips)
    over one year at the five-year per-chip MTBF — roughly two failures
    per day fleet-wide, the production "regular cadence" [60].

    Attributes:
        racks: racks in the cluster.
        chips_per_rack: chips per rack (the migration blast radius).
        chips_per_server: chips per server board (the optical blast
            radius; servers tile each rack contiguously).
        horizon_s: simulated time span.
        mtbf_s: per-chip mean time between failures.
        seed: base RNG seed of the renewal process.
        max_concurrent_migrations: rack migrations allowed in flight at
            once (the electrical repair-bandwidth budget).
        spare_inventory: spare chips stocked per rack (the photonic
            repair budget).
        spare_replenish_s: time for a consumed spare to be physically
            replaced and returned to the rack's inventory.
        migration_s: rack-migration outage duration.
        circuit_setup_s: photonic repair stall (circuit programming).
        series_points: buckets in the availability time series.
    """

    racks: int = RACKS_PER_CLUSTER
    chips_per_rack: int = 64
    chips_per_server: int = CHIPS_PER_SERVER
    horizon_s: float = YEAR_S
    mtbf_s: float = 5 * YEAR_S
    seed: int = 0
    max_concurrent_migrations: int = 4
    spare_inventory: int = 8
    spare_replenish_s: float = 86400.0
    migration_s: float = _MIGRATION_S
    circuit_setup_s: float = RECONFIG_LATENCY_S
    series_points: int = 48

    def __post_init__(self) -> None:
        require_finite(
            self,
            "horizon_s",
            "mtbf_s",
            "spare_replenish_s",
            "migration_s",
            "circuit_setup_s",
        )
        if self.racks < 1 or self.chips_per_rack < 1:
            raise ValueError("the cluster needs at least one rack and chip")
        if not 1 <= self.chips_per_server <= self.chips_per_rack:
            raise ValueError("chips_per_server must fit inside a rack")
        if self.horizon_s <= 0 or self.mtbf_s <= 0:
            raise ValueError("horizon and MTBF must be positive")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.max_concurrent_migrations < 1:
            raise ValueError("need at least one migration slot")
        if self.spare_inventory < 0:
            raise ValueError("spare inventory cannot be negative")
        if self.spare_replenish_s <= 0:
            raise ValueError("spare replenish time must be positive")
        if self.migration_s <= 0 or self.circuit_setup_s <= 0:
            raise ValueError("repair durations must be positive")
        if self.series_points < 1:
            raise ValueError("the series needs at least one bucket")

    @property
    def chips(self) -> int:
        """Total chips in the fleet."""
        return self.racks * self.chips_per_rack


@dataclass(frozen=True)
class FleetStats:
    """Everything one fleet simulation measured.

    Attributes:
        fabric: ``"electrical"`` or ``"photonic"``.
        policy: dispatch policy name.
        chips: fleet size.
        horizon_s: simulated span.
        seed: RNG seed.
        failures: chip failures that occurred.
        repairs: failures repaired within the horizon.
        unrepaired: chips still failed at the horizon.
        events_processed: engine events executed.
        mean_availability: time-averaged fraction of chips in service.
        min_available_chips: lowest instantaneous capacity.
        peak_failed_chips: most chips simultaneously failed.
        lost_chip_seconds: integral of unavailable chips (failed plus
            blast-radius collateral).
        collateral_chip_seconds: the blast-radius share of the loss —
            chip-seconds of *healthy* chips taken out by rack migrations
            or server stalls (the goodput lost to blast radius).
        ttr_p50_s / ttr_p90_s / ttr_p99_s / ttr_max_s: time-to-repair
            percentiles (failure to capacity restored), nearest-rank.
        series: ``(start_s, end_s, mean_available_chips)`` buckets.
    """

    fabric: str
    policy: str
    chips: int
    horizon_s: float
    seed: int
    failures: int
    repairs: int
    unrepaired: int
    events_processed: int
    mean_availability: float
    min_available_chips: int
    peak_failed_chips: int
    lost_chip_seconds: float
    collateral_chip_seconds: float
    ttr_p50_s: float
    ttr_p90_s: float
    ttr_p99_s: float
    ttr_max_s: float
    series: tuple[tuple[float, float, float], ...]


class FleetSimulator:
    """One fabric's failure/repair dynamics over the horizon.

    Build one simulator (and one fresh policy) per run; :meth:`run`
    consumes the instance, and once it returns the instance holds no
    reference cycle, so dropping it frees the run.
    """

    def __init__(
        self,
        config: FleetConfig,
        fabric: str,
        policy: RepairPolicy | None = None,
        log: EventLog | None = None,
    ):
        if fabric not in FABRICS:
            raise ValueError(f"unknown fabric {fabric!r}; choose from {FABRICS}")
        self.config = config
        self.fabric = fabric
        self.policy = policy if policy is not None else make_policy("immediate")
        self.log = log if log is not None else NULL_LOG
        self._engine = EventEngine()
        self._process = RenewalFailureProcess(
            chips=config.chips, mtbf_s=config.mtbf_s, seed=config.seed
        )
        self._state = [_OPERATIONAL] * config.chips
        # Next failure time of each chip, per rack: ``inf`` while the
        # chip is out of service or outlives the horizon. The engine
        # holds one event per rack, at its earliest entry.
        self._fail_at = [
            [math.inf] * config.chips_per_rack for _ in range(config.racks)
        ]
        self._rack_events: list[Event | None] = [None] * config.racks
        self._fail_times: dict[int, float] = {}
        # Occupancy accounting: failed chips and blast collateral are
        # integrated separately so "goodput lost to blast radius" falls
        # out directly.
        self._down_failed = 0
        self._down_collateral = 0
        self._available = StepSeries(
            self._engine, "available chips", config.chips, level=config.chips, integrals=2
        )
        self._peak_failed = 0
        self._failures = 0
        self._repairs = 0
        self._ttrs: list[float] = []
        # Electrical budget: bounded concurrent rack migrations.
        self._rack_busy = [False] * config.racks
        self._migration_queue: deque[int] = deque()
        self._active_migrations = 0
        # Photonic budget: per-rack spare inventory.
        self._spares = [config.spare_inventory] * config.racks
        self._spare_wait: list[deque[int]] = [deque() for _ in range(config.racks)]
        self._ran = False

    # -- occupancy accounting ----------------------------------------------------

    def _account(self) -> None:
        """Integrate the loss counters (all down chips, then collateral)
        up to the engine's current time."""
        self._available.advance(
            self._down_failed + self._down_collateral, self._down_collateral
        )

    def _record(self) -> None:
        """Snapshot available capacity after a state change."""
        self._available.record(
            self.config.chips - self._down_failed - self._down_collateral
        )

    def _heartbeat(self) -> None:
        """Emit one ``fleet.progress`` record at the current sim time."""
        self.log.info(
            "fleet.progress",
            fabric=self.fabric,
            t_days=round(self._engine.now_s / 86400.0, 3),
            failures=self._failures,
            repairs=self._repairs,
            available=(
                self.config.chips - self._down_failed - self._down_collateral
            ),
        )

    # -- failure renewal ----------------------------------------------------------

    def _draw_failure(self, chip: int) -> None:
        """Set an in-service chip's next failure time from its renewal
        stream (the caller re-arms the rack)."""
        t = self._engine.now_s + self._process.next_delay_s(chip)
        rack, slot = divmod(chip, self.config.chips_per_rack)
        self._fail_at[rack][slot] = t if t <= self.config.horizon_s else math.inf

    def _clear_failure(self, chip: int) -> None:
        """Drop the pending failure of a chip leaving service (the
        caller re-arms the rack)."""
        rack, slot = divmod(chip, self.config.chips_per_rack)
        self._fail_at[rack][slot] = math.inf

    def _arm(self, rack: int) -> None:
        """Point the rack's engine event at its earliest failure time."""
        t = min(self._fail_at[rack])
        event = self._rack_events[rack]
        if event is not None:
            if event.time_s == t:
                return
            event.cancel()
            self._rack_events[rack] = None
        if t != math.inf:
            self._rack_events[rack] = self._engine.schedule_at(
                t, lambda: self._on_rack_failure(rack)
            )

    def _on_rack_failure(self, rack: int) -> None:
        self._rack_events[rack] = None
        slot = self._fail_at[rack].index(self._engine.now_s)
        self._on_failure(rack * self.config.chips_per_rack + slot)

    def _on_failure(self, chip: int) -> None:
        self._clear_failure(chip)
        self._account()
        self._state[chip] = _FAILED
        self._down_failed += 1
        self._failures += 1
        self._fail_times[chip] = self._engine.now_s
        if self._down_failed > self._peak_failed:
            self._peak_failed = self._down_failed
        self._record()
        self.policy.on_failure(chip, self._dispatch)
        self._arm(chip // self.config.chips_per_rack)

    def _suspend(self, chip: int) -> None:
        """Take a healthy chip out as blast-radius collateral."""
        self._clear_failure(chip)
        self._state[chip] = _SUSPENDED
        self._down_collateral += 1

    def _restore(self, chip: int) -> None:
        """Return a chip to service with a fresh failure draw."""
        self._state[chip] = _OPERATIONAL
        self._draw_failure(chip)

    def _repair_done(self, chip: int) -> None:
        self._down_failed -= 1
        self._repairs += 1
        self._ttrs.append(self._engine.now_s - self._fail_times.pop(chip))
        self._restore(chip)

    def _dispatch(self, chip: int) -> None:
        """Hand a failed chip's repair to the fabric's executor."""
        if self._state[chip] != _FAILED:
            return  # an earlier repair of its rack already fixed it
        rack = chip // self.config.chips_per_rack
        if self.fabric == "photonic":
            if self._spares[rack] > 0:
                self._start_photonic_repair(chip)
            else:
                self._spare_wait[rack].append(chip)
        elif not self._rack_busy[rack]:
            # A queued or active migration repairs every chip of its rack.
            self._rack_busy[rack] = True
            self._migration_queue.append(rack)
            self._start_migrations()

    # -- electrical executor: budgeted rack migrations ----------------------------

    def _rack_chips(self, rack: int) -> range:
        base = rack * self.config.chips_per_rack
        return range(base, base + self.config.chips_per_rack)

    def _start_migrations(self) -> None:
        cfg = self.config
        while (
            self._migration_queue
            and self._active_migrations < cfg.max_concurrent_migrations
        ):
            rack = self._migration_queue.popleft()
            self._active_migrations += 1
            self._account()
            for c in self._rack_chips(rack):
                if self._state[c] == _OPERATIONAL:
                    self._suspend(c)
            self._arm(rack)
            self._record()
            self._engine.schedule_after(
                cfg.migration_s, lambda rack=rack: self._complete_migration(rack)
            )

    def _complete_migration(self, rack: int) -> None:
        self._account()
        for c in self._rack_chips(rack):
            if self._state[c] == _SUSPENDED:
                self._down_collateral -= 1
                self._restore(c)
            elif self._state[c] == _FAILED:
                self._repair_done(c)
        self._arm(rack)
        self._rack_busy[rack] = False
        self._active_migrations -= 1
        self._record()
        self._start_migrations()

    # -- photonic executor: spare-bounded circuit repairs -------------------------

    def _server_chips(self, chip: int) -> range:
        cfg = self.config
        base = (chip // cfg.chips_per_rack) * cfg.chips_per_rack
        server = (chip - base) // cfg.chips_per_server
        start = base + server * cfg.chips_per_server
        return range(
            start, min(start + cfg.chips_per_server, base + cfg.chips_per_rack)
        )

    def _start_photonic_repair(self, chip: int) -> None:
        rack = chip // self.config.chips_per_rack
        self._spares[rack] -= 1
        self._account()
        stalled = []
        for peer in self._server_chips(chip):
            if peer != chip and self._state[peer] == _OPERATIONAL:
                self._suspend(peer)
                stalled.append(peer)
        self._arm(rack)
        self._record()
        self._engine.schedule_after(
            self.config.circuit_setup_s,
            lambda: self._finish_photonic_repair(chip, stalled),
        )

    def _finish_photonic_repair(self, chip: int, stalled: list[int]) -> None:
        self._account()
        self._repair_done(chip)
        for peer in stalled:
            if self._state[peer] == _SUSPENDED:
                self._down_collateral -= 1
                self._restore(peer)
        rack = chip // self.config.chips_per_rack
        self._arm(rack)
        self._record()
        self._engine.schedule_after(
            self.config.spare_replenish_s, lambda rack=rack: self._replenish(rack)
        )

    def _replenish(self, rack: int) -> None:
        self._spares[rack] += 1
        while self._spare_wait[rack] and self._spares[rack] > 0:
            chip = self._spare_wait[rack].popleft()
            if self._state[chip] == _FAILED:
                self._start_photonic_repair(chip)

    # -- run ---------------------------------------------------------------------

    def run(self) -> FleetStats:
        """Simulate the horizon and return the measured statistics.

        Raises:
            SimulationError: on an occupancy invariant violation or a
                runaway event loop — both indicate a simulator bug.
        """
        if self._ran:
            raise SimulationError("a FleetSimulator instance runs once")
        self._ran = True
        cfg = self.config
        self.policy.start(self._engine, self._dispatch)
        for chip in range(cfg.chips):
            self._draw_failure(chip)
        for rack in range(cfg.racks):
            self._arm(rack)
        run_horizon(self._engine, cfg.horizon_s, self._heartbeat)
        self._account()
        lost, collateral_lost = self._available.totals
        ttrs = sorted(self._ttrs)
        return FleetStats(
            fabric=self.fabric,
            policy=self.policy.name,
            chips=cfg.chips,
            horizon_s=cfg.horizon_s,
            seed=cfg.seed,
            failures=self._failures,
            repairs=self._repairs,
            unrepaired=len(self._fail_times),
            events_processed=self._engine.processed,
            mean_availability=1.0 - lost / (cfg.chips * cfg.horizon_s),
            min_available_chips=min(
                level for _, level in self._available.transitions
            ),
            peak_failed_chips=self._peak_failed,
            lost_chip_seconds=lost,
            collateral_chip_seconds=collateral_lost,
            ttr_p50_s=nearest_rank(ttrs, 0.50),
            ttr_p90_s=nearest_rank(ttrs, 0.90),
            ttr_p99_s=nearest_rank(ttrs, 0.99),
            ttr_max_s=ttrs[-1] if ttrs else 0.0,
            series=self._available.buckets(cfg.horizon_s, cfg.series_points),
        )


def simulate_fleet(
    config: FleetConfig,
    fabric: str,
    policy: str = "immediate",
    lazy_threshold: int = 4,
    batch_interval_s: float = 21600.0,
    log: EventLog | None = None,
) -> FleetStats:
    """Run one fabric's fleet simulation with a fresh policy instance.

    ``log`` (when given and at ``info`` or lower) receives a
    ``fleet.progress`` heartbeat at each tenth of the horizon; the
    returned stats are byte-identical either way.
    """
    return FleetSimulator(
        config,
        fabric,
        make_policy(
            policy,
            lazy_threshold=lazy_threshold,
            batch_interval_s=batch_interval_s,
        ),
        log=log,
    ).run()
