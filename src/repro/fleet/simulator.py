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

Chip state and each in-service chip's next failure time sit in
``(racks, chips_per_rack)`` arrays, and the engine holds one event per
rack, at that rack's earliest entry: a rack migration suspends its 63
healthy chips with one masked array operation, restores them with one
vector draw, and re-arms one event instead of cancelling 63.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..failures.recovery import RackMigrationPolicy
from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import nearest_rank
from ..phy.constants import CHIPS_PER_SERVER, RACKS_PER_CLUSTER, RECONFIG_LATENCY_S
from ..sim.engine import Event, EventEngine, SimulationError
from ..sim.scaffold import FABRICS, StepSeries, require_finite, run_horizon
from .policies import RepairPolicy, make_policy
from .process import RenewalDraws, RenewalFailureProcess

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

    Raises:
        ValueError: when the counts or integrals contradict each other
            (a bookkeeping fault in the simulator that built them).
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

    def __post_init__(self) -> None:
        if self.failures != self.repairs + self.unrepaired:
            raise ValueError(
                f"{self.failures} failures != {self.repairs} repairs + "
                f"{self.unrepaired} unrepaired"
            )
        if not 0.0 <= self.mean_availability <= 1.0:
            raise ValueError(
                f"mean availability {self.mean_availability} outside [0, 1]"
            )
        if not 0.0 <= self.collateral_chip_seconds <= self.lost_chip_seconds:
            raise ValueError(
                f"collateral {self.collateral_chip_seconds} chip-seconds "
                f"outside [0, lost = {self.lost_chip_seconds}]"
            )
        for name in ("min_available_chips", "peak_failed_chips"):
            if not 0 <= getattr(self, name) <= self.chips:
                raise ValueError(
                    f"{name} {getattr(self, name)} outside [0, {self.chips}]"
                )


class FleetSimulator:
    """One fabric's failure/repair dynamics over the horizon.

    Chip state and next failure times are ``(racks, chips_per_rack)``
    arrays: a rack migration suspends and restores its rack with masked
    array operations and draws the restored chips' renewals in one
    gather, while a photonic repair, which stalls one server, steps
    chip by chip.

    Build one simulator (and one fresh policy) per run; :meth:`run`
    consumes the instance, and once it returns the instance holds no
    reference cycle, so dropping it frees the run. Runs that pass the
    same ``draws`` (a :class:`RenewalDraws` for the config's chips, MTBF
    and seed) read the same renewal values without drawing them again;
    the stats are the same with or without it.
    """

    def __init__(
        self,
        config: FleetConfig,
        fabric: str,
        policy: RepairPolicy | None = None,
        log: EventLog | None = None,
        draws: RenewalDraws | None = None,
    ):
        if fabric not in FABRICS:
            raise ValueError(f"unknown fabric {fabric!r}; choose from {FABRICS}")
        self.config = config
        self.fabric = fabric
        self.policy = policy if policy is not None else make_policy("immediate")
        self.log = log if log is not None else NULL_LOG
        self._engine = EventEngine()
        self._process = RenewalFailureProcess(
            chips=config.chips, mtbf_s=config.mtbf_s, seed=config.seed, draws=draws
        )
        shape = (config.racks, config.chips_per_rack)
        self._state = np.full(shape, _OPERATIONAL, dtype=np.int8)
        # Next failure time of each chip: ``inf`` while the chip is out
        # of service or outlives the horizon. The engine holds one event
        # per rack, at its row's minimum.
        self._fail_at = np.full(shape, math.inf)
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

    def _renew(self, rack: int, slots: np.ndarray) -> None:
        """Return ``slots`` of ``rack`` to service with fresh failure
        draws (the caller re-arms the rack)."""
        base = rack * self.config.chips_per_rack
        t = self._engine.now_s + self._process.next_delays_s(slots + base)
        self._state[rack, slots] = _OPERATIONAL
        self._fail_at[rack, slots] = np.where(t <= self.config.horizon_s, t, math.inf)

    def _renew_chip(self, rack: int, slot: int) -> None:
        """:meth:`_renew` for one chip, with scalar operations."""
        chip = rack * self.config.chips_per_rack + slot
        t = self._engine.now_s + self._process.next_delay_s(chip)
        self._state[rack, slot] = _OPERATIONAL
        self._fail_at[rack, slot] = t if t <= self.config.horizon_s else math.inf

    def _arm(self, rack: int) -> None:
        """Point the rack's engine event at its earliest failure time."""
        row = self._fail_at[rack]
        t = row.item(row.argmin())
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
        # The event sits at the row minimum: its first slot is the chip
        # whose failure is due.
        slot = int(self._fail_at[rack].argmin())
        self._fail_at[rack, slot] = math.inf
        self._account()
        self._state[rack, slot] = _FAILED
        self._down_failed += 1
        self._failures += 1
        chip = rack * self.config.chips_per_rack + slot
        self._fail_times[chip] = self._engine.now_s
        if self._down_failed > self._peak_failed:
            self._peak_failed = self._down_failed
        self._record()
        self.policy.on_failure(chip, self._dispatch)
        self._arm(rack)

    def _repair_done(self, chip: int) -> None:
        """Count a failed chip's repair (the caller returns it to
        service)."""
        self._down_failed -= 1
        self._repairs += 1
        self._ttrs.append(self._engine.now_s - self._fail_times.pop(chip))

    def _dispatch(self, chip: int) -> None:
        """Hand a failed chip's repair to the fabric's executor."""
        if self._state.item(chip) != _FAILED:
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

    def _start_migrations(self) -> None:
        cfg = self.config
        while (
            self._migration_queue
            and self._active_migrations < cfg.max_concurrent_migrations
        ):
            rack = self._migration_queue.popleft()
            self._active_migrations += 1
            self._account()
            # Every operational chip of the rack goes down as collateral.
            state = self._state[rack]
            healthy = state == _OPERATIONAL
            state[healthy] = _SUSPENDED
            self._fail_at[rack, healthy] = math.inf
            self._down_collateral += int(np.count_nonzero(healthy))
            self._arm(rack)
            self._record()
            self._engine.schedule_after(
                cfg.migration_s, lambda rack=rack: self._complete_migration(rack)
            )

    def _complete_migration(self, rack: int) -> None:
        self._account()
        state = self._state[rack]
        down = (state != _OPERATIONAL).nonzero()[0]
        failed = (state == _FAILED).nonzero()[0]
        self._down_collateral -= down.size - failed.size
        base = rack * self.config.chips_per_rack
        for slot in failed.tolist():
            self._repair_done(base + slot)
        self._renew(rack, down)
        self._arm(rack)
        self._rack_busy[rack] = False
        self._active_migrations -= 1
        self._record()
        self._start_migrations()

    # -- photonic executor: spare-bounded circuit repairs -------------------------

    def _start_photonic_repair(self, chip: int) -> None:
        cfg = self.config
        rack, slot = divmod(chip, cfg.chips_per_rack)
        self._spares[rack] -= 1
        self._account()
        state = self._state[rack]
        fail_at = self._fail_at[rack]
        first = slot - slot % cfg.chips_per_server
        stalled = []
        for peer in range(first, min(first + cfg.chips_per_server, cfg.chips_per_rack)):
            if peer != slot and state.item(peer) == _OPERATIONAL:
                state[peer] = _SUSPENDED
                fail_at[peer] = math.inf
                stalled.append(peer)
        self._down_collateral += len(stalled)
        self._arm(rack)
        self._record()
        self._engine.schedule_after(
            cfg.circuit_setup_s,
            lambda: self._finish_photonic_repair(rack, slot, stalled),
        )

    def _finish_photonic_repair(
        self, rack: int, slot: int, stalled: list[int]
    ) -> None:
        self._account()
        self._repair_done(rack * self.config.chips_per_rack + slot)
        self._renew_chip(rack, slot)
        state = self._state[rack]
        for peer in stalled:
            if state.item(peer) == _SUSPENDED:
                self._down_collateral -= 1
                self._renew_chip(rack, peer)
        self._arm(rack)
        self._record()
        self._engine.schedule_after(
            self.config.spare_replenish_s, lambda: self._replenish(rack)
        )

    def _replenish(self, rack: int) -> None:
        self._spares[rack] += 1
        while self._spare_wait[rack] and self._spares[rack] > 0:
            chip = self._spare_wait[rack].popleft()
            if self._state.item(chip) == _FAILED:
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
        every = np.arange(cfg.chips_per_rack)
        for rack in range(cfg.racks):
            self._renew(rack, every)
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
    draws: RenewalDraws | None = None,
) -> FleetStats:
    """Run one fabric's fleet simulation with a fresh policy instance.

    ``log`` (when given and at ``info`` or lower) receives a
    ``fleet.progress`` heartbeat at each tenth of the horizon; ``draws``
    lends the run renewal values another run drew (see
    :class:`FleetSimulator`). The returned stats are byte-identical
    either way.
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
        draws=draws,
    ).run()
