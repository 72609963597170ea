"""Fleet simulation with one engine event and one Python step per chip.

The straightforward form of :class:`repro.fleet.simulator.FleetSimulator`:
chip state lives in plain lists, every in-service chip holds its own
failure event (cancelled when the chip leaves service and scheduled anew
from a fresh draw when it returns), a rack migration suspends and
restores its chips one at a time, and each chip reads its renewal stream
one scalar ``default_rng((seed, chip)).exponential(mtbf_s)`` call at a
time. It shares no code with the simulator beyond the configuration,
stats record, policies and time-weighted series, so the two must agree
on every :class:`~repro.fleet.simulator.FleetStats` field.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.fleet.policies import RepairPolicy, make_policy
from repro.fleet.simulator import FleetConfig, FleetStats
from repro.obs.metrics import nearest_rank
from repro.sim.engine import EventEngine
from repro.sim.scaffold import StepSeries, run_horizon

_OPERATIONAL, _FAILED, _SUSPENDED = 0, 1, 2


class PerChipEventFleetSimulator:
    """One fabric's fleet run with a failure event per in-service chip."""

    def __init__(
        self,
        config: FleetConfig,
        fabric: str,
        policy: RepairPolicy | None = None,
    ):
        self.config = config
        self.fabric = fabric
        self.policy = policy if policy is not None else make_policy("immediate")
        self._engine = EventEngine()
        self._streams = [
            np.random.default_rng((config.seed, chip))
            for chip in range(config.chips)
        ]
        self._state = [_OPERATIONAL] * config.chips
        self._chip_events = [None] * config.chips
        self._fail_times: dict[int, float] = {}
        self._down_failed = 0
        self._down_collateral = 0
        self._available = StepSeries(
            self._engine, "available chips", config.chips, level=config.chips, integrals=2
        )
        self._peak_failed = 0
        self._failures = 0
        self._repairs = 0
        self._ttrs: list[float] = []
        self._rack_busy = [False] * config.racks
        self._migration_queue: deque[int] = deque()
        self._active_migrations = 0
        self._spares = [config.spare_inventory] * config.racks
        self._spare_wait: list[deque[int]] = [deque() for _ in range(config.racks)]

    # -- occupancy accounting ----------------------------------------------------

    def _account(self) -> None:
        self._available.advance(
            self._down_failed + self._down_collateral, self._down_collateral
        )

    def _record(self) -> None:
        self._available.record(
            self.config.chips - self._down_failed - self._down_collateral
        )

    # -- failure renewal ----------------------------------------------------------

    def _draw_failure(self, chip: int) -> None:
        delay = float(self._streams[chip].exponential(self.config.mtbf_s))
        t = self._engine.now_s + delay
        if t <= self.config.horizon_s:
            self._chip_events[chip] = self._engine.schedule_at(
                t, lambda: self._on_failure(chip)
            )
        else:
            self._chip_events[chip] = None

    def _clear_failure(self, chip: int) -> None:
        event = self._chip_events[chip]
        if event is not None:
            event.cancel()
            self._chip_events[chip] = None

    def _on_failure(self, chip: int) -> None:
        self._chip_events[chip] = None
        self._account()
        self._state[chip] = _FAILED
        self._down_failed += 1
        self._failures += 1
        self._fail_times[chip] = self._engine.now_s
        if self._down_failed > self._peak_failed:
            self._peak_failed = self._down_failed
        self._record()
        self.policy.on_failure(chip, self._dispatch)

    def _suspend(self, chip: int) -> None:
        self._clear_failure(chip)
        self._state[chip] = _SUSPENDED
        self._down_collateral += 1

    def _restore(self, chip: int) -> None:
        self._state[chip] = _OPERATIONAL
        self._draw_failure(chip)

    def _repair_done(self, chip: int) -> None:
        self._down_failed -= 1
        self._repairs += 1
        self._ttrs.append(self._engine.now_s - self._fail_times.pop(chip))
        self._restore(chip)

    def _dispatch(self, chip: int) -> None:
        if self._state[chip] != _FAILED:
            return
        rack = chip // self.config.chips_per_rack
        if self.fabric == "photonic":
            if self._spares[rack] > 0:
                self._start_photonic_repair(chip)
            else:
                self._spare_wait[rack].append(chip)
        elif not self._rack_busy[rack]:
            self._rack_busy[rack] = True
            self._migration_queue.append(rack)
            self._start_migrations()

    # -- electrical executor ------------------------------------------------------

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
        self._rack_busy[rack] = False
        self._active_migrations -= 1
        self._record()
        self._start_migrations()

    # -- photonic executor --------------------------------------------------------

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
        self._record()
        rack = chip // self.config.chips_per_rack
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
        cfg = self.config
        self.policy.start(self._engine, self._dispatch)
        for chip in range(cfg.chips):
            self._draw_failure(chip)
        run_horizon(self._engine, cfg.horizon_s, lambda: None)
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
