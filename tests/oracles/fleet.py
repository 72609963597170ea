"""Fleet failure scheduling with one engine event per chip.

The straightforward form of
:class:`repro.fleet.simulator.FleetSimulator`'s renewal scheduling:
every in-service chip holds its own failure event, which is cancelled
when the chip leaves service and scheduled anew from a fresh draw when
it returns. Everything else — accounting, policies, repair executors —
is the simulator's own.
"""

from __future__ import annotations

from repro.fleet.simulator import FleetSimulator


class PerChipEventFleetSimulator(FleetSimulator):
    """:class:`FleetSimulator` with a failure event per in-service chip."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._chip_events = [None] * self.config.chips

    def _draw_failure(self, chip: int) -> None:
        t = self._engine.now_s + self._process.next_delay_s(chip)
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

    def _arm(self, rack: int) -> None:
        pass  # every chip's event is already in the engine
