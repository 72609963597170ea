"""Scaffolding shared by the event-driven simulators (:mod:`repro.fleet`
and :mod:`repro.tenancy`): the fabrics they model, the finite-float check
their configs (and the specs that plan them) run, a time-weighted step
series, and a horizon runner with a sim-time progress hook."""

from __future__ import annotations

import math
from typing import Any, Callable

from .engine import EventEngine, SimulationError

__all__ = ["FABRICS", "StepSeries", "require_finite", "run_horizon"]

#: Fabrics the simulators model.
FABRICS = ("electrical", "photonic")

#: Progress checkpoints per run, one at each tenth of the horizon.
_CHECKPOINTS = 10


def require_finite(record: Any, *names: str) -> None:
    """Raise ``ValueError`` naming ``Class.field`` for an infinite or NaN
    value, which every ``<=`` bound check lets through (JSON may spell
    one ``Infinity``, ``NaN`` or ``1e999``)."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(
                f"{type(record).__name__}.{name} must be finite, got {value!r}"
            )


class StepSeries:
    """A level that changes only at events, integrated over sim time.

    Call :meth:`advance` before each state change, with the rates in
    force since the last one, and :meth:`record` after it, with the new
    level. ``totals`` holds the rates' integrals in argument order and
    ``transitions`` the ``(time_s, level)`` steps from time zero.
    """

    def __init__(
        self, engine: EventEngine, label: str, limit: int, level: int, integrals: int
    ) -> None:
        self._engine = engine
        self._label = label
        self._limit = limit
        self._last_t = 0.0
        self.totals = [0.0] * integrals
        self.transitions: list[tuple[float, int]] = [(0.0, level)]

    def advance(self, *rates: float) -> None:
        """Integrate each rate over the time since the last advance."""
        now = self._engine.now_s
        dt = now - self._last_t
        if dt > 0:
            self.totals = [total + rate * dt for total, rate in zip(self.totals, rates)]
            self._last_t = now

    def record(self, level: int) -> None:
        """Append the level after a state change.

        Raises:
            SimulationError: when ``level`` leaves ``[0, limit]``.
        """
        now = self._engine.now_s
        if not 0 <= level <= self._limit:
            raise SimulationError(
                f"{self._label} {level} outside [0, {self._limit}] at t={now}"
            )
        self.transitions.append((now, level))

    def buckets(self, horizon_s: float, points: int) -> tuple[tuple[float, float, float], ...]:
        """``(start_s, end_s, mean level)`` per equal bucket of the horizon."""
        width = horizon_s / points
        integrals = [0.0] * points
        ends = [t for t, _ in self.transitions[1:]] + [horizon_s]
        for (t0, level), t1 in zip(self.transitions, ends):
            bucket = min(int(t0 // width), points - 1)
            while t0 < t1 and bucket < points:
                edge = min(t1, (bucket + 1) * width)
                integrals[bucket] += level * (edge - t0)
                t0 = edge
                bucket += 1
        return tuple((i * width, (i + 1) * width, integrals[i] / width) for i in range(points))


def run_horizon(
    engine: EventEngine, horizon_s: float, checkpoint: Callable[[], None]
) -> None:
    """Run every event at or before ``horizon_s``, then close the engine.

    The run stops at each tenth of the horizon to call ``checkpoint``,
    which sees the state after every event at or before that instant. A
    checkpoint is not an event: the engine's processed count and the
    run's results do not depend on it.
    """
    try:
        for k in range(1, _CHECKPOINTS + 1):
            engine.run(
                until_s=k * horizon_s / _CHECKPOINTS if k < _CHECKPOINTS else horizon_s
            )
            checkpoint()
    finally:
        engine.close()
