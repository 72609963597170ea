"""Pluggable repair-dispatch policies for the fleet simulator.

A policy decides *when* a failed chip's repair request is handed to the
fabric's repair executor (which then enforces the bandwidth budget —
concurrent rack migrations or spare inventory). Three policies model the
operational spectrum:

* :class:`ImmediatePolicy` — dispatch the moment the chip fails.
* :class:`LazyThresholdPolicy` — batch failures until ``threshold`` are
  pending, then dispatch them all (the CR-SIM ``lazy_recovery`` /
  ``recovery_threshold`` idiom: trade availability for fewer, larger
  repair operations).
* :class:`BatchedPolicy` — dispatch everything pending on a fixed
  maintenance cadence (the technician-rounds model).

Policies are stateful per run: build a fresh instance per simulation.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..sim.engine import EventEngine

__all__ = [
    "RepairPolicy",
    "ImmediatePolicy",
    "LazyThresholdPolicy",
    "BatchedPolicy",
    "make_policy",
    "POLICY_NAMES",
]

POLICY_NAMES = ("immediate", "lazy", "batched")


class RepairPolicy(Protocol):
    """Dispatch scheduling contract the simulator drives. The simulator
    passes its ``dispatch`` sink into each call; a policy keeps it only
    in timers on the run's engine, which drops them when the run ends."""

    name: str

    def start(
        self, engine: EventEngine, dispatch: Callable[[int], None]
    ) -> None:
        """Arm any timers on the run's engine before events flow."""
        ...

    def on_failure(self, chip: int, dispatch: Callable[[int], None]) -> None:
        """A chip just failed; dispatch it now or hold it."""
        ...

    @property
    def held(self) -> int:
        """Failed chips held back, not yet dispatched."""
        ...


class ImmediatePolicy:
    """Dispatch every failure the moment it happens."""

    name = "immediate"

    def start(
        self, engine: EventEngine, dispatch: Callable[[int], None]
    ) -> None:
        pass

    def on_failure(self, chip: int, dispatch: Callable[[int], None]) -> None:
        dispatch(chip)

    @property
    def held(self) -> int:
        return 0


class _HoldingPolicy:
    """Shared pending-queue plumbing for the batching policies."""

    def __init__(self) -> None:
        self._pending: list[int] = []

    def start(
        self, engine: EventEngine, dispatch: Callable[[int], None]
    ) -> None:
        pass

    def _flush(self, dispatch: Callable[[int], None]) -> None:
        pending, self._pending = self._pending, []
        for chip in pending:
            dispatch(chip)

    @property
    def held(self) -> int:
        return len(self._pending)


class LazyThresholdPolicy(_HoldingPolicy):
    """Hold failures until ``threshold`` are pending, then dispatch all."""

    name = "lazy"

    def __init__(self, threshold: int = 4):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        super().__init__()
        self.threshold = threshold

    def on_failure(self, chip: int, dispatch: Callable[[int], None]) -> None:
        self._pending.append(chip)
        if len(self._pending) >= self.threshold:
            self._flush(dispatch)


class BatchedPolicy(_HoldingPolicy):
    """Dispatch everything pending every ``interval_s`` seconds."""

    name = "batched"

    def __init__(self, interval_s: float = 21600.0):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        super().__init__()
        self.interval_s = interval_s

    def start(
        self, engine: EventEngine, dispatch: Callable[[int], None]
    ) -> None:
        engine.schedule_after(
            self.interval_s, lambda: self._tick(engine, dispatch)
        )

    def _tick(
        self, engine: EventEngine, dispatch: Callable[[int], None]
    ) -> None:
        self._flush(dispatch)
        self.start(engine, dispatch)

    def on_failure(self, chip: int, dispatch: Callable[[int], None]) -> None:
        self._pending.append(chip)


def make_policy(
    name: str,
    lazy_threshold: int = 4,
    batch_interval_s: float = 21600.0,
) -> RepairPolicy:
    """A fresh policy instance for one simulation run.

    Raises:
        ValueError: for an unknown policy name.
    """
    if name == "immediate":
        return ImmediatePolicy()
    if name == "lazy":
        return LazyThresholdPolicy(lazy_threshold)
    if name == "batched":
        return BatchedPolicy(batch_interval_s)
    raise ValueError(
        f"unknown repair policy {name!r}; choose from {POLICY_NAMES}"
    )
