"""A minimal discrete-event simulation engine.

The benches cross-check the paper's closed-form alpha-beta-r costs against
an *executed* model: flows progressing over capacity-limited links, with
congestion emerging from link sharing rather than being asserted. This
engine provides the core primitives: a monotonic clock, a priority event
queue, cancellable scheduled callbacks, and settle actions that run once
before the next event fires.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["Event", "EventEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on clock violations or a runaway simulation."""


@dataclass
class Event:
    """A scheduled callback.

    Attributes:
        time_s: absolute simulation time the event fires at.
        sequence: tie-breaker preserving scheduling order at equal times.
        action: the callback; ``None`` once :meth:`EventEngine.close`
            has dropped it.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
    """

    time_s: float
    sequence: int
    action: Callable[[], None] | None
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing."""
        self.cancelled = True


class EventEngine:
    """A time-ordered event loop.

    The queue holds ``(time_s, sequence, event)`` tuples: sequences are
    unique, so heap comparisons stop at the first two fields and run in C.

    Settle actions (:meth:`settle_before_next`) let a model batch the
    changes one instant makes: it marks itself dirty as often as it
    likes and recomputes once, before any further event can fire.

    Attributes:
        now_s: current simulation time, seconds.
    """

    def __init__(self, max_events: int = 10_000_000):
        self.now_s = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._max_events = max_events
        self._processed = 0
        self._settle: list[Callable[[], None]] = []

    def schedule_at(self, time_s: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute time ``time_s``.

        Raises:
            SimulationError: if the time is in the past or NaN (written
                ``not >=`` so NaN, which every comparison rejects, fails).
        """
        if not time_s >= self.now_s:
            raise SimulationError(
                f"cannot schedule at {time_s} before now ({self.now_s})"
            )
        sequence = next(self._sequence)
        event = Event(time_s, sequence, action)
        heapq.heappush(self._queue, (time_s, sequence, event))
        return event

    def schedule_after(self, delay_s: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` ``delay_s`` seconds from now.

        Raises:
            SimulationError: on a negative delay.
        """
        if delay_s < 0:
            raise SimulationError(f"negative delay {delay_s}")
        return self.schedule_at(self.now_s + delay_s, action)

    def settle_before_next(self, action: Callable[[], None]) -> None:
        """Run ``action`` once, at the current instant, before the next
        event fires.

        Settle actions run at the top of :meth:`next_event_time` (and so
        before :meth:`step` and :meth:`run` pick an event), in the order
        they were added. They may schedule events, including zero-delay
        ones, which then fire in sequence order as usual.
        """
        self._settle.append(action)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def next_event_time(self) -> float | None:
        """Fire time of the next live event, or None when none remain.

        Pending settle actions run first, so the answer reflects what
        they schedule. Cancelled events at the head of the queue are
        discarded as a side effect, so a ``None`` answer means
        :meth:`step` would return False.
        """
        while self._settle:
            settle, self._settle = self._settle, []
            for action in settle:
                action()
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty.

        The runaway bound is checked *before* the event is popped, so
        hitting it never consumes (and silently drops) the offending
        event — the queue is left intact for inspection.

        Raises:
            SimulationError: when running the next event would exceed
                the engine's ``max_events`` bound.
        """
        if self.next_event_time() is None:
            return False
        if self._processed >= self._max_events:
            raise SimulationError(
                f"exceeded {self._max_events} events; runaway simulation?"
            )
        time_s, _, event = heapq.heappop(self._queue)
        self.now_s = time_s
        self._processed += 1
        event.action()
        return True

    def run(self, until_s: float | None = None) -> float:
        """Run events (optionally only those at or before ``until_s``).

        Each event is :meth:`step`'s work with the next event time asked
        once: the runaway bound is checked before the pop, as there.

        Returns:
            The simulation time after the run.

        Raises:
            SimulationError: when running the next event would exceed
                the engine's ``max_events`` bound.
        """
        queue = self._queue
        while (next_time := self.next_event_time()) is not None:
            if until_s is not None and next_time > until_s:
                self.now_s = until_s
                return self.now_s
            if self._processed >= self._max_events:
                raise SimulationError(
                    f"exceeded {self._max_events} events; runaway simulation?"
                )
            event = heapq.heappop(queue)[2]
            self.now_s = next_time
            self._processed += 1
            event.action()
        if until_s is not None:
            self.now_s = max(self.now_s, until_s)
        return self.now_s

    def close(self) -> None:
        """Cancel every queued event and drop its callback, the queue and
        any pending settle action, so a finished run holds no closure over
        whatever scheduled it; ``now_s`` and :attr:`processed` stay
        readable."""
        for _, _, event in self._queue:
            event.cancelled = True
            event.action = None
        self._queue.clear()
        self._settle.clear()
