"""Tests for the discrete-event engine."""

import weakref

import pytest

from repro.sim.engine import EventEngine, SimulationError
from repro.sim.flows import Flow
from repro.sim.network import FlowNetwork


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(2.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]

    def test_ties_preserve_scheduling_order(self):
        engine = EventEngine()
        fired = []
        for name in "abc":
            engine.schedule_at(1.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_after_uses_now(self):
        engine = EventEngine()
        times = []
        engine.schedule_at(5.0, lambda: engine.schedule_after(2.0, lambda: times.append(engine.now_s)))
        engine.run()
        assert times == [7.0]

    def test_past_scheduling_rejected(self):
        engine = EventEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule_after(-1.0, lambda: None)


class TestExecution:
    def test_step_returns_false_when_empty(self):
        assert EventEngine().step() is False

    def test_clock_advances(self):
        engine = EventEngine()
        engine.schedule_at(3.0, lambda: None)
        engine.run()
        assert engine.now_s == 3.0

    def test_run_until_stops_early(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until_s=5.0)
        assert fired == [1]
        assert engine.now_s == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_cancelled_events_skipped(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []

    def test_processed_counter(self):
        engine = EventEngine()
        for i in range(5):
            engine.schedule_at(float(i), lambda: None)
        engine.run()
        assert engine.processed == 5

    def test_runaway_guard(self):
        engine = EventEngine(max_events=10)

        def reschedule():
            engine.schedule_after(1.0, reschedule)

        engine.schedule_after(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(until_s=100.0)

    def test_events_scheduled_during_run_fire(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: engine.schedule_at(2.0, lambda: fired.append(2)))
        engine.run()
        assert fired == [2]


class TestRunawayBound:
    """The bound is checked before the pop: the offending event is never
    silently consumed, and exactly ``max_events`` events run."""

    def test_exactly_max_events_allowed(self):
        engine = EventEngine(max_events=3)
        fired = []
        for i in range(3):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2]

    def test_overflow_event_not_consumed(self):
        engine = EventEngine(max_events=2)
        fired = []
        for i in range(3):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            engine.run()
        # The first two ran; the third is still queued, not dropped.
        assert fired == [0, 1]
        assert engine.pending == 1
        assert engine.next_event_time() == 2.0

    def test_clock_not_advanced_past_refused_event(self):
        engine = EventEngine(max_events=1)
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.run()
        assert engine.now_s == 1.0


class TestPendingCount:
    def test_pending_excludes_cancelled(self):
        engine = EventEngine()
        live = engine.schedule_at(1.0, lambda: None)
        doomed = engine.schedule_at(2.0, lambda: None)
        assert engine.pending == 2
        doomed.cancel()
        assert engine.pending == 1
        live.cancel()
        assert engine.pending == 0

    def test_cancelled_events_do_not_consume_budget(self):
        engine = EventEngine(max_events=2)
        for _ in range(5):
            engine.schedule_at(1.0, lambda: None).cancel()
        engine.schedule_at(2.0, lambda: None)
        engine.schedule_at(3.0, lambda: None)
        engine.run()
        assert engine.processed == 2


class TestSettle:
    def test_runs_once_before_the_next_event(self):
        engine = EventEngine()
        log = []
        engine.schedule_at(1.0, lambda: log.append("event"))
        engine.settle_before_next(lambda: log.append("settle"))
        engine.run()
        assert log == ["settle", "event"]

    def test_runs_before_events_of_the_same_instant(self):
        engine = EventEngine()
        log = []

        def handler():
            log.append("handler")
            engine.settle_before_next(lambda: log.append("settle"))

        engine.schedule_at(1.0, handler)
        engine.schedule_at(1.0, lambda: log.append("same instant"))
        engine.run()
        assert log == ["handler", "settle", "same instant"]

    def test_what_a_settle_schedules_is_seen(self):
        engine = EventEngine()
        fired = []
        engine.settle_before_next(
            lambda: engine.schedule_after(0.5, lambda: fired.append(engine.now_s))
        )
        assert engine.next_event_time() == 0.5
        engine.run()
        assert fired == [0.5]
        assert engine.processed == 1


class TestClose:
    def test_drops_queued_events_and_their_callbacks(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        held = engine.schedule_at(5.0, lambda: None)
        engine.run(until_s=2.0)
        engine.close()
        assert engine.next_event_time() is None
        assert held.cancelled and held.action is None
        assert engine.processed == 1 and engine.now_s == 2.0

    def test_drops_pending_settle_actions(self):
        # A dirty network's settle is dropped too: closing runs nothing
        # and keeps no reference to the network.
        engine = EventEngine()
        network = FlowNetwork(engine, {"a": 1.0})
        network.inject(Flow("f0", ("a",), 1.0))
        engine.close()
        assert engine.next_event_time() is None
        assert engine.processed == 0
        assert network.records[0].flow.rate_bytes_per_s == 0.0
        ref = weakref.ref(network)
        del network
        assert ref() is None
