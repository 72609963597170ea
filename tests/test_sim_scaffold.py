"""Tests for the simulator scaffold (``repro.sim.scaffold``): the
time-weighted step series, the horizon runner and engine teardown."""

import pytest

from repro.sim.engine import EventEngine, SimulationError
from repro.sim.scaffold import StepSeries, run_horizon


def _series(changes, level):
    """A StepSeries fed ``(time_s, level)`` changes as engine events,
    integrating its own level."""
    engine = EventEngine()
    series = StepSeries(engine, "chips", limit=10, level=level, integrals=1)

    def change(new_level):
        series.advance(series.transitions[-1][1])
        series.record(new_level)

    for time_s, new_level in changes:
        engine.schedule_at(time_s, lambda n=new_level: change(n))
    engine.run()
    return series


def _plain_buckets(transitions, horizon_s, points):
    """Each bucket's mean level, integrated segment by segment."""
    width = horizon_s / points
    ends = [t for t, _ in transitions[1:]] + [horizon_s]
    buckets = []
    for i in range(points):
        lo, hi = i * width, (i + 1) * width
        area = sum(
            level * max(0.0, min(t1, hi) - max(t0, lo))
            for (t0, level), t1 in zip(transitions, ends)
        )
        buckets.append((lo, hi, area / width))
    return tuple(buckets)


class TestStepSeries:
    @pytest.mark.parametrize(
        "changes",
        [
            [(2.0, 4)],  # exactly on a bucket edge
            [(0.25, 1), (0.5, 3), (1.5, 2)],  # several inside one bucket
            [(3.0, 5), (3.0, 6), (3.0, 2)],  # zero-length intervals
            [(7.5, 9)],  # the last level runs to the horizon
            [],
        ],
        ids=["edge", "same-bucket", "zero-length", "to-horizon", "constant"],
    )
    def test_buckets_match_a_plain_integral(self, changes):
        series = _series(changes, level=1)
        assert series.buckets(8.0, 4) == _plain_buckets(
            series.transitions, 8.0, 4
        )
        # Advancing before each change integrated the level up to the
        # last change.
        transitions = series.transitions
        assert series.totals[0] == sum(
            level * (t1 - t0)
            for (t0, level), (t1, _) in zip(transitions, transitions[1:])
        )

    def test_transitions_start_at_the_initial_level(self):
        series = _series([(1.0, 3), (2.0, 0)], level=7)
        assert series.transitions == [(0.0, 7), (1.0, 3), (2.0, 0)]

    def test_advance_integrates_each_rate_in_order(self):
        engine = EventEngine()
        series = StepSeries(engine, "chips", limit=4, level=4, integrals=2)
        engine.now_s = 2.0
        series.advance(3, 0.5)
        series.advance(9, 9)  # no time has passed: nothing to add
        engine.now_s = 3.0
        series.advance(1, 0.25)
        assert series.totals == [7.0, 1.25]

    @pytest.mark.parametrize("level", [-1, 11])
    def test_out_of_range_level_raises(self, level):
        engine = EventEngine()
        series = StepSeries(engine, "chips", limit=10, level=0, integrals=1)
        engine.now_s = 1.5
        with pytest.raises(
            SimulationError, match=rf"chips {level} outside \[0, 10\] at t=1.5"
        ):
            series.record(level)


class TestRunHorizon:
    def test_checkpoints_fall_on_tenths_after_due_events(self):
        engine = EventEngine()
        fired, seen = [], []
        for t in (0.0, 1.0, 2.5, 3.0, 9.99, 10.0, 11.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        run_horizon(engine, 10.0, lambda: seen.append((engine.now_s, len(fired))))
        assert seen == [
            (1.0, 2), (2.0, 2), (3.0, 4), (4.0, 4), (5.0, 4),
            (6.0, 4), (7.0, 4), (8.0, 4), (9.0, 4), (10.0, 6),
        ]
        assert engine.processed == 6

    def test_closes_the_engine(self):
        engine = EventEngine()
        engine.schedule_at(20.0, lambda: None)
        run_horizon(engine, 10.0, lambda: None)
        assert engine.now_s == 10.0
        assert engine.next_event_time() is None

    def test_closes_the_engine_when_a_handler_raises(self):
        engine = EventEngine()

        def fail():
            raise SimulationError("boom")

        engine.schedule_at(1.0, fail)
        engine.schedule_at(2.0, lambda: None)
        with pytest.raises(SimulationError):
            run_horizon(engine, 10.0, lambda: None)
        assert engine.next_event_time() is None
