"""Tests for the fluid flow network."""

import pytest

from repro.sim.engine import EventEngine, SimulationError
from repro.sim.flows import Flow
from repro.sim.network import FlowNetwork


def make(caps=None):
    engine = EventEngine()
    return engine, FlowNetwork(engine, caps or {"l1": 10.0, "l2": 10.0})


class TestSingleFlow:
    def test_completion_time(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), remaining_bytes=100.0))
        finish = network.run_until_idle()
        assert finish == pytest.approx(10.0)

    def test_record_duration(self):
        engine, network = make()
        record = network.inject(Flow("a", ("l1",), 50.0))
        network.run_until_idle()
        assert record.duration_s == pytest.approx(5.0)

    def test_duration_before_finish_raises(self):
        engine, network = make()
        record = network.inject(Flow("a", ("l1",), 50.0))
        with pytest.raises(SimulationError):
            _ = record.duration_s


class TestSharing:
    def test_two_flows_share_then_speed_up(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 100.0))
        network.inject(Flow("b", ("l1",), 50.0))
        network.run_until_idle()
        records = {r.flow.flow_id: r for r in network.records}
        # b finishes at t=10 (5 B/s each); a then gets 10 B/s for its
        # remaining 50 bytes -> t=15.
        assert records["b"].finish_s == pytest.approx(10.0)
        assert records["a"].finish_s == pytest.approx(15.0)

    def test_late_arrival_slows_existing_flow(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 100.0))
        engine.schedule_at(
            5.0, lambda: network.inject(Flow("b", ("l1",), 25.0))
        )
        network.run_until_idle()
        records = {r.flow.flow_id: r for r in network.records}
        # a does 50 bytes alone by t=5, then shares: b's 25 bytes at 5 B/s
        # end at t=10; a's remaining 25 run at 5 B/s until t=10 then full
        # rate: finishes at 12.5.
        assert records["b"].finish_s == pytest.approx(10.0)
        assert records["a"].finish_s == pytest.approx(12.5)

    def test_disjoint_flows_independent(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 100.0))
        network.inject(Flow("b", ("l2",), 40.0))
        network.run_until_idle()
        records = {r.flow.flow_id: r for r in network.records}
        assert records["a"].finish_s == pytest.approx(10.0)
        assert records["b"].finish_s == pytest.approx(4.0)


class TestCallbacks:
    def test_on_complete_fires_once_at_finish(self):
        # Regression: completion callbacks are deferred to zero-delay
        # events, and run_until_idle used to exit as soon as the last
        # flow left _active — dropping the queued callbacks. No trailing
        # engine.run() is allowed here; run_until_idle alone must deliver.
        engine, network = make()
        calls = []
        network.inject(
            Flow("a", ("l1",), 100.0),
            on_complete=lambda record: calls.append(engine.now_s),
        )
        network.run_until_idle()
        assert calls == [pytest.approx(10.0)]

    def test_run_until_idle_runs_callback_injected_flows(self):
        engine, network = make()
        finishes = []

        def chain(record):
            finishes.append(engine.now_s)
            if len(finishes) < 3:
                network.inject(
                    Flow(f"f{len(finishes)}", ("l1",), 10.0), on_complete=chain
                )

        network.inject(Flow("f0", ("l1",), 10.0), on_complete=chain)
        network.run_until_idle()
        assert finishes == [
            pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)
        ]

    def test_run_until_idle_leaves_future_events_alone(self):
        # Draining covers only events already due (the deferred
        # callbacks); an unrelated event the caller scheduled for later
        # must still be pending afterwards.
        engine, network = make()
        later = []
        network.inject(Flow("a", ("l1",), 100.0))
        engine.schedule_after(99.0, lambda: later.append(engine.now_s))
        finish = network.run_until_idle()
        assert finish == pytest.approx(10.0)
        assert later == []
        engine.run()
        assert later == [pytest.approx(99.0)]

    def test_callback_can_inject_next_flow(self):
        engine, network = make()
        finishes = []

        def chain(record):
            finishes.append(engine.now_s)
            if len(finishes) < 3:
                network.inject(
                    Flow(f"f{len(finishes)}", ("l1",), 10.0), on_complete=chain
                )

        network.inject(Flow("f0", ("l1",), 10.0), on_complete=chain)
        engine.run()
        assert finishes == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


class TestInlineCompletion:
    """A flow that completes inside a settle frees its share at once."""

    def test_zero_byte_flow_frees_its_share(self):
        # Injected together, the empty flow takes half the link in the
        # settle that completes it; the other flow must get the whole
        # link back at that instant, not at its own completion.
        engine, network = make({"l1": 1.0})
        network.inject(Flow("empty", ("l1",), 0.0))
        network.inject(Flow("one", ("l1",), 1.0))
        assert network.run_until_idle() == 1.0
        assert [r.finish_s for r in network.records] == [0.0, 1.0]

    def test_flow_debited_to_zero_frees_its_share(self):
        # A's completion debits B to exactly 0 bytes, so B completes
        # inside the settle A's completion triggers; C then has L alone.
        engine, network = make({"X": 1.0, "L": 2.0})
        network.inject(Flow("A", ("X",), 1.0))
        network.inject(Flow("B", ("L",), 1.0))
        network.inject(Flow("C", ("L",), 3.0))
        assert network.run_until_idle() == 2.0
        assert [r.finish_s for r in network.records] == [1.0, 1.0, 2.0]

    def test_same_finish_without_the_unrelated_flow(self):
        engine, network = make({"X": 1.0, "L": 2.0})
        network.inject(Flow("B", ("L",), 1.0))
        network.inject(Flow("C", ("L",), 3.0))
        assert network.run_until_idle() == 2.0


class TestValidation:
    def test_duplicate_id_rejected(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 1.0))
        with pytest.raises(SimulationError):
            network.inject(Flow("a", ("l1",), 1.0))

    def test_zero_byte_flow_completes_immediately(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 0.0))
        network.run_until_idle()
        assert network.records[0].finish_s == pytest.approx(0.0)

    def test_active_count(self):
        engine, network = make()
        network.inject(Flow("a", ("l1",), 100.0))
        assert network.active_flow_count() == 1
        network.run_until_idle()
        assert network.active_flow_count() == 0

    def test_zeroed_demand_cap_diagnosed_accurately(self):
        # Regression: a demand cap zeroed after construction used to
        # freeze the flow at rate 0 and raise "starved (zero rate);
        # check link capacities" — blaming the (perfectly fine) links.
        # The rate model now rejects the cap itself, by name, when the
        # network next settles its rates.
        engine, network = make()
        record = network.inject(Flow("a", ("l1",), 100.0, demand_bytes_per_s=5.0))
        record.flow.demand_bytes_per_s = 0.0
        network.inject(Flow("b", ("l1",), 50.0))
        with pytest.raises(ValueError, match="not at fault"):
            network.run_until_idle()

    def test_nan_capacity_named(self):
        # NaN <= 0 is False: a NaN capacity used to reach the kernel and
        # fail there with an IndexError instead of naming the link.
        engine, network = make({"l1": float("nan")})
        network.inject(Flow("a", ("l1",), 100.0))
        with pytest.raises(
            ValueError, match=r"link 'l1' has non-positive capacity nan"
        ):
            network.run_until_idle()

    def test_infinite_capacity_named(self):
        # inf passed the positivity check; the debit inf - inf then gave
        # "b" a NaN rate and a completion event at a NaN time.
        inf = float("inf")
        engine, network = make({"x": inf, "z": inf})
        network.inject(Flow("a", ("x", "z"), 4.0))
        network.inject(Flow("b", ("z",), 4.0))
        with pytest.raises(
            ValueError, match=r"link 'x' has infinite capacity inf"
        ):
            network.run_until_idle()

    @pytest.mark.parametrize("demand", [None, 1000.0])
    def test_reused_flow_id_runs_on_its_own_links(self, demand):
        # Link indices were cached by flow id and never dropped, so a
        # second flow "f" ran on the first one's link "a". A (slack)
        # demand cap sends the settle down the whole-population path.
        engine, network = make({"a": 1.0, "b": 100.0})
        network.inject(Flow("f", ("a",), 100.0, demand))
        assert network.run_until_idle() == 100.0
        network.inject(Flow("f", ("b",), 100.0, demand))
        assert network.run_until_idle() == 101.0

    def test_rejected_flow_leaves_no_trace(self):
        # A flow is validated before it touches any state.
        engine, network = make()
        with pytest.raises(KeyError, match="unknown link 'ghost'"):
            network.inject(Flow("a", ("l1", "ghost"), 10.0))
        assert network.active_flow_count() == 0
        assert network.records == []
        network.inject(Flow("a", ("l1",), 10.0))
        assert network.run_until_idle() == pytest.approx(1.0)
