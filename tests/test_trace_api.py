"""End-to-end tests for the tracing + metrics outputs.

Three guarantees under test:

1. Tracing is observation-only — instrumented runs produce results
   *exactly equal* to uninstrumented ones, and specs that don't request
   ``trace``/``metrics`` serialize without the keys (so every existing
   golden stays byte-identical).
2. The exported timeline tells the paper's story: 3.7 us switch
   reconfigurations, phase boundaries nested inside their schedules, and
   the failure-recovery sequence of Figures 6 and 7.
3. Trace and metrics sections survive the JSON/cache round trip.
"""

import pytest

from repro.api import (
    FabricSession,
    FailurePlan,
    MetricsRegistry,
    MetricsReport,
    RunResult,
    ScenarioSpec,
    SliceSpec,
    TraceReport,
    UnsupportedOutput,
    figure5b_slices,
    figure6_slices,
    run,
)
from repro.collectives.primitives import Interconnect, build_reduce_scatter_schedule
from repro.obs.tracer import Tracer
from repro.phy.constants import CHIP_EGRESS_BYTES
from repro.sim.runner import run_concurrent_schedules
from repro.topology.slices import Slice
from repro.topology.torus import Torus

RECONFIG_US = 3.7


def sim_spec(fabric="photonic", outputs=("trace",), **overrides):
    defaults = dict(
        fabric=fabric,
        slices=figure6_slices(),
        mode="sim",
        outputs=outputs,
        failures=FailurePlan(failed_chips=((1, 2, 0),)),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_trace_requires_sim_mode(self):
        with pytest.raises(ValueError, match="sim"):
            ScenarioSpec(
                slices=figure6_slices(), mode="closed_form",
                outputs=("trace",),
            )

    def test_metrics_requires_sim_mode(self):
        with pytest.raises(ValueError, match="sim"):
            ScenarioSpec(
                slices=figure6_slices(), mode="closed_form",
                outputs=("metrics",),
            )


class TestResultSerialization:
    def test_trace_and_metrics_omitted_when_absent(self):
        result = run(ScenarioSpec(
            slices=figure5b_slices(), outputs=("costs",),
        ))
        data = result.to_dict()
        assert "trace" not in data
        assert "metrics" not in data

    def test_round_trip(self):
        result = run(sim_spec(outputs=("trace", "metrics")))
        restored = RunResult.from_json(result.to_json())
        assert restored == result
        assert isinstance(restored.trace, TraceReport)
        assert isinstance(restored.metrics, MetricsReport)

    def test_disk_cache_round_trip(self, tmp_path):
        from repro.api import DiskResultCache, spec_key

        spec = sim_spec(outputs=("trace", "metrics"))
        result = run(spec)
        cache = DiskResultCache(tmp_path)
        cache.put(spec_key(spec), result)
        assert cache.get(spec_key(spec)) == result

    def test_corrupt_cached_trace_event_is_a_miss(self, tmp_path):
        """A cached trace entry whose event ``args`` is a list is read as
        a miss, and the session evaluates the spec again."""
        import json

        from repro.api import DiskResultCache, FabricSession, spec_key

        spec = sim_spec(outputs=("trace",))
        cache = DiskResultCache(tmp_path)
        first = FabricSession(result_cache=cache).run(spec)
        path = cache._path(spec_key(spec))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["trace"]["events"][0]["args"] = [1]
        path.write_text(json.dumps(data), encoding="utf-8")
        session = FabricSession(result_cache=cache)
        assert session.run(spec) == first
        assert session.runs_executed == 1
        assert cache.get(spec_key(spec)) == first


class TestPhotonicTrace:
    @pytest.fixture(scope="class")
    def report(self):
        return run(sim_spec()).trace

    def test_reconfiguration_spans_are_3_7_us(self, report):
        durations = [s.dur_us for s in report.spans("reconfig")]
        assert durations  # circuit switching is on the timeline
        assert all(d == pytest.approx(RECONFIG_US) for d in durations)

    def test_failure_recovery_sequence(self, report):
        (failure,) = report.instants("failure")
        assert failure.name == "chip-failure"
        names = [s.name for s in report.spans("recovery")]
        assert "optical-repair" in names
        mzi = [s for s in report.spans("reconfig") if "mzi" in s.name]
        assert mzi  # repair reconfigures real circuits
        recovered = [
            i for i in report.instants("recovery")
            if i.name == "slice-recovered"
        ]
        assert recovered
        # Recovery happens after the failure, never before.
        assert all(s.ts_us >= failure.ts_us for s in report.spans("recovery"))

    def test_filtered_keeps_metadata(self, report):
        filtered = report.filtered(("reconfig",))
        assert filtered.categories() == ("reconfig",)
        assert any(e.ph == "M" for e in filtered.events)

    def test_chrome_export_sorted(self, report):
        events = report.to_chrome()["traceEvents"]
        payload_ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert payload_ts == sorted(payload_ts)
        assert events[0]["ph"] == "M"


class TestElectricalTrace:
    def test_rack_migration_story(self):
        report = run(sim_spec(fabric="electrical")).trace
        # Figure 6a: every replacement candidate is congested ...
        attempts = [
            i for i in report.instants("recovery")
            if i.name.startswith("replacement-candidate")
        ]
        assert attempts
        assert all(
            dict(i.args).get("feasible") is False for i in attempts
        )
        # ... so the fabric pays a full rack migration.
        (migration,) = report.spans("recovery")
        assert migration.name == "rack-migration"
        assert migration.dur_us > 1e6  # checkpoint/restore dominates

    def test_workload_only_trace_has_no_failure(self):
        report = run(sim_spec(failures=FailurePlan())).trace
        assert report.instants("failure") == ()
        assert report.spans("schedule")  # workload still traced


class TestSwitchedBackend:
    def test_trace_unsupported(self):
        with pytest.raises(UnsupportedOutput, match="metrics"):
            run(sim_spec(fabric="switched"))

    def test_metrics_supported(self):
        report = run(sim_spec(
            fabric="switched", outputs=("metrics",),
        )).metrics
        assert report.value("switched.contention_loss_fraction") >= 0


class TestMetricsOutput:
    def test_sim_counters_are_deterministic(self):
        first = run(sim_spec(outputs=("metrics",))).metrics
        second = FabricSession().run(sim_spec(outputs=("metrics",))).metrics
        assert first == second
        assert first.value("sim.flows_completed") > 0
        assert first.value("sim.reconfig_s_total") == pytest.approx(
            4 * RECONFIG_US * 1e-6
        )

    def test_report_is_name_sorted(self):
        report = run(sim_spec(outputs=("metrics",))).metrics
        names = report.names()
        assert list(names) == sorted(names)


class TestInstrumentationIsObservationOnly:
    def test_api_results_equal_uninstrumented(self):
        plain = FabricSession().run(sim_spec(outputs=("telemetry",)))
        observed = FabricSession().run(
            sim_spec(outputs=("telemetry", "trace", "metrics"))
        )
        assert observed.telemetry == plain.telemetry


class TestConcurrentScheduleTracing:
    """Satellite: tracing under run_concurrent_schedules with flows
    injected by the runner's completion callbacks (phase chaining)."""

    def build(self):
        rack = Torus((4, 4, 4))
        a = Slice(name="a", rack=rack, offset=(0, 0, 0), shape=(4, 2, 1))
        b = Slice(name="b", rack=rack, offset=(0, 2, 2), shape=(4, 1, 1))
        schedules = [
            build_reduce_scatter_schedule(a, 1 << 20, Interconnect.OPTICAL),
            build_reduce_scatter_schedule(b, 1 << 20, Interconnect.ELECTRICAL),
        ]
        caps = {link: CHIP_EGRESS_BYTES / 3 for link in rack.links()}
        return schedules, caps

    def test_results_exactly_equal_uninstrumented(self):
        schedules, caps = self.build()
        plain = run_concurrent_schedules(schedules, caps)
        tracer = Tracer()
        traced = run_concurrent_schedules(schedules, caps, tracer=tracer)
        assert traced == plain
        observed, _ = run_concurrent_schedules(
            schedules, caps, telemetry=True, tracer=Tracer()
        )
        assert observed == plain

    def test_span_nesting_matches_phase_boundaries(self):
        schedules, caps = self.build()
        tracer = Tracer()
        results = run_concurrent_schedules(schedules, caps, tracer=tracer)
        for tid, (schedule, result) in enumerate(
            zip(schedules, results), start=1
        ):
            (outer,) = [s for s in tracer.spans("schedule") if s.tid == tid]
            phases = sorted(
                (s for s in tracer.spans("phase") if s.tid == tid),
                key=lambda s: s.ts_us,
            )
            # One phase span per schedule phase, all nested in the
            # schedule span, in order, and matching the measured
            # durations the runner reports.
            assert len(phases) == len(schedule.phases)
            for span, duration in zip(phases, result.phase_durations_s):
                assert span.ts_us >= outer.ts_us - 1e-9
                assert span.end_us <= outer.end_us + 1e-9
                assert span.dur_us == pytest.approx(duration * 1e6, abs=1e-6)
            for earlier, later in zip(phases, phases[1:]):
                assert earlier.end_us <= later.ts_us + 1e-9

    def test_flow_spans_stay_inside_their_phase_windows(self):
        schedules, caps = self.build()
        tracer = Tracer()
        run_concurrent_schedules(schedules, caps, tracer=tracer)
        phases = tracer.spans("phase")
        horizon = max(s.end_us for s in phases)
        for flow in tracer.spans("flow"):
            # Flows are injected by phase-start callbacks, so every flow
            # lies within the union of phase windows.
            assert flow.ts_us >= 0
            assert flow.end_us <= horizon + 1e-9
            assert any(
                p.ts_us - 1e-9 <= flow.ts_us and flow.end_us <= p.end_us + 1e-9
                for p in phases
            )

    def test_thread_names_label_each_schedule(self):
        schedules, caps = self.build()
        tracer = Tracer()
        run_concurrent_schedules(schedules, caps, tracer=tracer)
        labels = {
            dict(e.args)["name"]
            for e in tracer.events
            if e.ph == "M"
        }
        assert labels == {"network", *(s.name for s in schedules)}


class TestSessionInstrumentation:
    def test_registry_sees_hits_misses_and_timing(self):
        registry = MetricsRegistry()
        session = FabricSession(metrics=registry)
        spec = ScenarioSpec(
            fabric="photonic",
            slices=(SliceSpec("Slice-1", (4, 2, 1), (0, 0, 0)),),
            outputs=("costs",),
        )
        session.run(spec)
        session.run(spec)
        snap = registry.snapshot()
        assert snap["session.photonic.cache_misses"]["value"] == 1.0
        assert snap["session.photonic.cache_hits"]["value"] == 1.0
        assert snap["session.photonic.eval_seconds"]["count"] == 1
