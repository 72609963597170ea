"""Tests for the ScenarioSpec -> FabricSession -> RunResult experiment API."""

import pytest

from repro.api import (
    CongestionSummary,
    CostReport,
    DeviceReport,
    FabricBackend,
    FabricSession,
    FailurePlan,
    RunResult,
    ScenarioSpec,
    SliceSpec,
    TelemetryReport,
    UnsupportedOutput,
    available_backends,
    create_backend,
    figure5b_slices,
    figure6_slices,
    register_backend,
    run,
    table1_slices,
    unregister_backend,
)


class TestScenarioSpec:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.fabric == "photonic"
        assert spec.rack_shape == (4, 4, 4)

    def test_is_hashable(self):
        a = ScenarioSpec(slices=figure5b_slices())
        b = ScenarioSpec(slices=figure5b_slices())
        assert a == b and hash(a) == hash(b)

    def test_lists_are_normalized_to_tuples(self):
        spec = ScenarioSpec(
            rack_shape=[4, 4, 4],
            slices=[SliceSpec("S", [2, 2, 1], [0, 0, 0])],
            outputs=["costs"],
        )
        assert spec.rack_shape == (4, 4, 4)
        assert spec.slices[0].shape == (2, 2, 1)
        assert spec.outputs == ("costs",)

    def test_rejects_unknown_output(self):
        with pytest.raises(ValueError, match="unknown outputs"):
            ScenarioSpec(outputs=("nonsense",))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ScenarioSpec(mode="quantum")

    def test_telemetry_requires_sim_mode(self):
        with pytest.raises(ValueError, match="sim"):
            ScenarioSpec(outputs=("telemetry",))

    def test_slice_shape_offset_mismatch(self):
        with pytest.raises(ValueError, match="dimensionality"):
            SliceSpec("S", (2, 2), (0, 0, 0))

    def test_json_round_trip(self):
        spec = ScenarioSpec(
            fabric="electrical",
            slices=figure6_slices(),
            buffer_bytes=1 << 20,
            mode="sim",
            outputs=("costs", "telemetry"),
            failures=FailurePlan(failed_chips=((1, 2, 0),), fleet_days=30),
            seed=7,
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_with_fabric_and_outputs(self):
        spec = ScenarioSpec(slices=table1_slices())
        assert spec.with_fabric("electrical").fabric == "electrical"
        assert spec.with_outputs("congestion").outputs == ("congestion",)
        # originals untouched (frozen)
        assert spec.fabric == "photonic"


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in ("electrical", "photonic", "switched", "optical"):
            assert name in names

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            create_backend("warpdrive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("photonic", lambda: None)

    def test_third_party_backend_selected_by_spec(self):
        class NullFabric:
            name = "null"

            def capability_rows(self, session, spec):
                return (("medium", "vacuum"),)

            def cost_report(self, session, spec):
                raise UnsupportedOutput("null fabric moves no bytes")

        register_backend("null", NullFabric)
        try:
            result = run(
                ScenarioSpec(fabric="null", outputs=("capabilities",)),
                session=FabricSession(),
            )
            assert result.fabric == "null"
            assert result.capabilities == (("medium", "vacuum"),)
        finally:
            unregister_backend("null")

    def test_builtin_backends_satisfy_protocol(self):
        for name in ("electrical", "photonic", "switched"):
            assert isinstance(create_backend(name), FabricBackend)


#: Every output a built-in backend refuses, and the reason it gives.
REFUSALS = [
    (
        "switched",
        "link_utilization",
        "the switched fabric has no per-link torus topology; its "
        'contention story lives in the "telemetry" output',
    ),
    (
        "switched",
        "repair",
        "the switched fabric models a single server; chip repair is a "
        "host maintenance event, not a fabric operation",
    ),
    ("switched", "device", "the switched fabric has no photonic device models"),
    ("switched", "blast_radius", "blast-radius policies compare torus recovery strategies"),
    (
        "switched",
        "fleet",
        "the fleet simulation compares torus repair mechanisms; the "
        "switched fabric models a single server",
    ),
    (
        "switched",
        "tenancy",
        "the tenancy simulation places slices on torus racks; the "
        "switched fabric models a single server",
    ),
    (
        "switched",
        "trace",
        "the switched fabric's contention model is closed-form — there "
        'is no event timeline to trace; use the "metrics" output',
    ),
    ("electrical", "device", "the electrical fabric has no photonic device models"),
]


class TestRefusals:
    @pytest.mark.parametrize(
        "fabric, output, message", REFUSALS,
        ids=[f"{fabric}-{output}" for fabric, output, _ in REFUSALS],
    )
    def test_refused_output_raises_its_reason(self, fabric, output, message):
        mode = "sim" if output in ("link_utilization", "trace") else "closed_form"
        spec = ScenarioSpec(fabric=fabric, mode=mode, outputs=(output,))
        with pytest.raises(UnsupportedOutput) as excinfo:
            FabricSession().run(spec)
        assert str(excinfo.value) == message

    def test_table_lists_every_refusal(self):
        refused = {
            (name, output)
            for name in ("electrical", "photonic", "switched")
            for output in getattr(create_backend(name), "refusals", {})
        }
        assert refused == {(fabric, output) for fabric, output, _ in REFUSALS}


class TestSessionMemoization:
    def test_repeated_run_returns_same_result(self):
        session = FabricSession()
        spec = ScenarioSpec(slices=figure5b_slices(), outputs=("costs",))
        first = session.run(spec)
        second = session.run(spec)
        assert first is second
        assert session.runs_executed == 1

    def test_equal_spec_hits_cache(self):
        session = FabricSession()
        session.run(ScenarioSpec(slices=figure5b_slices(), outputs=("costs",)))
        session.run(ScenarioSpec(slices=figure5b_slices(), outputs=("costs",)))
        assert session.runs_executed == 1

    def test_topology_artifacts_shared_across_fabrics(self):
        session = FabricSession()
        spec = ScenarioSpec(slices=figure5b_slices(), outputs=("costs",))
        session.compare(spec, fabrics=("electrical", "photonic"))
        assert session.allocator(spec) is session.allocator(
            spec.with_fabric("electrical")
        )

    def test_repair_is_stable_across_repeated_runs(self):
        # plan_optical_repair mutates rack/fabric state; the session must
        # rebuild those per run so results do not drift.
        session = FabricSession()
        spec = ScenarioSpec(
            fabric="photonic",
            slices=figure6_slices(),
            outputs=("repair",),
            failures=FailurePlan(failed_chips=((1, 2, 0),)),
        )
        first = session.run(spec)
        second = FabricSession().run(spec)
        assert first.repair == second.repair
        assert first.repair.fibers_used > 0

    def test_spec_without_slices_rejected_for_costs(self):
        with pytest.raises(ValueError, match="no slices"):
            FabricSession().run(ScenarioSpec(outputs=("costs",)))


class TestSections:
    def test_costs_match_slice_shapes(self):
        result = FabricSession().run(
            ScenarioSpec(slices=figure5b_slices(), outputs=("costs",))
        )
        assert isinstance(result.costs, CostReport)
        line = result.costs.by_name("Slice-4")
        assert line.shape == (4, 4, 2)
        assert line.chips == 32
        assert line.seconds > 0
        with pytest.raises(KeyError):
            result.costs.by_name("Slice-99")

    def test_electrical_congestion_finds_shared_links(self):
        result = FabricSession().run(ScenarioSpec(
            fabric="electrical",
            slices=figure5b_slices(),
            outputs=("congestion",),
        ))
        assert isinstance(result.congestion, CongestionSummary)
        assert not result.congestion.congestion_free
        assert result.congestion.worst_multiplicity >= 2

    def test_photonic_congestion_free(self):
        result = FabricSession().run(ScenarioSpec(
            fabric="photonic",
            slices=figure5b_slices(),
            outputs=("congestion",),
        ))
        assert result.congestion.congestion_free

    def test_switched_reports_contention_loss(self):
        result = FabricSession().run(ScenarioSpec(
            fabric="switched",
            slices=figure5b_slices(),
            outputs=("congestion",),
        ))
        assert 0.0 < result.congestion.contention_loss_fraction < 1.0

    def test_sim_telemetry_orders_schedules_by_spec(self):
        session = FabricSession()
        spec = ScenarioSpec(
            fabric="photonic",
            slices=figure5b_slices(),
            mode="sim",
            outputs=("telemetry",),
        )
        telemetry = session.run(spec).telemetry
        assert isinstance(telemetry, TelemetryReport)
        assert len(telemetry.schedules) == len(spec.slices)
        assert all(t.duration_s > 0 for t in telemetry.schedules)

    def test_optical_beats_electrical_on_steered_slice(self):
        session = FabricSession()
        spec = ScenarioSpec(
            slices=figure5b_slices(), mode="sim", outputs=("telemetry",)
        )
        results = session.compare(spec, fabrics=("electrical", "photonic"))
        slice1_index = [s.name for s in spec.slices].index("Slice-1")
        electrical = results["electrical"].telemetry.schedules[slice1_index]
        optical = results["photonic"].telemetry.schedules[slice1_index]
        assert optical.duration_s < electrical.duration_s

    def test_device_report_is_seed_deterministic(self):
        spec = ScenarioSpec(fabric="photonic", outputs=("device",), seed=9)
        a = FabricSession().run(spec).device
        b = FabricSession().run(spec).device
        assert isinstance(a, DeviceReport)
        assert a == b

    def test_repair_unsupported_on_switched(self):
        spec = ScenarioSpec(
            fabric="switched",
            slices=figure6_slices(),
            outputs=("repair",),
            failures=FailurePlan(failed_chips=((1, 2, 0),)),
        )
        with pytest.raises(UnsupportedOutput):
            FabricSession().run(spec)

    def test_repair_without_failure_plan_rejected(self):
        spec = ScenarioSpec(
            fabric="photonic", slices=figure6_slices(), outputs=("repair",)
        )
        with pytest.raises(UnsupportedOutput, match="failed_chips"):
            FabricSession().run(spec)

    def test_blast_radius_requires_horizon(self):
        spec = ScenarioSpec(fabric="photonic", outputs=("blast_radius",))
        with pytest.raises(UnsupportedOutput, match="fleet_days"):
            FabricSession().run(spec)


class TestRunResultSerialization:
    def _full_result(self) -> RunResult:
        session = FabricSession()
        spec = ScenarioSpec(
            fabric="photonic",
            slices=figure6_slices(),
            mode="sim",
            outputs=(
                "capabilities", "costs", "utilization", "congestion",
                "telemetry", "repair", "blast_radius", "device",
            ),
            failures=FailurePlan(failed_chips=((1, 2, 0),), fleet_days=30),
        )
        return session.run(spec)

    def test_json_round_trip_of_every_section(self):
        result = self._full_result()
        restored = RunResult.from_json(result.to_json())
        assert restored.to_dict() == result.to_dict()
        assert restored.spec == result.spec
        assert restored.costs == result.costs
        assert restored.repair == result.repair
        assert restored.device == result.device

    def test_unrequested_sections_are_none(self):
        result = FabricSession().run(
            ScenarioSpec(slices=table1_slices(), outputs=("costs",))
        )
        assert result.utilization is None
        assert result.repair is None
        assert result.telemetry is None


class TestSpecValidationFromProbes:
    def test_failed_chip_outside_rack_rejected(self):
        with pytest.raises(ValueError, match="outside the rack"):
            ScenarioSpec(failures=FailurePlan(failed_chips=((9, 9, 9),)))

    def test_failed_chip_wrong_dimensionality_rejected(self):
        with pytest.raises(ValueError, match="outside the rack"):
            ScenarioSpec(failures=FailurePlan(failed_chips=((1, 2),)))

    def test_partial_backend_raises_unsupported_output(self):
        class CapabilitiesOnly:
            name = "caps-only"

            def capability_rows(self, session, spec):
                return (("k", "v"),)

        register_backend("caps-only", CapabilitiesOnly)
        try:
            spec = ScenarioSpec(
                fabric="caps-only",
                slices=figure5b_slices(),
                outputs=("costs",),
            )
            with pytest.raises(UnsupportedOutput, match="does not implement"):
                FabricSession().run(spec)
        finally:
            unregister_backend("caps-only")
