"""Tests for repro.tenancy: workload, cluster state, policies, API."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    RunResult,
    ScenarioSpec,
    TenancyPlan,
    UnsupportedOutput,
    run,
)
from repro.cli import main
from repro.tenancy import (
    JOB_CATALOG,
    MIN_DURATION_S,
    PLACEMENT_POLICY_NAMES,
    PRIORITIES,
    ClusterState,
    TenancyConfig,
    TenancySimulator,
    generate_jobs,
    make_placement_policy,
    simulate_tenancy,
)
from repro.tenancy.policies import CATALOG_SHAPES, SteerOnArrivalPolicy
from repro.sim.engine import SimulationError
from repro.topology import (
    NoContiguousPlacementError,
    ShapeTooLargeError,
    SliceOverlapError,
    WavelengthBudgetError,
)

# Small, churn-dense config: a quarter day over two racks at a rate that
# keeps the queues busy, in about a second of wall clock per run.
SHORT = TenancyConfig(
    racks=2,
    horizon_s=6 * 3600.0,
    arrivals_per_day=2400.0,
    seed=3,
    series_points=6,
)


class TestWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            generate_jobs(86400.0, 100.0, profile="bogus")
        with pytest.raises(ValueError):
            generate_jobs(0.0, 100.0)
        with pytest.raises(ValueError):
            generate_jobs(86400.0, 0.0)
        with pytest.raises(ValueError):
            generate_jobs(86400.0, 100.0, mean_duration_s=MIN_DURATION_S)

    @pytest.mark.parametrize("profile", ["poisson", "burst", "trace"])
    def test_jobs_are_well_formed(self, profile):
        jobs = generate_jobs(86400.0, 500.0, profile=profile, seed=1)
        assert len(jobs) > 300
        catalog = {shape for shape, _ in JOB_CATALOG}
        last = 0.0
        for job in jobs:
            assert 0.0 < job.arrival_s <= 86400.0
            assert job.arrival_s >= last
            last = job.arrival_s
            assert job.duration_s >= MIN_DURATION_S
            assert job.shape in catalog
            assert job.priority in PRIORITIES
        assert jobs[0].name == "job-0"
        assert jobs[3].chips == (
            jobs[3].shape[0] * jobs[3].shape[1] * jobs[3].shape[2]
        )

    def test_deterministic_per_seed(self):
        assert generate_jobs(86400.0, 300.0, seed=5) == generate_jobs(
            86400.0, 300.0, seed=5
        )
        assert generate_jobs(86400.0, 300.0, seed=5) != generate_jobs(
            86400.0, 300.0, seed=6
        )

    def test_trace_profile_is_evenly_spaced(self):
        jobs = generate_jobs(3600.0, 8640.0, profile="trace")
        gaps = {
            round(b.arrival_s - a.arrival_s, 9)
            for a, b in zip(jobs, jobs[1:])
        }
        assert gaps == {10.0}

    def test_burst_profile_preserves_mean_rate(self):
        # Time-rescaling redistributes load without changing the mean:
        # a long horizon lands within a few percent of the offered rate.
        jobs = generate_jobs(30 * 86400.0, 1000.0, profile="burst", seed=2)
        assert 30_000 * 0.93 < len(jobs) < 30_000 * 1.07


class TestClusterState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterState(racks=0)
        with pytest.raises(ValueError):
            ClusterState(steer_circuits=-1)

    def test_allocate_release_cycle(self):
        cluster = ClusterState(racks=2)
        a = cluster.allocate_box("a", (4, 4, 1), 0, (0, 0, 0))
        assert a.contiguous and a.chip_count == 16 and a.offset == (0, 0, 0)
        assert cluster.free_chips(0) == 48 and cluster.free_chips(1) == 64
        assert cluster.occupied_chips() == 16
        cluster.check_consistent()
        released = cluster.release("a")
        assert released == a
        assert cluster.total_free() == cluster.total_chips == 128
        cluster.check_consistent()

    def test_duplicate_name_raises_overlap(self):
        cluster = ClusterState()
        cluster.allocate_box("a", (1, 1, 1), 0, (0, 0, 0))
        with pytest.raises(SliceOverlapError):
            cluster.allocate_box("a", (1, 1, 1), 1, (0, 0, 0))
        with pytest.raises(SliceOverlapError):
            cluster.allocate_steered("a", (1, 1, 1), 1)

    def test_steered_allocation_costs_circuits(self):
        cluster = ClusterState(racks=1, steer_circuits=8)
        s = cluster.allocate_steered("s", (2, 2, 2), 0)
        assert not s.contiguous and s.circuits == 8 and s.offset is None
        assert s.electrical_utilization == 0.0
        assert s.optical_utilization == 1.0
        assert cluster.circuits_used(0) == 8
        cluster.check_consistent()
        with pytest.raises(WavelengthBudgetError):
            cluster.allocate_steered("t", (1, 1, 1), 0)
        cluster.release("s")
        assert cluster.circuits_used(0) == 0

    @pytest.mark.parametrize(
        "pinned, error",
        [
            (((0, 0, 0), (0, 0, 0)), SliceOverlapError),  # one chip twice
            (((0, 0, 0), (9, 9, 9)), ValueError),  # a chip outside the rack
        ],
    )
    def test_rejected_pinned_steering_leaves_no_trace(self, pinned, error):
        # The pinned set is checked whole before anything is booked, so
        # a refused call leaves the cluster equal to a fresh one.
        cluster, fresh = ClusterState(racks=1), ClusterState(racks=1)
        with pytest.raises(error):
            cluster.allocate_steered("s", (2, 1, 1), 0, chips=pinned)
        assert cluster._masks == fresh._masks
        assert cluster.free_chips(0) == fresh.free_chips(0)
        assert cluster.circuits_used(0) == fresh.circuits_used(0)
        assert cluster.allocations == {}
        cluster.check_consistent()
        assert cluster.find_offset(0, (1, 1, 1)) == (0, 0, 0)
        cluster.allocate_box("b", (1, 1, 1), 0, (0, 0, 0))
        cluster.check_consistent()

    def test_steered_needs_free_chips(self):
        cluster = ClusterState(racks=1, rack_shape=(2, 2, 2))
        cluster.allocate_box("fill", (2, 2, 2), 0, (0, 0, 0))
        with pytest.raises(NoContiguousPlacementError):
            cluster.allocate_steered("s", (1, 1, 1), 0)

    def test_shape_too_large(self):
        cluster = ClusterState(rack_shape=(2, 2, 2))
        with pytest.raises(ShapeTooLargeError):
            cluster.find_offset(0, (4, 1, 1))

    def test_find_offset_ignore_masks_chips_free(self):
        cluster = ClusterState(racks=1, rack_shape=(2, 2, 2))
        a = cluster.allocate_box("a", (2, 2, 2), 0, (0, 0, 0))
        assert cluster.find_offset(0, (2, 2, 2)) is None
        assert cluster.find_offset(
            0, (2, 2, 2), ignore=cluster.chip_mask(a.chips)
        ) == (0, 0, 0)

    def test_corrupt_rack_mask_raises_even_under_optimize(self):
        # ``python -O`` strips assert statements; the invariant check
        # raises explicitly, so a corrupted mask is caught either way.
        script = (
            "from repro.tenancy import ClusterState\n"
            "cluster = ClusterState(racks=2)\n"
            "cluster.allocate_box('a', (2, 2, 1), 1, (0, 0, 0))\n"
            "cluster.check_consistent()\n"
            "cluster._masks[1] ^= 1 << 63\n"
            "try:\n"
            "    cluster.check_consistent()\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert "rack 1" in result.stdout

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda c: c._masks.__setitem__(0, c._masks[0] | 1 << 63), "mask diverged"),
            (lambda c: c._free.__setitem__(0, c._free[0] - 1), "free-count drift"),
            (lambda c: c._circuits_used.__setitem__(0, 1), "circuit-count drift"),
            (lambda c: c._allocation_masks.__setitem__("s", 1), "kept mask"),
            (
                lambda c: c.allocations.__setitem__(
                    "t", replace(c.allocations["a"], name="t")
                )
                or c._allocation_masks.__setitem__("t", c._allocation_masks["a"]),
                "overlaps",
            ),
        ],
    )
    def test_check_consistent_catches_each_divergence(self, corrupt, message):
        cluster = ClusterState(racks=1, steer_circuits=8)
        cluster.allocate_box("a", (2, 2, 1), 0, (0, 0, 0))
        cluster.allocate_steered("s", (2, 1, 1), 0)
        cluster.check_consistent()
        corrupt(cluster)
        with pytest.raises(AssertionError, match=message):
            cluster.check_consistent()

    def test_steer_rings_upgrades_within_budget(self):
        cluster = ClusterState(racks=1, steer_circuits=8)
        placed = cluster.allocate_box("a", (2, 2, 1), 0, (0, 0, 0))
        assert placed.optical_utilization < 1.0
        upgraded = cluster.steer_rings("a")
        assert upgraded.optical_utilization == 1.0
        assert upgraded.circuits == 4 and cluster.circuits_used(0) == 4
        # Second call is a no-op; over-budget requests are too.
        assert cluster.steer_rings("a") == upgraded
        big = cluster.allocate_box("b", (4, 2, 1), 0, (0, 2, 0))
        assert cluster.steer_rings("b") == big  # needs 8 > 4 left
        assert cluster.circuits_used(0) == 4
        cluster.check_consistent()

    def test_fragmentation_metrics(self):
        cluster = ClusterState(racks=1)
        assert cluster.largest_allocatable(CATALOG_SHAPES) == 64
        cluster.allocate_box("a", (4, 4, 2), 0, (0, 0, 0))
        assert cluster.largest_allocatable(CATALOG_SHAPES) == 32
        # A full-rack box strands nothing; a sub-rack box strands the
        # rings it does not span (electrical view only).
        assert cluster.stranded_fraction_rate("photonic") >= 0.0
        assert cluster.stranded_fraction_rate(
            "electrical"
        ) > cluster.stranded_fraction_rate("photonic")


class TestPolicies:
    def test_factory(self):
        for name in PLACEMENT_POLICY_NAMES:
            assert make_placement_policy(name).name == name
        with pytest.raises(ValueError):
            make_placement_policy("bogus")

    @pytest.mark.parametrize("name", PLACEMENT_POLICY_NAMES)
    def test_every_policy_places_on_empty_cluster(self, name):
        cluster = ClusterState(racks=2)
        allocation = make_placement_policy(name).place(
            cluster, "job-0", (4, 2, 1)
        )
        assert allocation is not None and allocation.chip_count == 8
        cluster.check_consistent()

    def test_best_fit_prefers_ring_closing_orientation(self):
        # On a non-cubic 4x2x2 rack the literal (1, 2, 4) orientation
        # does not even fit; best-fit rotates it so two of the three
        # rings span their rack dimension.
        cluster = ClusterState(racks=1, rack_shape=(4, 2, 2))
        placed = make_placement_policy("best-fit").place(
            cluster, "a", (1, 2, 4)
        )
        assert placed is not None
        assert placed.shape in {(4, 2, 1), (4, 1, 2)}
        assert placed.electrical_utilization == pytest.approx(2 / 3)

    def test_oversized_job_queues_instead_of_crashing(self):
        cluster = ClusterState(racks=1, rack_shape=(2, 2, 2))
        for name in ("first-fit", "best-fit", "defrag"):
            assert make_placement_policy(name).place(
                cluster, "a", (4, 4, 4)
            ) is None

    def test_defrag_compacts_and_never_regresses(self):
        cluster = ClusterState(racks=1)
        policy = make_placement_policy("defrag")
        policy.place(cluster, "a", (4, 4, 2))
        survivor = policy.place(cluster, "b", (4, 4, 2))
        assert survivor.offset == (0, 0, 2)
        cluster.release("a")
        before = cluster.largest_allocatable(CATALOG_SHAPES)
        moves = policy.on_departure(cluster, 0)
        after = cluster.largest_allocatable(CATALOG_SHAPES)
        assert moves == 1
        assert cluster.allocations["b"].offset == (0, 0, 0)
        assert after >= before
        cluster.check_consistent()

    def test_steer_falls_back_to_scattered_chips(self):
        # Fragment the rack so no 2x2x2 box fits, then steer: the job
        # lands non-contiguously and pays circuits.
        cluster = ClusterState(racks=1, rack_shape=(2, 2, 2))
        pinned = [
            (x, y, z)
            for x in range(2) for y in range(2) for z in range(2)
            if (x + y + z) % 2 == 0
        ]
        for k, chip in enumerate(pinned):
            cluster.allocate_box(f"pin-{k}", (1, 1, 1), 0, chip)
        policy = SteerOnArrivalPolicy()
        placed = policy.place(cluster, "s", (2, 2, 1))
        assert placed is not None and not placed.contiguous
        assert placed.circuits == 4
        cluster.check_consistent()


class TestTenancyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenancyConfig(racks=0)
        with pytest.raises(ValueError):
            TenancyConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            TenancyConfig(arrivals_per_day=0.0)
        with pytest.raises(ValueError):
            TenancyConfig(max_queue_wait_s=0.0)
        with pytest.raises(ValueError):
            TenancyConfig(steer_circuits=-1)
        with pytest.raises(ValueError):
            TenancyConfig(series_points=0)
        with pytest.raises(ValueError):
            TenancyConfig(rack_shape=(0, 4, 4))

    @pytest.mark.parametrize(
        "field",
        ["horizon_s", "arrivals_per_day", "mean_duration_s", "max_queue_wait_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_floats_rejected(self, field, value):
        # `<= 0` is False for NaN and infinity; a NaN horizon used to
        # run without end. Only the config is built here.
        with pytest.raises(
            ValueError, match=f"TenancyConfig.{field} must be finite"
        ):
            TenancyConfig(**{field: value})

    def test_chips(self):
        assert TenancyConfig().total_chips == 256
        assert SHORT.total_chips == 128


class TestSimulator:
    def test_rejects_unknown_fabric(self):
        with pytest.raises(ValueError):
            TenancySimulator(SHORT, "quantum")

    def test_runs_once(self):
        simulator = TenancySimulator(SHORT, "photonic")
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run()

    def test_steering_policy_refused_on_electrical(self):
        with pytest.raises(ValueError):
            TenancySimulator(SHORT, "electrical", SteerOnArrivalPolicy())
        with pytest.raises(ValueError):
            simulate_tenancy(SHORT, "electrical", steering=True)

    @pytest.mark.parametrize("fabric", ["electrical", "photonic"])
    @pytest.mark.parametrize("policy", PLACEMENT_POLICY_NAMES)
    def test_invariants_under_every_policy(self, fabric, policy):
        if policy == "steer" and fabric == "electrical":
            pytest.skip("steering needs reconfigurable reach")
        stats = simulate_tenancy(SHORT, fabric, policy=policy)
        assert stats.arrivals > 400
        assert (
            stats.placed + stats.rejected + stats.queued_at_horizon
            == stats.arrivals
        )
        assert stats.completed + stats.running_at_horizon == stats.placed
        assert 0.0 <= stats.mean_occupancy <= 1.0
        assert 0.0 <= stats.rejection_rate <= 1.0
        assert (
            stats.queue_delay_p50_s
            <= stats.queue_delay_p90_s
            <= stats.queue_delay_p99_s
            <= stats.queue_delay_max_s
            <= SHORT.max_queue_wait_s
        )
        assert stats.stranded_chip_seconds >= 0.0
        assert len(stats.series) == SHORT.series_points
        for start, end, mean, largest, free in stats.series:
            assert end > start
            assert 0.0 <= mean <= SHORT.total_chips
            assert 0 <= largest <= free <= SHORT.total_chips
        if fabric == "electrical":
            assert stats.steered_placements == 0
            assert stats.circuits_peak == 0

    @pytest.mark.parametrize("fabric", ["electrical", "photonic"])
    def test_deterministic_per_seed(self, fabric):
        assert simulate_tenancy(SHORT, fabric) == simulate_tenancy(
            SHORT, fabric
        )

    def test_different_seeds_diverge(self):
        other = TenancyConfig(**{**SHORT.__dict__, "seed": 4})
        assert simulate_tenancy(SHORT, "electrical") != simulate_tenancy(
            other, "electrical"
        )

    def test_photonic_beats_electrical_on_stranding_and_rejections(self):
        # Mean delay is deliberately not compared here: SHORT runs the
        # cluster overloaded, where photonic admits jobs electrical
        # rejects — the extra queue-drained placements raise the mean
        # among the placed (a survivorship artifact, not a regression).
        electrical = simulate_tenancy(SHORT, "electrical")
        photonic = simulate_tenancy(SHORT, "photonic")
        assert photonic.stranded_fraction < electrical.stranded_fraction
        assert photonic.rejected <= electrical.rejected
        assert photonic.steered_placements > 0
        assert photonic.circuits_peak > 0

    def test_events_processed_is_deterministic(self):
        a = simulate_tenancy(SHORT, "electrical")
        b = simulate_tenancy(SHORT, "electrical")
        assert a.events_processed == b.events_processed > 0

    def test_reported_policy_is_the_callers(self):
        stats = simulate_tenancy(SHORT, "photonic", policy="best-fit")
        assert stats.policy == "best-fit"
        assert stats.steering is True
        quiet = simulate_tenancy(
            SHORT, "photonic", policy="best-fit", steering=False
        )
        assert quiet.steering is False
        assert quiet.steered_placements == 0


class TestStatsInvariants:
    @pytest.fixture(scope="class")
    def stats(self):
        return simulate_tenancy(SHORT, "electrical", policy="defrag")

    def test_simulated_stats_hold(self, stats):
        assert stats.rejected > 0 and stats.running_at_horizon > 0
        assert replace(stats) == stats

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: {"arrivals": s.arrivals + 1},
            lambda s: {"rejected": s.rejected + 1},
            lambda s: {"queued_at_horizon": s.queued_at_horizon + 1},
            lambda s: {"completed": s.completed + 1},
            lambda s: {"running_at_horizon": s.running_at_horizon - 1},
            lambda s: {"mean_occupancy": 1.5},
            lambda s: {"mean_occupancy": -0.1},
            lambda s: {"stranded_fraction": 1.1},
            lambda s: {"rejection_rate": -0.5},
            lambda s: {"rejection_rate": 2.0},
        ],
    )
    def test_violations_rejected(self, stats, change):
        with pytest.raises(ValueError):
            replace(stats, **change(stats))


class TestTenancyPlanSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenancyPlan(days=-1.0)
        with pytest.raises(ValueError):
            TenancyPlan(policy="steer")
        with pytest.raises(ValueError):
            TenancyPlan(profile="bogus")
        with pytest.raises(ValueError):
            TenancyPlan(arrivals_per_day=0.0)
        with pytest.raises(ValueError):
            TenancyPlan(racks=0)

    def test_round_trip(self):
        plan = TenancyPlan(days=2.0, seed=5, policy="defrag", racks=2)
        assert TenancyPlan.from_dict(plan.to_dict()) == plan

    def test_default_plan_keeps_spec_bytes(self):
        # Pre-tenancy specs must serialize to the exact same bytes, so
        # cache keys, goldens and archived results stay valid.
        spec = ScenarioSpec()
        data = spec.to_dict()
        assert "tenancy" not in data
        assert ScenarioSpec.from_dict(data) == spec

    def test_configured_plan_round_trips(self):
        spec = ScenarioSpec(
            outputs=("tenancy",), tenancy=TenancyPlan(days=1.0, seed=9)
        )
        data = spec.to_dict()
        assert data["tenancy"]["days"] == 1.0
        assert ScenarioSpec.from_dict(data) == spec


class TestTenancyOutput:
    @pytest.fixture(scope="class")
    def result(self):
        return run(ScenarioSpec(
            fabric="photonic",
            outputs=("tenancy",),
            tenancy=TenancyPlan(days=0.25, seed=11, arrivals_per_day=2400.0),
        ))

    def test_photonic_dominates(self, result):
        report = result.tenancy
        assert report.chips == 256
        assert report.electrical.arrivals == report.photonic.arrivals > 0
        assert (
            report.photonic.stranded_fraction
            < report.electrical.stranded_fraction
        )
        assert report.queue_delay_gap_s >= 0.0
        assert report.rejection_gap >= 0.0
        assert report.electrical.steering is False
        assert report.photonic.steering is True

    def test_json_round_trip(self, result):
        blob = result.to_json(indent=2, sort_keys=True)
        restored = RunResult.from_json(blob)
        assert restored == result
        assert restored.to_json(indent=2, sort_keys=True) == blob

    def test_derived_gaps_match_sections(self, result):
        data = result.to_dict()["tenancy"]
        assert data["queue_delay_gap_s"] == pytest.approx(
            data["electrical"]["queue_delay_mean_s"]
            - data["photonic"]["queue_delay_mean_s"]
        )
        assert data["rejection_gap"] == pytest.approx(
            data["electrical"]["rejection_rate"]
            - data["photonic"]["rejection_rate"]
        )

    def test_zero_days_refused(self):
        with pytest.raises(UnsupportedOutput):
            run(ScenarioSpec(fabric="photonic", outputs=("tenancy",)))

    def test_switched_fabric_refused(self):
        with pytest.raises(UnsupportedOutput):
            run(ScenarioSpec(
                fabric="switched",
                outputs=("tenancy",),
                tenancy=TenancyPlan(days=0.25),
            ))

    def test_session_caches_tenancy_runs(self, result):
        from repro.api import FabricSession

        session = FabricSession()
        spec = ScenarioSpec(
            fabric="photonic",
            outputs=("tenancy",),
            tenancy=TenancyPlan(days=0.25, seed=11, arrivals_per_day=2400.0),
        )
        first = session.run(spec)
        second = session.run(spec)
        assert first == second
        assert session.runs_executed == 1


class TestTenancyCli:
    def test_table_output(self, capsys):
        assert main(["tenancy", "--days", "0.25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Tenant churn" in out
        assert "electrical" in out and "photonic" in out

    def test_json_matches_golden(self, capsys):
        golden = Path(__file__).parent / "golden" / "tenancy.json"
        assert main(["tenancy", "--json", "-"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_json_is_loadable(self, capsys):
        assert main(["tenancy", "--days", "0.25", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        restored = RunResult.from_dict(payload)
        assert restored.tenancy.days == 0.25

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["tenancy", "--policy", "bogus"])
