"""Tests for repro.fleet: renewal process, policies, simulator, API."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    FleetPlan,
    RunResult,
    ScenarioSpec,
    UnsupportedOutput,
    run,
)
from repro.cli import main
from repro.fleet import (
    FABRICS,
    POLICY_NAMES,
    BatchedPolicy,
    FleetConfig,
    FleetSimulator,
    ImmediatePolicy,
    LazyThresholdPolicy,
    RenewalFailureProcess,
    make_policy,
    simulate_fleet,
)
from repro.fleet.process import RenewalDraws
from repro.sim.engine import EventEngine, SimulationError
from tests.oracles.fleet import PerChipEventFleetSimulator

YEAR_S = 365.0 * 24.0 * 3600.0

# Small, failure-dense config: exercises queues and budgets in
# milliseconds of wall clock.
DENSE = FleetConfig(
    racks=2,
    chips_per_rack=8,
    chips_per_server=2,
    horizon_s=30 * 24 * 3600.0,
    mtbf_s=10 * 24 * 3600.0,
    seed=3,
)


class TestRenewalProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            RenewalFailureProcess(0, mtbf_s=1.0)
        with pytest.raises(ValueError):
            RenewalFailureProcess(4, mtbf_s=0.0)
        with pytest.raises(IndexError):
            RenewalFailureProcess(4, mtbf_s=1.0).next_delay_s(4)

    def test_draws_are_positive(self):
        process = RenewalFailureProcess(8, mtbf_s=1e5, seed=1)
        for chip in range(8):
            assert process.next_delay_s(chip) > 0

    def test_block_draws_equal_scalar_draws(self):
        # Draws are read from each substream in blocks; across block
        # boundaries they must equal one scalar draw at a time.
        process = RenewalFailureProcess(3, mtbf_s=1e5, seed=2)
        for chip in range(3):
            stream = np.random.default_rng((2, chip))
            expected = [float(stream.exponential(1e5)) for _ in range(150)]
            assert [process.next_delay_s(chip) for _ in range(150)] == expected

    @given(
        seed=st.integers(0, 2**31 - 1),
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
                st.booleans(),
            ),
            min_size=1,
            max_size=240,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_draws_equal_scalar_draws(self, seed, rounds):
        # Each round draws for a random chip subset, as one vector or
        # chip by chip; every chip must read its own scalar stream in
        # order, across block edges.
        process = RenewalFailureProcess(4, mtbf_s=1e5, seed=seed)
        streams = [np.random.default_rng((seed, chip)) for chip in range(4)]
        for chips, vector in rounds:
            expected = [float(streams[c].exponential(1e5)) for c in chips]
            if vector:
                got = process.next_delays_s(np.array(chips)).tolist()
            else:
                got = [process.next_delay_s(c) for c in chips]
            assert got == expected

    @given(
        seed=st.integers(0, 2**31 - 1),
        reads=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(1, 150)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_draws_read_the_same_values(self, seed, reads):
        # Three processes share one source and take turns reading runs
        # of a chip's values, so one asks for blocks another has read
        # past (or has just read); each still reads its own copy of
        # every stream from the start.
        draws = RenewalDraws(2, mtbf_s=1e5, seed=seed)
        processes = [
            RenewalFailureProcess(2, mtbf_s=1e5, seed=seed, draws=draws)
            for _ in range(3)
        ]
        streams = [
            [np.random.default_rng((seed, chip)) for chip in range(2)]
            for _ in range(3)
        ]
        for who, chip, count in reads:
            expected = [
                float(streams[who][chip].exponential(1e5)) for _ in range(count)
            ]
            got = [processes[who].next_delay_s(chip) for _ in range(count)]
            assert got == expected

    def test_draws_must_match_the_process(self):
        draws = RenewalDraws(2, mtbf_s=1e5, seed=5)
        with pytest.raises(ValueError):
            RenewalFailureProcess(2, mtbf_s=1e5, seed=6, draws=draws)
        with pytest.raises(ValueError):
            RenewalFailureProcess(3, mtbf_s=1e5, seed=5, draws=draws)


class TestPolicies:
    def test_factory(self):
        assert make_policy("immediate").name == "immediate"
        assert make_policy("lazy", lazy_threshold=2).threshold == 2
        assert make_policy("batched", batch_interval_s=5.0).interval_s == 5.0
        with pytest.raises(ValueError):
            make_policy("bogus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LazyThresholdPolicy(0)
        with pytest.raises(ValueError):
            BatchedPolicy(0.0)

    def test_immediate_dispatches_at_once(self):
        dispatched = []
        policy = ImmediatePolicy()
        policy.start(EventEngine(), dispatched.append)
        policy.on_failure(7, dispatched.append)
        assert dispatched == [7]
        assert policy.held == 0

    def test_lazy_holds_until_threshold(self):
        dispatched = []
        policy = LazyThresholdPolicy(3)
        policy.start(EventEngine(), dispatched.append)
        policy.on_failure(1, dispatched.append)
        policy.on_failure(2, dispatched.append)
        assert dispatched == [] and policy.held == 2
        policy.on_failure(3, dispatched.append)
        assert dispatched == [1, 2, 3] and policy.held == 0

    def test_batched_flushes_on_cadence(self):
        engine = EventEngine()
        dispatched = []
        policy = BatchedPolicy(10.0)
        policy.start(engine, dispatched.append)
        engine.schedule_at(1.0, lambda: policy.on_failure(5, dispatched.append))
        engine.run(until_s=9.0)
        assert dispatched == [] and policy.held == 1
        engine.run(until_s=11.0)
        assert dispatched == [5] and policy.held == 0


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(racks=0)
        with pytest.raises(ValueError):
            FleetConfig(chips_per_server=100, chips_per_rack=64)
        with pytest.raises(ValueError):
            FleetConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            FleetConfig(max_concurrent_migrations=0)
        with pytest.raises(ValueError):
            FleetConfig(spare_inventory=-1)
        with pytest.raises(ValueError):
            FleetConfig(series_points=0)

    @pytest.mark.parametrize(
        "field",
        [
            "horizon_s",
            "mtbf_s",
            "spare_replenish_s",
            "migration_s",
            "circuit_setup_s",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_floats_rejected(self, field, value):
        # `<= 0` is False for NaN and infinity; an MTBF of NaN used to
        # run a fleet that never fails. Only the config is built here.
        with pytest.raises(ValueError, match=f"FleetConfig.{field} must be finite"):
            FleetConfig(**{field: value})

    def test_chips(self):
        assert FleetConfig().chips == 4096
        assert DENSE.chips == 16


class TestSimulator:
    def test_rejects_unknown_fabric(self):
        with pytest.raises(ValueError):
            FleetSimulator(DENSE, "quantum")

    def test_runs_once(self):
        simulator = FleetSimulator(DENSE, "photonic")
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run()

    @pytest.mark.parametrize("fabric", ["electrical", "photonic"])
    @pytest.mark.parametrize("policy", ["immediate", "lazy", "batched"])
    def test_invariants_under_every_policy(self, fabric, policy):
        stats = simulate_fleet(DENSE, fabric, policy=policy)
        assert 0.0 <= stats.mean_availability <= 1.0
        assert 0 <= stats.min_available_chips <= DENSE.chips
        assert stats.repairs + stats.unrepaired == stats.failures
        assert stats.lost_chip_seconds >= stats.collateral_chip_seconds >= 0
        assert stats.ttr_p50_s <= stats.ttr_p90_s <= stats.ttr_max_s
        assert len(stats.series) == DENSE.series_points
        for start, end, mean in stats.series:
            assert 0.0 <= mean <= DENSE.chips
            assert end > start

    @pytest.mark.parametrize("fabric", ["electrical", "photonic"])
    def test_deterministic_per_seed(self, fabric):
        assert simulate_fleet(DENSE, fabric) == simulate_fleet(DENSE, fabric)

    def test_different_seeds_diverge(self):
        other = FleetConfig(**{**DENSE.__dict__, "seed": 4})
        assert simulate_fleet(DENSE, "electrical") != simulate_fleet(
            other, "electrical"
        )

    def test_photonic_strictly_dominates_electrical(self):
        config = FleetConfig(seed=7)
        electrical = simulate_fleet(config, "electrical")
        photonic = simulate_fleet(config, "photonic")
        assert photonic.mean_availability > electrical.mean_availability
        assert photonic.lost_chip_seconds < electrical.lost_chip_seconds
        assert photonic.ttr_p50_s < electrical.ttr_p50_s

    def test_migration_budget_serializes_repairs(self):
        # One migration slot: a rack failing while the other rack's
        # migration is active queues behind it, so the worst repair
        # strictly exceeds a single migration window.
        generous = FleetConfig(**{**DENSE.__dict__, "mtbf_s": 86400.0})
        starved = FleetConfig(
            **{**generous.__dict__, "max_concurrent_migrations": 1}
        )
        wide = simulate_fleet(generous, "electrical")
        narrow = simulate_fleet(starved, "electrical")
        assert narrow.ttr_max_s >= wide.ttr_max_s
        assert narrow.ttr_max_s > generous.migration_s

    def test_zero_spares_block_photonic_repair(self):
        config = FleetConfig(**{**DENSE.__dict__, "spare_inventory": 0})
        stats = simulate_fleet(config, "photonic")
        assert stats.failures > 0
        assert stats.repairs == 0
        assert stats.unrepaired == stats.failures
        assert stats.ttr_max_s == 0.0

    def test_spare_exhaustion_queues_until_replenish(self):
        # One spare per rack, fast replenish: bursts wait on inventory,
        # so some repair takes at least a replenish cycle.
        config = FleetConfig(
            **{
                **DENSE.__dict__,
                "mtbf_s": 86400.0,
                "spare_inventory": 1,
                "spare_replenish_s": 3600.0,
            }
        )
        stats = simulate_fleet(config, "photonic")
        assert stats.repairs > 0
        assert stats.ttr_max_s >= 3600.0

    def test_electrical_migration_repairs_whole_rack(self):
        # Lazy dispatch batches same-rack failures into one migration:
        # repairs still equal failures afterwards.
        stats = simulate_fleet(DENSE, "electrical", policy="lazy",
                               lazy_threshold=2)
        assert stats.repairs + stats.unrepaired == stats.failures

    def test_events_processed_is_deterministic(self):
        a = simulate_fleet(DENSE, "electrical")
        b = simulate_fleet(DENSE, "electrical")
        assert a.events_processed == b.events_processed > 0

    @pytest.mark.parametrize(
        "order",
        [
            ("electrical", "photonic"),
            ("photonic", "electrical"),
            ("electrical", "electrical"),
        ],
    )
    def test_shared_draws_leave_stats_unchanged(self, order):
        draws = RenewalDraws(DENSE.chips, DENSE.mtbf_s, DENSE.seed)
        for fabric in order:
            shared = simulate_fleet(DENSE, fabric, policy="lazy", draws=draws)
            assert shared == simulate_fleet(DENSE, fabric, policy="lazy")


class TestStatsInvariants:
    @pytest.fixture(scope="class")
    def stats(self):
        return simulate_fleet(DENSE, "electrical")

    def test_simulated_stats_hold(self, stats):
        assert stats.repairs > 0
        assert replace(stats) == stats

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: {"failures": s.failures + 1},
            lambda s: {"unrepaired": s.unrepaired + 1},
            lambda s: {"mean_availability": 1.5},
            lambda s: {"mean_availability": -0.1},
            lambda s: {"collateral_chip_seconds": -1.0},
            lambda s: {"collateral_chip_seconds": s.lost_chip_seconds * 2},
            lambda s: {"min_available_chips": s.chips + 1},
            lambda s: {"min_available_chips": -1},
            lambda s: {"peak_failed_chips": s.chips + 1},
            lambda s: {"peak_failed_chips": -1},
        ],
    )
    def test_violations_rejected(self, stats, change):
        with pytest.raises(ValueError):
            replace(stats, **change(stats))


# Contended: one migration slot and one spare per rack, so racks wait in
# the migration queue while their chips keep failing.
CONTENDED = FleetConfig(
    racks=4,
    horizon_s=60 * 24 * 3600.0,
    mtbf_s=0.05 * YEAR_S,
    max_concurrent_migrations=1,
    spare_inventory=1,
)


class TestPerRackScheduling:
    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_chip_events(self, seed, policy, fabric):
        config = replace(CONTENDED, seed=seed)
        expected = PerChipEventFleetSimulator(
            config, fabric, make_policy(policy)
        ).run()
        stats = FleetSimulator(config, fabric, make_policy(policy)).run()
        assert stats == expected

    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_chip_events_on_untiled_servers(self, seed, policy, fabric):
        # 3-chip servers leave a 1-chip server at the end of each
        # 10-chip rack.
        config = replace(
            CONTENDED,
            racks=3,
            chips_per_rack=10,
            chips_per_server=3,
            mtbf_s=0.02 * YEAR_S,
            spare_replenish_s=6 * 3600.0,
            seed=seed,
        )
        expected = PerChipEventFleetSimulator(
            config, fabric, make_policy(policy)
        ).run()
        stats = FleetSimulator(config, fabric, make_policy(policy)).run()
        assert stats == expected
        assert stats.failures > 100


class TestFleetPlanSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetPlan(days=-1.0)
        with pytest.raises(ValueError):
            FleetPlan(policy="bogus")
        with pytest.raises(ValueError):
            FleetPlan(max_concurrent_migrations=0)
        with pytest.raises(ValueError):
            FleetPlan(mtbf_years=0.0)

    def test_round_trip(self):
        plan = FleetPlan(days=90.0, seed=5, policy="lazy", spare_inventory=2)
        assert FleetPlan.from_dict(plan.to_dict()) == plan

    def test_default_plan_keeps_spec_bytes(self):
        # Pre-fleet specs must serialize to the exact same bytes, so
        # cache keys, goldens and archived results stay valid.
        spec = ScenarioSpec()
        data = spec.to_dict()
        assert "fleet" not in data
        assert ScenarioSpec.from_dict(data) == spec

    def test_configured_plan_round_trips(self):
        spec = ScenarioSpec(
            outputs=("fleet",), fleet=FleetPlan(days=30.0, seed=9)
        )
        data = spec.to_dict()
        assert data["fleet"]["days"] == 30.0
        assert ScenarioSpec.from_dict(data) == spec


class TestFleetOutput:
    @pytest.fixture(scope="class")
    def result(self):
        return run(ScenarioSpec(
            fabric="photonic",
            outputs=("fleet",),
            fleet=FleetPlan(days=30.0, seed=11),
        ))

    def test_photonic_dominates(self, result):
        report = result.fleet
        assert report.chips == 4096
        assert 0.0 <= report.electrical.mean_availability <= 1.0
        assert 0.0 <= report.photonic.mean_availability <= 1.0
        assert (
            report.photonic.mean_availability
            > report.electrical.mean_availability
        )
        assert report.availability_gap > 0

    def test_json_round_trip(self, result):
        blob = result.to_json(indent=2, sort_keys=True)
        restored = RunResult.from_json(blob)
        assert restored == result
        assert restored.to_json(indent=2, sort_keys=True) == blob

    def test_derived_gap_matches_sections(self, result):
        data = result.to_dict()["fleet"]
        assert data["availability_gap"] == pytest.approx(
            data["photonic"]["mean_availability"]
            - data["electrical"]["mean_availability"]
        )

    def test_shared_draws_equal_standalone_runs(self):
        # Both fabric runs of one report read one renewal draw source;
        # the failure rate and the spares take every chip's stream past
        # its first block on both fabrics.
        plan = FleetPlan(
            days=60.0,
            seed=4,
            racks=2,
            mtbf_years=0.005,
            spare_inventory=64,
            spare_replenish_s=600.0,
        )
        report = run(
            ScenarioSpec(fabric="photonic", outputs=("fleet",), fleet=plan)
        ).fleet
        config = FleetConfig(
            racks=plan.racks,
            horizon_s=plan.days * 24 * 3600.0,
            mtbf_s=plan.mtbf_years * YEAR_S,
            seed=plan.seed,
            max_concurrent_migrations=plan.max_concurrent_migrations,
            spare_inventory=plan.spare_inventory,
            spare_replenish_s=plan.spare_replenish_s,
            series_points=plan.series_points,
        )
        for section in (report.electrical, report.photonic):
            stats = simulate_fleet(config, section.fabric, policy=plan.policy)
            assert stats.failures > 20 * config.chips
            for field in fields(section):
                value = getattr(section, field.name)
                if field.name == "series":
                    value = tuple(
                        (p.start_s, p.end_s, p.mean_available_chips)
                        for p in value
                    )
                assert value == getattr(stats, field.name), field.name

    def test_zero_days_refused(self):
        with pytest.raises(UnsupportedOutput):
            run(ScenarioSpec(fabric="photonic", outputs=("fleet",)))

    def test_switched_fabric_refused(self):
        with pytest.raises(UnsupportedOutput):
            run(ScenarioSpec(
                fabric="switched",
                outputs=("fleet",),
                fleet=FleetPlan(days=30.0),
            ))

    def test_session_caches_fleet_runs(self, result):
        from repro.api import FabricSession

        session = FabricSession()
        spec = ScenarioSpec(
            fabric="photonic",
            outputs=("fleet",),
            fleet=FleetPlan(days=30.0, seed=11),
        )
        first = session.run(spec)
        second = session.run(spec)
        assert first == second
        assert session.runs_executed == 1


class TestFleetCli:
    def test_table_output(self, capsys):
        assert main(["fleet", "--days", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fleet reliability" in out
        assert "electrical" in out and "photonic" in out

    def test_json_matches_golden(self, capsys, tmp_path):
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "fleet.json"
        assert main(["fleet", "--json", "-"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_json_is_loadable(self, capsys):
        assert main(["fleet", "--days", "7", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        restored = RunResult.from_dict(payload)
        assert restored.fleet.days == 7.0

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--policy", "bogus"])
