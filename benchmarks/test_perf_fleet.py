"""Fleet-simulator performance smoke: events/sec must not regress.

A simulated year at 4096 chips is the ISSUE's headline workload. The
electrical run processes ~1.6k events (two per failure), the photonic
one ~2.4k (repair + replenish) — both should clear comfortably north of
the floor on any machine; the bound exists to catch an accidental
O(n^2) regression in the hot path (e.g. occupancy accounting per
event), not to measure the hardware. perfbench's ``sim_churn`` workload
(``python3 perfbench/run.py --workload sim_churn``) measures fleet runs
end to end.
"""

from _helpers import emit
from repro.fleet import FleetConfig, simulate_fleet

#: Deliberately loose: an interpreter-speed floor, not a target.
MIN_EVENTS_PER_SEC = 200.0

YEAR_CONFIG = FleetConfig(seed=7)


def _run_both():
    electrical = simulate_fleet(YEAR_CONFIG, "electrical")
    photonic = simulate_fleet(YEAR_CONFIG, "photonic")
    return electrical, photonic


def test_fleet_year_events_per_sec(benchmark):
    import time

    start = time.perf_counter()
    electrical, photonic = benchmark.pedantic(
        _run_both, rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start
    events = electrical.events_processed + photonic.events_processed
    rate = events / max(elapsed, 1e-9)
    assert electrical.failures > 0 and photonic.failures > 0
    assert (
        photonic.mean_availability > electrical.mean_availability
    ), "photonic must dominate electrical"
    assert rate >= MIN_EVENTS_PER_SEC, (
        f"fleet simulator regressed to {rate:.0f} events/sec "
        f"(floor {MIN_EVENTS_PER_SEC:.0f})"
    )
    emit(
        "Fleet simulator — one simulated year, 4096 chips, both fabrics",
        f"{events} events in {elapsed:.3f} s ({rate:,.0f} events/sec); "
        f"availability gap "
        f"{photonic.mean_availability - electrical.mean_availability:.3e}",
    )


def test_fleet_determinism_back_to_back():
    first = simulate_fleet(YEAR_CONFIG, "electrical")
    second = simulate_fleet(YEAR_CONFIG, "electrical")
    assert first == second
