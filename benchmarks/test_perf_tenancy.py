"""Tenancy-simulator performance smoke: events/sec must not regress.

A day of churn at 1500 arrivals/day over the 4-rack pod pushes ~3k
events (arrival + departure per job, plus series samples) through the
engine with a placement scan per arrival — comfortably north of the
floor on any machine. The bound exists to catch an accidental O(n^2)
regression in the hot path (e.g. occupancy rebuilds inside the
placement scan), not to measure the hardware. perfbench's
``sim_churn`` workload (``python3 perfbench/run.py --workload
sim_churn``) measures tenancy runs end to end.
"""

from _helpers import emit
from repro.tenancy import TenancyConfig, TenancySimulator, simulate_tenancy

#: Deliberately loose: an interpreter-speed floor, not a target.
MIN_EVENTS_PER_SEC = 200.0

DAY_CONFIG = TenancyConfig(seed=7, horizon_s=86400.0)


def _run_both():
    electrical = simulate_tenancy(DAY_CONFIG, "electrical")
    photonic = simulate_tenancy(DAY_CONFIG, "photonic")
    return electrical, photonic


def test_tenancy_day_events_per_sec(benchmark):
    import time

    start = time.perf_counter()
    electrical, photonic = benchmark.pedantic(
        _run_both, rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start
    events = electrical.events_processed + photonic.events_processed
    rate = events / max(elapsed, 1e-9)
    assert electrical.arrivals > 1000 and photonic.arrivals > 1000
    assert (
        photonic.stranded_fraction < electrical.stranded_fraction
    ), "photonic must strand less than electrical"
    assert rate >= MIN_EVENTS_PER_SEC, (
        f"tenancy simulator regressed to {rate:.0f} events/sec "
        f"(floor {MIN_EVENTS_PER_SEC:.0f})"
    )
    emit(
        "Tenancy simulator — one simulated day, 256 chips, both fabrics",
        f"{events} events in {elapsed:.3f} s ({rate:,.0f} events/sec); "
        f"stranded fraction {electrical.stranded_fraction:.3f} -> "
        f"{photonic.stranded_fraction:.3f}",
    )


def test_tenancy_determinism_back_to_back():
    first = simulate_tenancy(DAY_CONFIG, "electrical")
    second = simulate_tenancy(DAY_CONFIG, "electrical")
    assert first == second


def test_tenancy_obs_hooks_off_by_default():
    """The zero-overhead-off contract: heartbeats are not engine events,
    so a logged run's stats equal a silent run's (``events_processed``
    included), and the logged run writes one record per tenth of the
    horizon."""
    stats = TenancySimulator(DAY_CONFIG, "electrical").run()

    import io

    from repro.obs.log import EventLog

    logged_sink = io.StringIO()
    logged = TenancySimulator(
        DAY_CONFIG,
        "electrical",
        log=EventLog(logged_sink, level="info", source="bench"),
    )
    logged_stats = logged.run()
    assert logged_stats == stats
    assert logged_sink.getvalue().count("tenancy.progress") == 10
