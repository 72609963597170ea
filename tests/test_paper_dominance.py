"""The paper's dominance claims over the simulators' headline configs.

Section 4.2: photonic repair keeps strictly more of the fleet available
than rack migration, over a year at the production failure rate and
under ten times that rate, whatever the dispatch policy. Section 4.1:
photonic steering strands strictly less chip bandwidth and rejects no
more jobs, over a week of churn and a two-day burst at twice the load,
whatever the base placement policy. The configs are the simulators'
defaults and one stress variant of each (the year and week runs and
their stress rows in EXPERIMENTS.md), at seed 7.
"""

import pytest

from repro.fleet import POLICY_NAMES, FleetConfig, simulate_fleet
from repro.tenancy import TenancyConfig, simulate_tenancy

YEAR_S = 365.0 * 24.0 * 3600.0
SEED = 7

FLEET_CONFIGS = {
    "year": FleetConfig(seed=SEED),
    "stress_10x": FleetConfig(seed=SEED, mtbf_s=0.5 * YEAR_S),
}

TENANCY_CONFIGS = {
    "week": TenancyConfig(seed=SEED),
    "stress_burst_2x": TenancyConfig(
        seed=SEED,
        horizon_s=2 * 86400.0,
        arrivals_per_day=3000.0,
        profile="burst",
    ),
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("label", FLEET_CONFIGS)
def test_photonic_availability_strictly_higher(label, policy):
    config = FLEET_CONFIGS[label]
    electrical = simulate_fleet(config, "electrical", policy=policy)
    photonic = simulate_fleet(config, "photonic", policy=policy)
    assert photonic.mean_availability > electrical.mean_availability


@pytest.mark.parametrize("policy", ["first-fit", "best-fit", "defrag"])
@pytest.mark.parametrize("label", TENANCY_CONFIGS)
def test_photonic_strands_less_and_rejects_no_more(label, policy):
    # Mean queue delay is not compared: under overload photonic admits
    # jobs electrical rejects, and those queue-drained placements raise
    # the mean among the placed.
    config = TENANCY_CONFIGS[label]
    electrical = simulate_tenancy(config, "electrical", policy=policy)
    photonic = simulate_tenancy(config, "photonic", policy=policy)
    assert photonic.stranded_fraction < electrical.stranded_fraction
    assert photonic.rejected <= electrical.rejected
