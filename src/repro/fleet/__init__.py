"""Year-scale fleet reliability simulation (the CR-SIM direction).

Extends the Section 4.2 single-failure blast-radius comparison to months
of fleet life: per-chip failure renewal processes drive the event engine,
pluggable policies decide when repairs dispatch, and each fabric's repair
executor enforces its bandwidth budget (bounded concurrent rack
migrations for electrical; per-rack spare inventories for photonic).
"""

from .policies import (
    POLICY_NAMES,
    BatchedPolicy,
    ImmediatePolicy,
    LazyThresholdPolicy,
    RepairPolicy,
    make_policy,
)
from .process import RenewalFailureProcess
from .simulator import (
    FABRICS,
    FleetConfig,
    FleetSimulator,
    FleetStats,
    simulate_fleet,
)

__all__ = [
    "POLICY_NAMES",
    "BatchedPolicy",
    "ImmediatePolicy",
    "LazyThresholdPolicy",
    "RepairPolicy",
    "make_policy",
    "RenewalFailureProcess",
    "FABRICS",
    "FleetConfig",
    "FleetSimulator",
    "FleetStats",
    "simulate_fleet",
]
