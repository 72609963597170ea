"""Multi-tenant dynamic scheduling over the photonic-vs-electrical torus.

Extends the paper's static provisioning snapshot (Section 4.1) into
cluster *life*: a seeded stream of tenant jobs
(:mod:`~repro.tenancy.workload`) arrives, queues, places and departs on
a multi-rack cluster (:mod:`~repro.tenancy.cluster`) under a pluggable
placement policy (:mod:`~repro.tenancy.policies`), and the simulator
(:mod:`~repro.tenancy.simulator`) measures what fabric flexibility is
worth under churn: queueing delay, rejection rate, fragmentation and
stranded bandwidth, electrical vs photonic.
"""

from .cluster import Allocation, ClusterState
from .policies import (
    PLACEMENT_POLICY_NAMES,
    BestFitPolicy,
    DefragOnDeparturePolicy,
    FirstFitPolicy,
    PlacementPolicy,
    SteerOnArrivalPolicy,
    make_placement_policy,
)
from .simulator import (
    FABRICS,
    TenancyConfig,
    TenancyPolicyReport,
    TenancySeriesPoint,
    TenancySimulator,
    simulate_tenancy,
)
from .workload import (
    JOB_CATALOG,
    MIN_DURATION_S,
    PRIORITIES,
    PROFILES,
    TenantJob,
    generate_jobs,
)

__all__ = [
    "Allocation",
    "ClusterState",
    "PlacementPolicy",
    "FirstFitPolicy",
    "BestFitPolicy",
    "DefragOnDeparturePolicy",
    "SteerOnArrivalPolicy",
    "make_placement_policy",
    "PLACEMENT_POLICY_NAMES",
    "TenancyConfig",
    "TenancyPolicyReport",
    "TenancySeriesPoint",
    "TenancySimulator",
    "simulate_tenancy",
    "FABRICS",
    "TenantJob",
    "generate_jobs",
    "JOB_CATALOG",
    "PROFILES",
    "PRIORITIES",
    "MIN_DURATION_S",
]
