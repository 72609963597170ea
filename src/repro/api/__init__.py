"""The experiment API: ScenarioSpec -> FabricSession -> RunResult.

One surface over the whole stack: describe an experiment as a frozen
:class:`ScenarioSpec`, evaluate it with :func:`run` (or an explicit
:class:`FabricSession` for artifact reuse across sweeps), and get a typed,
JSON-round-trippable :class:`RunResult`. Fabrics are pluggable: the
built-in ``electrical``, ``photonic`` and ``switched`` backends wrap the
existing models, and third parties add their own with
:func:`register_backend` — selected by ``ScenarioSpec.fabric`` with no
caller changes.

Sweeps scale out through the batch layer: :func:`run_many` fans a list
of specs (or a :class:`SweepPlan` grid) across worker processes and a
persistent content-addressed :class:`DiskResultCache`, so repeated
sweeps hit disk instead of recomputing.

Observability is opt-in: request the ``"trace"`` output on a sim-mode
spec for a Chrome-traceable event timeline (:class:`TraceReport`), the
``"metrics"`` output for deterministic simulator counters
(:class:`MetricsReport`), and pass a
:class:`~repro.obs.metrics.MetricsRegistry` to :class:`FabricSession` or
:func:`run_many` for cache/timing instrumentation. Leaving all three off
changes nothing — results and their JSON stay byte-identical.
"""

from .backends import (
    ElectricalBackend,
    FabricBackend,
    PhotonicBackend,
    SwitchedBackend,
    UnsupportedOutput,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from .batch import SpecRun, SweepPlan, SweepResult, run_many
from .cache import (
    CacheStats,
    DiskResultCache,
    MemoryResultCache,
    NullResultCache,
    ResultCache,
    code_fingerprint,
    default_cache_dir,
    spec_key,
    tier_cache_stats,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TraceEvent, Tracer
from .result import (
    AttemptLine,
    BlastRadiusSummary,
    CircuitLine,
    CongestionSummary,
    CostReport,
    DeviceReport,
    FleetPolicyReport,
    FleetReport,
    FleetSeriesPoint,
    LinkLoadLine,
    LinkUtilizationReport,
    MetricLine,
    MetricsReport,
    RepairReport,
    RunResult,
    SharedLinkLine,
    SliceCost,
    TelemetryReport,
    TenancyPolicyReport,
    TenancyReport,
    TenancySeriesPoint,
    TraceReport,
    UtilizationRow,
)
from .session import FabricSession, compare, default_session, run
from .spec import (
    KNOWN_OUTPUTS,
    DeviceSpec,
    FailurePlan,
    FleetPlan,
    ScenarioSpec,
    TenancyPlan,
    SliceSpec,
    figure5b_slices,
    figure6_slices,
    table1_slices,
    table2_slices,
)

__all__ = [
    # spec
    "ScenarioSpec",
    "SliceSpec",
    "FailurePlan",
    "FleetPlan",
    "TenancyPlan",
    "DeviceSpec",
    "KNOWN_OUTPUTS",
    "figure5b_slices",
    "figure6_slices",
    "table1_slices",
    "table2_slices",
    # session
    "FabricSession",
    "run",
    "compare",
    "default_session",
    # batch execution
    "SweepPlan",
    "SpecRun",
    "SweepResult",
    "run_many",
    # caching
    "CacheStats",
    "ResultCache",
    "MemoryResultCache",
    "DiskResultCache",
    "NullResultCache",
    "spec_key",
    "code_fingerprint",
    "default_cache_dir",
    "tier_cache_stats",
    # backends
    "FabricBackend",
    "ElectricalBackend",
    "PhotonicBackend",
    "SwitchedBackend",
    "UnsupportedOutput",
    "register_backend",
    "unregister_backend",
    "create_backend",
    "available_backends",
    # results
    "RunResult",
    "CostReport",
    "SliceCost",
    "UtilizationRow",
    "CongestionSummary",
    "SharedLinkLine",
    "TelemetryReport",
    "LinkUtilizationReport",
    "LinkLoadLine",
    "RepairReport",
    "CircuitLine",
    "AttemptLine",
    "BlastRadiusSummary",
    "FleetReport",
    "FleetPolicyReport",
    "FleetSeriesPoint",
    "TenancyReport",
    "TenancyPolicyReport",
    "TenancySeriesPoint",
    "DeviceReport",
    # observability
    "TraceReport",
    "TraceEvent",
    "Tracer",
    "MetricsReport",
    "MetricLine",
    "MetricsRegistry",
]
