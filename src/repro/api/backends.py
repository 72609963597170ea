"""Fabric backends: one interface over the repo's interconnect models.

A :class:`FabricBackend` turns a :class:`~repro.api.spec.ScenarioSpec`
into the typed result sections of :class:`~repro.api.result.RunResult`.
Three implementations wrap the existing models:

* :class:`ElectricalBackend` — the static direct-connect torus baseline
  (:mod:`repro.topology.electrical`, :mod:`repro.failures.recovery`).
* :class:`PhotonicBackend` — the LIGHTPATH fabric with wavelength steering
  and circuit repair (:mod:`repro.core.fabric`, :mod:`repro.core.steering`,
  :mod:`repro.core.repair`).
* :class:`SwitchedBackend` — the NVSwitch-style big-switch server with
  host-side contention (:mod:`repro.topology.switched`).

New fabrics register by name via :func:`register_backend` and are selected
with ``ScenarioSpec.fabric`` — no caller changes needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from ..collectives.cost_model import CostParameters, ring_reduce_scatter
from ..collectives.primitives import (
    Interconnect,
    reduce_scatter_cost,
    reduce_scatter_stage_costs,
)
from ..core.fabric import LightpathRackFabric
from ..core.repair import RepairError, RepairPlan, plan_optical_repair
from ..core.wafer import LightpathWafer
from ..failures.blast_radius import compare_policies, improvement_factor
from ..failures.inject import FleetFailureModel
from ..failures.recovery import ElectricalRecoveryAnalysis, RackMigrationPolicy, ReplacementAttempt
from ..fleet.process import RenewalDraws
from ..fleet.simulator import YEAR_S, FleetConfig, simulate_fleet
from ..tenancy.simulator import TenancyConfig, simulate_tenancy
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..phy.constants import CHIP_EGRESS_BYTES
from ..phy.mzi import MziSwitchDynamics
from ..phy.stitch_loss import StitchLossModel
from ..sim.runner import ScheduleResult, run_concurrent_schedules
from ..sim.traffic import MultiTenantWorkload
from ..topology.slices import Slice
from ..topology.switched import SwitchedServer
from ..topology.tpu import TpuCluster, TpuRack
from .result import (
    AttemptLine,
    BlastRadiusSummary,
    CircuitLine,
    CongestionSummary,
    CostReport,
    DeviceReport,
    FleetReport,
    LinkLoadLine,
    LinkUtilizationReport,
    MetricsReport,
    RepairReport,
    SharedLinkLine,
    SliceCost,
    TelemetryReport,
    TenancyReport,
    TraceReport,
)
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import FabricSession

__all__ = [
    "UnsupportedOutput",
    "FabricBackend",
    "ElectricalBackend",
    "PhotonicBackend",
    "SwitchedBackend",
    "register_backend",
    "unregister_backend",
    "create_backend",
    "available_backends",
]


class UnsupportedOutput(RuntimeError):
    """A backend cannot produce a requested result section."""


@runtime_checkable
class FabricBackend(Protocol):
    """What a fabric must provide to serve the experiment API.

    Each method computes one ``RunResult`` section for a spec, reading
    memoized topology artifacts from the session, and may raise
    :class:`UnsupportedOutput` for a spec it cannot serve. Every fabric
    produces the sections below. A backend adds, with the same
    signature, those of the others it can produce:

    * ``link_utilization`` — measured per-link load, the
      stranded-bandwidth evidence;
    * ``repair`` — repair the spec's failed chip (Figures 6a/7);
    * ``device_report`` — physical-layer device characterization
      (Figures 3a/3b);
    * ``blast_radius`` — fleet-scale recovery-policy comparison
      (Section 4.2);
    * ``fleet_report`` — year-scale fleet reliability simulation;
    * ``tenancy_report`` — multi-tenant churn simulation;
    * ``trace`` — event timeline of the scenario's execution.

    An output that makes no sense on the fabric (e.g. optical repair on
    a switched server) goes in the backend's ``refusals`` map, output
    name to reason: the session raises :class:`UnsupportedOutput` with
    that reason where it would have called the method.
    """

    name: str

    def capability_rows(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> tuple[tuple[str, str], ...]:
        """(name, value) rows describing the fabric hardware."""
        ...

    def cost_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CostReport:
        """Closed-form per-slice collective costs (Tables 1/2)."""
        ...

    def congestion(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CongestionSummary:
        """Resource-sharing analysis of the scenario's tenants."""
        ...

    def telemetry(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> TelemetryReport:
        """Measured execution on the fabric's performance model."""
        ...

    def metrics(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> MetricsReport:
        """Deterministic simulator counters for the scenario."""
        ...


class _TorusBackendBase:
    """Shared logic for backends that run collectives on the rack torus."""

    name: str = ""
    interconnect: Interconnect

    # -- costs -------------------------------------------------------------------

    def cost_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CostReport:
        params = CostParameters()
        lines = []
        for slc in session.slices(spec):
            cost = reduce_scatter_cost(slc, self.interconnect)
            stages = reduce_scatter_stage_costs(slc, self.interconnect)
            lines.append(
                SliceCost(
                    slice_name=slc.name,
                    shape=slc.shape,
                    chips=slc.chip_count,
                    cost=cost,
                    stages=tuple(stages),
                    seconds=cost.seconds(spec.buffer_bytes, params),
                )
            )
        return CostReport(
            interconnect=self.interconnect.value,
            buffer_bytes=spec.buffer_bytes,
            slices=tuple(lines),
        )

    # -- telemetry ----------------------------------------------------------------

    def link_capacity_bytes(self, spec: ScenarioSpec) -> float:
        """Per-link capacity the simulator charges for this fabric."""
        raise NotImplementedError

    def _run(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        telemetry: bool = False,
        tracer: Tracer | None = None,
    ):
        """Run the spec's tenants concurrently on the rack's links.

        ``telemetry`` and ``tracer`` pass through to
        :func:`~repro.sim.runner.run_concurrent_schedules`. Both observe
        without perturbing, so the telemetry report, the link loads and
        the trace of one spec describe the same execution.
        """
        capacity = self.link_capacity_bytes(spec)
        workload = MultiTenantWorkload(
            slices=session.slices(spec),
            buffer_bytes=spec.buffer_bytes,
            interconnect=self.interconnect,
        )
        params = CostParameters()
        return run_concurrent_schedules(
            workload.schedules(),
            {link: capacity for link in session.torus(spec.rack_shape).links()},
            params.alpha_s,
            params.reconfig_s,
            telemetry=telemetry,
            tracer=tracer,
        )

    def telemetry(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> TelemetryReport:
        return TelemetryReport(schedules=tuple(self._run(session, spec)))

    def link_utilization(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> LinkUtilizationReport:
        """Run the scenario instrumented and report per-link load.

        The horizon is the last tenant's finish time — utilizations are
        fractions of what every link *could* have carried while anyone
        was still running, so links of an unused dimension show up as
        stranded capacity rather than being excluded.
        """
        results, telemetry = self._run(session, spec, telemetry=True)
        horizon = max((r.duration_s for r in results), default=0.0)
        lines = []
        for link in sorted(telemetry.capacities, key=lambda li: (li.src, li.dst)):
            carried = telemetry.carried_bytes(link)
            lines.append(
                LinkLoadLine(
                    src=link.src,
                    dst=link.dst,
                    dimension=link.dimension(spec.rack_shape),
                    carried_bytes=carried,
                    mean_utilization=(
                        telemetry.utilization(link, horizon)
                        if horizon > 0
                        else 0.0
                    ),
                    peak_utilization=telemetry.peak_utilization(link),
                )
            )
        return LinkUtilizationReport(
            horizon_s=horizon,
            link_capacity_bytes_per_s=self.link_capacity_bytes(spec),
            mean_utilization=(
                telemetry.mean_utilization(horizon) if horizon > 0 else 0.0
            ),
            links=tuple(lines),
        )

    # -- tracing and metrics ------------------------------------------------------

    def _traced_run(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> tuple[list[ScheduleResult], Tracer]:
        """Run the spec's workload with a tracer attached."""
        tracer = Tracer()
        return self._run(session, spec, tracer=tracer), tracer

    def _trace_failure(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        tracer: Tracer,
        t0_s: float,
    ) -> None:
        """Append this fabric's failure-recovery timeline at ``t0_s``."""
        raise NotImplementedError

    def trace(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> TraceReport:
        """The scenario's full event timeline.

        The workload runs traced from t = 0; when the spec injects
        failures, the fabric's recovery story (Figures 6a/6b vs 7) is
        appended at the workload's horizon — a chip fails the moment the
        collectives finish, and the trace shows what recovery costs:
        microsecond MZI reconfigurations on the photonic fabric, a rack
        migration on the electrical one.
        """
        results, tracer = self._traced_run(session, spec)
        if spec.failures.failed_chips:
            horizon = max((r.duration_s for r in results), default=0.0)
            self._trace_failure(session, spec, tracer, horizon)
        return TraceReport.from_tracer(tracer)

    def metrics(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> MetricsReport:
        """Deterministic counters derived from a traced run.

        Every value is simulation-derived (event counts, sim-time
        durations) — no wall clock — so the report golden-tests cleanly.
        """
        results, tracer = self._traced_run(session, spec)
        registry = MetricsRegistry()
        events = tracer.events
        registry.counter("sim.flows_completed").inc(
            sum(1 for e in events if e.ph == "X" and e.cat == "flow")
        )
        registry.counter("sim.rate_rebalances").inc(
            sum(1 for e in events if e.ph == "i" and e.cat == "network")
        )
        registry.counter("sim.phases").inc(
            sum(1 for e in events if e.ph == "X" and e.cat == "phase")
        )
        registry.counter("sim.reconfig_windows").inc(
            sum(1 for e in events if e.ph == "X" and e.cat == "reconfig")
        )
        registry.counter("sim.schedules").inc(len(results))
        run_complete = [
            e for e in events if e.ph == "i" and e.cat == "engine"
        ]
        if run_complete:
            registry.counter("sim.engine_events").inc(
                dict(run_complete[-1].args)["events_processed"]
            )
        registry.gauge("sim.horizon_s").set(
            max((r.duration_s for r in results), default=0.0)
        )
        registry.gauge("sim.reconfig_s_total").set(
            sum(r.reconfig_s for r in results)
        )
        durations = registry.histogram("sim.schedule_duration_s")
        transfers = registry.histogram("sim.schedule_transfer_s")
        for result in results:
            durations.observe(result.duration_s)
            transfers.observe(result.transfer_s)
        return MetricsReport.from_registry(registry)

    # -- fleet blast radius -------------------------------------------------------

    def blast_radius(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> BlastRadiusSummary:
        plan = spec.failures
        if plan.fleet_days <= 0:
            raise UnsupportedOutput(
                "blast_radius needs failures.fleet_days > 0"
            )
        events = FleetFailureModel(TpuCluster(), seed=plan.seed).sample_failures(
            plan.fleet_days * 24 * 3600.0
        )
        rack_report, optical_report = compare_policies(events)
        return BlastRadiusSummary(
            days=plan.fleet_days,
            rack_policy=rack_report,
            optical_policy=optical_report,
            improvement_factor=improvement_factor(rack_report, optical_report),
        )

    # -- fleet reliability simulation ---------------------------------------------

    def fleet_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> FleetReport:
        """Simulate ``fleet.days`` of fleet life on both fabrics.

        Both runs share the seeded renewal process and dispatch policy,
        so the availability gap isolates the repair mechanism: rack
        migration with a concurrency budget versus spare splicing with a
        per-rack inventory. They read the process's values from one
        :class:`~repro.fleet.process.RenewalDraws`, so the second run
        draws only what the first did not.
        """
        plan = spec.fleet
        if plan.days <= 0:
            raise UnsupportedOutput('the "fleet" output needs fleet.days > 0')
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
        draws = RenewalDraws(config.chips, config.mtbf_s, config.seed)
        electrical, photonic = (
            simulate_fleet(
                config,
                fabric,
                policy=plan.policy,
                lazy_threshold=plan.lazy_threshold,
                batch_interval_s=plan.batch_interval_s,
                log=session.log,
                draws=draws,
            )
            for fabric in ("electrical", "photonic")
        )
        return FleetReport(
            days=plan.days,
            chips=config.chips,
            seed=plan.seed,
            policy=plan.policy,
            electrical=electrical,
            photonic=photonic,
        )

    # -- multi-tenant churn simulation ---------------------------------------------

    def tenancy_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> TenancyReport:
        """Simulate ``tenancy.days`` of tenant churn on both fabrics.

        Both runs place the same seeded job stream with the same base
        policy over a cluster of the spec's ``rack_shape`` tori; only
        the photonic run may steer wavelengths (when the plan allows),
        so the gaps isolate what reconfigurable reach is worth under
        fragmentation.
        """
        plan = spec.tenancy
        if plan.days <= 0:
            raise UnsupportedOutput('the "tenancy" output needs tenancy.days > 0')
        config = TenancyConfig(
            rack_shape=spec.rack_shape,
            racks=plan.racks,
            horizon_s=plan.days * 24 * 3600.0,
            arrivals_per_day=plan.arrivals_per_day,
            profile=plan.profile,
            seed=plan.seed,
            mean_duration_s=plan.mean_duration_s,
            max_queue_wait_s=plan.max_queue_wait_s,
            steer_circuits=plan.steer_circuits,
            series_points=plan.series_points,
        )
        electrical, photonic = (
            simulate_tenancy(
                config,
                fabric,
                policy=plan.policy,
                steering=plan.steering and fabric == "photonic",
                log=session.log,
            )
            for fabric in ("electrical", "photonic")
        )
        return TenancyReport(
            days=plan.days,
            chips=config.total_chips,
            seed=plan.seed,
            policy=plan.policy,
            profile=plan.profile,
            electrical=electrical,
            photonic=photonic,
        )


def _failure(
    session: "FabricSession", spec: ScenarioSpec
) -> tuple[tuple[int, ...], Slice]:
    """The spec's first failed chip and the tenant slice it belongs to."""
    if not spec.failures.failed_chips:
        raise UnsupportedOutput('the "repair" output needs failures.failed_chips')
    failed = spec.failures.failed_chips[0]
    return failed, session.slice_of_chip(spec, failed)


class ElectricalBackend(_TorusBackendBase):
    """Static direct-connect electrical torus (the paper's baseline)."""

    name = "electrical"
    interconnect = Interconnect.ELECTRICAL
    refusals = {"device": "the electrical fabric has no photonic device models"}

    def capability_rows(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> tuple[tuple[str, str], ...]:
        electrical = session.electrical(spec.rack_shape)
        return (
            ("chip egress", f"{electrical.chip_egress_bytes / 1e9:.0f} GB/s"),
            ("wired dimensions", str(electrical.wired_dimensions)),
            (
                "per-link bandwidth",
                f"{electrical.link_bandwidth_bytes() / 1e9:.0f} GB/s",
            ),
            ("switching", "none (hop-by-hop forwarding)"),
        )

    def link_capacity_bytes(self, spec: ScenarioSpec) -> float:
        dims = sum(1 for s in spec.rack_shape if s > 1)
        return CHIP_EGRESS_BYTES / max(dims, 1)

    def congestion(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CongestionSummary:
        report = session.rack_congestion(spec)
        return CongestionSummary(
            congestion_free=report.is_congestion_free,
            shared_links=tuple(
                SharedLinkLine(
                    src=s.link.src, dst=s.link.dst, users=s.users
                )
                for s in report.shared_links
            ),
            worst_multiplicity=report.worst_multiplicity,
            per_slice_congested_dims=dict(report.per_slice_congested_dims),
        )

    def _replacements(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        slc: Slice,
        failed: tuple[int, ...],
    ) -> list[ReplacementAttempt]:
        """Figure 6a's analysis: every free chip of the rack evaluated as
        the replacement for ``failed``."""
        analysis = ElectricalRecoveryAnalysis(
            session.torus(spec.rack_shape),
            session.allocator(spec),
            max_hops=spec.failures.max_hops,
        )
        return analysis.evaluate_all_free_chips(slc, failed)

    def repair(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> RepairReport:
        failed, slc = _failure(session, spec)
        attempts = self._replacements(session, spec, slc, failed)
        return RepairReport(
            kind="electrical",
            failed=failed,
            feasible=any(a.feasible for a in attempts),
            attempts=tuple(
                AttemptLine(
                    free_chip=a.free_chip,
                    feasible=a.feasible,
                    congested_links=a.total_congested_links,
                )
                for a in attempts
            ),
        )

    def _trace_failure(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        tracer: Tracer,
        t0_s: float,
    ) -> None:
        """The Figure 6a/6b story as a timeline.

        A chip fails at ``t0_s``; every free chip is evaluated as a
        replacement (each an instant event carrying its congested-link
        count); since none is congestion-free, the rack-migration
        fallback runs — a span whose ~600 s duration dwarfs everything
        else on the timeline.
        """
        failed, slc = _failure(session, spec)
        tracer.instant(
            "chip-failure",
            cat="failure",
            ts_s=t0_s,
            args={"chip": list(failed), "slice": slc.name},
        )
        attempts = self._replacements(session, spec, slc, failed)
        for attempt in attempts:
            tracer.instant(
                f"replacement-candidate {attempt.free_chip}",
                cat="recovery",
                ts_s=t0_s,
                args={
                    "free_chip": list(attempt.free_chip),
                    "feasible": attempt.feasible,
                    "congested_links": attempt.total_congested_links,
                },
            )
        if any(a.feasible for a in attempts):
            tracer.instant(
                "congestion-free-replacement", cat="recovery", ts_s=t0_s
            )
            return
        policy = RackMigrationPolicy()
        latency = policy.recovery_latency_s()
        tracer.complete(
            "rack-migration",
            cat="recovery",
            start_s=t0_s,
            end_s=t0_s + latency,
            args={
                "checkpoint_restore_s": policy.checkpoint_restore_s,
                "ocs_reconfigure_s": policy.ocs_reconfigure_s,
                "blast_radius_chips": policy.rack_chips,
            },
        )
        tracer.instant(
            "slice-recovered", cat="recovery", ts_s=t0_s + latency
        )


class PhotonicBackend(_TorusBackendBase):
    """The LIGHTPATH server-scale photonic fabric."""

    name = "photonic"
    interconnect = Interconnect.OPTICAL

    def capability_rows(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> tuple[tuple[str, str], ...]:
        return tuple(LightpathWafer().capabilities().rows())

    def link_capacity_bytes(self, spec: ScenarioSpec) -> float:
        # Steering concentrates the full chip egress onto the active rings.
        return CHIP_EGRESS_BYTES

    def congestion(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CongestionSummary:
        # Circuits own their wavelength, waveguide tracks and fibers, so
        # the fabric is congestion-free by construction (Section 3).
        return CongestionSummary(congestion_free=True)

    def _splice(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        slc: Slice,
        failed: tuple[int, ...],
    ) -> RepairPlan:
        """Figure 7's repair: plan the circuits that splice a spare in
        for ``failed``.

        The rack and its fabric are built fresh: planning fails the chip
        and allocates circuits, so a memoized instance would leak state
        between runs.

        Raises:
            RepairError: when no spare can be spliced in.
        """
        return plan_optical_repair(
            LightpathRackFabric(TpuRack(0, shape=spec.rack_shape)),
            session.allocator(spec),
            slc,
            failed,
            replacement=spec.failures.replacement,
        )

    def repair(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> RepairReport:
        failed, slc = _failure(session, spec)
        try:
            plan = self._splice(session, spec, slc, failed)
        except RepairError:
            return RepairReport(kind="optical", failed=failed, feasible=False)
        return RepairReport(
            kind="optical",
            failed=failed,
            feasible=True,
            replacement=plan.replacement,
            circuits=tuple(
                CircuitLine(
                    src=c.src,
                    dst=c.dst,
                    server_path=c.server_path,
                    fiber_hops=c.fiber_hops,
                )
                for c in plan.circuits
            ),
            setup_latency_s=plan.setup_latency_s,
            fibers_used=plan.fibers_used,
            blast_radius_chips=plan.blast_radius_chips,
        )

    def _trace_failure(
        self,
        session: "FabricSession",
        spec: ScenarioSpec,
        tracer: Tracer,
        t0_s: float,
    ) -> None:
        """The Figure 7 story as a timeline.

        A chip fails at ``t0_s``; the repair planner splices in a spare
        over dedicated circuits, each an MZI reconfiguration span of the
        paper's 3.7 us (all switched in parallel), and the slice is back
        microseconds later — the counterpoint to the electrical rack
        migration.
        """
        failed, slc = _failure(session, spec)
        tracer.instant(
            "chip-failure",
            cat="failure",
            ts_s=t0_s,
            args={"chip": list(failed), "slice": slc.name},
        )
        try:
            plan = self._splice(session, spec, slc, failed)
        except RepairError as exc:
            tracer.instant(
                "repair-failed",
                cat="recovery",
                ts_s=t0_s,
                args={"reason": str(exc)},
            )
            return
        for circuit in plan.circuits:
            tracer.complete(
                f"mzi-reconfigure {circuit.src}->{circuit.dst}",
                cat="reconfig",
                start_s=t0_s,
                end_s=t0_s + circuit.setup_latency_s,
                args={"fiber_hops": circuit.fiber_hops},
            )
        tracer.complete(
            "optical-repair",
            cat="recovery",
            start_s=t0_s,
            end_s=t0_s + plan.setup_latency_s,
            args={
                "replacement": list(plan.replacement),
                "circuits": len(plan.circuits),
                "fibers_used": plan.fibers_used,
                "blast_radius_chips": plan.blast_radius_chips,
            },
        )
        tracer.instant(
            "slice-recovered",
            cat="recovery",
            ts_s=t0_s + plan.setup_latency_s,
        )

    def device_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> DeviceReport:
        device = spec.device
        dynamics = MziSwitchDynamics(rng=np.random.default_rng(spec.seed))
        trace = dynamics.measure_step(
            duration_s=device.mzi_duration_s, samples=device.mzi_samples
        )
        fit = dynamics.fit_exponential(trace)
        model = StitchLossModel(rng=np.random.default_rng(spec.seed))
        hist = model.histogram(
            samples=device.stitch_samples, bins=device.stitch_bins
        )
        return DeviceReport(
            mzi_tau_s=fit.tau_s,
            mzi_settling_s=fit.settling_time(0.05),
            stitch_bin_edges_db=tuple(hist.bin_edges_db),
            stitch_counts=tuple(int(c) for c in hist.counts),
            stitch_mean_db=hist.mean_db,
            stitch_p95_db=hist.p95_db,
        )


class SwitchedBackend:
    """NVSwitch-style big-switch server with host-side contention."""

    name = "switched"
    refusals = {
        "link_utilization": (
            "the switched fabric has no per-link torus topology; its "
            'contention story lives in the "telemetry" output'
        ),
        "repair": (
            "the switched fabric models a single server; chip repair is a "
            "host maintenance event, not a fabric operation"
        ),
        "device": "the switched fabric has no photonic device models",
        "blast_radius": "blast-radius policies compare torus recovery strategies",
        "fleet": (
            "the fleet simulation compares torus repair mechanisms; the "
            "switched fabric models a single server"
        ),
        "tenancy": (
            "the tenancy simulation places slices on torus racks; the "
            "switched fabric models a single server"
        ),
        "trace": (
            "the switched fabric's contention model is closed-form — there "
            'is no event timeline to trace; use the "metrics" output'
        ),
    }

    def __init__(self, host_contention_per_flow: float = 0.1, fanin: int = 4):
        self.host_contention_per_flow = host_contention_per_flow
        self.fanin = fanin

    def capability_rows(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> tuple[tuple[str, str], ...]:
        return (
            ("port bandwidth", f"{CHIP_EGRESS_BYTES / 1e9:.0f} GB/s"),
            ("switching", "central crossbar (big-switch abstraction)"),
            (
                "host contention",
                f"{self.host_contention_per_flow:.0%} per extra inbound flow",
            ),
        )

    def _server(self, spec: ScenarioSpec) -> SwitchedServer:
        chips = 1
        for extent in spec.rack_shape:
            chips *= extent
        return SwitchedServer(
            accelerators=chips,
            host_contention_per_flow=self.host_contention_per_flow,
        )

    def _shuffle(self, spec: ScenarioSpec) -> SwitchedServer:
        """A ``fanin``-way shuffle: each port receives from ``fanin`` peers.

        This is the moderate-fan-in regime where the cited host-side
        contention bites without saturating the contention model.
        """
        server = self._server(spec)
        ports = server.accelerators
        k = min(self.fanin, ports - 1)
        demand = server.port_bandwidth_bytes / k
        for src in range(ports):
            for step in range(1, k + 1):
                server.add_flow(src, (src + step) % ports, demand)
        return server

    def cost_report(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CostReport:
        # The big switch promises full-bandwidth rings regardless of slice
        # geometry; the broken promise shows up in congestion/telemetry.
        params = CostParameters()
        lines = []
        for slc in session.slices(spec):
            cost = ring_reduce_scatter(slc.chip_count, 1.0)
            lines.append(
                SliceCost(
                    slice_name=slc.name,
                    shape=slc.shape,
                    chips=slc.chip_count,
                    cost=cost,
                    stages=(cost,),
                    seconds=cost.seconds(spec.buffer_bytes, params),
                )
            )
        return CostReport(
            interconnect="switched",
            buffer_bytes=spec.buffer_bytes,
            slices=tuple(lines),
        )

    def congestion(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> CongestionSummary:
        server = self._shuffle(spec)
        loss = server.contention_loss_fraction()
        return CongestionSummary(
            congestion_free=loss == 0.0,
            contention_loss_fraction=loss,
        )

    def telemetry(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> TelemetryReport:
        server = self._shuffle(spec)
        return TelemetryReport(
            aggregate_throughput_bytes=server.aggregate_throughput_bytes(),
            ideal_throughput_bytes=server.ideal_throughput_bytes(),
        )

    def metrics(
        self, session: "FabricSession", spec: ScenarioSpec
    ) -> MetricsReport:
        """Contention counters from the closed-form switch model."""
        server = self._shuffle(spec)
        registry = MetricsRegistry()
        registry.counter("switched.flows").inc(len(server.flows))
        registry.gauge("switched.ports").set(server.accelerators)
        registry.gauge("switched.aggregate_throughput_bytes").set(
            server.aggregate_throughput_bytes()
        )
        registry.gauge("switched.ideal_throughput_bytes").set(
            server.ideal_throughput_bytes()
        )
        registry.gauge("switched.contention_loss_fraction").set(
            server.contention_loss_fraction()
        )
        return MetricsReport.from_registry(registry)


# -- registry --------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], FabricBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], FabricBackend], replace: bool = False
) -> None:
    """Register a fabric backend under ``name``.

    Args:
        name: the name specs select the backend by.
        factory: zero-argument callable producing a backend instance.
        replace: allow overwriting an existing registration.

    Raises:
        ValueError: when the name is taken and ``replace`` is false.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True "
            "to overwrite it"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for tests).

    Raises:
        KeyError: for an unknown name.
    """
    del _REGISTRY[name]


def create_backend(name: str) -> FabricBackend:
    """Instantiate the backend registered under ``name``.

    Raises:
        KeyError: for an unknown name, listing what is available.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no fabric backend named {name!r}; available: "
            f"{available_backends()}"
        ) from None
    return factory()


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


register_backend("electrical", ElectricalBackend)
register_backend("photonic", PhotonicBackend)
register_backend("switched", SwitchedBackend)
# The paper (and the cost model) call the LIGHTPATH side "optical".
register_backend("optical", PhotonicBackend)
