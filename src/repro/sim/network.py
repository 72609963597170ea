"""Fluid network simulation: flows over capacity-limited links.

Combines the event engine and the max-min rate model into a fluid-flow
simulator: flows are injected with a byte count and a link set, rates are
recomputed once per simulated instant at which the flow population
changed, and completions fire in event order. This is the execution
substrate for running collective schedules (``repro.sim.runner``) and
failure-recovery traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from ..kernels import STATS
from ..kernels.incidence import FlowIncidence, LinkSpace
from ..kernels.waterfill import waterfill_rates
from ..obs.tracer import NULL_TRACER, Tracer
from .engine import EventEngine, SimulationError
from .flows import Flow, check_capacities, check_demand, check_flow

__all__ = ["FlowNetwork", "FlowRecord"]


@dataclass
class FlowRecord:
    """Lifecycle record of one flow.

    Attributes:
        flow: the underlying flow object.
        start_s: injection time.
        finish_s: completion time (None while active).
        on_complete: callback fired (once) at completion time.
    """

    flow: Flow
    start_s: float
    finish_s: float | None = None
    on_complete: Callable[["FlowRecord"], None] | None = field(
        default=None, repr=False
    )

    @property
    def duration_s(self) -> float:
        """Completion time minus start (raises while active)."""
        if self.finish_s is None:
            raise SimulationError(f"flow {self.flow.flow_id!r} still active")
        return self.finish_s - self.start_s


class FlowNetwork:
    """Fluid flows over a static set of links.

    An injection or a completion only marks the network dirty; rates are
    settled once, through :meth:`EventEngine.settle_before_next
    <repro.sim.engine.EventEngine.settle_before_next>`, before the next
    event fires. No simulated time passes between the changes of one
    instant, so the intermediate rates an eager recompute would produce
    are never used, and completion times equal an eager recompute's.

    Attributes:
        engine: the event engine driving the simulation.
        capacities: link capacities, bytes per second.
        tracer: where flow spans and rebalance instants are emitted;
            defaults to the no-op :data:`~repro.obs.tracer.NULL_TRACER`,
            and every emission site is guarded by ``tracer.enabled`` so
            untraced runs pay nothing. Tracing observes the rate model
            without perturbing it — results are identical either way.
    """

    def __init__(
        self,
        engine: EventEngine,
        capacities: dict[Hashable, float],
        tracer: Tracer | None = None,
    ):
        self.engine = engine
        self.capacities = dict(capacities)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._active: dict[Hashable, FlowRecord] = {}
        self._records: list[FlowRecord] = []
        self._completion_events: dict[Hashable, object] = {}
        self._last_update_s = engine.now_s
        self._dirty = False
        # Kernel state: the link index space and the per-flow link-index
        # lists, built lazily. A flow's links are converted to indices
        # once at first sight instead of hashing every link on every
        # rebalance.
        self._link_space: LinkSpace | None = None
        self._flow_indices: dict[Hashable, list[int]] = {}

    # -- flow lifecycle -----------------------------------------------------------

    def inject(
        self,
        flow: Flow,
        on_complete: Callable[[FlowRecord], None] | None = None,
    ) -> FlowRecord:
        """Add ``flow`` to the network at the current time.

        Args:
            on_complete: called once, at the flow's completion time.

        Raises:
            SimulationError: on duplicate flow ids.
            KeyError: when the flow uses a link without a capacity.
            ValueError: on a non-positive demand cap.
        """
        if flow.flow_id in self._active:
            raise SimulationError(f"flow id {flow.flow_id!r} already active")
        check_flow(flow, self.capacities)
        self._advance_progress()
        record = FlowRecord(
            flow=flow, start_s=self.engine.now_s, on_complete=on_complete
        )
        self._active[flow.flow_id] = record
        self._records.append(record)
        self._mark_dirty()
        return record

    def active_flow_count(self) -> int:
        """Flows injected and not yet complete (a flow with no bytes to
        send completes when the network next settles)."""
        return len(self._active)

    @property
    def records(self) -> list[FlowRecord]:
        """All flow records, injection-ordered (copy)."""
        return list(self._records)

    # -- internals ------------------------------------------------------------------

    def _mark_dirty(self) -> None:
        """Settle rates once before the next event fires."""
        if not self._dirty:
            self._dirty = True
            self.engine.settle_before_next(self._settle)

    def _settle(self) -> None:
        self._dirty = False
        self._reschedule()

    def _advance_progress(self) -> None:
        """Debit bytes transferred since the last rate change.

        The debits are one array expression; each element performs the
        scalar float sequence ``max(0.0, remaining - rate * elapsed)``,
        so every flow's remaining bytes are exactly what a per-flow loop
        would compute.
        """
        elapsed = self.engine.now_s - self._last_update_s
        if elapsed > 0 and self._active:
            records = list(self._active.values())
            count = len(records)
            remaining = np.fromiter(
                (r.flow.remaining_bytes for r in records),
                dtype=np.float64,
                count=count,
            )
            rates = np.fromiter(
                (r.flow.rate_bytes_per_s for r in records),
                dtype=np.float64,
                count=count,
            )
            debited = np.maximum(0.0, remaining - rates * elapsed).tolist()
            for record, left in zip(records, debited):
                record.flow.remaining_bytes = left
        self._last_update_s = self.engine.now_s

    def _link_space_current(self) -> LinkSpace:
        """The capacity index space, rebuilt when the universe changes.

        Capacity *values* are re-read (and re-validated, as
        :func:`~repro.sim.flows.max_min_rates` does per call) on every
        rate computation; only the link→index mapping is cached,
        invalidated when the ordered link keys change (compared in C).
        """
        space = self._link_space
        if space is None or list(self.capacities) != space.links:
            self._link_space = space = LinkSpace(self.capacities)
            self._flow_indices.clear()
        return space

    def _compute_rates(self, flows: list[Flow]) -> None:
        """Recompute ``flows``' rates with the water-filling kernel.

        Capacities and demand caps are re-validated on every call (both
        are mutable); a flow's links only until its index list is cached
        (its link set is fixed after injection). Messages and ordering
        match :func:`~repro.sim.flows.max_min_rates`.
        """
        with STATS.timed("waterfill"):
            space = self._link_space_current()
            caps = np.fromiter(
                self.capacities.values(), dtype=np.float64, count=len(space)
            )
            if not (caps > 0.0).all():
                check_capacities(self.capacities)
            indices = self._flow_indices
            flow_links = []
            demand_list = []
            for flow in flows:
                idx = indices.get(flow.flow_id)
                if idx is None:
                    check_flow(flow, self.capacities)
                    idx = indices[flow.flow_id] = space.indices(flow.links).tolist()
                else:
                    check_demand(flow)
                flow_links.append(idx)
                demand = flow.demand_bytes_per_s
                demand_list.append(np.nan if demand is None else demand)
            demands = np.asarray(demand_list, dtype=np.float64)
            rates = waterfill_rates(
                caps, FlowIncidence(flow_links), demands
            ).tolist()
            for flow, rate in zip(flows, rates):
                flow.rate_bytes_per_s = rate

    def _reschedule(self) -> None:
        """Recompute rates and (re)schedule every completion event."""
        for event in self._completion_events.values():
            event.cancel()
        self._completion_events.clear()
        flows = [r.flow for r in self._active.values()]
        if not flows:
            return
        self._compute_rates(flows)
        if self.tracer.enabled:
            self.tracer.instant(
                "rebalance",
                cat="network",
                ts_s=self.engine.now_s,
                args={"active_flows": len(flows)},
            )
        for record in list(self._active.values()):
            flow = record.flow
            if flow.remaining_bytes <= 0:
                self._complete(flow.flow_id)
                continue
            if flow.rate_bytes_per_s <= 0:
                cause = (
                    f"its demand cap is {flow.demand_bytes_per_s}"
                    if flow.demand_bytes_per_s is not None
                    else "check link capacities"
                )
                raise SimulationError(
                    f"flow {flow.flow_id!r} starved (zero rate); {cause}"
                )
            eta = flow.remaining_bytes / flow.rate_bytes_per_s
            flow_id = flow.flow_id
            self._completion_events[flow_id] = self.engine.schedule_after(
                eta, lambda fid=flow_id: self._on_complete(fid)
            )

    def _on_complete(self, flow_id: Hashable) -> None:
        self._advance_progress()
        # Guard against float drift: the flow may have a sliver left.
        record = self._active.get(flow_id)
        if record is not None:
            record.flow.remaining_bytes = 0.0
            self._complete(flow_id)
        self._mark_dirty()

    def _complete(self, flow_id: Hashable) -> None:
        record = self._active.pop(flow_id)
        record.finish_s = self.engine.now_s
        if self.tracer.enabled:
            self.tracer.complete(
                f"flow {flow_id}",
                cat="flow",
                start_s=record.start_s,
                end_s=record.finish_s,
                args={"links": len(record.flow.links)},
            )
        event = self._completion_events.pop(flow_id, None)
        if event is not None:
            event.cancel()
        if record.on_complete is not None:
            # Defer to a zero-delay event so callbacks (which may inject
            # new flows) never re-enter a rate recomputation in progress.
            callback = record.on_complete
            self.engine.schedule_after(0.0, lambda: callback(record))

    # -- convenience ------------------------------------------------------------------

    def run_until_idle(self) -> float:
        """Run the engine until every flow completes; returns the time.

        Completion callbacks are delivered before returning: ``_complete``
        defers ``on_complete`` to a zero-delay event, so when the last
        flow finishes those events are still queued at the current time.
        They are drained here (and may inject follow-up flows, which are
        then run to completion too) rather than silently dropped. Each
        pass asks the engine for its next event time first, which settles
        the network, so flows that settling completes are not counted as
        active.
        """
        engine = self.engine
        while True:
            next_time = engine.next_event_time()
            if self._active:
                if next_time is None:
                    raise SimulationError(
                        f"{len(self._active)} flows active but no events pending"
                    )
            elif next_time is None or next_time > engine.now_s:
                return engine.now_s
            engine.step()
