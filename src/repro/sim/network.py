"""Fluid network simulation: flows over capacity-limited links.

Combines the event engine and the max-min rate model into a fluid-flow
simulator: flows are injected with a byte count and a link set, rates are
recomputed whenever the flow population changes, and completions fire in
event order. This is the execution substrate for running collective
schedules (``repro.sim.runner``) and failure-recovery traffic.
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
from .flows import Flow

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
        # Kernel state: the link index space and the per-flow link-index
        # arrays, built lazily. A flow's links are converted to indices
        # once at first sight instead of hashing every link on every
        # rebalance.
        self._link_space: LinkSpace | None = None
        self._flow_indices: dict[Hashable, np.ndarray] = {}

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
        """
        if flow.flow_id in self._active:
            raise SimulationError(f"flow id {flow.flow_id!r} already active")
        self._advance_progress()
        record = FlowRecord(
            flow=flow, start_s=self.engine.now_s, on_complete=on_complete
        )
        self._active[flow.flow_id] = record
        self._records.append(record)
        self._reschedule()
        return record

    def active_flow_count(self) -> int:
        """Flows currently in the network."""
        return len(self._active)

    @property
    def records(self) -> list[FlowRecord]:
        """All flow records, injection-ordered (copy)."""
        return list(self._records)

    # -- internals ------------------------------------------------------------------

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

        Reuses cached per-flow link-index arrays and skips re-validating
        links it has already seen (a flow's link set is fixed after
        injection); validation messages and ordering for *new* flows
        match :func:`~repro.sim.flows.max_min_rates`.
        """
        with STATS.timed("waterfill"):
            space = self._link_space_current()
            caps = np.fromiter(
                self.capacities.values(), dtype=np.float64, count=len(space)
            )
            if not (caps > 0.0).all():
                for link, cap in self.capacities.items():
                    if cap <= 0:
                        raise ValueError(
                            f"link {link!r} has non-positive capacity {cap}"
                        )
            indices = self._flow_indices
            flow_links = []
            demand_list = []
            for flow in flows:
                idx = indices.get(flow.flow_id)
                if idx is None:
                    try:
                        idx = space.indices(flow.links)
                    except KeyError as exc:
                        raise KeyError(
                            f"flow {flow.flow_id!r} uses unknown link "
                            f"{exc.args[0]!r}"
                        ) from None
                    indices[flow.flow_id] = idx
                flow_links.append(idx)
                demand = flow.demand_bytes_per_s
                if demand is not None and demand <= 0:
                    raise ValueError(
                        f"flow {flow.flow_id!r} has a non-positive demand cap "
                        f"({demand}) and can never make progress; the link "
                        "capacities are not at fault"
                    )
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
        self._reschedule()

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
        then run to completion too) rather than silently dropped.
        """
        while True:
            if self._active:
                if not self.engine.step():
                    raise SimulationError(
                        f"{len(self._active)} flows active but no events pending"
                    )
                continue
            next_time = self.engine.next_event_time()
            if next_time is not None and next_time <= self.engine.now_s:
                self.engine.step()
                continue
            return self.engine.now_s
