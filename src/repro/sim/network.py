"""Fluid network simulation: flows over capacity-limited links.

Combines the event engine and the max-min rate model into a fluid-flow
simulator: flows are injected with a byte count and a link set, rates are
recomputed once per simulated instant at which the flow population
changed (for the flow–link components the changes touched), and
completions fire in event order. This is the execution
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
from .engine import Event, EventEngine, SimulationError
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

    A settle re-solves only the flow–link components the instant's
    changes touched: the links of injected and completed flows and of
    changed capacities, grown through a link → active-flows map into
    whole components. Max-min rates separate by component, and the
    water-filling kernel gives an uncapped component the same floats
    alone as inside the whole population, so untouched flows keep their
    rates. Demand caps couple components (a capped round compares demands
    with the smallest share over every link), so while any active flow
    has a cap, or had one at the last settle, the whole population is
    re-solved.

    Of the completion events a settle could arm, only the earliest can
    fire before the next settle (a completion triggers one, which cancels
    the pending event and arms a fresh one), so one event per network is
    pending at a time.

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
        self._completion_event: Event | None = None
        self._last_update_s = engine.now_s
        self._dirty = False
        # Kernel state, built at settles: the link index space, the
        # capacities last validated (as read, and as float64), each
        # active flow's link indices and each link's active flows.
        # Injections since the last settle wait in ``_new``; completions
        # and capacity changes leave their links in ``_touched``;
        # ``_capped`` tells whether the last settle saw a demand cap.
        self._link_space: LinkSpace | None = None
        self._cap_values: list[float] = []
        self._caps: np.ndarray | None = None
        self._flow_indices: dict[Hashable, list[int]] = {}
        self._link_flows: dict[int, set[Hashable]] = {}
        self._new: list[Flow] = []
        self._touched: set[int] = set()
        self._capped = False

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
        self._new.append(flow)
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

    def _track(self, flow: Flow) -> list[int]:
        """Index ``flow``'s links and enter it in the link → flows map."""
        index = self._link_space.index
        links = [index[link] for link in flow.links]
        self._flow_indices[flow.flow_id] = links
        link_flows = self._link_flows
        for link in links:
            users = link_flows.get(link)
            if users is None:
                link_flows[link] = {flow.flow_id}
            else:
                users.add(flow.flow_id)
        return links

    def _stale_flows(self) -> list[Flow]:
        """Validate the rate model's inputs and return, in active order,
        the flows whose rates the changes since the last settle can move.

        Capacity values are re-read on every settle and compared with the
        last validated ones (in C); changed values are re-validated, as
        :func:`~repro.sim.flows.max_min_rates` validates per call, and
        their links touched. The link→index mapping is cached until the
        ordered link keys change, and a rebuild re-indexes every active
        flow with :func:`check_flow`'s messages. The whole population is
        returned after a rebuild and whenever a demand cap is or was in
        play, with every cap re-validated; otherwise the components of
        the touched links.
        """
        space = self._link_space
        rebuild = space is None or list(self.capacities) != space.links
        if rebuild:
            self._link_space = LinkSpace(self.capacities)
            self._flow_indices.clear()
            self._link_flows.clear()
            self._cap_values = []
        values = list(self.capacities.values())
        if values != self._cap_values:
            caps = np.array(values, dtype=np.float64)
            if not ((caps > 0.0) & (caps < np.inf)).all():
                check_capacities(self.capacities)
            if not rebuild:
                self._touched.update(np.flatnonzero(caps != self._caps).tolist())
            self._cap_values, self._caps = values, caps
        new, self._new = self._new, []
        touched, self._touched = self._touched, set()
        records = self._active.values()
        capped = any(r.flow.demand_bytes_per_s is not None for r in records)
        whole = rebuild or capped or self._capped
        self._capped = capped
        if whole:
            indices = self._flow_indices
            for record in records:
                flow = record.flow
                if flow.flow_id in indices:
                    check_demand(flow)
                else:
                    check_flow(flow, self.capacities)
                    self._track(flow)
            return [r.flow for r in records]
        for flow in new:
            touched.update(self._track(flow))
        link_flows = self._link_flows
        indices = self._flow_indices
        stale: set[Hashable] = set()
        frontier = list(touched)
        while frontier:
            for flow_id in link_flows.get(frontier.pop(), ()):
                if flow_id not in stale:
                    stale.add(flow_id)
                    for link in indices[flow_id]:
                        if link not in touched:
                            touched.add(link)
                            frontier.append(link)
        if not stale:
            return []
        return [r.flow for r in records if r.flow.flow_id in stale]

    def _compute_rates(self, flows: list[Flow]) -> None:
        """Recompute ``flows``' rates with the water-filling kernel, over
        the capacities :meth:`_stale_flows` validated this settle."""
        with STATS.timed("waterfill"):
            indices = self._flow_indices
            demands = np.fromiter(
                (
                    np.nan if f.demand_bytes_per_s is None else f.demand_bytes_per_s
                    for f in flows
                ),
                dtype=np.float64,
                count=len(flows),
            )
            rates = waterfill_rates(
                self._caps,
                FlowIncidence([indices[f.flow_id] for f in flows]),
                demands,
            ).tolist()
            for flow, rate in zip(flows, rates):
                flow.rate_bytes_per_s = rate

    def _reschedule(self) -> None:
        """Re-solve the touched components and arm the next completion.

        Every active flow's completion time is recomputed from its
        debited bytes, ``now + remaining / rate``; the earliest (ties to
        the first in active order) gets the network's one event. Flows
        with no bytes left complete inline and a starved flow raises, in
        active order, and when any does the event is armed at that flow's
        place in the walk, so its sequence number keeps its order among
        the completion callbacks the walk schedules.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._active:
            return
        stale = self._stale_flows()
        if stale:
            self._compute_rates(stale)
        if self.tracer.enabled:
            self.tracer.instant(
                "rebalance",
                cat="network",
                ts_s=self.engine.now_s,
                args={"active_flows": len(self._active)},
            )
        now = self.engine.now_s
        first = None
        first_s = 0.0
        walk = False
        for record in self._active.values():
            flow = record.flow
            if flow.remaining_bytes <= 0 or flow.rate_bytes_per_s <= 0:
                walk = True
                continue
            finish_s = now + flow.remaining_bytes / flow.rate_bytes_per_s
            if first is None or finish_s < first_s:
                first, first_s = record, finish_s
        if not walk:
            self._arm(first, first_s)
            return
        for record in list(self._active.values()):
            flow = record.flow
            if flow.remaining_bytes <= 0:
                self._complete(flow.flow_id)
            elif flow.rate_bytes_per_s <= 0:
                cause = (
                    f"its demand cap is {flow.demand_bytes_per_s}"
                    if flow.demand_bytes_per_s is not None
                    else "check link capacities"
                )
                raise SimulationError(
                    f"flow {flow.flow_id!r} starved (zero rate); {cause}"
                )
            elif record is first:
                self._arm(first, first_s)

    def _arm(self, record: FlowRecord, finish_s: float) -> None:
        flow_id = record.flow.flow_id
        self._completion_event = self.engine.schedule_at(
            finish_s, lambda: self._on_complete(flow_id)
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
        links = self._flow_indices.pop(flow_id)
        for link in links:
            self._link_flows[link].discard(flow_id)
        self._touched.update(links)
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
