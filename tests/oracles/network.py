"""Fluid networks that compute the same timelines the plain way.

:class:`ReferenceFlowNetwork` and :class:`ReferenceInstrumentedNetwork`
are :class:`~repro.sim.network.FlowNetwork` and
:class:`~repro.sim.telemetry.InstrumentedNetwork` with their three
kernel steps replaced by the straightforward loops: water-filling over
dicts, a per-flow byte debit, and a per-flow dict accumulation of link
rates. Event scheduling is inherited unchanged, so the record and
telemetry timelines of the two pairs must agree exactly.

:class:`WholeSolveFlowNetwork` and :class:`WholeSolveInstrumentedNetwork`
settle the way the networks did before they re-solved only touched
components: every settle re-solves the whole active population, cancels
every completion event and arms one per flow. Like the production
networks, they settle again when flows with no bytes left complete
inside a settle. Their record timelines, telemetry samples and
processed-event counts must equal the production networks'.

:class:`EagerFlowNetwork` and :class:`EagerInstrumentedNetwork` are the
whole-solve networks recomputing at every injection and completion
instead of once per instant, as the networks once did; their timelines
must equal the settled networks' too.
"""

from __future__ import annotations

from typing import Hashable

from repro.sim.engine import SimulationError
from repro.sim.flows import Flow
from repro.sim.network import FlowNetwork
from repro.sim.telemetry import InstrumentedNetwork

from .kernels import max_min_rates_reference


class ReferenceFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` computing with per-flow loops."""

    def _compute_rates(self, flows: list[Flow]) -> None:
        max_min_rates_reference(flows, self.capacities)

    def _advance_progress(self) -> None:
        elapsed = self.engine.now_s - self._last_update_s
        if elapsed > 0:
            for record in self._active.values():
                sent = record.flow.rate_bytes_per_s * elapsed
                record.flow.remaining_bytes = max(
                    0.0, record.flow.remaining_bytes - sent
                )
        self._last_update_s = self.engine.now_s


class ReferenceInstrumentedNetwork(InstrumentedNetwork, ReferenceFlowNetwork):
    """An :class:`InstrumentedNetwork` over :class:`ReferenceFlowNetwork`.

    The method order puts the telemetry hooks first; their ``super()``
    calls reach the reference loops.
    """

    def _aggregate_rates(self, records) -> dict[Hashable, float]:
        rates: dict[Hashable, float] = {}
        for record in records:
            for link in record.flow.links:
                rates[link] = rates.get(link, 0.0) + record.flow.rate_bytes_per_s
        return rates


class WholeSolveFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that re-solves every active flow at every
    settle and keeps one completion event per flow."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._completion_events: dict[Hashable, object] = {}

    def _reschedule(self) -> None:
        for event in self._completion_events.values():
            event.cancel()
        self._completion_events.clear()
        flows = [r.flow for r in self._active.values()]
        if not flows:
            return
        # Validation and link indices; the touched subset is ignored.
        self._stale_flows()
        self._compute_rates(flows)
        if self.tracer.enabled:
            self.tracer.instant(
                "rebalance",
                cat="network",
                ts_s=self.engine.now_s,
                args={"active_flows": len(flows)},
            )
        completed = False
        for record in list(self._active.values()):
            flow = record.flow
            if flow.remaining_bytes <= 0:
                self._complete(flow.flow_id)
                completed = True
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
        if completed:
            # The flows completed inline free their shares for the rest.
            self._mark_dirty()

    def _complete(self, flow_id: Hashable) -> None:
        event = self._completion_events.pop(flow_id, None)
        if event is not None:
            event.cancel()
        super()._complete(flow_id)


class WholeSolveInstrumentedNetwork(InstrumentedNetwork, WholeSolveFlowNetwork):
    """An :class:`InstrumentedNetwork` over :class:`WholeSolveFlowNetwork`."""


class EagerFlowNetwork(WholeSolveFlowNetwork):
    """A :class:`WholeSolveFlowNetwork` that recomputes rates at every
    change."""

    def _mark_dirty(self) -> None:
        self._reschedule()


class EagerInstrumentedNetwork(InstrumentedNetwork, EagerFlowNetwork):
    """An :class:`InstrumentedNetwork` over :class:`EagerFlowNetwork`."""
