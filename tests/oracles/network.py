"""Fluid networks that compute the same timelines the plain way.

:class:`ReferenceFlowNetwork` and :class:`ReferenceInstrumentedNetwork`
are :class:`~repro.sim.network.FlowNetwork` and
:class:`~repro.sim.telemetry.InstrumentedNetwork` with their three
kernel steps replaced by the straightforward loops: water-filling over
dicts, a per-flow byte debit, and a per-flow dict accumulation of link
rates. Event scheduling is inherited unchanged, so the record and
telemetry timelines of the two pairs must agree exactly.

:class:`EagerFlowNetwork` and :class:`EagerInstrumentedNetwork` keep the
kernels but recompute rates at every injection and completion instead
of once per instant, as the networks once did; their timelines must
equal the settled networks' too.
"""

from __future__ import annotations

from typing import Hashable

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


class EagerFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that recomputes rates at every change."""

    def _mark_dirty(self) -> None:
        self._reschedule()


class EagerInstrumentedNetwork(InstrumentedNetwork, EagerFlowNetwork):
    """An :class:`InstrumentedNetwork` over :class:`EagerFlowNetwork`."""
