"""Max-min fair flow rate allocation.

When several transfers share an electrical link they contend; the standard
model (and the one transport protocols approximate) is max-min fairness
via progressive filling: repeatedly find the most-constrained link, give
each flow crossing it an equal share, freeze those flows, reduce the
remaining capacities, and continue. This is the rate model under which the
discrete-event runner executes collective schedules, letting the paper's
congestion (multiple transfers on one link) manifest as measured slowdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..kernels import timed
from ..kernels.incidence import FlowIncidence, LinkSpace
from ..kernels.waterfill import waterfill_rates

__all__ = ["Flow", "max_min_rates"]


@dataclass
class Flow:
    """A flow traversing a set of links.

    Attributes:
        flow_id: caller-chosen identity.
        links: the links (any hashable ids) the flow crosses.
        remaining_bytes: bytes left to deliver.
        demand_bytes_per_s: optional rate cap (e.g. a NIC limit).
    """

    flow_id: Hashable
    links: tuple[Hashable, ...]
    remaining_bytes: float
    demand_bytes_per_s: float | None = None
    rate_bytes_per_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a flow must cross at least one link")
        if self.remaining_bytes < 0:
            raise ValueError("remaining bytes cannot be negative")
        if self.demand_bytes_per_s is not None and self.demand_bytes_per_s <= 0:
            raise ValueError(
                f"flow {self.flow_id!r} has a non-positive demand cap "
                f"({self.demand_bytes_per_s}); a capped flow must still be "
                "able to make progress (omit the cap instead of zeroing it)"
            )


def check_capacities(capacity_bytes_per_s: dict[Hashable, float]) -> None:
    """Reject a capacity that is not positive and finite.

    ``not 0 < cap < inf`` also catches NaN, which every ``<=`` comparison
    lets through. An infinite capacity would debit ``inf - inf`` and
    hand a flow a NaN rate.

    Raises:
        ValueError: naming the first such link.
    """
    for link, cap in capacity_bytes_per_s.items():
        if not 0 < cap < math.inf:
            kind = "infinite" if cap == math.inf else "non-positive"
            raise ValueError(f"link {link!r} has {kind} capacity {cap}")


def check_demand(flow: Flow) -> None:
    """Reject a non-positive demand cap.

    Flows are mutable (rates are written back), so a cap zeroed after
    construction bypasses :class:`Flow`'s own validation. It is caught
    here with an accurate diagnosis instead of letting progressive
    filling freeze the flow at a zero rate and blame the link capacities.

    Raises:
        ValueError: naming the flow.
    """
    demand = flow.demand_bytes_per_s
    if demand is not None and demand <= 0:
        raise ValueError(
            f"flow {flow.flow_id!r} has a non-positive demand cap "
            f"({demand}) and can never make progress; the link "
            "capacities are not at fault"
        )


def check_flow(flow: Flow, capacity_bytes_per_s: dict[Hashable, float]) -> None:
    """Reject a flow the rate model cannot serve: its links first, then
    its demand cap (:func:`check_demand`).

    Raises:
        KeyError: when the flow uses a link without a capacity.
        ValueError: on a non-positive demand cap.
    """
    for link in flow.links:
        if link not in capacity_bytes_per_s:
            raise KeyError(f"flow {flow.flow_id!r} uses unknown link {link!r}")
    check_demand(flow)


def max_min_rates(
    flows: list[Flow], capacity_bytes_per_s: dict[Hashable, float]
) -> dict[Hashable, float]:
    """Compute max-min fair rates for ``flows`` over shared links.

    Converts links to a dense index space and runs the progressive-filling
    kernel (:func:`repro.kernels.waterfill.waterfill_rates`). Bottleneck
    ties break in flow-input order, so the result is deterministic.

    Args:
        flows: active flows; each must only reference links present in
            ``capacity_bytes_per_s``.
        capacity_bytes_per_s: capacity of each link.

    Returns:
        Mapping from ``flow_id`` to allocated rate (bytes per second).
        Flow objects also get their ``rate_bytes_per_s`` updated.

    Raises:
        KeyError: when a flow references an unknown link.
        ValueError: on a link capacity that is not positive and finite
            (NaN included), or a non-positive demand cap (which would starve
            the flow forever and — if negative — credit capacity back to
            the link, oversubscribing it for everyone else).
    """
    with timed("waterfill"):
        check_capacities(capacity_bytes_per_s)
        active = list(flows)
        for flow in active:
            check_flow(flow, capacity_bytes_per_s)
        space = LinkSpace(capacity_bytes_per_s)
        incidence = FlowIncidence(
            [space.indices(f.links).tolist() for f in active]
        )
        demands = np.fromiter(
            (
                np.nan if f.demand_bytes_per_s is None else f.demand_bytes_per_s
                for f in active
            ),
            dtype=np.float64,
            count=len(active),
        )
        rate_list = waterfill_rates(space.caps, incidence, demands).tolist()
        rates: dict[Hashable, float] = {}
        for flow, rate in zip(active, rate_list):
            flow.rate_bytes_per_s = rate
            rates[flow.flow_id] = rate
        return rates
