"""The pure-python loops behind the numpy evaluation kernels.

Each function here is the straightforward form of a production kernel:

* :func:`max_min_rates_reference` — progressive filling over dicts, the
  form of :func:`repro.sim.flows.max_min_rates`;
* :func:`bucket_stages_reference` — the per-stage loop of
  :func:`repro.collectives.cost_model._bucket_stages`;
* :func:`evaluate_free_chip_reference` — the coordinate-space
  replacement-path search of
  :meth:`repro.failures.recovery.ElectricalRecoveryAnalysis.evaluate_free_chip`.

The kernels perform the same float operations in the same order, so the
tests assert exact equality against these.
"""

from __future__ import annotations

from typing import Hashable

from repro.collectives.cost_model import (
    CollectiveCost,
    _check_ring,
    ring_reduce_scatter,
)
from repro.failures.recovery import (
    ElectricalRecoveryAnalysis,
    ReplacementAttempt,
    ReplacementPath,
)
from repro.sim.flows import Flow
from repro.topology.slices import Slice
from repro.topology.torus import Coordinate, Link


def max_min_rates_reference(
    flows: list[Flow], capacity_bytes_per_s: dict[Hashable, float]
) -> dict[Hashable, float]:
    """Max-min fair rates by dict-based progressive filling.

    Same contract (results, write-back, exceptions and messages) as
    :func:`repro.sim.flows.max_min_rates`.
    """
    for link, cap in capacity_bytes_per_s.items():
        if not cap > 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")
    active = list(flows)
    for flow in active:
        for link in flow.links:
            if link not in capacity_bytes_per_s:
                raise KeyError(f"flow {flow.flow_id!r} uses unknown link {link!r}")
        demand = flow.demand_bytes_per_s
        if demand is not None and demand <= 0:
            raise ValueError(
                f"flow {flow.flow_id!r} has a non-positive demand cap "
                f"({demand}) and can never make progress; the link "
                "capacities are not at fault"
            )
    remaining_cap = dict(capacity_bytes_per_s)
    # Insertion-ordered (dict keys, not a set) so the bottleneck tie-break
    # and freeze order are deterministic in flow-input order.
    unfrozen: dict[Hashable, None] = {f.flow_id: None for f in active}
    rates: dict[Hashable, float] = {f.flow_id: 0.0 for f in active}
    by_id = {f.flow_id: f for f in active}

    for _ in range(len(active) + len(remaining_cap) + 1):
        if not unfrozen:
            break
        # Share each link's remaining capacity among its unfrozen flows.
        link_users: dict[Hashable, int] = {}
        for fid in unfrozen:
            for link in by_id[fid].links:
                link_users[link] = link_users.get(link, 0) + 1
        bottleneck_share = None
        bottleneck_link = None
        for link, users in link_users.items():
            share = remaining_cap[link] / users
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_share is None:
            break
        # Demand caps below the bottleneck share freeze first.
        capped = [
            fid
            for fid in unfrozen
            if by_id[fid].demand_bytes_per_s is not None
            and by_id[fid].demand_bytes_per_s < bottleneck_share
        ]
        if capped:
            for fid in capped:
                flow = by_id[fid]
                rates[fid] = float(flow.demand_bytes_per_s)
                for link in flow.links:
                    remaining_cap[link] -= rates[fid]
                    remaining_cap[link] = max(remaining_cap[link], 0.0)
                del unfrozen[fid]
            continue
        # Freeze every unfrozen flow crossing the bottleneck at the share.
        frozen_now = [
            fid for fid in unfrozen if bottleneck_link in by_id[fid].links
        ]
        for fid in frozen_now:
            rates[fid] = bottleneck_share
            flow = by_id[fid]
            for link in flow.links:
                remaining_cap[link] -= bottleneck_share
                remaining_cap[link] = max(remaining_cap[link], 0.0)
            del unfrozen[fid]
    for flow in active:
        flow.rate_bytes_per_s = rates[flow.flow_id]
    return rates


def bucket_stages_reference(
    dims: list[int], bandwidth_fraction: float
) -> list[tuple[int, float, CollectiveCost]]:
    """Per-stage ``(ring_size, buffer_fraction, cost)``, one stage at a
    time, dividing the live buffer by each ring size in turn."""
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 2 for d in dims):
        raise ValueError(f"bucket dimensions must have >= 2 chips, got {dims}")
    _check_ring(max(dims), bandwidth_fraction)
    stages = []
    buffer_fraction = 1.0
    for p in dims:
        base = ring_reduce_scatter(p, bandwidth_fraction)
        scaled = CollectiveCost(
            alpha_count=base.alpha_count,
            beta_factor=base.beta_factor * buffer_fraction,
        )
        stages.append((p, buffer_fraction, scaled))
        buffer_fraction /= p
    return stages


def evaluate_free_chip_reference(
    analysis: ElectricalRecoveryAnalysis,
    slc: Slice,
    failed: Coordinate,
    free_chip: Coordinate,
    extra_busy: set[Link] | None = None,
) -> ReplacementAttempt:
    """Replacement-path search over coordinates and :class:`Link` sets.

    Per required endpoint: a BFS that never touches an in-use link, and
    when that fails, every simple path up to ``analysis.max_hops`` with
    the first least-congested one (in DFS order) kept.
    """
    torus = analysis.torus
    busy = analysis.busy_links(exclude=slc)
    busy |= analysis.surviving_ring_links(slc, failed)
    if extra_busy:
        busy |= set(extra_busy)
    attempts: list[ReplacementPath] = []
    chosen_links: set[Link] = set()
    feasible = True
    for endpoint in analysis.required_endpoints(slc, failed):
        blocked = busy | chosen_links
        clean = torus.shortest_path(
            endpoint,
            free_chip,
            forbidden_nodes={failed},
            forbidden_links=blocked,
        )
        if clean is not None:
            best = ReplacementPath(
                endpoint=endpoint, path=tuple(clean), congested_links=()
            )
        else:
            best = None
            for path in torus.all_paths(
                endpoint, free_chip, analysis.max_hops, forbidden_nodes={failed}
            ):
                links = torus.path_links(path)
                congested = tuple(lnk for lnk in links if lnk in blocked)
                candidate = ReplacementPath(
                    endpoint=endpoint,
                    path=tuple(path),
                    congested_links=congested,
                )
                if best is None or len(candidate.congested_links) < len(
                    best.congested_links
                ):
                    best = candidate
        if best is None:
            feasible = False
            best = ReplacementPath(
                endpoint=endpoint, path=(endpoint,), congested_links=()
            )
        else:
            if not best.is_congestion_free:
                feasible = False
            chosen_links.update(torus.path_links(list(best.path)))
        attempts.append(best)
    return ReplacementAttempt(
        free_chip=free_chip, best_paths=tuple(attempts), feasible=feasible
    )


def evaluate_all_free_chips_reference(
    analysis: ElectricalRecoveryAnalysis, slc: Slice, failed: Coordinate
) -> list[ReplacementAttempt]:
    """:func:`evaluate_free_chip_reference` for every free chip."""
    return [
        evaluate_free_chip_reference(analysis, slc, failed, free_chip)
        for free_chip in analysis.allocator.free_chips()
        if free_chip != failed
    ]
