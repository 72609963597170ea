"""Pluggable placement/steering policies for the tenancy simulator.

A policy decides *where* an arriving job's slice lands on the cluster
(and what happens to the survivors when a job departs). Four policies
span the design space the Morphlux direction calls out:

* :class:`FirstFitPolicy` — first rack, first lexicographic offset.
* :class:`BestFitPolicy` — tries the shape's axis orientations and racks,
  preferring the orientation with the most congestion-free rings and the
  tightest rack (classic best-fit keeps big holes intact).
* :class:`DefragOnDeparturePolicy` — first-fit placement plus departure-
  time compaction: survivors repack toward low offsets and steered chip
  sets convert back to boxes, with every move guarded so the
  fragmentation metric (largest allocatable slice) never regresses.
* :class:`SteerOnArrivalPolicy` — the photonic fabric's move: best-fit
  box placement, then wavelength steering — closing the stranded rings
  of sub-rack boxes and, when no contiguous hole exists, assembling the
  slice from scattered free chips. Requires reconfigurable reach, so the
  simulator refuses it on the electrical fabric.

Policies are stateless between calls (all state lives in the
:class:`~repro.tenancy.cluster.ClusterState`); one instance can serve a
whole simulation.
"""

from __future__ import annotations

import itertools
import math
from typing import Protocol

from ..topology.slices import (
    AllocationError,
    ShapeTooLargeError,
    WavelengthBudgetError,
    shape_utilization,
)
from .cluster import Allocation, ClusterState
from .workload import JOB_CATALOG

__all__ = [
    "PlacementPolicy",
    "FirstFitPolicy",
    "BestFitPolicy",
    "DefragOnDeparturePolicy",
    "SteerOnArrivalPolicy",
    "make_placement_policy",
    "PLACEMENT_POLICY_NAMES",
]

PLACEMENT_POLICY_NAMES = ("first-fit", "best-fit", "defrag", "steer")

#: Distinct catalog shapes, largest first — the fragmentation probe set.
CATALOG_SHAPES: tuple[tuple[int, ...], ...] = tuple(
    sorted(
        {shape for shape, _ in JOB_CATALOG},
        key=lambda s: (-s[0] * s[1] * s[2], s),
    )
)


class PlacementPolicy(Protocol):
    """Placement contract the simulator drives."""

    name: str
    #: True when the policy needs reconfigurable (photonic) reach.
    requires_steering: bool

    def place(
        self, cluster: ClusterState, name: str, shape: tuple[int, ...]
    ) -> Allocation | None:
        """Place ``name`` or return ``None`` when nothing fits now."""
        ...

    def on_departure(self, cluster: ClusterState, rack: int) -> int:
        """React to a departure from ``rack``; returns moves performed."""
        ...


class FirstFitPolicy:
    """First rack, first lexicographic offset that fits."""

    name = "first-fit"
    requires_steering = False

    def place(
        self, cluster: ClusterState, name: str, shape: tuple[int, ...]
    ) -> Allocation | None:
        for rack in range(cluster.rack_count):
            try:
                offset = cluster.find_offset(rack, shape)
            except ShapeTooLargeError:
                # No box anywhere can host this job; it queues until the
                # patience timeout (racks share one geometry).
                return None
            if offset is not None:
                return cluster.allocate_box(name, shape, rack, offset)
        return None

    def on_departure(self, cluster: ClusterState, rack: int) -> int:
        return 0


class BestFitPolicy:
    """Orientation- and rack-aware box placement.

    Candidates are every axis orientation of the shape on every rack
    that can host it; the winner maximizes congestion-free rings, then
    takes the tightest rack (fewest free chips), then the lowest rack
    index — a deterministic total order.
    """

    name = "best-fit"
    requires_steering = False

    def place(
        self, cluster: ClusterState, name: str, shape: tuple[int, ...]
    ) -> Allocation | None:
        # Score an orientation by its electrical utilization: the
        # fraction of dimensions whose ring is congestion-free as placed.
        scored = sorted(
            (-shape_utilization(p, cluster.rack_shape)[0], p)
            for p in set(itertools.permutations(shape))
        )
        best = None  # (score, free, rack, offset, oriented)
        for negated, oriented in scored:
            score = -negated
            if best is not None and score < best[0]:
                break  # orientations are score-sorted; no later win
            for rack in range(cluster.rack_count):
                try:
                    offset = cluster.find_offset(rack, oriented)
                except ShapeTooLargeError:
                    break  # orientation exceeds the (shared) rack torus
                if offset is None:
                    continue
                key = (score, -cluster.free_chips(rack), -rack)
                if best is None or key > (best[0], -best[1], -best[2]):
                    best = (score, cluster.free_chips(rack), rack, offset, oriented)
        if best is None:
            return None
        _, _, rack, offset, oriented = best
        return cluster.allocate_box(name, oriented, rack, offset)

    def on_departure(self, cluster: ClusterState, rack: int) -> int:
        return 0


class DefragOnDeparturePolicy(FirstFitPolicy):
    """First-fit placement plus guarded compaction on every departure.

    Each survivor of the departed rack is tried at a lower offset (and
    steered chip sets are tried as boxes, returning their wavelength
    circuits); a move is kept only if the cluster-wide fragmentation
    metric — the largest catalog shape still allocatable contiguously —
    does not regress, so the metric is monotone across a defrag pass by
    construction.
    """

    name = "defrag"

    def on_departure(self, cluster: ClusterState, rack: int) -> int:
        moves = 0
        survivors = sorted(
            (a for a in cluster.allocations.values() if a.rack == rack),
            key=lambda a: min(a.chips),
        )
        before = cluster.largest_allocatable(CATALOG_SHAPES)
        for allocation in survivors:
            after = self._try_move(cluster, allocation, before)
            if after is not None:
                moves += 1
                before = after  # guarded, so never below the old value
        return moves

    def _try_move(
        self, cluster: ClusterState, allocation: Allocation, before: int
    ) -> int | None:
        """Relocate one survivor; returns the post-move fragmentation
        metric when the move is kept, ``None`` otherwise."""
        name, rack = allocation.name, allocation.rack
        # Scan with the survivor's own chips masked free — the offset
        # found is exactly the post-release first fit, so non-candidates
        # cost no release/restore churn.
        offset = cluster.find_offset(
            rack, allocation.shape, ignore=cluster.allocation_mask(name)
        )
        if offset is None:
            return None
        if allocation.contiguous and not offset < allocation.offset:
            # A strict improvement is a lexicographically lower corner;
            # a steered set turning into a box always improves
            # (circuits come back).
            return None
        released = cluster.release(name)
        cluster.allocate_box(name, released.shape, rack, offset)
        after = cluster.largest_allocatable(CATALOG_SHAPES)
        if after >= before:
            if released.circuits > 0:
                # The old placement steered rings closed; keep the
                # optical upgrade (no-op when the box rings fully).
                cluster.steer_rings(name)
            return after
        cluster.release(name)  # regressed the metric: undo
        self._restore(cluster, released)
        return None

    @staticmethod
    def _restore(cluster: ClusterState, released: Allocation) -> None:
        if released.contiguous:
            restored = cluster.allocate_box(
                released.name, released.shape, released.rack, released.offset
            )
            if released.optical_utilization > restored.optical_utilization:
                cluster.steer_rings(released.name)
        else:
            cluster.allocate_steered(
                released.name,
                released.shape,
                released.rack,
                chips=released.chips,
            )


class SteerOnArrivalPolicy:
    """Photonic placement: box first, then wavelength steering.

    Wraps a base box policy (best-fit by default). After a box placement
    that still strands bandwidth, circuits are steered to close the
    slice's broken rings (Figure 7's repair, applied to provisioning).
    When no box fits anywhere, the slice is assembled from scattered
    free chips of the tightest rack whose circuit budget allows it.
    """

    name = "steer"
    requires_steering = True

    def __init__(self, base: PlacementPolicy | None = None):
        self.base = base if base is not None else BestFitPolicy()

    def place(
        self, cluster: ClusterState, name: str, shape: tuple[int, ...]
    ) -> Allocation | None:
        allocation = self.base.place(cluster, name, shape)
        if allocation is not None:
            if allocation.optical_utilization < 1.0:
                allocation = cluster.steer_rings(name)
            return allocation
        needed = math.prod(shape)
        candidates = sorted(
            (
                rack
                for rack in range(cluster.rack_count)
                if cluster.free_chips(rack) >= needed
            ),
            key=lambda rack: (cluster.free_chips(rack), rack),
        )
        for rack in candidates:
            try:
                return cluster.allocate_steered(name, shape, rack)
            except WavelengthBudgetError:
                continue
            except AllocationError:  # pragma: no cover - free-count races
                continue
        return None

    def on_departure(self, cluster: ClusterState, rack: int) -> int:
        return self.base.on_departure(cluster, rack)


def make_placement_policy(name: str) -> PlacementPolicy:
    """Build a fresh policy by name (:data:`PLACEMENT_POLICY_NAMES`)."""
    if name == "first-fit":
        return FirstFitPolicy()
    if name == "best-fit":
        return BestFitPolicy()
    if name == "defrag":
        return DefragOnDeparturePolicy()
    if name == "steer":
        return SteerOnArrivalPolicy()
    raise ValueError(
        f"unknown placement policy {name!r}; "
        f"choose from {PLACEMENT_POLICY_NAMES}"
    )
