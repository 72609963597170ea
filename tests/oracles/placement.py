"""Placement scan over coordinate sets, and a shadow of slice allocators.

The straightforward form of
:meth:`repro.tenancy.cluster.ClusterState.find_offset`: build every
candidate box's chip list and test it against the set of taken chips,
read from the live allocation records. Also the stranding rate summed
over those records, which the cluster keeps per allocation, and
:class:`ShadowAllocators`, which books the cluster's placements again
through per-rack slice allocators.
"""

from __future__ import annotations

from repro.tenancy.cluster import Allocation, ClusterState
from repro.topology.slices import (
    ShapeTooLargeError,
    SliceAllocator,
    SliceOverlapError,
)
from repro.topology.torus import Coordinate, Torus


def box_chips(
    rack_shape: tuple[int, ...],
    offset: Coordinate,
    shape: tuple[int, ...],
) -> list[Coordinate]:
    """Chips of the wrap-around box at ``offset``."""
    axes = [
        [(off + i) % rack_ext for i in range(ext)]
        for off, ext, rack_ext in zip(offset, shape, rack_shape)
    ]
    chips = [(a,) for a in axes[0]]
    for axis in axes[1:]:
        chips = [c + (a,) for c in chips for a in axis]
    return chips


def taken_chips(cluster: ClusterState, rack: int) -> set[Coordinate]:
    """Chips held in ``rack``, read from the live allocation records."""
    return {
        chip
        for a in cluster.allocations.values()
        if a.rack == rack
        for chip in a.chips
    }


def scan_find_offset(
    cluster: ClusterState,
    rack: int,
    shape: tuple[int, ...],
    ignore: frozenset[Coordinate] = frozenset(),
) -> Coordinate | None:
    """First lexicographic offset where ``shape`` fits in ``rack`` with
    ``ignore`` chips counted free, or ``None``.

    Raises:
        ShapeTooLargeError: when no offset could ever host the shape.
    """
    for ext, rack_ext in zip(shape, cluster.rack_shape):
        if ext > rack_ext:
            raise ShapeTooLargeError(
                f"shape {shape} exceeds the rack torus {cluster.rack_shape}"
            )
    taken = taken_chips(cluster, rack) - ignore
    for offset in Torus(cluster.rack_shape).nodes():
        if offset in taken:
            continue
        if all(c not in taken for c in box_chips(cluster.rack_shape, offset, shape)):
            return offset
    return None


def summed_stranding_rate(cluster: ClusterState, fabric: str) -> float:
    """``chips * (1 - utilization)`` summed over the live allocations."""
    if fabric == "electrical":
        return sum(
            a.chip_count * (1.0 - a.electrical_utilization)
            for a in cluster.allocations.values()
        )
    return sum(
        a.chip_count * (1.0 - a.optical_utilization)
        for a in cluster.allocations.values()
    )


class ShadowAllocators:
    """Per-rack slice allocators that replay a cluster's placements.

    Wraps the cluster's ``allocate_box``, ``allocate_steered`` and
    ``release``, so every call — a policy's included — is booked again
    here: a box as one slice, a steered placement as one unit slice per
    chip named ``name@k``. A box the cluster refuses must be refused by
    the allocator with the same error, and after every call each rack's
    chips must equal the allocator's.
    """

    def __init__(self, cluster: ClusterState) -> None:
        torus = Torus(cluster.rack_shape)
        self.cluster = cluster
        self.racks = [SliceAllocator(torus) for _ in range(cluster.rack_count)]
        self._allocate_box = cluster.allocate_box
        self._allocate_steered = cluster.allocate_steered
        self._release = cluster.release
        cluster.allocate_box = self.allocate_box
        cluster.allocate_steered = self.allocate_steered
        cluster.release = self.release

    def allocate_box(
        self, name: str, shape: tuple[int, ...], rack: int, offset: Coordinate
    ) -> Allocation:
        live = name in self.cluster.allocations
        try:
            allocation = self._allocate_box(name, shape, rack, offset)
        except (SliceOverlapError, ValueError) as refused:
            if not live:
                try:
                    self.racks[rack].allocate(name, shape, offset)
                except type(refused) as expected:
                    assert type(expected) is type(refused)
                    assert str(expected) == str(refused)
                else:
                    raise AssertionError(
                        f"the allocator accepts what the cluster refused: {refused}"
                    ) from refused
            raise
        placed = self.racks[rack].allocate(name, shape, offset)
        assert tuple(placed.chips()) == allocation.chips
        self.check()
        return allocation

    def allocate_steered(
        self,
        name: str,
        shape: tuple[int, ...],
        rack: int,
        chips: tuple[Coordinate, ...] | None = None,
    ) -> Allocation:
        allocation = self._allocate_steered(name, shape, rack, chips)
        for k, chip in enumerate(allocation.chips):
            self.racks[rack].allocate(f"{name}@{k}", (1,) * len(chip), chip)
        self.check()
        return allocation

    def release(self, name: str) -> Allocation:
        allocation = self._release(name)
        allocator = self.racks[allocation.rack]
        if allocation.contiguous:
            allocator.release(name)
        else:
            for k in range(allocation.chip_count):
                allocator.release(f"{name}@{k}")
        self.check()
        return allocation

    def check(self) -> None:
        """Each rack's chips, from the allocation records, equal the
        chips its shadow allocator's slices hold."""
        for rack, allocator in enumerate(self.racks):
            held = {chip for s in allocator.slices for chip in s.chips()}
            assert taken_chips(self.cluster, rack) == held, (
                f"rack {rack}: the cluster and its shadow allocator disagree"
            )
