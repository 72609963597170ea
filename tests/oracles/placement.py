"""Placement scan over coordinate sets.

The straightforward form of
:meth:`repro.tenancy.cluster.ClusterState.find_offset`: build every
candidate box's chip list and test it against the set of taken chips,
read from the rack's allocator. Also the stranding rate summed over the
live allocations' records, which the cluster keeps per allocation.
"""

from __future__ import annotations

from repro.tenancy.cluster import ClusterState
from repro.topology.slices import ShapeTooLargeError
from repro.topology.torus import Coordinate


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
    """Chips held in ``rack``, read from its allocator's slices."""
    return {chip for s in cluster.racks[rack].slices for chip in s.chips()}


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
    for offset in cluster.racks[rack].rack.nodes():
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
