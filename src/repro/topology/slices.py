"""Slice allocation over a torus rack (paper Section 4.1, Figure 5b).

A *slice* is the subset of TPU chips leased to one tenant: a regular
sub-torus of the rack, e.g. Slice-1 = 4x2x1. Tenants run the
multi-dimensional bucket algorithm over the slice's torus dimensions. The
paper's central observation is that a slice smaller than the rack cannot
execute congestion-free rings in every dimension over *static electrical*
links, stranding up to 66 % of each chip's bandwidth; this module encodes
the slice geometry and the congestion-freedom rule that produces exactly
those numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .torus import Coordinate, Link, Torus

__all__ = [
    "Slice",
    "SliceAllocator",
    "check_geometry",
    "congestion_free_dimensions",
    "shape_utilization",
    "AllocationError",
    "SliceOverlapError",
    "ShapeTooLargeError",
    "NoContiguousPlacementError",
    "WavelengthBudgetError",
]


class AllocationError(RuntimeError):
    """Raised when a slice cannot be placed on the requested rack region.

    The concrete subclasses name *which* constraint failed; callers that
    only care about "it did not fit" keep catching this base class.
    """


class SliceOverlapError(AllocationError):
    """A requested chip is already owned by another slice."""


class ShapeTooLargeError(AllocationError, ValueError):
    """The requested shape exceeds the rack torus in some dimension.

    Also a :class:`ValueError` — the shape is invalid for the rack no
    matter what is currently allocated, and pre-existing callers caught
    the geometry violation as ``ValueError``.
    """


class NoContiguousPlacementError(AllocationError):
    """The shape fits the torus, but no contiguous offset is free."""


class WavelengthBudgetError(AllocationError):
    """A steered placement would exceed the rack's circuit budget.

    Raised by the tenancy layer (:mod:`repro.tenancy.cluster`) when the
    wavelength circuits needed to steer a non-contiguous slice exceed
    the per-rack inventory; declared here so every placement failure
    shares the :class:`AllocationError` root.
    """


@dataclass(frozen=True)
class Slice:
    """A tenant slice: a regular sub-torus of a rack.

    Attributes:
        name: human-readable label ("Slice-1").
        rack: the rack torus the slice lives in.
        offset: coordinate of the slice's minimum corner.
        shape: extent of the slice in each rack dimension.
    """

    name: str
    rack: Torus
    offset: Coordinate
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        check_geometry(self.rack.shape, self.offset, self.shape)

    # -- membership ----------------------------------------------------------

    def chips(self) -> list[Coordinate]:
        """All chip coordinates of the slice (with wrap-around placement),
        as a fresh list; the coordinates are memoized per geometry."""
        return list(_chips_for_geometry(self.rack.shape, self.offset, self.shape))

    def contains(self, chip: Coordinate) -> bool:
        """Whether ``chip`` belongs to the slice."""
        for c, off, ext, rack_ext in zip(
            chip, self.offset, self.shape, self.rack.shape
        ):
            if (c - off) % rack_ext >= ext:
                return False
        return True

    @property
    def chip_count(self) -> int:
        """Number of chips in the slice."""
        count = 1
        for s in self.shape:
            count *= s
        return count

    # -- ring geometry ---------------------------------------------------------

    def ring_nodes(self, dim: int, anchor: Coordinate) -> list[Coordinate]:
        """Nodes of the slice ring along ``dim`` through ``anchor``.

        The ring visits the slice's chips in coordinate order along the
        dimension. Whether the *physical* links closing this ring are
        internal to the slice is a separate question answered by
        :meth:`dimension_is_congestion_free`.
        """
        if not self.contains(anchor):
            raise ValueError(f"{anchor} is not in slice {self.name}")
        rack_ext = self.rack.shape[dim]
        off = self.offset[dim]
        nodes = []
        for i in range(self.shape[dim]):
            coords = list(anchor)
            coords[dim] = (off + i) % rack_ext
            nodes.append(tuple(coords))
        return nodes

    def rings(self, dim: int) -> list[list[Coordinate]]:
        """All slice rings along ``dim`` (one per cross-section chip)."""
        if not 0 <= dim < self.rack.ndim:
            raise ValueError(f"dimension {dim} out of range")
        cross_axes = [
            [(off + i) % rack_ext for i in range(ext)] if d != dim else [self.offset[d]]
            for d, (off, ext, rack_ext) in enumerate(
                zip(self.offset, self.shape, self.rack.shape)
            )
        ]
        anchors = [tuple(c) for c in itertools.product(*cross_axes)]
        return [self.ring_nodes(dim, anchor) for anchor in anchors]

    def ring_links(self, dim: int) -> list[Link]:
        """Directed physical links used by all slice rings along ``dim``.

        A ring that does not span the full rack dimension is closed over
        the *torus wrap path*, i.e. through chips outside the slice —
        those foreign links are included, which is how the congestion in
        Figure 5b arises.

        A slice ring with >= 2 chips always traverses the *entire* torus
        circle of its dimension — the in-slice hops cover the slice
        extent and the closing wrap path covers the rest — so the links
        are generated arithmetically (and memoized per geometry) instead
        of walking ``physical_hop`` chip by chip. This is the hot path of
        the rack congestion analysis.
        """
        if not 0 <= dim < self.rack.ndim:
            raise ValueError(f"dimension {dim} out of range")
        return list(
            _ring_links_for_geometry(
                self.rack.shape, self.offset, self.shape, dim
            )
        )

    def ring_link_indices(self, dim: int):
        """Dense link-id array of :meth:`ring_links`, for the kernels.

        Index ids live in the rack torus's link space (see
        :meth:`repro.topology.torus.Torus.index_kernel`); the array is
        memoized per geometry and read-only. The repair kernel's
        busy-mask construction consumes these directly, never touching a
        :class:`Link` object on its hot path.
        """
        if not 0 <= dim < self.rack.ndim:
            raise ValueError(f"dimension {dim} out of range")
        from ..kernels.paths import ring_link_ids

        return ring_link_ids(self.rack.shape, self.offset, self.shape, dim)

    def physical_hop(self, a: Coordinate, b: Coordinate, dim: int) -> list[Link]:
        """Physical links realizing the logical ring hop ``a -> b``.

        Adjacent chips map to one link; the ring-closing hop of a slice
        that does not span the dimension walks the wrap path node by node.
        """
        rack_ext = self.rack.shape[dim]
        delta = (b[dim] - a[dim]) % rack_ext
        if delta == 0:
            return []
        hops: list[Link] = []
        current = a
        for _ in range(delta):
            nxt = self.rack.shift(current, dim, 1)
            hops.append(Link(current, nxt))
            current = nxt
        return hops

    # -- the paper's congestion-freedom rule -----------------------------------

    def dimension_is_congestion_free(self, dim: int) -> bool:
        """Whether the slice can ring over ``dim`` using only its own links."""
        if not 0 <= dim < self.rack.ndim:
            raise ValueError(f"dimension {dim} out of range")
        return dim in self.usable_dimensions()

    def usable_dimensions(self) -> list[int]:
        """Dimensions over which congestion-free rings exist (electrical)."""
        return congestion_free_dimensions(self.shape, self.rack.shape)

    def active_dimensions(self) -> list[int]:
        """Dimensions with more than one chip (rings the tenant *wants*)."""
        return [d for d, ext in enumerate(self.shape) if ext > 1]

    def electrical_utilization(self) -> float:
        """Fraction of per-chip bandwidth usable with static electrical
        links: 1/3 for Slice-1 (4x2x1 in a 4x4x4 rack), Figure 5c's 66 % loss."""
        return shape_utilization(self.shape, self.rack.shape)[0]

    def optical_utilization(self) -> float:
        """Fraction of per-chip bandwidth usable with LIGHTPATH steering."""
        return shape_utilization(self.shape, self.rack.shape)[1]


def check_geometry(
    rack_shape: tuple[int, ...], offset: Coordinate, shape: tuple[int, ...]
) -> None:
    """Refuse a slice of ``shape`` at ``offset`` that a ``rack_shape``
    torus cannot hold: :class:`ShapeTooLargeError` for an extent over
    the rack's, ``ValueError`` for any other misfit."""
    if len(offset) != len(rack_shape) or len(shape) != len(rack_shape):
        raise ValueError("offset/shape dimensionality must match the rack")
    if any(s < 1 for s in shape):
        raise ValueError("slice extents must be >= 1")
    for off, ext, rack_ext in zip(offset, shape, rack_shape):
        if not 0 <= off < rack_ext:
            raise ValueError(f"offset {offset} outside rack")
        if ext > rack_ext:
            raise ShapeTooLargeError(
                f"slice extent {ext} exceeds rack extent {rack_ext}"
            )


def congestion_free_dimensions(
    shape: tuple[int, ...], rack_shape: tuple[int, ...]
) -> list[int]:
    """The paper's congestion-freedom rule: a ``shape`` slice of a
    ``rack_shape`` torus rings over a dimension using only its own links
    iff it spans the rack's full extent there (so the wrap link is
    slice-internal). A dimension of extent 1 has no ring: the chip
    bandwidth statically wired to it is stranded."""
    return [d for d, (ext, rack_ext) in enumerate(zip(shape, rack_shape)) if 1 < ext == rack_ext]


def shape_utilization(
    shape: tuple[int, ...], rack_shape: tuple[int, ...]
) -> tuple[float, float]:
    """(electrical, optical) fraction of per-chip bandwidth a ``shape``
    slice of a ``rack_shape`` torus can use. Each chip's bandwidth is
    split statically across the rack's dimensions, so over static links
    only the congestion-free ones count; optics redirects the stranded
    share into the active rings (Section 4.1), so any usable ring gives
    full utilization."""
    usable = len(congestion_free_dimensions(shape, rack_shape))
    return usable / len(rack_shape), 1.0 if usable else 0.0


@lru_cache(maxsize=4096)
def _chips_for_geometry(
    rack_shape: tuple[int, ...],
    offset: Coordinate,
    shape: tuple[int, ...],
) -> tuple[Coordinate, ...]:
    """Memoized chip coordinates of a slice geometry, in
    ``itertools.product`` order over the wrapped axes."""
    axes = [
        [(off + i) % rack_ext for i in range(ext)]
        for off, ext, rack_ext in zip(offset, shape, rack_shape)
    ]
    return tuple(itertools.product(*axes))


@lru_cache(maxsize=4096)
def _ring_links_for_geometry(
    rack_shape: tuple[int, ...],
    offset: Coordinate,
    shape: tuple[int, ...],
    dim: int,
) -> tuple[Link, ...]:
    """Memoized link set of all slice rings along ``dim``.

    Pure function of the slice geometry, so it persists across the fresh
    ``Slice``/``SliceAllocator`` instances every session (and sweep
    worker) rebuilds. Order matches the original hop-by-hop walk: the
    circle is traversed starting from the slice's offset.
    """
    ext = shape[dim]
    if ext <= 1:
        return ()
    rack_ext = rack_shape[dim]
    off = offset[dim]
    positions = [(off + i) % rack_ext for i in range(rack_ext)]
    positions.append(off)  # close the circle
    cross_axes = [
        [(o + i) % r for i in range(e)] if d != dim else [offset[d]]
        for d, (o, e, r) in enumerate(zip(offset, shape, rack_shape))
    ]
    links: list[Link] = []
    for anchor in itertools.product(*cross_axes):
        head, tail = anchor[:dim], anchor[dim + 1:]
        nodes = [head + (p,) + tail for p in positions]
        links.extend(Link(a, b) for a, b in zip(nodes, nodes[1:]))
    return tuple(links)


@dataclass
class SliceAllocator:
    """Places non-overlapping slices on a rack.

    Attributes:
        rack: the rack torus being partitioned.
        slices: currently allocated slices, in allocation order.
    """

    rack: Torus
    slices: list[Slice] = field(default_factory=list)
    # Chips owned by some slice, updated on each allocate and release.
    _taken: set[Coordinate] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for s in self.slices:
            self._taken.update(s.chips())

    def allocate(
        self, name: str, shape: tuple[int, ...], offset: Coordinate
    ) -> Slice:
        """Place a slice of ``shape`` at ``offset``.

        Raises:
            ShapeTooLargeError: if the shape exceeds the rack torus.
            SliceOverlapError: if any requested chip is already allocated.
        """
        candidate = Slice(name=name, rack=self.rack, offset=offset, shape=shape)
        chips = candidate.chips()
        overlap = [chip for chip in chips if chip in self._taken]
        if overlap:
            raise SliceOverlapError(
                f"slice {name} overlaps {len(overlap)} allocated chips, "
                f"e.g. {overlap[0]}"
            )
        self.slices.append(candidate)
        self._taken.update(chips)
        return candidate

    def allocate_first_fit(self, name: str, shape: tuple[int, ...]) -> Slice:
        """Place a slice at the first lexicographic offset that fits.

        Raises:
            ShapeTooLargeError: if the shape exceeds the rack torus (no
                offset could ever host it).
            NoContiguousPlacementError: if the shape fits the torus but
                every contiguous placement collides with a live slice.
        """
        for ext, rack_ext in zip(shape, self.rack.shape):
            if ext > rack_ext:
                raise ShapeTooLargeError(
                    f"slice {name} shape {shape} exceeds the rack "
                    f"torus {self.rack.shape}"
                )
        taken = self._taken
        for offset in self.rack.nodes():
            candidate = Slice(name=name, rack=self.rack, offset=offset, shape=shape)
            chips = candidate.chips()
            if all(chip not in taken for chip in chips):
                self.slices.append(candidate)
                taken.update(chips)
                return candidate
        raise NoContiguousPlacementError(
            f"no contiguous placement for slice {name} of shape {shape}: "
            f"{len(taken)}/{self.rack.node_count} chips allocated"
        )

    def release(self, name: str) -> None:
        """Remove the slice called ``name``.

        Raises:
            KeyError: if no such slice is allocated.
        """
        for i, s in enumerate(self.slices):
            if s.name == name:
                del self.slices[i]
                self._taken.difference_update(s.chips())
                return
        raise KeyError(f"no slice named {name!r}")

    def slice_of(self, chip: Coordinate) -> Slice | None:
        """The slice owning ``chip``, or ``None`` if the chip is free."""
        for s in self.slices:
            if s.contains(chip):
                return s
        return None

    def free_chips(self) -> list[Coordinate]:
        """Chips not owned by any slice."""
        return [chip for chip in self.rack.nodes() if chip not in self._taken]
