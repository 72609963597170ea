"""Slice placement policies and their stranded-bandwidth cost.

Figure 5b's under-utilization is partly a *placement* problem: TPUv4
"slices can only be allocated in regular shapes" (Section 4.1), and where
the allocator puts them decides how many dimensions each tenant can ring
congestion-free. This module implements placement policies over a rack —
a locality-first policy preferring compact (near-cubic) shapes, as a
hop-count-minimizing scheduler would, versus a utilization-aware policy
that orients each requested shape to span full rack dimensions — and
scores a whole workload by the electrical bandwidth it strands. The
comparison quantifies how much of the paper's 66 % loss smart placement
can claw back without optics, and how much only steering can recover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .slices import AllocationError, SliceAllocator, shape_utilization
from .torus import Torus

__all__ = [
    "PlacementRequest",
    "PlacementOutcome",
    "compactness_first_placement",
    "utilization_aware_placement",
    "score_placement",
]


@dataclass(frozen=True)
class PlacementRequest:
    """One tenant's slice request.

    Attributes:
        name: tenant label.
        chips: number of chips requested; the policy chooses the shape.
    """

    name: str
    chips: int

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError("a request needs at least one chip")


@dataclass(frozen=True)
class PlacementOutcome:
    """Result of placing a workload on a rack.

    Attributes:
        allocator: the allocator with every placed slice.
        placed: names successfully placed, in order.
        rejected: names that could not be placed.
    """

    allocator: SliceAllocator
    placed: tuple[str, ...]
    rejected: tuple[str, ...]


def _candidate_shapes(chips: int, rack_shape: tuple[int, ...]):
    """All axis-aligned box shapes with exactly ``chips`` chips."""
    axes = [range(1, ext + 1) for ext in rack_shape]
    for shape in itertools.product(*axes):
        volume = 1
        for s in shape:
            volume *= s
        if volume == chips:
            yield shape


def _place_each(
    rack: Torus, requests: list[PlacementRequest], shape_order
) -> PlacementOutcome:
    """First-fit each request in turn, trying its candidate shapes in
    ``shape_order`` (a sort key) until one fits."""
    allocator = SliceAllocator(rack)
    placed, rejected = [], []
    for request in requests:
        shapes = sorted(_candidate_shapes(request.chips, rack.shape), key=shape_order)
        for shape in shapes:
            try:
                allocator.allocate_first_fit(request.name, shape)
            except AllocationError:
                continue
            placed.append(request.name)
            break
        else:
            rejected.append(request.name)
    return PlacementOutcome(
        allocator=allocator, placed=tuple(placed), rejected=tuple(rejected)
    )


def compactness_first_placement(
    rack: Torus, requests: list[PlacementRequest]
) -> PlacementOutcome:
    """Locality policy: prefer the most compact (near-cubic) shape.

    Minimizing a slice's diameter is the classic placement heuristic for
    hop count — but cubic shapes like (2, 2, 2) span *no* rack dimension,
    so under the paper's congestion-freedom rule they strand every byte
    of static bandwidth. This is the bandwidth-blind baseline.
    """
    return _place_each(
        rack,
        requests,
        lambda shape: (max(shape) - min(shape), max(shape), shape),
    )


def utilization_aware_placement(
    rack: Torus, requests: list[PlacementRequest]
) -> PlacementOutcome:
    """Policy that prefers shapes spanning full rack dimensions.

    Candidate shapes are ranked by the electrical utilization the paper's
    congestion-freedom rule grants them (full-span dimensions first),
    then by compactness. Larger requests are placed first so full-span
    shapes still fit.
    """
    return _place_each(
        rack,
        sorted(requests, key=lambda r: -r.chips),
        lambda shape: (
            -shape_utilization(shape, rack.shape)[0],
            max(shape) - min(shape),
            shape,
        ),
    )


@dataclass(frozen=True)
class PlacementScore:
    """Aggregate bandwidth outcome of a placement.

    Attributes:
        total_chips: chips placed.
        weighted_utilization: chip-weighted mean electrical utilization.
        stranded_fraction: chip-weighted bandwidth fraction stranded.
    """

    total_chips: int
    weighted_utilization: float

    @property
    def stranded_fraction(self) -> float:
        """Chip-weighted fraction of bandwidth static links strand."""
        return 1.0 - self.weighted_utilization


def score_placement(outcome: PlacementOutcome) -> PlacementScore:
    """Chip-weighted electrical utilization of a placement outcome."""
    total = 0
    weighted = 0.0
    for slc in outcome.allocator.slices:
        total += slc.chip_count
        weighted += slc.chip_count * slc.electrical_utilization()
    return PlacementScore(
        total_chips=total,
        weighted_utilization=(weighted / total) if total else 1.0,
    )
