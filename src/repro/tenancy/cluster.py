"""Live allocation state of a multi-rack cluster.

:class:`ClusterState` adds what the static topology layer has no notion
of: named jobs that arrive and depart, non-contiguous *steered*
placements a reconfigurable photonic fabric can assemble from scattered
free chips, per-rack wavelength-circuit budgets for that steering, and
the fragmentation telemetry the tenancy report charts.

Occupancy is integer bitmasks — bit ``i`` is the ``i``-th chip of
:meth:`Torus.nodes`, in lexicographic order — and the masks are the only
placement record: each rack keeps one and each live allocation keeps its
own. A placement sets bits and a release clears them; no
:class:`~repro.topology.slices.Slice` is built and no unit slices are
booked for steered chips. The placement scan tests a candidate box with
one ``&`` against a box mask from a table built once per (rack shape,
shape) and shared by every cluster. What a box strands follows the
slice congestion-freedom rule
(:func:`~repro.topology.slices.shape_utilization`), and
:meth:`check_consistent` re-derives every rack mask, free count and
circuit count from the live allocations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import lru_cache

from ..topology.slices import (
    NoContiguousPlacementError,
    ShapeTooLargeError,
    SliceOverlapError,
    WavelengthBudgetError,
    _chips_for_geometry,
    check_geometry,
    shape_utilization,
)
from ..topology.torus import Coordinate, Torus

__all__ = ["Allocation", "ClusterState"]


@dataclass(frozen=True)
class Allocation:
    """One live placement.

    Attributes:
        name: the job's allocation name.
        rack: owning rack index (steered placements stay rack-local; the
            circuits that close their rings ride that rack's wavelength
            budget).
        chips: chip coordinates held, in allocation order.
        shape: requested slice shape.
        offset: box corner for a contiguous placement (``None`` when
            steered) — the true corner, not ``min(chips)``, which
            differs for wrap-around boxes.
        contiguous: True for a box placement (a real sub-torus slice),
            False for a steered chip set.
        electrical_utilization: fraction of per-chip bandwidth usable
            over static wiring (1.0 for single-chip jobs — nothing to
            ring over).
        optical_utilization: same fraction with reconfigurable steering.
        circuits: wavelength circuits consumed (steered chips).
    """

    name: str
    rack: int
    chips: tuple[Coordinate, ...]
    shape: tuple[int, ...]
    offset: Coordinate | None
    contiguous: bool
    electrical_utilization: float
    optical_utilization: float
    circuits: int

    @property
    def chip_count(self) -> int:
        return len(self.chips)


# Shared, read-only, by every cluster in the process. A served spec picks
# its rack shape freely, so the memo must not grow with what clients send:
# it keeps the 64 most recently used tables. The job catalog's shapes and
# orientations take 21 tables on one rack shape, so 64 hold three rack
# shapes' worth; a table costs about rack_chips**2 / 8 bytes of masks.
@lru_cache(maxsize=64)
def _box_table(
    rack_shape: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[int, tuple[float, float], dict[Coordinate, int]]:
    """Volume of ``shape``, its (electrical, optical) utilization, and
    its wrap-around box mask at every offset of a ``rack_shape`` rack,
    offsets in lexicographic order.

    Raises:
        ShapeTooLargeError: when no offset could ever host the shape.
    """
    for ext, rack_ext in zip(shape, rack_shape):
        if ext > rack_ext:
            raise ShapeTooLargeError(
                f"shape {shape} exceeds the rack torus {rack_shape}"
            )
    nodes = list(Torus(rack_shape).nodes())
    bits = {chip: 1 << i for i, chip in enumerate(nodes)}
    table = {}
    for offset in nodes:
        axes = [
            [(off + i) % rack_ext for i in range(ext)]
            for off, ext, rack_ext in zip(offset, shape, rack_shape)
        ]
        mask = 0
        for chip in itertools.product(*axes):
            mask |= bits[chip]
        table[offset] = mask
    volume = math.prod(shape)
    # A single-chip job has nothing to ring over, so strands nothing.
    utilization = (1.0, 1.0) if volume == 1 else shape_utilization(shape, rack_shape)
    return volume, utilization, table


class ClusterState:
    """Occupancy of ``racks`` torus racks under a churning tenant mix.

    Attributes:
        rack_shape: extent of each rack torus.
        rack_count: racks in the cluster.
        steer_circuits: wavelength circuits available per rack for
            steered (non-contiguous) placements.
        allocations: live placements by job name.
    """

    def __init__(
        self,
        rack_shape: tuple[int, ...] = (4, 4, 4),
        racks: int = 4,
        steer_circuits: int = 64,
    ) -> None:
        if racks < 1:
            raise ValueError("the cluster needs at least one rack")
        if steer_circuits < 0:
            raise ValueError("steer_circuits cannot be negative")
        self.rack_shape = tuple(int(s) for s in rack_shape)
        self.rack_count = racks
        self.steer_circuits = steer_circuits
        self._torus = Torus(self.rack_shape)
        self.allocations: dict[str, Allocation] = {}
        # Kept per live allocation, keyed and ordered like
        # ``allocations``: its chip mask, and the rate at which it
        # strands chip bandwidth over static wiring and with steering.
        self._allocation_masks: dict[str, int] = {}
        self._stranded_electrical: dict[str, float] = {}
        self._stranded_optical: dict[str, float] = {}
        self._chips = list(self._torus.nodes())
        self._bits = {chip: 1 << i for i, chip in enumerate(self._chips)}
        self._masks = [0] * racks
        self._circuits_used = [0] * racks
        # Free chips per rack, maintained incrementally — placement
        # scans and fragmentation sampling never rebuild occupancy.
        self._free = [self._torus.node_count] * racks

    # -- capacity ----------------------------------------------------------------

    @property
    def rack_chips(self) -> int:
        """Chips per rack."""
        return self._torus.node_count

    @property
    def total_chips(self) -> int:
        """Chips in the whole cluster."""
        return self.rack_chips * self.rack_count

    def free_chips(self, rack: int) -> int:
        """Free chips in ``rack``."""
        return self._free[rack]

    def total_free(self) -> int:
        """Free chips across every rack."""
        return sum(self._free)

    def occupied_chips(self) -> int:
        """Chips held by live allocations."""
        return self.total_chips - self.total_free()

    def circuits_used(self, rack: int) -> int:
        """Wavelength circuits steered placements consume in ``rack``."""
        return self._circuits_used[rack]

    def chip_mask(self, chips: Iterable[Coordinate]) -> int:
        """Bitmask of ``chips`` (coordinates of one rack)."""
        bits = self._bits
        mask = 0
        for chip in chips:
            mask |= bits[chip]
        return mask

    def allocation_mask(self, name: str) -> int:
        """Bitmask of the chips the live placement ``name`` holds.

        Raises:
            KeyError: if no such placement is live.
        """
        return self._allocation_masks[name]

    # -- placement ---------------------------------------------------------------

    def find_offset(
        self,
        rack: int,
        shape: tuple[int, ...],
        ignore: int = 0,
    ) -> Coordinate | None:
        """First lexicographic offset where ``shape`` fits in ``rack``,
        or ``None``. Chips in the ``ignore`` mask (see :meth:`chip_mask`)
        count as free — the defrag policy scans for a survivor's new home
        without releasing it first. Raises :class:`ShapeTooLargeError`
        when no offset could ever host the shape."""
        volume, _, table = _box_table(self.rack_shape, shape)
        if volume > self._free[rack] + ignore.bit_count():
            return None
        taken = self._masks[rack] & ~ignore
        for offset, box in table.items():
            if not taken & box:
                return offset
        return None

    def allocate_box(
        self, name: str, shape: tuple[int, ...], rack: int, offset: Coordinate
    ) -> Allocation:
        """Place a contiguous sub-torus slice.

        Raises:
            SliceOverlapError: if a requested chip is taken (also when a
                placement with this name is already live).
            ShapeTooLargeError: if the shape exceeds the rack torus.
            ValueError: for any other geometry the rack cannot hold,
                such as an offset outside it.
        """
        if name in self.allocations:
            raise SliceOverlapError(f"allocation {name!r} is already live")
        taken = self._masks[rack]
        check_geometry(self.rack_shape, offset, shape)
        _, utilization, table = _box_table(self.rack_shape, shape)
        chips = _chips_for_geometry(self.rack_shape, offset, shape)
        if taken & table[offset]:
            overlap = [chip for chip in chips if taken & self._bits[chip]]
            raise SliceOverlapError(
                f"slice {name} overlaps {len(overlap)} allocated chips, "
                f"e.g. {overlap[0]}"
            )
        return self._book(name, rack, chips, shape, offset, utilization, table[offset])

    def allocate_steered(
        self,
        name: str,
        shape: tuple[int, ...],
        rack: int,
        chips: tuple[Coordinate, ...] | None = None,
    ) -> Allocation:
        """Assemble a placement from scattered free chips via steering.

        The photonic fabric's reconfigurable reach closes congestion-free
        rings over arbitrary chip sets, so any ``chips(shape)`` free chips
        in one rack suffice — each one costs a wavelength circuit. By
        default the lexicographically-first free chips are taken;
        ``chips`` pins an explicit set (the defrag policy's undo path),
        checked whole before anything is booked.

        Raises:
            SliceOverlapError: if a placement with this name is live, or
                a pinned chip is taken or pinned twice.
            ValueError: if a pinned chip lies outside the rack, or the
                pinned chips do not number the shape's.
            NoContiguousPlacementError: if the rack lacks free chips
                (steering widens *where* chips may sit, not *how many*
                exist).
            WavelengthBudgetError: if the rack's circuit inventory
                cannot close the steered rings.
        """
        if name in self.allocations:
            raise SliceOverlapError(f"allocation {name!r} is already live")
        needed = math.prod(shape)
        if needed > self._free[rack]:
            raise NoContiguousPlacementError(
                f"rack {rack} has {self._free[rack]} free chips; "
                f"{name} needs {needed}"
            )
        if self._circuits_used[rack] + needed > self.steer_circuits:
            raise WavelengthBudgetError(
                f"steering {name} needs {needed} circuits; rack {rack} has "
                f"{self.steer_circuits - self._circuits_used[rack]} of "
                f"{self.steer_circuits} left"
            )
        taken = self._masks[rack]
        if chips is None:
            picked: list[Coordinate] = []
            free = ~taken
            while len(picked) < needed:
                low = free & -free  # the lowest free chip's bit
                picked.append(self._chips[low.bit_length() - 1])
                free ^= low
        else:
            picked = list(chips)
            if len(picked) != needed:
                raise ValueError(
                    f"{name}: pinned {len(picked)} chips for a "
                    f"{needed}-chip shape"
                )
            outside = [c for c in picked if c not in self._bits]
            if outside:
                raise ValueError(f"pinned chip {outside[0]} for {name} is outside the rack")
            busy = [c for c in picked if taken & self._bits[c]]
            if busy:
                raise SliceOverlapError(
                    f"pinned chip {busy[0]} for {name} is already allocated"
                )
            if len(set(picked)) != needed:
                raise SliceOverlapError(f"{name} pins a chip twice: {picked}")
        # Steered rings are congestion-free by construction; static
        # wiring cannot realize them at all (one chip needs no ring).
        utilization = (1.0 if needed == 1 else 0.0, 1.0)
        return self._book(
            name, rack, picked, shape, None, utilization, self.chip_mask(picked)
        )

    def steer_rings(self, name: str) -> Allocation:
        """Close a contiguous slice's stranded rings with circuits.

        A sub-rack box cannot ring congestion-free over the dimensions it
        does not span (Figure 5b); steering one circuit per chip closes
        those rings over the optical fabric, lifting the placement to
        full utilization — when the rack's budget allows. Returns the
        (possibly unchanged) allocation.
        """
        allocation = self.allocations[name]
        if not allocation.contiguous or allocation.optical_utilization >= 1.0:
            return allocation
        needed = allocation.chip_count
        rack = allocation.rack
        if self._circuits_used[rack] + needed > self.steer_circuits:
            return allocation
        self._circuits_used[rack] += needed
        upgraded = replace(
            allocation,
            optical_utilization=1.0,
            circuits=allocation.circuits + needed,
        )
        self.allocations[name] = upgraded
        self._stranded_optical[name] = needed * (1.0 - upgraded.optical_utilization)
        return upgraded

    def _book(
        self,
        name: str,
        rack: int,
        chips: Iterable[Coordinate],
        shape: tuple[int, ...],
        offset: Coordinate | None,
        utilization: tuple[float, float],
        mask: int,
    ) -> Allocation:
        """Set a placement's bits and keep its record and stranding
        terms; ``offset`` is ``None`` for a steered chip set."""
        chips = tuple(chips)
        count = len(chips)
        electrical, optical = utilization
        contiguous = offset is not None
        circuits = 0 if contiguous else count
        self._masks[rack] |= mask
        self._free[rack] -= count
        self._circuits_used[rack] += circuits
        self._allocation_masks[name] = mask
        self._stranded_electrical[name] = count * (1.0 - electrical)
        self._stranded_optical[name] = count * (1.0 - optical)
        allocation = self.allocations[name] = Allocation(
            name=name,
            rack=rack,
            chips=chips,
            shape=tuple(shape),
            offset=offset,
            contiguous=contiguous,
            electrical_utilization=electrical,
            optical_utilization=optical,
            circuits=circuits,
        )
        return allocation

    def release(self, name: str) -> Allocation:
        """Free the placement called ``name`` and return it.

        Raises:
            KeyError: if no such placement is live.
        """
        allocation = self.allocations.pop(name)
        mask = self._allocation_masks.pop(name)
        del self._stranded_electrical[name]
        del self._stranded_optical[name]
        self._masks[allocation.rack] &= ~mask
        self._free[allocation.rack] += allocation.chip_count
        self._circuits_used[allocation.rack] -= allocation.circuits
        return allocation

    # -- fragmentation telemetry ---------------------------------------------------

    def largest_allocatable(
        self, shapes: tuple[tuple[int, ...], ...]
    ) -> int:
        """Chips of the largest catalog shape a contiguous placement can
        still host anywhere in the cluster (0 when none fits).

        This is the electrical view of fragmentation: free capacity only
        counts if it is box-shaped. Compare :meth:`total_free`, which is
        what a steering fabric can still use.
        """
        best = 0
        for shape in shapes:
            volume = math.prod(shape)
            if volume <= best:
                continue
            for rack in range(self.rack_count):
                try:
                    if self.find_offset(rack, shape) is not None:
                        best = volume
                        break
                except ShapeTooLargeError:
                    break
        return best

    def stranded_fraction_rate(self, fabric: str) -> float:
        """Sum over live allocations of ``chips * (1 - utilization)`` —
        the instantaneous rate at which chip-bandwidth-seconds strand.

        Each allocation's term is kept since its placement, and the terms
        are summed in allocation order, so the sum adds the same floats
        in the same order as a sum over the allocation records."""
        if fabric == "electrical":
            return sum(self._stranded_electrical.values())
        return sum(self._stranded_optical.values())

    # -- invariants ----------------------------------------------------------------

    def check_consistent(self) -> None:
        """Cross-check each rack's mask, free count and circuit count
        against the live allocations' kept masks and records.

        Raises:
            AssertionError: on any divergence — a kept mask that is not
                its allocation's chips, overlapping allocations, or a
                rack mask, free count or circuit count that the live
                allocations do not add up to (or a circuit budget out
                of range). Raised explicitly, so the check also runs
                under ``python -O``.
        """
        held = [0] * self.rack_count
        circuits = [0] * self.rack_count
        for name, allocation in self.allocations.items():
            rack, mask = allocation.rack, self._allocation_masks.get(name)
            if mask != self.chip_mask(allocation.chips):
                raise AssertionError(f"rack {rack}: kept mask of {name!r} diverged")
            if held[rack] & mask:
                raise AssertionError(f"rack {rack}: {name!r} overlaps another allocation")
            held[rack] |= mask
            circuits[rack] += allocation.circuits
        for rack in range(self.rack_count):
            if held[rack] != self._masks[rack]:
                raise AssertionError(
                    f"rack {rack}: occupancy mask diverged from the allocations"
                )
            if self._free[rack] != self.rack_chips - held[rack].bit_count():
                raise AssertionError(f"rack {rack}: free-count drift")
            if self._circuits_used[rack] != circuits[rack]:
                raise AssertionError(f"rack {rack}: circuit-count drift")
            if not 0 <= circuits[rack] <= self.steer_circuits:
                raise AssertionError(f"rack {rack}: circuit budget out of range")
