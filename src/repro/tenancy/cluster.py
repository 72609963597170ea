"""Live allocation state of a multi-rack cluster.

:class:`ClusterState` owns one :class:`~repro.topology.slices.SliceAllocator`
per rack — the allocator's ``Slice`` geometry stays the single source of
truth for what a placement strands (``electrical_utilization`` /
``optical_utilization``) — and adds what the static topology layer has no
notion of: named jobs that arrive and depart, non-contiguous *steered*
placements a reconfigurable photonic fabric can assemble from scattered
free chips, per-rack wavelength-circuit budgets for that steering, and
the fragmentation telemetry the tenancy report charts.

A steered placement registers each of its chips as a unit slice in the
owning allocator (named ``job-N@k``), so allocator-level invariants — no
two slices share a chip — keep holding across both placement kinds, and
:meth:`check_consistent` can cross-check the cluster's incremental
occupancy against the allocators chip by chip.

Each rack's occupancy is an integer bitmask — bit ``i`` is the ``i``-th
chip of :meth:`Torus.nodes`, in lexicographic order — so the placement
scan tests a candidate box with one ``&`` against a box mask built once
per shape.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from ..topology.slices import (
    NoContiguousPlacementError,
    ShapeTooLargeError,
    Slice,
    SliceAllocator,
    SliceOverlapError,
    WavelengthBudgetError,
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
        self.racks = [SliceAllocator(self._torus) for _ in range(racks)]
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
        # Per shape: its volume and every (offset, box mask) candidate,
        # offsets in lexicographic order.
        self._boxes: dict[tuple[int, ...], tuple[int, list[tuple[Coordinate, int]]]] = {}
        # Per box shape: its (electrical, optical) utilization, which
        # the slice geometry fixes whatever the offset.
        self._utilization: dict[tuple[int, ...], tuple[float, float]] = {}

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

    def _box_table(
        self, shape: tuple[int, ...]
    ) -> tuple[int, list[tuple[Coordinate, int]]]:
        """Volume of ``shape`` and its wrap-around box mask at every
        offset, offsets in lexicographic order."""
        table = []
        for offset in self._torus.nodes():
            axes = [
                [(off + i) % rack_ext for i in range(ext)]
                for off, ext, rack_ext in zip(offset, shape, self.rack_shape)
            ]
            table.append((offset, self.chip_mask(itertools.product(*axes))))
        return math.prod(shape), table

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
        boxes = self._boxes.get(shape)
        if boxes is None:
            for ext, rack_ext in zip(shape, self.rack_shape):
                if ext > rack_ext:
                    raise ShapeTooLargeError(
                        f"shape {shape} exceeds the rack torus {self.rack_shape}"
                    )
            boxes = self._boxes[shape] = self._box_table(shape)
        volume, table = boxes
        if volume > self._free[rack] + ignore.bit_count():
            return None
        taken = self._masks[rack] & ~ignore
        for offset, box in table:
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
        """
        if name in self.allocations:
            raise SliceOverlapError(f"allocation {name!r} is already live")
        placed = self.racks[rack].allocate(name, shape, offset)
        self._register(name, rack, placed.chips(), shape, placed)
        return self.allocations[name]

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
        ``chips`` pins an explicit set (the defrag policy's undo path).

        Raises:
            SliceOverlapError: if a placement with this name is live, or
                a pinned chip is taken.
            NoContiguousPlacementError: if the rack lacks free chips
                (steering widens *where* chips may sit, not *how many*
                exist).
            WavelengthBudgetError: if the rack's circuit inventory
                cannot close the steered rings.
        """
        if name in self.allocations:
            raise SliceOverlapError(f"allocation {name!r} is already live")
        needed = 1
        for ext in shape:
            needed *= ext
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
            busy = [c for c in picked if taken & self._bits[c]]
            if busy:
                raise SliceOverlapError(
                    f"pinned chip {busy[0]} for {name} is already allocated"
                )
        allocator = self.racks[rack]
        for k, chip in enumerate(picked):
            allocator.allocate(f"{name}@{k}", (1,) * self._torus.ndim, chip)
        self._register(name, rack, picked, shape, None)
        return self.allocations[name]

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

    def _register(
        self,
        name: str,
        rack: int,
        chips: list[Coordinate],
        shape: tuple[int, ...],
        placed: Slice | None,
    ) -> None:
        contiguous = placed is not None
        count = len(chips)
        if count == 1:
            electrical = optical = 1.0
        elif contiguous:
            utilization = self._utilization.get(placed.shape)
            if utilization is None:
                utilization = self._utilization[placed.shape] = (
                    placed.electrical_utilization(),
                    placed.optical_utilization(),
                )
            electrical, optical = utilization
        else:
            # Steered rings are congestion-free by construction; static
            # wiring cannot realize them at all.
            electrical, optical = 0.0, 1.0
        circuits = 0 if contiguous else count
        mask = self.chip_mask(chips)
        self._masks[rack] |= mask
        self._free[rack] -= count
        self._circuits_used[rack] += circuits
        self._allocation_masks[name] = mask
        self._stranded_electrical[name] = count * (1.0 - electrical)
        self._stranded_optical[name] = count * (1.0 - optical)
        self.allocations[name] = Allocation(
            name=name,
            rack=rack,
            chips=tuple(chips),
            shape=tuple(shape),
            offset=placed.offset if placed is not None else None,
            contiguous=contiguous,
            electrical_utilization=electrical,
            optical_utilization=optical,
            circuits=circuits,
        )

    def release(self, name: str) -> Allocation:
        """Free the placement called ``name`` and return it.

        Raises:
            KeyError: if no such placement is live.
        """
        allocation = self.allocations.pop(name)
        mask = self._allocation_masks.pop(name)
        del self._stranded_electrical[name]
        del self._stranded_optical[name]
        allocator = self.racks[allocation.rack]
        if allocation.contiguous:
            allocator.release(name)
        else:
            for k in range(allocation.chip_count):
                allocator.release(f"{name}@{k}")
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
            volume = 1
            for ext in shape:
                volume *= ext
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
        """Cross-check the rack masks against the allocators.

        Raises:
            AssertionError: on any divergence — overlapping
                allocations, free-count drift, or circuit-budget drift.
                Raised explicitly, so the check also runs under
                ``python -O``.
        """
        for rack in range(self.rack_count):
            from_allocator = 0
            total = 0
            for s in self.racks[rack].slices:
                chips = s.chips()
                total += len(chips)
                from_allocator |= self.chip_mask(chips)
            held = from_allocator.bit_count()
            if total != held:
                raise AssertionError(
                    f"rack {rack}: allocator slices overlap "
                    f"({total} chips in {held} coordinates)"
                )
            if from_allocator != self._masks[rack]:
                raise AssertionError(
                    f"rack {rack}: occupancy mask diverged from the allocator"
                )
            if self._free[rack] != self.rack_chips - held:
                raise AssertionError(f"rack {rack}: free-count drift")
            if not 0 <= self._circuits_used[rack] <= self.steer_circuits:
                raise AssertionError(
                    f"rack {rack}: circuit budget out of range"
                )
        by_rack_chips = sum(a.chip_count for a in self.allocations.values())
        if by_rack_chips != self.occupied_chips():
            raise AssertionError("allocation records diverged from occupancy")
