"""Tests for slice geometry and the paper's congestion-freedom rule."""

import pytest

from repro.topology.slices import (
    AllocationError,
    NoContiguousPlacementError,
    ShapeTooLargeError,
    Slice,
    SliceAllocator,
    SliceOverlapError,
    WavelengthBudgetError,
)
from repro.topology.torus import Link, Torus


@pytest.fixture
def rack():
    return Torus((4, 4, 4))


def make_slice(rack, name="s", shape=(4, 2, 1), offset=(0, 0, 0)):
    return Slice(name=name, rack=rack, offset=offset, shape=shape)


class TestGeometry:
    def test_chip_count(self, rack):
        assert make_slice(rack, shape=(4, 2, 1)).chip_count == 8

    def test_chips_enumeration(self, rack):
        chips = make_slice(rack, shape=(2, 2, 1)).chips()
        assert len(chips) == 4
        assert (0, 0, 0) in chips and (1, 1, 0) in chips

    def test_contains(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1), offset=(0, 0, 3))
        assert slc.contains((2, 1, 3))
        assert not slc.contains((2, 2, 3))
        assert not slc.contains((2, 1, 0))

    def test_wraparound_placement(self, rack):
        slc = make_slice(rack, shape=(2, 1, 1), offset=(3, 0, 0))
        assert set(slc.chips()) == {(3, 0, 0), (0, 0, 0)}
        assert slc.contains((0, 0, 0))

    def test_chips_are_a_fresh_list_per_call(self, rack):
        # The coordinates are memoized per geometry; a caller's edits to
        # the list it got must not reach the next caller.
        slc = make_slice(rack, shape=(2, 2, 1), offset=(3, 3, 0))
        chips = slc.chips()
        assert chips == [(3, 3, 0), (3, 0, 0), (0, 3, 0), (0, 0, 0)]
        chips.clear()
        again = make_slice(rack, name="t", shape=(2, 2, 1), offset=(3, 3, 0))
        assert again.chips() == [(3, 3, 0), (3, 0, 0), (0, 3, 0), (0, 0, 0)]
        assert again.chips() is not again.chips()

    def test_shape_validation(self, rack):
        with pytest.raises(ValueError):
            make_slice(rack, shape=(5, 1, 1))
        with pytest.raises(ValueError):
            make_slice(rack, shape=(0, 1, 1))
        with pytest.raises(ValueError):
            make_slice(rack, offset=(4, 0, 0))
        with pytest.raises(ValueError):
            Slice(name="bad", rack=rack, offset=(0, 0), shape=(1, 1))


class TestRings:
    def test_ring_nodes_along_dim(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1))
        ring = slc.ring_nodes(0, (0, 1, 0))
        assert ring == [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]

    def test_ring_nodes_requires_membership(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1))
        with pytest.raises(ValueError):
            slc.ring_nodes(0, (0, 3, 0))

    def test_rings_count_is_cross_section(self, rack):
        slc = make_slice(rack, shape=(4, 4, 1))
        assert len(slc.rings(0)) == 4  # one X ring per y value
        assert len(slc.rings(2)) == 16

    def test_full_span_ring_links_internal(self, rack):
        slc = make_slice(rack, shape=(4, 1, 1))
        links = slc.ring_links(0)
        assert len(links) == 4
        for link in links:
            assert slc.contains(link.src)
            assert slc.contains(link.dst)

    def test_under_span_ring_wraps_through_foreign_chips(self, rack):
        slc = make_slice(rack, shape=(1, 2, 1))
        links = slc.ring_links(1)
        # 1 internal hop + 3-link wrap back through y=2,3.
        assert len(links) == 4
        foreign = [link for link in links if not slc.contains(link.dst)]
        assert foreign  # the Figure 5b congestion mechanism

    def test_physical_hop_adjacent(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1))
        hops = slc.physical_hop((0, 0, 0), (1, 0, 0), 0)
        assert hops == [Link((0, 0, 0), (1, 0, 0))]

    def test_physical_hop_wrap(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1))
        hops = slc.physical_hop((0, 1, 0), (0, 0, 0), 1)
        assert len(hops) == 3  # forward walk y=1 -> 2 -> 3 -> 0


class TestCongestionRule:
    def test_slice1_only_x_usable(self, rack):
        slc = make_slice(rack, "Slice-1", shape=(4, 2, 1))
        assert slc.usable_dimensions() == [0]
        assert slc.active_dimensions() == [0, 1]

    def test_slice3_x_and_y_usable(self, rack):
        slc = make_slice(rack, "Slice-3", shape=(4, 4, 1))
        assert slc.usable_dimensions() == [0, 1]

    def test_full_rack_all_usable(self, rack):
        slc = make_slice(rack, "full", shape=(4, 4, 4))
        assert slc.usable_dimensions() == [0, 1, 2]

    def test_extent_one_never_usable(self, rack):
        slc = make_slice(rack, shape=(1, 1, 4))
        assert slc.usable_dimensions() == [2]

    def test_utilization_slice1(self, rack):
        slc = make_slice(rack, shape=(4, 2, 1))
        assert slc.electrical_utilization() == pytest.approx(1 / 3)
        assert slc.optical_utilization() == 1.0

    def test_utilization_slice3(self, rack):
        slc = make_slice(rack, shape=(4, 4, 1))
        assert slc.electrical_utilization() == pytest.approx(2 / 3)

    def test_optical_zero_when_no_ring_possible(self, rack):
        slc = make_slice(rack, shape=(1, 1, 1))
        assert slc.optical_utilization() == 0.0

    def test_invalid_dim_rejected(self, rack):
        with pytest.raises(ValueError):
            make_slice(rack).dimension_is_congestion_free(5)


class TestAllocator:
    def test_allocate_and_free_chips(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 1), (0, 0, 0))
        assert len(allocator.free_chips()) == 48

    def test_overlap_rejected(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 1), (0, 0, 0))
        with pytest.raises(AllocationError):
            allocator.allocate("b", (1, 1, 1), (0, 0, 0))

    def test_first_fit_avoids_taken_chips(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 1), (0, 0, 0))
        slc = allocator.allocate_first_fit("b", (4, 4, 1))
        assert slc.offset != (0, 0, 0)
        assert all(not s.contains(c) for s in allocator.slices[:1] for c in slc.chips())

    def test_first_fit_failure(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 4), (0, 0, 0))
        with pytest.raises(AllocationError):
            allocator.allocate_first_fit("b", (1, 1, 1))

    def test_release(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 4), (0, 0, 0))
        allocator.release("a")
        assert len(allocator.free_chips()) == 64

    def test_release_unknown(self, rack):
        with pytest.raises(KeyError):
            SliceAllocator(rack).release("ghost")

    def test_slice_of(self, rack):
        allocator = SliceAllocator(rack)
        slc = allocator.allocate("a", (4, 4, 1), (0, 0, 0))
        assert allocator.slice_of((1, 1, 0)) is slc
        assert allocator.slice_of((1, 1, 3)) is None


class TestNamedAllocationErrors:
    """Every placement failure names its constraint via a subclass, and
    pre-existing ``except AllocationError`` / ``except ValueError``
    call sites keep working."""

    def test_oversized_shape_from_construction(self, rack):
        with pytest.raises(ShapeTooLargeError):
            make_slice(rack, shape=(5, 1, 1))
        with pytest.raises(AllocationError):
            make_slice(rack, shape=(5, 1, 1))
        with pytest.raises(ValueError):
            make_slice(rack, shape=(5, 1, 1))

    def test_oversized_shape_from_allocate(self, rack):
        allocator = SliceAllocator(rack)
        with pytest.raises(ShapeTooLargeError):
            allocator.allocate("a", (1, 1, 8), (0, 0, 0))

    def test_overlap_is_named(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 1), (0, 0, 0))
        with pytest.raises(SliceOverlapError) as excinfo:
            allocator.allocate("b", (2, 2, 2), (0, 0, 0))
        assert isinstance(excinfo.value, AllocationError)

    def test_full_rack_is_named(self, rack):
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 4), (0, 0, 0))
        with pytest.raises(NoContiguousPlacementError) as excinfo:
            allocator.allocate_first_fit("b", (1, 1, 1))
        assert isinstance(excinfo.value, AllocationError)

    def test_wavelength_budget_shares_the_root(self):
        assert issubclass(WavelengthBudgetError, AllocationError)
        assert not issubclass(WavelengthBudgetError, ValueError)

    def test_subclasses_are_distinct(self, rack):
        # An overlap must not masquerade as a geometry violation: the
        # ValueError mixin belongs to ShapeTooLargeError alone.
        allocator = SliceAllocator(rack)
        allocator.allocate("a", (4, 4, 4), (0, 0, 0))
        with pytest.raises(SliceOverlapError):
            allocator.allocate("b", (1, 1, 1), (2, 2, 2))
        assert not issubclass(SliceOverlapError, ValueError)
        assert not issubclass(NoContiguousPlacementError, ValueError)
