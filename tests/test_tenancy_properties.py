"""Property-based tests for the tenancy cluster state and defrag policy.

Three guarantees, each over randomized operation sequences or states:

1. *Consistency*: any interleaving of box placements, steered placements
   and releases leaves :class:`ClusterState` internally consistent — the
   occupancy matches a shadow of slice allocators chip for chip after
   every placement and release, freed capacity is fully reusable, and
   released circuits return to the pool.
2. *Defrag monotonicity*: a departure-time compaction pass never
   regresses the fragmentation metric (the largest catalog shape still
   contiguously allocatable), for any reachable cluster state — the
   guarded-move construction, checked against arbitrary histories
   rather than one scripted scenario.
3. *Placement scan*: the bitmask ``find_offset`` returns what a scan of
   every candidate box's chips against the taken set returns, on any
   occupancy, shape and ``ignore`` set — wrap-around boxes and
   non-cubic racks included.
"""

import itertools

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.tenancy import ClusterState, JOB_CATALOG, make_placement_policy
from repro.tenancy.policies import CATALOG_SHAPES
from repro.topology import (
    NoContiguousPlacementError,
    ShapeTooLargeError,
    SliceOverlapError,
    WavelengthBudgetError,
)
from repro.topology.torus import Torus
from tests.oracles.placement import (
    ShadowAllocators,
    scan_find_offset,
    summed_stranding_rate,
    taken_chips,
)

RACKS = 2

# One operation: (kind, selector, rack). kind 0/1 = box placement,
# 2 = steered placement, 3 = release; the selector picks the catalog
# shape (or, for releases, which live job departs).
operations = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 63),
        st.integers(0, RACKS - 1),
    ),
    max_size=40,
)


def _apply(cluster: ClusterState, ops) -> list[str]:
    """Drive the cluster through ``ops``; returns the live job names.

    A shadow of per-rack slice allocators replays every placement and
    release on the cluster from here on — the defrag policy's moves
    included — and checks each rack's chips against its own after each
    one.
    """
    ShadowAllocators(cluster)
    live: list[str] = []
    counter = 0
    for kind, selector, rack in ops:
        if kind == 3:
            if live:
                cluster.release(live.pop(selector % len(live)))
            continue
        shape = JOB_CATALOG[selector % len(JOB_CATALOG)][0]
        name = f"job-{counter}"
        counter += 1
        try:
            if kind == 2:
                cluster.allocate_steered(name, shape, rack)
            else:
                offset = cluster.find_offset(rack, shape)
                if offset is None:
                    continue
                cluster.allocate_box(name, shape, rack, offset)
        except (
            ShapeTooLargeError,
            NoContiguousPlacementError,
            WavelengthBudgetError,
        ):
            continue
        live.append(name)
    return live


class TestClusterConsistency:
    @given(operations)
    @settings(max_examples=150, deadline=None)
    def test_any_history_stays_consistent(self, ops):
        cluster = ClusterState(racks=RACKS, steer_circuits=16)
        live = _apply(cluster, ops)
        cluster.check_consistent()
        assert set(cluster.allocations) == set(live)
        assert cluster.occupied_chips() == sum(
            cluster.allocations[name].chip_count for name in live
        )

    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_released_capacity_is_fully_reusable(self, ops):
        cluster = ClusterState(racks=RACKS, steer_circuits=16)
        for name in _apply(cluster, ops):
            cluster.release(name)
        cluster.check_consistent()
        assert cluster.total_free() == cluster.total_chips
        assert all(
            cluster.circuits_used(rack) == 0 for rack in range(RACKS)
        )
        # An empty cluster hosts the full-rack shape again — no residue.
        assert cluster.largest_allocatable(CATALOG_SHAPES) == (
            cluster.rack_chips
        )

    @given(operations, st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_release_order_is_immaterial(self, ops, rotation):
        forward = ClusterState(racks=RACKS, steer_circuits=16)
        names = _apply(forward, ops)
        rotated = names[rotation % len(names):] + names[: rotation % len(names)] if names else []
        for name in rotated:
            forward.release(name)
        forward.check_consistent()
        assert forward.total_free() == forward.total_chips


class TestKeptBookkeeping:
    @given(operations, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_kept_values_equal_recomputed(self, ops, steer_every):
        # The masks and stranding terms the cluster keeps must equal
        # recomputing them, through ring steering and releases.
        cluster = ClusterState(racks=RACKS, steer_circuits=16)
        live = _apply(cluster, ops)
        for i, name in enumerate(live):
            if steer_every and i % steer_every == 0:
                cluster.steer_rings(name)
            for fabric in ("electrical", "photonic"):
                assert cluster.stranded_fraction_rate(fabric) == (
                    summed_stranding_rate(cluster, fabric)
                )
        for name in live[::2]:
            cluster.release(name)
        for name, allocation in cluster.allocations.items():
            assert cluster.allocation_mask(name) == cluster.chip_mask(
                allocation.chips
            )
        for fabric in ("electrical", "photonic"):
            assert cluster.stranded_fraction_rate(fabric) == (
                summed_stranding_rate(cluster, fabric)
            )


class TestDefragMonotonicity:
    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_compaction_never_regresses_fragmentation(self, ops):
        cluster = ClusterState(racks=RACKS, steer_circuits=16)
        live = _apply(cluster, ops)
        policy = make_placement_policy("defrag")
        # Run the pass after a departure from each rack in turn (the
        # simulator's trigger); the metric must be monotone every time.
        for rack in range(RACKS):
            departed = next(
                (
                    name
                    for name in live
                    if cluster.allocations[name].rack == rack
                ),
                None,
            )
            if departed is not None:
                cluster.release(departed)
                live.remove(departed)
            before = cluster.largest_allocatable(CATALOG_SHAPES)
            policy.on_departure(cluster, rack)
            after = cluster.largest_allocatable(CATALOG_SHAPES)
            assert after >= before
            cluster.check_consistent()
        # Compaction relocates jobs, never creates or destroys them.
        assert set(cluster.allocations) == set(live)


RACK_SHAPES = ((4, 4, 4), (4, 4, 2), (2, 3, 5))


@st.composite
def placement_states(draw):
    """(rack_shape, boxes, pinned chips, ignore set, probe shape)."""
    rack_shape = draw(st.sampled_from(RACK_SHAPES))
    chips = list(itertools.product(*(range(ext) for ext in rack_shape)))
    extents = st.tuples(*(st.integers(1, ext) for ext in rack_shape))
    boxes = draw(st.lists(st.tuples(st.sampled_from(chips), extents), max_size=4))
    pinned = draw(st.lists(st.sampled_from(chips), unique=True, max_size=len(chips)))
    ignore = draw(st.frozensets(st.sampled_from(chips)))
    # One past the rack extent exercises the too-large refusal.
    shape = draw(st.tuples(*(st.integers(1, ext + 1) for ext in rack_shape)))
    return rack_shape, boxes, pinned, ignore, shape


class TestFindOffsetMatchesScan:
    @given(placement_states())
    @settings(max_examples=300, deadline=None)
    def test_bitmask_scan_equals_set_scan(self, state):
        rack_shape, boxes, pinned, ignore, shape = state
        cluster = ClusterState(rack_shape=rack_shape, racks=1, steer_circuits=64)
        for k, (offset, extent) in enumerate(boxes):
            try:  # boxes may wrap around the torus edges
                cluster.allocate_box(f"box-{k}", extent, 0, offset)
            except SliceOverlapError:
                pass
        for k, chip in enumerate(pinned):
            if chip not in taken_chips(cluster, 0):
                cluster.allocate_steered(f"pin-{k}", (1, 1, 1), 0, chips=(chip,))
        cluster.check_consistent()
        for masked in (frozenset(), ignore):
            try:
                expected = scan_find_offset(cluster, 0, shape, masked)
            except ShapeTooLargeError:
                with pytest.raises(ShapeTooLargeError):
                    cluster.find_offset(0, shape, ignore=cluster.chip_mask(masked))
                continue
            assert cluster.find_offset(
                0, shape, ignore=cluster.chip_mask(masked)
            ) == expected

    @given(placement_states(), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_steering_takes_the_first_free_chips(self, state, needed):
        rack_shape, _, pinned, _, _ = state
        cluster = ClusterState(rack_shape=rack_shape, racks=1, steer_circuits=64)
        for k, chip in enumerate(pinned[: len(pinned) // 2]):
            cluster.allocate_box(f"pin-{k}", (1, 1, 1), 0, chip)
        taken = taken_chips(cluster, 0)
        free = [c for c in Torus(rack_shape).nodes() if c not in taken]
        if needed > len(free):
            return
        placed = cluster.allocate_steered("s", (1, 1, needed), 0)
        assert list(placed.chips) == free[:needed]
        cluster.check_consistent()


class TestBoxRefusalsMatchAllocator:
    @given(placement_states())
    @settings(max_examples=200, deadline=None)
    def test_refused_box_raises_what_a_slice_allocator_raises(self, state):
        # Overlapping boxes, a shape one past the rack and an offset
        # outside it: the shadow requires the allocator to refuse each
        # with the cluster's exception type and message.
        rack_shape, boxes, _, _, shape = state
        cluster = ClusterState(rack_shape=rack_shape, racks=1, steer_circuits=64)
        ShadowAllocators(cluster)
        corner = (0,) * len(rack_shape)
        attempts = boxes + [(corner, shape), (rack_shape, (1,) * len(rack_shape))]
        for k, (offset, extent) in enumerate(attempts):
            try:
                cluster.allocate_box(f"box-{k}", extent, 0, offset)
            except (SliceOverlapError, ValueError):
                pass
        cluster.check_consistent()
