"""The kernels layer: incidence, time accounting, and oracle bit-identity.

The numpy kernels' contract is "bit-identical to the straightforward
loops, only faster". The loops live in ``tests/oracles/``; nearly every
test here runs a kernel and its oracle on the same input and asserts
*exact* equality (``==`` on floats, not ``approx``): water-filling rates,
bucket stage costs, repair attempts, flow completion times and telemetry
timelines. Randomized inputs come from hypothesis; the degenerate
corners (single flow, single link, all-capped, duplicate links) are
pinned explicitly.
"""

import contextlib
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.api import (
    FabricSession,
    FailurePlan,
    ScenarioSpec,
    figure6_slices,
    register_backend,
    unregister_backend,
)
from repro.cli import main
from repro.collectives.cost_model import _bucket_stages
from repro.failures.inject import InvalidChipError
from repro.failures.recovery import ElectricalRecoveryAnalysis
from repro.kernels.incidence import FlowIncidence, LinkSpace
from repro.kernels.stagecosts import bucket_stage_arrays
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim import network as network_module
from repro.sim.engine import EventEngine
from repro.sim.flows import Flow, max_min_rates
from repro.sim.network import FlowNetwork
from repro.sim.telemetry import InstrumentedNetwork, LinkTelemetry
from repro.topology.slices import SliceAllocator, SliceOverlapError
from repro.topology.torus import Torus
from tests.oracles.kernels import (
    bucket_stages_reference,
    evaluate_all_free_chips_reference,
    evaluate_free_chip_reference,
    max_min_rates_reference,
)
from tests.oracles.network import (
    EagerFlowNetwork,
    EagerInstrumentedNetwork,
    ReferenceFlowNetwork,
    ReferenceInstrumentedNetwork,
    WholeSolveFlowNetwork,
    WholeSolveInstrumentedNetwork,
)
from tests.test_recovery import figure6b_scenario

#: The two implementations each parity test runs: the oracle loop
#: ("reference") and the production kernel ("vectorized").
IMPLEMENTATIONS = ("reference", "vectorized")

# -- nothing left to select ----------------------------------------------------


class TestKernelSelection:
    def test_kernel_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--kernel", "reference", "simulate"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_accounting(self):
        """One ``max_min_rates`` call inside a metered evaluation counts
        one ``waterfill`` call."""
        registry = MetricsRegistry()
        with _kernel_backend("one-fill", waterfills=1) as spec:
            FabricSession(metrics=registry).run(spec)
        kernel = {n: registry.get(n).value for n in registry.names() if n.startswith("kernel.")}
        assert sorted(kernel) == ["kernel.waterfill.calls", "kernel.waterfill.seconds"]
        assert kernel["kernel.waterfill.calls"] == 1
        assert kernel["kernel.waterfill.seconds"] >= 0.0


# -- incidence building blocks -------------------------------------------------


class TestIncidence:
    def test_link_space_orders_by_insertion(self):
        space = LinkSpace({"b": 1.0, "a": 2.0, "c": 3.0})
        assert space.links == ["b", "a", "c"]
        assert space.index == {"b": 0, "a": 1, "c": 2}
        assert space.caps.tolist() == [1.0, 2.0, 3.0]
        assert len(space) == 3

    def test_indices_preserve_request_order(self):
        space = LinkSpace({"b": 1.0, "a": 2.0})
        assert space.indices(("a", "b", "a")).tolist() == [1, 0, 1]

    def test_indices_raise_bare_keyerror(self):
        space = LinkSpace({"a": 1.0})
        with pytest.raises(KeyError):
            space.indices(("a", "zzz"))

    def test_flow_incidence_lists(self):
        space = LinkSpace({"a": 1.0, "b": 1.0, "c": 1.0})
        inc = FlowIncidence(
            [space.indices(("a", "c")).tolist(), space.indices(("b",)).tolist()]
        )
        assert inc.flow_count == 2
        assert inc.flow_links == [[0, 2], [1]]

    def test_flow_incidence_empty(self):
        inc = FlowIncidence([])
        assert inc.flow_count == 0
        assert inc.flow_links == []


# -- water-filling bit-identity ------------------------------------------------

WATERFILL = {
    "reference": max_min_rates_reference,
    "vectorized": max_min_rates,
}


@st.composite
def waterfill_problems(draw):
    """Random capacities + flows, duplicates and demand caps included."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = {
        f"L{i}": draw(
            st.floats(min_value=0.25, max_value=64.0, allow_nan=False)
        )
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for i in range(n_flows):
        links = tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted(caps)),
                    min_size=1,
                    max_size=2 * n_links,  # duplicates allowed
                )
            )
        )
        demand = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.01, max_value=32.0, allow_nan=False),
            )
        )
        flows.append((f"f{i}", links, demand))
    return caps, flows


def _build(flows):
    return [
        Flow(
            flow_id=fid,
            links=links,
            remaining_bytes=1.0,
            demand_bytes_per_s=demand,
        )
        for fid, links, demand in flows
    ]


def _both_backends(caps, flows):
    """Run the oracle and the kernel on independent flow copies."""
    ref_flows, vec_flows = _build(flows), _build(flows)
    ref = max_min_rates_reference(ref_flows, dict(caps))
    vec = max_min_rates(vec_flows, dict(caps))
    return ref, vec, ref_flows, vec_flows


class TestWaterfillIdentity:
    @given(waterfill_problems())
    @settings(max_examples=200, deadline=None)
    def test_random_problems_bit_identical(self, problem):
        caps, flows = problem
        ref, vec, ref_flows, vec_flows = _both_backends(caps, flows)
        assert ref == vec  # exact float equality, not approx
        for a, b in zip(ref_flows, vec_flows):
            assert a.rate_bytes_per_s == b.rate_bytes_per_s

    def test_single_flow_single_link(self):
        ref, vec, _, _ = _both_backends(
            {"L0": 7.0}, [("f0", ("L0",), None)]
        )
        assert ref == vec == {"f0": 7.0}

    def test_all_flows_demand_capped(self):
        caps = {"L0": 100.0, "L1": 100.0}
        flows = [
            ("f0", ("L0", "L1"), 1.5),
            ("f1", ("L1",), 2.5),
            ("f2", ("L0",), 0.5),
        ]
        ref, vec, _, _ = _both_backends(caps, flows)
        assert ref == vec == {"f0": 1.5, "f1": 2.5, "f2": 0.5}

    def test_duplicate_links_within_flow(self):
        # A flow crossing the same link twice debits it twice.
        caps = {"L0": 6.0, "L1": 6.0}
        flows = [("f0", ("L0", "L0", "L1"), None), ("f1", ("L0",), None)]
        ref, vec, _, _ = _both_backends(caps, flows)
        assert ref == vec

    def test_empty_flow_list(self):
        assert max_min_rates([], {"L0": 1.0}) == {}
        assert max_min_rates_reference([], {"L0": 1.0}) == {}

    def test_dispatcher_agrees_with_reference_function(self):
        caps = {"a": 3.0, "b": 2.0}
        flows = [("x", ("a", "b"), None), ("y", ("b",), None)]
        direct = max_min_rates_reference(_build(flows), dict(caps))
        vec = max_min_rates(_build(flows), dict(caps))
        assert direct == vec == {"x": 1.0, "y": 1.0}

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_unknown_link_error_parity(self, kernel):
        flows = _build([("f0", ("L0", "mystery"), None)])
        with pytest.raises(KeyError) as err:
            WATERFILL[kernel](flows, {"L0": 1.0})
        assert err.value.args[0] == (
            "flow 'f0' uses unknown link 'mystery'"
        )

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_non_positive_capacity_error_parity(self, kernel):
        flows = _build([("f0", ("L0",), None)])
        with pytest.raises(
            ValueError, match=r"link 'L1' has non-positive capacity 0"
        ):
            WATERFILL[kernel](flows, {"L0": 1.0, "L1": 0.0})

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_zeroed_demand_cap_error_parity(self, kernel):
        flows = _build([("f0", ("L0",), 1.0)])
        flows[0].demand_bytes_per_s = 0.0  # bypass Flow's own validation
        with pytest.raises(ValueError, match="non-positive demand cap"):
            WATERFILL[kernel](flows, {"L0": 1.0})

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_nan_capacity_error_parity(self, kernel):
        # NaN <= 0 is False, so a NaN capacity used to slip past the check.
        flows = _build([("f0", ("a",), None)])
        with pytest.raises(
            ValueError, match=r"link 'a' has non-positive capacity nan"
        ):
            WATERFILL[kernel](flows, {"a": float("nan")})

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_infinite_capacity_error_parity(self, kernel):
        # The debit inf - inf used to hand "b" a NaN rate.
        flows = _build([("a", ("x", "z"), None), ("b", ("z",), None)])
        inf = float("inf")
        with pytest.raises(
            ValueError, match=r"link 'x' has infinite capacity inf"
        ):
            WATERFILL[kernel](flows, {"x": inf, "z": inf})


#: A few capacities and caps, so link shares tie in nearly every round,
#: as they do on a torus of equal links.
TIE_VALUES = (0.5, 1.0, 2.0, 4.0)


@st.composite
def tie_heavy_problems(draw):
    """Like :func:`waterfill_problems`, with every capacity and demand
    cap drawn from :data:`TIE_VALUES`."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = {f"L{i}": draw(st.sampled_from(TIE_VALUES)) for i in range(n_links)}
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        links = tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted(caps)),
                    min_size=1,
                    max_size=2 * n_links,
                )
            )
        )
        demand = draw(st.one_of(st.none(), st.sampled_from(TIE_VALUES)))
        flows.append((f"f{i}", links, demand))
    return caps, flows


@st.composite
def ring_problems(draw):
    """A ring stage's shape: up to 64 single-link flows over a few
    hundred links, most of one capacity, some sharing a link."""
    n_links = draw(st.integers(min_value=1, max_value=384))
    base = draw(st.sampled_from(TIE_VALUES))
    overrides = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=n_links - 1),
            st.sampled_from(TIE_VALUES),
            max_size=16,
        )
    )
    caps = {f"L{i}": overrides.get(i, base) for i in range(n_links)}
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=64))):
        link = draw(st.integers(min_value=0, max_value=n_links - 1))
        demand = draw(st.one_of(st.none(), st.sampled_from(TIE_VALUES)))
        flows.append((f"f{i}", (f"L{link}",), demand))
    return caps, flows


class TestWaterfillTies:
    """Exact equality where the bottleneck tie-break decides the rates."""

    @given(tie_heavy_problems())
    @settings(max_examples=300, deadline=None)
    # L0 and L1 tie at s = 0.5 / 3. L0 is seen first, so all three
    # flows freeze at s; taking L1 first would leave f0 alone on L0
    # with (0.5 - s) - s, two ulps above s.
    @example(
        (
            {"L0": 0.5, "L1": 0.5},
            [
                ("f0", ("L0",), None),
                ("f1", ("L0", "L1"), None),
                ("f2", ("L0", "L1", "L1"), None),
            ],
        )
    )
    def test_tie_heavy_problems_bit_identical(self, problem):
        ref, vec, _, _ = _both_backends(*problem)
        assert ref == vec

    @given(ring_problems())
    @settings(max_examples=100, deadline=None)
    def test_ring_problems_bit_identical(self, problem):
        ref, vec, _, _ = _both_backends(*problem)
        assert ref == vec


def _components(flows):
    """The flows' flow–link components as lists of flow positions, each
    in input order."""
    group = list(range(len(flows)))

    def root(i):
        while group[i] != i:
            group[i] = i = group[group[i]]
        return i

    first_user = {}
    for i, (_, links, _) in enumerate(flows):
        for link in links:
            group[root(i)] = root(first_user.setdefault(link, i))
    members = {}
    for i in range(len(flows)):
        members.setdefault(root(i), []).append(i)
    return list(members.values())


#: Demand caps couple components: the capped round compares each demand
#: with the smallest share over every link, so L's component alone is
#: solved against M's share and freezes f1 and f0 in a different order.
CAPPED_COUPLING = (
    {"L": 1.0, "M": 0.15},
    [
        ("f0", ("L",), 0.2),
        ("f1", ("L",), 0.1),
        ("h", ("L",), None),
        ("g", ("M",), None),
    ],
)


class TestWaterfillComponents:
    """An uncapped flow–link component solved alone gets exactly the
    rates it gets inside the whole population, which lets a network
    re-solve only the components a change touched."""

    @staticmethod
    def _assert_components_solve_alone(problem):
        caps, flows = problem
        flows = [(fid, links, None) for fid, links, _ in flows]
        whole = max_min_rates(_build(flows), dict(caps))
        for component in _components(flows):
            alone = max_min_rates(
                _build([flows[i] for i in component]), dict(caps)
            )
            assert alone == {fid: whole[fid] for fid in alone}

    @given(waterfill_problems())
    @settings(max_examples=200, deadline=None)
    def test_random_problems(self, problem):
        self._assert_components_solve_alone(problem)

    @given(tie_heavy_problems())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_problems(self, problem):
        self._assert_components_solve_alone(problem)

    @given(ring_problems())
    @settings(max_examples=100, deadline=None)
    def test_ring_problems(self, problem):
        self._assert_components_solve_alone(problem)

    def test_caps_couple_components(self):
        caps, flows = CAPPED_COUPLING
        whole = max_min_rates(_build(flows), dict(caps))
        alone = max_min_rates(_build(flows[:3]), dict(caps))
        assert whole["h"] == 0.7
        assert alone["h"] == 0.7000000000000001


# -- bucket stage costs --------------------------------------------------------

STAGES = {"reference": bucket_stages_reference, "vectorized": _bucket_stages}

dims_lists = st.lists(
    st.integers(min_value=2, max_value=8), min_size=1, max_size=4
)
fractions = st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.7])


class TestStageCostIdentity:
    @given(dims_lists, fractions)
    @settings(max_examples=100, deadline=None)
    def test_stages_bit_identical(self, dims, fraction):
        ref = bucket_stages_reference(list(dims), fraction)
        vec = _bucket_stages(list(dims), fraction)
        assert ref == vec  # CollectiveCost dataclass equality, exact floats

    def test_stage_arrays_shapes(self):
        alphas, buffer_fractions, betas = bucket_stage_arrays((4, 4, 2), 1.0)
        assert list(alphas) == [3, 3, 1]
        assert list(buffer_fractions) == [1.0, 0.25, 0.0625]
        assert betas[0] == (4 - 1) / 4

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_validation_parity(self, kernel):
        with pytest.raises(ValueError, match="at least one dimension"):
            STAGES[kernel]([], 1.0)
        with pytest.raises(ValueError, match=">= 2 chips"):
            STAGES[kernel]([4, 1], 1.0)


# -- repair path search --------------------------------------------------------


def _figure6_analysis(max_hops=4):
    torus = Torus((4, 4, 4))
    allocator = SliceAllocator(torus)
    allocator.allocate("Slice-A", (4, 4, 2), (0, 0, 0))
    allocator.allocate("Slice-B", (4, 2, 2), (0, 0, 2))
    return ElectricalRecoveryAnalysis(torus, allocator, max_hops=max_hops)


def _assert_repair_matches_oracle(analysis, slc, failed, extra_busy=None):
    """Every free chip, singly and all at once, equals the oracle; the
    failed chip itself is rejected."""
    for free_chip in analysis.allocator.free_chips():
        assert analysis.evaluate_free_chip(
            slc, failed, free_chip, extra_busy
        ) == evaluate_free_chip_reference(
            analysis, slc, failed, free_chip, extra_busy
        )
    assert analysis.evaluate_all_free_chips(
        slc, failed
    ) == evaluate_all_free_chips_reference(analysis, slc, failed)
    with pytest.raises(ValueError, match="cannot replace itself"):
        analysis.evaluate_free_chip(slc, failed, failed)


@st.composite
def repair_layouts(draw):
    """Non-overlapping slices on a 4x4x4 rack, a failed chip in one of
    them, a few extra busy links, and a small path-length bound."""
    torus = Torus((4, 4, 4))
    allocator = SliceAllocator(torus)
    extents = st.sampled_from((1, 2, 4))
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        shape = (draw(extents), draw(extents), draw(extents))
        offset = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
        try:
            allocator.allocate(f"S{i}", shape, offset)
        except SliceOverlapError:
            continue
    if not allocator.slices:
        allocator.allocate("S", (4, 4, 1), (0, 0, 0))
    slc = draw(st.sampled_from(allocator.slices))
    failed = draw(st.sampled_from(slc.chips()))
    links = list(torus.links())
    extra_busy = set(draw(st.lists(st.sampled_from(links), max_size=4)))
    max_hops = draw(st.integers(min_value=1, max_value=3))
    analysis = ElectricalRecoveryAnalysis(torus, allocator, max_hops=max_hops)
    return analysis, slc, failed, extra_busy


class TestRepairIdentity:
    def test_evaluate_all_free_chips_identical(self):
        analysis = _figure6_analysis()
        slc = analysis.allocator.slices[0]
        failed = (1, 2, 0)
        ref = evaluate_all_free_chips_reference(analysis, slc, failed)
        vec = analysis.evaluate_all_free_chips(slc, failed)
        assert ref == vec  # dataclass equality: paths, congestion, feasibility

    def test_evaluate_single_chip_identical(self):
        analysis = _figure6_analysis()
        slc = analysis.allocator.slices[0]
        failed, free_chip = (1, 2, 0), (0, 2, 2)
        ref = evaluate_free_chip_reference(analysis, slc, failed, free_chip)
        vec = analysis.evaluate_free_chip(slc, failed, free_chip)
        assert ref == vec

    @given(repair_layouts())
    @settings(max_examples=40, deadline=None)
    def test_random_layouts_match_oracle(self, layout):
        analysis, slc, failed, extra_busy = layout
        _assert_repair_matches_oracle(analysis, slc, failed, extra_busy)

    def test_figure6b_matches_oracle(self):
        torus, allocator, slc = figure6b_scenario()
        analysis = ElectricalRecoveryAnalysis(torus, allocator, max_hops=4)
        failed = (0, 0, 0)
        attempts = analysis.evaluate_all_free_chips(slc, failed)
        # The exhaustive search ran: no candidate is congestion-free.
        assert attempts and not any(a.feasible for a in attempts)
        _assert_repair_matches_oracle(analysis, slc, failed)

    def test_failed_chip_as_candidate_rejected(self):
        # Splicing the failed chip back in is no repair. The coordinate
        # search would still return paths that end at it, while the
        # index-space search excludes the failed chip from every path;
        # this layout is one where the two differ, so the input is
        # refused rather than answered by either rule.
        torus = Torus((4, 4, 4))
        allocator = SliceAllocator(torus)
        slc = allocator.allocate("s0", (4, 2, 4), (0, 3, 0))
        allocator.allocate("s2", (4, 2, 4), (2, 1, 2))
        analysis = ElectricalRecoveryAnalysis(torus, allocator, max_hops=3)
        failed = (1, 0, 3)
        oracle = evaluate_free_chip_reference(analysis, slc, failed, failed)
        assert any(p.path[-1] == failed and p.congested_links for p in oracle.best_paths)
        with pytest.raises(ValueError, match="cannot replace itself"):
            analysis.evaluate_free_chip(slc, failed, failed)

    def test_failed_chip_outside_torus_rejected(self):
        analysis = _figure6_analysis()
        slc = analysis.allocator.slices[0]
        with pytest.raises(InvalidChipError, match="outside the torus"):
            analysis.evaluate_all_free_chips(slc, (9, 9, 9))
        with pytest.raises(InvalidChipError, match="outside the torus"):
            analysis.evaluate_free_chip(slc, (4, 0, 0), (0, 2, 2))

    def test_allocator_rack_must_match_torus(self):
        allocator = SliceAllocator(Torus((4, 4, 4)))
        with pytest.raises(ValueError, match="does not match"):
            ElectricalRecoveryAnalysis(Torus((4, 4, 8)), allocator)

    def test_ring_link_indices_match_ring_links(self):
        analysis = _figure6_analysis()
        slc = analysis.allocator.slices[1]
        kernel = slc.rack.index_kernel()
        for dim in range(slc.rack.ndim):
            ids = slc.ring_link_indices(dim)
            assert [kernel.links[i] for i in ids] == slc.ring_links(dim)

    def test_index_kernel_is_memoized(self):
        assert Torus((4, 4, 4)).index_kernel() is Torus(
            (4, 4, 4)
        ).index_kernel()


# -- fluid network + telemetry -------------------------------------------------

NETWORKS = {"reference": ReferenceFlowNetwork, "vectorized": FlowNetwork}


@st.composite
def flow_schedules(draw, zero_byte_flows=True):
    """Random link capacities, a flow schedule over them, and capacity
    edits scheduled mid-run.

    Each flow is injected either at a random time or from the completion
    callback of an earlier flow, so injections land both between and
    inside other events' handlers. Half the schedules cap no flow, so
    settles re-solve only touched components. With ``zero_byte_flows``
    some flows carry no bytes.
    """
    n_links = draw(st.integers(min_value=1, max_value=5))
    positive = st.floats(min_value=0.5, max_value=16.0, allow_nan=False)
    caps = {f"L{i}": draw(positive) for i in range(n_links)}
    capped = draw(st.booleans())
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        links = tuple(
            draw(st.lists(st.sampled_from(sorted(caps)), min_size=1, max_size=3))
        )
        size = draw(
            st.floats(min_value=0.5, max_value=64.0, allow_nan=False)
            | (st.just(0.0) if zero_byte_flows else st.nothing())
        )
        demand = (
            draw(st.one_of(st.none(), st.floats(min_value=0.1, max_value=16.0)))
            if capped
            else None
        )
        if i and draw(st.booleans()):
            start = ("after", draw(st.integers(min_value=0, max_value=i - 1)))
        else:
            start = ("at", draw(st.floats(min_value=0.0, max_value=8.0)))
        flows.append((f"f{i}", links, size, demand, start))
    edits = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0),
                st.sampled_from(sorted(caps)),
                positive,
            ),
            max_size=3,
        )
    )
    return caps, flows, edits


def _run_flow_schedule(cls, schedule):
    caps, flows, edits = schedule
    engine = EventEngine()
    network = cls(engine, caps)
    followers = {}
    for fid, _, _, _, (kind, arg) in flows:
        if kind == "after":
            followers.setdefault(f"f{arg}", []).append(fid)
    by_id = {fid: (links, size, demand) for fid, links, size, demand, _ in flows}

    def inject(fid):
        links, size, demand = by_id[fid]

        def chain(record):
            for follower in followers.get(record.flow.flow_id, ()):
                inject(follower)

        network.inject(Flow(fid, links, size, demand), on_complete=chain)

    for fid, _, _, _, (kind, arg) in flows:
        if kind == "at":
            engine.schedule_at(arg, lambda fid=fid: inject(fid))

    def edit(link, cap):
        network.capacities[link] = cap

    for time_s, link, cap in edits:
        engine.schedule_at(time_s, lambda link=link, cap=cap: edit(link, cap))
    engine.run()
    assert network.active_flow_count() == 0
    return network


def _timeline(network):
    return [(r.flow.flow_id, r.start_s, r.finish_s) for r in network.records]


class _CountsRateComputations:
    """Counts how often the network computes rates."""

    rate_computations = 0

    def _compute_rates(self, flows):
        self.rate_computations += 1
        super()._compute_rates(flows)


class CountingFlowNetwork(_CountsRateComputations, FlowNetwork):
    pass


class CountingEagerFlowNetwork(_CountsRateComputations, EagerFlowNetwork):
    pass


class CountingInstrumentedNetwork(_CountsRateComputations, InstrumentedNetwork):
    pass


class CountingEagerInstrumentedNetwork(
    _CountsRateComputations, EagerInstrumentedNetwork
):
    pass


class TestNetworkIdentity:
    @given(flow_schedules())
    @settings(max_examples=150, deadline=None)
    def test_completion_times_bit_identical(self, schedule):
        ref = _run_flow_schedule(ReferenceFlowNetwork, schedule)
        vec = _run_flow_schedule(FlowNetwork, schedule)
        assert len(vec.records) == len(schedule[1])
        assert _timeline(ref) == _timeline(vec)  # exact floats

    @given(flow_schedules())
    @settings(max_examples=150, deadline=None)
    def test_telemetry_timelines_bit_identical(self, schedule):
        ref = _run_flow_schedule(ReferenceInstrumentedNetwork, schedule)
        vec = _run_flow_schedule(InstrumentedNetwork, schedule)
        assert _timeline(ref) == _timeline(vec)
        for link in schedule[0]:
            assert ref.telemetry.samples(link) == vec.telemetry.samples(link)
            assert ref.telemetry.carried_bytes(
                link
            ) == vec.telemetry.carried_bytes(link)
        assert ref.telemetry.busiest_links() == vec.telemetry.busiest_links()
        assert ref.telemetry.idle_links() == vec.telemetry.idle_links()

    # A flow with no bytes takes a share in its instant's solve and
    # completes in it; the network settles again, so the flows solved
    # with it get its share back at that instant, as an eager network
    # re-solving at each change gives them.
    @given(flow_schedules())
    @settings(max_examples=150, deadline=None)
    def test_settled_records_equal_eager(self, schedule):
        eager = _run_flow_schedule(CountingEagerFlowNetwork, schedule)
        settled = _run_flow_schedule(CountingFlowNetwork, schedule)
        assert _timeline(eager) == _timeline(settled)  # exact floats
        assert settled.rate_computations <= eager.rate_computations

    @given(flow_schedules())
    @settings(max_examples=100, deadline=None)
    def test_settled_telemetry_equals_eager(self, schedule):
        eager = _run_flow_schedule(CountingEagerInstrumentedNetwork, schedule)
        settled = _run_flow_schedule(CountingInstrumentedNetwork, schedule)
        assert _timeline(eager) == _timeline(settled)
        for link in schedule[0]:
            assert eager.telemetry.samples(link) == settled.telemetry.samples(link)
        assert settled.rate_computations <= eager.rate_computations

    def test_one_rate_computation_per_instant(self):
        # Four flows injected in one handler settle once; the eager
        # network computes rates at each injection.
        for cls, expected in (
            (CountingFlowNetwork, 1),
            (CountingEagerFlowNetwork, 4),
        ):
            engine = EventEngine()
            network = cls(engine, {"a": 4.0, "b": 4.0})
            for i in range(4):
                network.inject(Flow(f"f{i}", ("a", "b"), 4.0 * (i + 1)))
            engine.next_event_time()
            assert network.rate_computations == expected

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_zeroed_cap_error_parity_via_network(self, kernel):
        engine = EventEngine()
        network = NETWORKS[kernel](engine, {"a": 4.0})
        network.inject(Flow("f0", ("a",), 8.0))
        flow = Flow("f1", ("a",), 8.0, demand_bytes_per_s=1.0)
        flow.demand_bytes_per_s = 0.0  # mutate past validation
        with pytest.raises(ValueError, match="non-positive demand cap"):
            network.inject(flow)

    @pytest.mark.parametrize("kernel", IMPLEMENTATIONS)
    def test_unknown_link_error_parity_via_network(self, kernel):
        engine = EventEngine()
        network = NETWORKS[kernel](engine, {"a": 4.0})
        with pytest.raises(KeyError, match="uses unknown link 'ghost'"):
            network.inject(Flow("f0", ("a", "ghost"), 8.0))

    def test_capacity_added_mid_run_is_picked_up(self):
        # The cached LinkSpace must rebuild when the universe changes.
        engine = EventEngine()
        network = FlowNetwork(engine, {"a": 4.0})
        network.inject(Flow("f0", ("a",), 4.0))
        network.capacities["b"] = 2.0
        network.inject(Flow("f1", ("b",), 2.0))
        horizon = network.run_until_idle()
        assert horizon == 1.0

    def test_capacity_swapped_mid_run_is_picked_up(self):
        # Same number of links, different links: the index must rebuild.
        engine = EventEngine()
        network = FlowNetwork(engine, {"a": 4.0})
        network.inject(Flow("f0", ("a",), 4.0))
        network.run_until_idle()
        del network.capacities["a"]
        network.capacities["b"] = 2.0
        network.inject(Flow("f1", ("b",), 2.0))
        assert network.run_until_idle() == 2.0


class SolveRecordingFlowNetwork(FlowNetwork):
    """Records the flow ids of every rate computation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solves = []

    def _compute_rates(self, flows):
        self.solves.append([f.flow_id for f in flows])
        super()._compute_rates(flows)


def _run_cap_edit(cls, demand):
    """f0 (capped) and h share L, g has M; f0's cap becomes ``demand`` at
    1 s, and g2 joins M at 2 s, a change that touches only M."""
    engine = EventEngine()
    network = cls(engine, {"L": 1.0, "M": 1.0})
    f0 = Flow("f0", ("L",), 10.0, demand_bytes_per_s=0.2)
    for flow in (f0, Flow("h", ("L",), 10.0), Flow("g", ("M",), 10.0)):
        network.inject(flow)
    engine.run(until_s=1.0)
    f0.demand_bytes_per_s = demand
    engine.schedule_at(2.0, lambda: network.inject(Flow("g2", ("M",), 1.0)))
    engine.run(until_s=2.0)
    rate = f0.rate_bytes_per_s
    network.run_until_idle()
    return network, rate


class TestComponentSettle:
    """A settle re-solves only the touched flow–link components and arms
    one completion event, with the whole-solve network's results."""

    @given(flow_schedules())
    @settings(max_examples=200, deadline=None)
    def test_records_equal_whole_solve(self, schedule):
        whole = _run_flow_schedule(WholeSolveFlowNetwork, schedule)
        settled = _run_flow_schedule(FlowNetwork, schedule)
        assert _timeline(whole) == _timeline(settled)  # exact floats
        assert whole.engine.processed == settled.engine.processed

    @given(flow_schedules())
    @settings(max_examples=150, deadline=None)
    def test_telemetry_equals_whole_solve(self, schedule):
        whole = _run_flow_schedule(WholeSolveInstrumentedNetwork, schedule)
        settled = _run_flow_schedule(InstrumentedNetwork, schedule)
        assert _timeline(whole) == _timeline(settled)
        for link in schedule[0]:
            assert whole.telemetry.samples(link) == settled.telemetry.samples(link)
        assert whole.engine.processed == settled.engine.processed

    def test_capped_population_solved_whole(self):
        # g settles alone; at 1 s the capped flows join L, a change that
        # touches only L's component. Solving it alone would give h
        # 0.7000000000000001.
        caps, flows = CAPPED_COUPLING
        networks = []
        for cls in (SolveRecordingFlowNetwork, WholeSolveFlowNetwork):
            engine = EventEngine()
            network = cls(engine, caps)
            *on_l, g = _build(flows)
            network.inject(g)
            engine.schedule_at(1.0, lambda: [network.inject(f) for f in on_l])
            engine.run(until_s=1.0)
            assert on_l[2].rate_bytes_per_s == 0.7
            network.run_until_idle()
            networks.append(network)
        settled, whole = networks
        assert settled.solves[1] == ["g", "f0", "f1", "h"]
        assert _timeline(settled) == _timeline(whole)

    @pytest.mark.parametrize("demand", [None, 0.4])
    def test_cap_edit_on_untouched_flow_is_picked_up(self, demand):
        # f0's cap changes (or goes) while only M's component changes;
        # while a cap is or was in play the whole population is solved.
        settled, rate = _run_cap_edit(SolveRecordingFlowNetwork, demand)
        whole, whole_rate = _run_cap_edit(WholeSolveFlowNetwork, demand)
        assert rate == whole_rate == (0.5 if demand is None else 0.4)
        assert settled.solves[1] == ["f0", "h", "g", "g2"]
        assert _timeline(settled) == _timeline(whole)

    def test_private_completion_solves_nothing(self, monkeypatch):
        calls = []
        kernel = network_module.waterfill_rates

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(network_module, "waterfill_rates", counting)
        engine = EventEngine()
        network = FlowNetwork(engine, {"a": 10.0, "b": 10.0})
        network.inject(Flow("short", ("a",), 10.0))
        network.inject(Flow("long", ("b",), 100.0))
        assert engine.next_event_time() == 1.0
        assert len(calls) == 1
        engine.step()  # "short" completes; nothing shares its link
        assert engine.next_event_time() == 10.0
        assert len(calls) == 1
        assert network.run_until_idle() == 10.0

    def test_armed_event_keeps_its_place_among_callbacks(self):
        # y's sliver finishes "now" (1.0 + 2e-300 == 1.0) and y precedes
        # x, which completes inline and frees its share: the network
        # settles again and re-arms y's event, whose place is then after
        # x's callback on both networks, so y is still active when the
        # callback runs.
        for cls in (FlowNetwork, WholeSolveFlowNetwork):
            engine = EventEngine()
            network = cls(engine, {"a": 1.0})
            seen = []

            def inject_both():
                network.inject(Flow("y", ("a",), 1e-300))
                network.inject(
                    Flow("x", ("a",), 0.0),
                    on_complete=lambda r: seen.append(network.active_flow_count()),
                )

            engine.schedule_at(1.0, inject_both)
            engine.run()
            assert seen == [1]
            assert [r.finish_s for r in network.records] == [1.0, 1.0]

    def test_one_completion_event_per_network(self):
        for cls, pending in ((FlowNetwork, 1), (WholeSolveFlowNetwork, 3)):
            engine = EventEngine()
            network = cls(engine, {"a": 1.0, "b": 2.0, "c": 4.0})
            for link in ("a", "b", "c"):
                network.inject(Flow(link, (link,), 8.0))
            assert engine.next_event_time() == 2.0
            assert engine.pending == pending


class TestLinkTelemetryRegression:
    def test_unknown_link_record_raises(self):
        telemetry = LinkTelemetry(capacities={"a": 1.0})
        with pytest.raises(KeyError, match="no registered capacity"):
            telemetry.record(0.0, 1.0, {"a": 0.5, "ghost": 1.0})
        # The failed record must not have been partially applied.
        assert telemetry.samples("a") == ()
        assert telemetry.carried_bytes("a") == 0

    def test_negative_interval_raises(self):
        telemetry = LinkTelemetry(capacities={"a": 1.0})
        with pytest.raises(ValueError, match="interval end precedes start"):
            telemetry.record(2.0, 1.0, {"a": 0.5})

    def test_zero_interval_is_noop(self):
        telemetry = LinkTelemetry(capacities={"a": 1.0})
        telemetry.record(1.0, 1.0, {"a": 0.5})
        assert telemetry.samples("a") == ()

    def test_unused_link_carries_int_zero(self):
        telemetry = LinkTelemetry(capacities={"a": 1.0})
        carried = telemetry.carried_bytes("a")
        assert carried == 0
        assert isinstance(carried, int)  # sum(()) == 0 semantics preserved

    def test_incremental_totals_match_sample_sum(self):
        telemetry = LinkTelemetry(capacities={"a": 1.0, "b": 2.0})
        telemetry.record(0.0, 1.0, {"a": 0.5, "b": 1.5})
        telemetry.record(1.0, 3.0, {"a": 0.25})
        for link in ("a", "b"):
            assert telemetry.carried_bytes(link) == sum(
                s.carried_bytes for s in telemetry.samples(link)
            )

    def test_idle_links_relative_tolerance(self):
        telemetry = LinkTelemetry(capacities={"busy": 1.0, "drift": 1.0})
        telemetry.record(0.0, 1.0, {"busy": 1e9})
        telemetry.record(0.0, 1.0, {"drift": 1e-12})
        assert telemetry.idle_links() == ["drift"]
        assert telemetry.idle_links(tolerance=1e-25) == []


# -- session integration -------------------------------------------------------


@contextlib.contextmanager
def _kernel_backend(name, waterfills=0, before=None):
    """Register a backend whose ``capabilities`` output calls
    ``max_min_rates`` ``waterfills`` times (after ``before()``, if
    given); yields a spec that selects it."""

    class KernelCalling:
        def capability_rows(self, session, spec):
            if before is not None:
                before()
            for _ in range(waterfills):
                max_min_rates(_build([("f0", ("L0",), None)]), {"L0": 1.0})
            return (("kernel", "calls"),)

    KernelCalling.name = name
    register_backend(name, KernelCalling)
    try:
        yield ScenarioSpec(fabric=name, outputs=("capabilities",))
    finally:
        unregister_backend(name)


def _repair_spec():
    return ScenarioSpec(
        fabric="electrical",
        slices=figure6_slices(),
        outputs=("repair",),
        failures=FailurePlan(failed_chips=((1, 2, 0),)),
    )


class TestSessionKernelIntegration:
    def test_invalid_kernel_rejected(self):
        # Sessions take no kernel argument at all.
        for kernel in ("simd", "vectorized"):
            with pytest.raises(TypeError, match="kernel"):
                FabricSession(kernel=kernel)

    def test_kernel_stats_reported_to_metrics(self):
        registry = MetricsRegistry()
        session = FabricSession(metrics=registry)
        session.run(_repair_spec())
        assert "kernel.repair.calls" in registry
        assert "kernel.repair.seconds" in registry
        assert registry.counter("kernel.repair.calls").value > 0
        kernel_names = [n for n in registry.names() if n.startswith("kernel.")]
        assert kernel_names == ["kernel.repair.calls", "kernel.repair.seconds"]

    def test_kernel_stats_global_accumulator(self):
        """There is no process-wide accumulator: a kernel call outside
        any session records nothing and raises nothing."""
        assert not hasattr(repro.kernels, "STATS")
        rates = max_min_rates(_build([("f0", ("L0",), None)]), {"L0": 1.0})
        assert rates == {"f0": 1.0}

    def test_kernel_time_counted_per_evaluation(self):
        """A session takes credit only for the kernel calls its own
        evaluation makes: session A runs no kernel and waits while
        session B, on this thread, charges two water-filling calls."""
        entered, release = threading.Event(), threading.Event()
        a_metrics, b_metrics = MetricsRegistry(), MetricsRegistry()
        a_tracer = Tracer("a", clock=time.time)

        def wait_for_b():
            entered.set()
            assert release.wait(10)

        with _kernel_backend("waits", before=wait_for_b) as a_spec, \
                _kernel_backend("fills", waterfills=2) as b_spec:
            a_session = FabricSession(metrics=a_metrics, runtime=a_tracer)
            a_thread = threading.Thread(target=a_session.run, args=(a_spec,))
            a_thread.start()
            assert entered.wait(10)
            FabricSession(metrics=b_metrics).run(b_spec)
            release.set()
            a_thread.join(10)
        assert not a_thread.is_alive()
        assert a_session.runs_executed == 1
        assert b_metrics.counter("kernel.waterfill.calls").value == 2
        assert [n for n in a_metrics.names() if n.startswith("kernel.")] == []
        (evaluate,) = [s for s in a_tracer.spans("session") if s.name == "session.evaluate"]
        assert [k for k, _ in evaluate.args if k.startswith("kernel.")] == []

    def test_kernel_time_per_evaluation_under_thread_churn(self):
        """More sessions than cores, switching threads every microsecond:
        each registry counts exactly its own evaluation's calls."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with contextlib.ExitStack() as stack:
                specs = [
                    stack.enter_context(_kernel_backend(f"fills-{n}", waterfills=n))
                    for n in range(1, 7)
                ]
                registries = [MetricsRegistry() for _ in specs]
                threads = [
                    threading.Thread(
                        target=FabricSession(metrics=registry).run, args=(spec,)
                    )
                    for registry, spec in zip(registries, specs)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        calls = [r.counter("kernel.waterfill.calls").value for r in registries]
        assert calls == [1, 2, 3, 4, 5, 6]
