"""Inputs of every workload, as pure functions of the seed.

Specs are drawn from fixed pools, each entry named by a label of the
benchmark's own (not the program's cache key), so ``digests.json`` can
record the expected result of every spec any seed can produce.

``sweep_cold`` runs cycles of 60 distinct specs with the same make-up, so
a run can report the median over cycles: 24 closed-form (40%), 24 repair
(40%) and 12 sim-mode (20%). Each label falls in a cost class
(:func:`cost_class`); ``rationale.json`` records each class's measured
median, and sorted by it a cycle holds 24 closed-form specs (under 2 ms),
12 electrical repairs at 4 hops of a chip in the 16-chip slice (about 5
ms, the repair kernel), 6 photonic repairs (about 8 ms, no kernel) and 6
electrical repairs at 5 hops (about 11 ms), two per tenant slice, 2
single-tenant 4x2x1 sim-mode specs (about 20-40 ms), 8 copies of one
single-tenant 4x4x1 sim-mode spec (about 50 ms, water-filling) and 2
heavy sim-mode specs, a 4x4x2 single-tenant slice (about 1.2 s) and the
multi-tenant Figure 5b rack (about 4 s), on fabrics that swap each
cycle. The p50 rank (30)
falls on the sixth of the 4-hop repairs and the p90 rank (54) on the
fourth of the 4x4x1 copies, so neither sits within three ranks of a
boundary between cost classes, nor between shapes or slices of different
cost. The seed picks which closed-form shapes and failed chips appear,
and the order in each cycle.
"""

from __future__ import annotations

import itertools
import random

from repro.api import (
    FailurePlan,
    FleetPlan,
    ScenarioSpec,
    SliceSpec,
    TenancyPlan,
    figure5b_slices,
    figure6_slices,
    table1_slices,
    table2_slices,
)

FABRICS = ("electrical", "photonic")
LAYOUTS = {
    "t1": table1_slices(),
    "t2": table2_slices(),
    "f5b": figure5b_slices(),
    "f6": figure6_slices(),
    "s442": (SliceSpec("Slice-4", (4, 4, 2), (0, 0, 1)),),
}
CLOSED_FORM_OUTPUTS = {
    "costs": ("costs",),
    "util": ("utilization",),
    "caps": ("capabilities",),
    "cong": ("congestion",),
    "all": ("costs", "utilization", "capabilities", "congestion"),
}
SIM_OUTPUTS = {
    "tel": ("telemetry",),
    "link": ("link_utilization",),
}
#: Closed-form specs per cycle, out of 40 shapes.
CLOSED_FORM_PER_CYCLE = 24
#: Tenant slices of the Figure 6a/7 rack, by name.
F6_SLICES = tuple(entry.name for entry in figure6_slices())
#: Repair specs per cycle: (fabric, max hops, the tenant slice whose chips
#: fail, count). An electrical repair's cost follows the failed chip's
#: slice (about 4, 5 and 7 ms at 4 hops for the 8-, 16- and 32-chip
#: slices), so the 4-hop repairs that hold the p50 rank all fail a chip of
#: one slice, where a random mix of slices put the rank between two of
#: them; the others take two chips of each slice. The photonic backend
#: ignores ``max_hops``.
REPAIR_MIX = (
    ("electrical", 4, "Slice-3", 12),
    *(("photonic", 5, name, 2) for name in F6_SLICES),
    *(("electrical", 5, name, 2) for name in F6_SLICES),
)
#: Single-tenant sim-mode specs of each cycle: (layout, fabric, outputs,
#: copies). Copies differ only in buffer size. The p90 rank lands on the
#: copies of one 4x4x1 shape: with several 4x4x1 shapes of different
#: cost it fell between two of them.
SIM_MIX = (
    ("t1", "electrical", "tel", 1),
    ("t1", "photonic", "link", 1),
    ("t2", "photonic", "tel", 8),
)
#: Label parts that name a label's cost class, by its first part
#: (repairs add the failed chip's slice, see :func:`cost_class`).
_CLASS_PARTS = {"cf": 1, "repair": 3, "sim": 4, "heavy": 2, "tenancy": 2, "fleet": 2}
#: Cycles a sweep may run at most (the digest table covers this many).
MAX_CYCLES = 10
#: Planned seconds per cycle on a 2-vCPU reference host; sizes the sweep.
CYCLE_SECONDS = 6.0


def _buffer(variant: int) -> int:
    """Buffer sizes near the 64 MiB default; distinct variants keep specs
    of the same shape distinct without changing their cost."""
    return (1 << 26) + variant * (1 << 20)


def f6_chips(slice_name: str | None = None) -> list[tuple[int, ...]]:
    """Every chip of a tenant slice in the Figure 6a/7 rack (of the named
    slice only, when given)."""
    chips = []
    for entry in figure6_slices():
        if slice_name not in (None, entry.name):
            continue
        sx, sy, sz = entry.shape
        ox, oy, oz = entry.offset
        chips.extend(
            (ox + x, oy + y, oz + z)
            for x in range(sx)
            for y in range(sy)
            for z in range(sz)
        )
    return chips


def closed_form_spec(layout: str, fabric: str, outputs: str, variant: int) -> ScenarioSpec:
    return ScenarioSpec(
        fabric=fabric,
        slices=LAYOUTS[layout],
        outputs=CLOSED_FORM_OUTPUTS[outputs],
        buffer_bytes=_buffer(variant),
    )


def repair_spec(fabric: str, chip: tuple[int, ...], hops: int, outputs=("repair",),
                variant: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        fabric=fabric,
        slices=figure6_slices(),
        outputs=outputs,
        failures=FailurePlan(failed_chips=(chip,), max_hops=hops),
        buffer_bytes=_buffer(variant),
    )


def sim_spec(layout: str, fabric: str, outputs: tuple[str, ...], variant: int) -> ScenarioSpec:
    return ScenarioSpec(
        fabric=fabric,
        slices=LAYOUTS[layout],
        mode="sim",
        outputs=outputs,
        buffer_bytes=_buffer(variant),
    )


def _label(*parts) -> str:
    return "/".join(str(p) for p in parts)


def _repair_variants(chips: list, count: int) -> int:
    """Buffer-size variants per failed chip, so that :data:`MAX_CYCLES`
    cycles of ``count`` repairs never repeat a spec."""
    return -(-count * MAX_CYCLES // len(chips))


def cost_class(label: str) -> str:
    """The cost class of a label: its kind, plus what sets its cost
    (fabric, hops and the failed chip's slice for a repair; layout,
    fabric and outputs for single-tenant sim-mode; layout for heavy)."""
    parts = label.split("/")
    name = "/".join(parts[:_CLASS_PARTS[parts[0]]])
    if parts[0] == "repair":
        chip = tuple(int(p) for p in parts[3:6])
        name += "/" + next(slice_name for slice_name in F6_SLICES if chip in f6_chips(slice_name))
    return name


def sweep_pool() -> dict[str, ScenarioSpec]:
    """Every spec ``sweep_cold`` can draw, by label."""
    pool: dict[str, ScenarioSpec] = {}
    for cycle in range(MAX_CYCLES):
        for layout in ("t1", "t2", "f5b", "f6"):
            for fabric in FABRICS:
                for outputs in CLOSED_FORM_OUTPUTS:
                    pool[_label("cf", layout, fabric, outputs, cycle)] = closed_form_spec(
                        layout, fabric, outputs, cycle
                    )
        for layout, fabric, name, copies in SIM_MIX:
            for copy in range(copies):
                pool[_label("sim", layout, fabric, name, copy, cycle)] = sim_spec(
                    layout, fabric, SIM_OUTPUTS[name], cycle * copies + copy
                )
        for layout, fabric in _heavy(cycle):
            pool[_label("heavy", layout, fabric, cycle)] = sim_spec(
                layout, fabric, ("telemetry",), cycle
            )
    for fabric, hops, slice_name, count in REPAIR_MIX:
        chips = f6_chips(slice_name)
        for chip in chips:
            for variant in range(_repair_variants(chips, count)):
                pool[_label("repair", fabric, hops, *chip, variant)] = repair_spec(
                    fabric, chip, hops, variant=variant
                )
    return pool


def _heavy(cycle: int) -> tuple[tuple[str, str], ...]:
    """The heavy specs of a cycle: both layouts, on fabrics that swap."""
    first, second = FABRICS if cycle % 2 == 0 else FABRICS[::-1]
    return (("s442", first), ("f5b", second))


def sweep_cycles(seconds: float) -> int:
    """Cycles that fill about ``seconds``."""
    return min(MAX_CYCLES, max(1, round(seconds / CYCLE_SECONDS)))


def sweep_labels(seed: int, cycles: int) -> list[list[str]]:
    """The labels ``sweep_cold`` evaluates, cycle by cycle; no label
    repeats."""
    rng = random.Random(f"sweep_cold:{seed}")
    cf_shapes = [
        (layout, fabric, outputs)
        for layout in ("t1", "t2", "f5b", "f6")
        for fabric in FABRICS
        for outputs in CLOSED_FORM_OUTPUTS
    ]
    # Each repair entry fails every chip of its slice once, in a seeded
    # order, before any chip fails again (with the next buffer variant).
    repair = []
    for fabric, hops, slice_name, count in REPAIR_MIX:
        chips = f6_chips(slice_name)
        draws = iter([
            (chip, variant)
            for variant in range(_repair_variants(chips, count))
            for chip in rng.sample(chips, len(chips))
        ])
        repair.append((fabric, hops, count, draws))
    labels: list[list[str]] = []
    for cycle in range(cycles):
        block = [
            _label("cf", *shape, cycle)
            for shape in rng.sample(cf_shapes, CLOSED_FORM_PER_CYCLE)
        ]
        for fabric, hops, count, draws in repair:
            for chip, variant in itertools.islice(draws, count):
                block.append(_label("repair", fabric, hops, *chip, variant))
        block.extend(
            _label("sim", layout, fabric, name, copy, cycle)
            for layout, fabric, name, copies in SIM_MIX
            for copy in range(copies)
        )
        block.extend(_label("heavy", layout, fabric, cycle) for layout, fabric in _heavy(cycle))
        rng.shuffle(block)
        labels.append(block)
    return labels


# -- serve_warm ---------------------------------------------------------------------

#: Distinct scenarios the serving working set holds.
WORKING_SET = 50
#: Working-set members of each kind (the rest are Figure 5b closed-form).
WORKING_SET_REPAIR = 32


def serve_pool() -> dict[str, ScenarioSpec]:
    """Paper scenarios with 3-5 KB response bodies: Figure 6a/7 repairs
    with costs, utilization and congestion, and Figure 5b closed-form
    reports with every closed-form section."""
    pool = {}
    for fabric in FABRICS:
        for chip in f6_chips():
            pool[_label("repair", fabric, *chip)] = repair_spec(
                fabric, chip, 5, ("repair", "costs", "utilization", "congestion")
            )
        for variant in range(16):
            pool[_label("f5b", fabric, variant)] = closed_form_spec(
                "f5b", fabric, "all", variant
            )
    return pool


def serve_working_set(seed: int) -> list[str]:
    """The working set, most popular first."""
    rng = random.Random(f"serve_warm:set:{seed}")
    pool = sorted(serve_pool())
    repair = [label for label in pool if label.startswith("repair/")]
    f5b = [label for label in pool if label.startswith("f5b/")]
    chosen = rng.sample(repair, WORKING_SET_REPAIR) + rng.sample(
        f5b, WORKING_SET - WORKING_SET_REPAIR
    )
    rng.shuffle(chosen)
    return chosen


def zipf_requests(seed: int, stream: str, count: int, items: int) -> list[int]:
    """``count`` working-set indices with Zipf(1) popularity."""
    rng = random.Random(f"serve_warm:{stream}:{seed}")
    weights = [1.0 / (rank + 1) for rank in range(items)]
    return rng.choices(range(items), weights=weights, k=count)


# -- sim_churn ----------------------------------------------------------------------

#: Simulation seeds, one per round: a run of 30 s or more runs every one
#: of them (in an order ``--seed`` picks), so every run does the same
#: work. With simulation seeds drawn per run, a run's work followed the
#: draw: a tenancy spec processes 1,300-1,700 events by seed.
SIM_SEEDS = 6
TENANCY_POLICIES = ("first-fit", "best-fit", "defrag")
FLEET_POLICIES = ("immediate", "batched")
#: Simulated span of a tenancy spec at the default 1500 arrivals/day and
#: 20-minute mean job: six hours, of which the first fills the 4-rack
#: cluster to its steady occupancy (about 70%, with jobs queueing).
TENANCY_DAYS = 0.25
#: Racks of a fleet spec (1024 chips), simulated for a year at a 0.5-year
#: MTBF, ten times the default failure rate.
FLEET_RACKS = 16


def sim_pool() -> dict[str, ScenarioSpec]:
    pool = {}
    for plan_seed in range(SIM_SEEDS):
        for policy in TENANCY_POLICIES:
            pool[_label("tenancy", policy, plan_seed)] = ScenarioSpec(
                fabric="photonic",
                outputs=("tenancy",),
                tenancy=TenancyPlan(days=TENANCY_DAYS, seed=plan_seed, policy=policy),
            )
        for policy in FLEET_POLICIES:
            pool[_label("fleet", policy, plan_seed)] = ScenarioSpec(
                fabric="photonic",
                outputs=("fleet",),
                fleet=FleetPlan(
                    days=365.0, seed=plan_seed, policy=policy, mtbf_years=0.5,
                    racks=FLEET_RACKS,
                ),
            )
    return pool


#: Planned seconds per round on a 2-vCPU reference host.
ROUND_SECONDS = 5.0


def sim_rounds(seconds: float) -> int:
    return min(SIM_SEEDS, max(1, round(seconds / ROUND_SECONDS)))


def sim_labels(seed: int, rounds: int) -> list[list[str]]:
    """Per round, one tenancy spec per placement policy and one fleet spec
    per repair policy, all at one simulation seed; ``seed`` picks the
    order of the rounds (each at a simulation seed of its own) and the
    order inside each."""
    rng = random.Random(f"sim_churn:{seed}")
    labels = []
    for plan_seed in rng.sample(range(SIM_SEEDS), rounds):
        block = [_label("tenancy", p, plan_seed) for p in TENANCY_POLICIES]
        block += [_label("fleet", p, plan_seed) for p in FLEET_POLICIES]
        rng.shuffle(block)
        labels.append(block)
    return labels
