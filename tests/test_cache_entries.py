"""Golden bytes of ``DiskResultCache`` entries, one per result section.

Every CLI and HTTP output sorts its keys, but a cache entry is
``RunResult.to_json()`` as written, so its key order is part of the
on-disk format. ``tests/golden/cache_entries.jsonl`` holds one entry per
section kind, from small specs; each test re-evaluates the spec stored
in the line and compares bytes.

Re-record (only for a declared format change)::

    PYTHONPATH=src python -m tests.test_cache_entries
"""

from pathlib import Path

import pytest

from repro.api import (
    DeviceSpec,
    FailurePlan,
    FleetPlan,
    RunResult,
    ScenarioSpec,
    SliceSpec,
    TenancyPlan,
    figure5b_slices,
    figure6_slices,
    run,
    table1_slices,
)

GOLDEN = Path(__file__).parent / "golden" / "cache_entries.jsonl"

#: A single 4x2x1 slice keeps the trace entry small (Figure 5b's trace
#: alone is about 450 KB).
_SMALL = (SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),)
_FAILED = FailurePlan(failed_chips=((1, 1, 0),), max_hops=2)

#: (label, spec) per section kind, in golden-file order.
CACHE_ENTRY_SPECS = (
    ("capabilities", ScenarioSpec(outputs=("capabilities",))),
    ("costs", ScenarioSpec(slices=table1_slices(), outputs=("costs",))),
    ("utilization", ScenarioSpec(
        slices=figure5b_slices(), outputs=("utilization",))),
    ("congestion", ScenarioSpec(
        fabric="electrical", slices=figure5b_slices(),
        outputs=("congestion",))),
    ("telemetry-torus", ScenarioSpec(
        slices=table1_slices(), mode="sim", outputs=("telemetry",))),
    ("telemetry-switched", ScenarioSpec(
        fabric="switched", slices=table1_slices(), mode="sim",
        outputs=("telemetry", "congestion"))),
    ("link_utilization", ScenarioSpec(
        fabric="electrical", rack_shape=(4, 4, 1),
        slices=(SliceSpec("Slice-1", (4, 2, 1), (0, 0, 0)),), mode="sim",
        outputs=("link_utilization",))),
    ("repair-optical", ScenarioSpec(
        slices=figure6_slices(), outputs=("repair",), failures=_FAILED)),
    ("repair-electrical", ScenarioSpec(
        fabric="electrical", slices=figure6_slices(), outputs=("repair",),
        failures=_FAILED)),
    ("blast_radius", ScenarioSpec(
        slices=figure6_slices(), outputs=("blast_radius",),
        failures=FailurePlan(
            failed_chips=((1, 1, 0),), fleet_days=30.0, seed=7))),
    ("device", ScenarioSpec(
        outputs=("device",),
        device=DeviceSpec(
            mzi_samples=64, stitch_samples=400, stitch_bins=6))),
    ("trace", ScenarioSpec(
        slices=_SMALL, mode="sim", outputs=("trace",))),
    ("metrics", ScenarioSpec(
        slices=_SMALL, mode="sim", outputs=("costs", "metrics"))),
    ("fleet", ScenarioSpec(
        outputs=("fleet",),
        fleet=FleetPlan(days=30.0, seed=3, racks=2, series_points=4))),
    ("tenancy", ScenarioSpec(
        outputs=("tenancy",),
        tenancy=TenancyPlan(
            days=0.05, seed=3, racks=1, series_points=4))),
)


def record(path: Path = GOLDEN) -> None:
    """Write one ``to_json()`` line per spec."""
    lines = [run(spec).to_json() for _, spec in CACHE_ENTRY_SPECS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _golden_lines() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_one_line_per_section_kind():
    lines = _golden_lines()
    assert len(lines) == len(CACHE_ENTRY_SPECS)
    for line, (label, spec) in zip(lines, CACHE_ENTRY_SPECS):
        assert RunResult.from_json(line).spec == spec, label


@pytest.mark.parametrize(
    "index", range(len(CACHE_ENTRY_SPECS)),
    ids=[label for label, _ in CACHE_ENTRY_SPECS],
)
def test_entry_bytes_unchanged(index):
    _, spec = CACHE_ENTRY_SPECS[index]
    assert run(spec).to_json() == _golden_lines()[index]


@pytest.mark.parametrize(
    "index", range(len(CACHE_ENTRY_SPECS)),
    ids=[label for label, _ in CACHE_ENTRY_SPECS],
)
def test_entry_decodes_and_reencodes_to_itself(index):
    line = _golden_lines()[index]
    assert RunResult.from_json(line).to_json() == line


if __name__ == "__main__":
    record()
