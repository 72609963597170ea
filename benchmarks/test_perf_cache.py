"""Disk-cache put-path performance: amortized eviction at the cap.

A capped :class:`~repro.api.cache.DiskResultCache` used to rescan the
whole store on *every* put once any cap was set, so put latency grew
linearly with occupancy. The amortized scheme keeps approximate
entry/byte counters and only rescans when a counter trips the cap, then
evicts down to a low watermark (``cap - cap//8``) so the next ~cap/8
puts are scan-free. These benches write far past the cap and assert the
mechanism (scan count stays ~puts/(cap/8), occupancy stays bounded)
and report the resulting flat per-put cost.
"""

import time

from _helpers import emit
from repro.api import (
    DiskResultCache,
    FabricSession,
    ScenarioSpec,
    SliceSpec,
)

CAP = 64
PUTS = 512  # 8x the cap: the old scheme would pay ~448 full rescans


def _result():
    spec = ScenarioSpec(
        fabric="electrical",
        slices=(SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),),
        outputs=("costs",),
    )
    return FabricSession().run(spec)


def _keys(n, tag):
    return [f"{i:016x}" + tag * 48 for i in range(n)]


def test_capped_put_latency_flat(tmp_path):
    """Put cost at the cap is amortized: ~1 scan per cap/8 puts.

    Timed with ``time.perf_counter`` rather than the ``benchmark``
    fixture, whose stats are absent under ``--benchmark-disable``."""
    result = _result()
    cache = DiskResultCache(tmp_path, max_entries=CAP)
    keys = _keys(PUTS, "a")

    started = time.perf_counter()
    for key in keys:
        cache.put(key, result)
    fill_s = time.perf_counter() - started
    stats = cache.cache_stats()
    # One seed scan + one per watermark refill cycle — not one per put.
    assert 1 <= stats["prune_scans"] <= PUTS // (CAP // 8) + 4
    # Occupancy oscillates between the watermark and the cap.
    assert CAP - CAP // 8 <= stats["entries"] <= CAP
    per_put_ms = fill_s / PUTS * 1e3
    emit(
        "Disk cache — capped put path",
        f"{PUTS} puts into a max_entries={CAP} cache: "
        f"{per_put_ms:.3f} ms/put, {stats['prune_scans']} scans "
        f"({PUTS / stats['prune_scans']:.0f} puts/scan), "
        f"{stats['evictions']} evictions, "
        f"{stats['entries']} entries resident",
    )


def test_capped_put_overhead_vs_uncapped(benchmark, tmp_path):
    """The cap's steady-state overhead over an unbounded cache is small."""
    result = _result()
    uncapped = DiskResultCache(tmp_path / "uncapped")
    capped = DiskResultCache(tmp_path / "capped", max_entries=CAP)
    for key in _keys(2 * CAP, "b"):  # past the cap: steady state
        capped.put(key, result)
    keys = _keys(PUTS, "c")

    def put_both():
        for key in keys:
            uncapped.put(key, result)
        for key in keys:
            capped.put(key, result)

    benchmark.pedantic(put_both, rounds=1, iterations=1)
    assert capped.cache_stats()["entries"] <= CAP
    assert uncapped.prune_scans == 0
    emit(
        "Disk cache — cap overhead",
        f"{PUTS} puts each: uncapped pays no scans, capped paid "
        f"{capped.prune_scans} scans total while holding "
        f"occupancy <= {CAP} across {2 * CAP + PUTS} writes",
    )
