"""Tests for the content-addressed result caches."""

import json
import os
import threading

import pytest

import repro
from repro.api import (
    DiskResultCache,
    FabricSession,
    FleetPlan,
    MemoryResultCache,
    NullResultCache,
    ScenarioSpec,
    SliceSpec,
    TenancyPlan,
    code_fingerprint,
    default_cache_dir,
    run_many,
    spec_key,
    tier_cache_stats,
)


def small_spec(**overrides):
    defaults = dict(
        fabric="electrical",
        slices=(SliceSpec("Slice-1", (4, 2, 1), (0, 0, 3)),),
        outputs=("costs",),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecKey:
    def test_equal_specs_share_a_key(self):
        assert spec_key(small_spec()) == spec_key(small_spec())

    def test_key_depends_on_contents(self):
        assert spec_key(small_spec()) != spec_key(
            small_spec(buffer_bytes=1 << 20)
        )
        assert spec_key(small_spec()) != spec_key(small_spec(fabric="photonic"))

    def test_key_is_stable_across_processes(self):
        # The documented contract: the key is a pure content hash, so it
        # must match a freshly serialized recomputation (no id()/hash()
        # randomness can leak in).
        import hashlib

        spec = small_spec()
        canonical = json.dumps(
            spec.to_dict(), sort_keys=True, separators=(",", ":")
        )
        expected = hashlib.sha256(canonical.encode()).hexdigest()
        assert spec_key(spec) == expected

    def test_round_tripped_spec_keeps_its_key(self):
        spec = small_spec()
        assert spec_key(ScenarioSpec.from_json(spec.to_json())) == spec_key(spec)


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro"


class TestDiskResultCache:
    def evaluated(self):
        session = FabricSession()
        spec = small_spec()
        return spec, session.run(spec)

    def test_round_trip(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        assert cache.get(key) is None
        cache.put(key, result)
        restored = cache.get(key)
        assert restored is not None
        assert restored.to_json() == result.to_json()

    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        cache.put(key, result)
        path = cache._path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()  # dropped so the next put rewrites it
        cache.put(key, result)
        assert cache.get(key).to_json() == result.to_json()

    def test_entry_nested_too_deep_is_a_miss(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        cache.put(key, result)
        path = cache._path(key)
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "spec, count",
        [
            (
                ScenarioSpec(
                    fabric="photonic",
                    outputs=("fleet",),
                    fleet=FleetPlan(days=30.0, racks=2, mtbf_years=0.1, seed=3),
                ),
                ("fleet", "failures"),
            ),
            (
                ScenarioSpec(
                    fabric="photonic",
                    outputs=("tenancy",),
                    tenancy=TenancyPlan(days=0.05, racks=1, seed=3),
                ),
                ("tenancy", "arrivals"),
            ),
        ],
        ids=["fleet-failures", "tenancy-arrivals"],
    )
    def test_entry_breaking_a_count_identity_is_a_miss(self, tmp_path, spec, count):
        # failures = repairs + unrepaired and arrivals = placed +
        # rejected + queued: an entry that breaks one is evaluated again.
        cache = DiskResultCache(tmp_path)
        result = FabricSession(result_cache=cache).run(spec)
        key = spec_key(spec)
        path = cache._path(key)
        data = json.loads(path.read_text(encoding="utf-8"))
        section, name = count
        data[section]["electrical"][name] += 1
        path.write_text(json.dumps(data), encoding="utf-8")
        again = FabricSession(result_cache=cache)
        assert again.run(spec) == result
        assert again.runs_executed == 1
        assert again.cache_stats().hits == 0
        assert cache.get(key) == result

    def test_truncated_entry_is_a_miss(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        cache.put(key, result)
        path = cache._path(key)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert cache.get(key) is None

    def test_entries_namespaced_by_version(self, tmp_path, monkeypatch):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        cache.put(key, result)
        assert cache.get(key) is not None
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        # Same key, new code fingerprint: the old entry is invisible.
        assert cache.get(key) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        for _ in range(3):
            cache.put(spec_key(spec), result)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_concurrent_writers_are_safe(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        key = spec_key(spec)
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    cache.put(key, result)
                    got = cache.get(key)
                    if got is not None and got.to_json() != result.to_json():
                        errors.append("torn read")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.get(key).to_json() == result.to_json()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_len_counts_entries(self, tmp_path):
        spec, result = self.evaluated()
        cache = DiskResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(spec_key(spec), result)
        assert len(cache) == 1


class TestSessionCacheStats:
    def test_hits_and_misses_counted(self):
        session = FabricSession()
        spec = small_spec()
        session.run(spec)
        stats = session.cache_stats()
        assert (stats.hits, stats.misses) == (0, 1)
        assert stats.eval_seconds > 0
        session.run(spec)
        stats = session.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_memoization_is_layout_independent(self):
        # Two structurally equal but distinct spec objects share one
        # cache slot (satellite of PR 2: key by content, not identity).
        session = FabricSession()
        first = session.run(small_spec())
        second = session.run(small_spec())
        assert first is second
        assert session.cache_stats().hits == 1

    def test_null_cache_disables_memoization(self):
        session = FabricSession(result_cache=NullResultCache())
        spec = small_spec()
        assert session.run(spec) is not session.run(spec)
        assert session.cache_stats().hits == 0
        assert session.cache_stats().misses == 2

    def test_disk_backed_session_persists_across_sessions(self, tmp_path):
        spec = small_spec()
        warm = FabricSession(result_cache=DiskResultCache(tmp_path))
        warm.run(spec)
        assert warm.cache_stats().misses == 1
        cold = FabricSession(result_cache=DiskResultCache(tmp_path))
        cold.run(spec)
        assert cold.cache_stats().hits == 1
        assert cold.cache_stats().misses == 0


class TestPerBackendCacheStats:
    def test_multi_backend_breakdown(self):
        # A comparison session touching two fabrics must report whose
        # memoization is working, not one conflated counter.
        session = FabricSession()
        session.run(small_spec())                        # electrical miss
        session.run(small_spec())                        # electrical hit
        session.run(small_spec(fabric="photonic"))       # photonic miss
        session.run(small_spec(fabric="photonic"))       # photonic hit
        session.run(small_spec(fabric="photonic", buffer_bytes=1 << 20))
        stats = session.cache_stats()
        assert (stats.hits, stats.misses) == (2, 3)
        assert stats.per_backend == {
            "electrical": {"hits": 1, "misses": 1},
            "photonic": {"hits": 1, "misses": 2},
        }

    def test_totals_always_sum_per_backend(self):
        session = FabricSession()
        for fabric in ("electrical", "photonic", "switched", "photonic"):
            session.run(small_spec(fabric=fabric))
        stats = session.cache_stats()
        assert stats.hits == sum(
            b["hits"] for b in stats.per_backend.values()
        )
        assert stats.misses == sum(
            b["misses"] for b in stats.per_backend.values()
        )

    def test_to_dict_carries_the_breakdown_sorted(self):
        session = FabricSession()
        session.run(small_spec(fabric="photonic"))
        session.run(small_spec())
        data = session.cache_stats().to_dict()
        assert list(data["per_backend"]) == ["electrical", "photonic"]
        assert data["per_backend"]["photonic"] == {"hits": 0, "misses": 1}

    def test_sweep_rows_have_no_fabric_breakdown(self):
        # Sweep-level stats aggregate rows, not fabrics; the breakdown is
        # documented as empty there.
        sweep = run_many([small_spec()], no_cache=True)
        assert sweep.cache_stats.per_backend == {}


class TestNoCacheBypass:
    def test_no_cache_never_touches_the_directory(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep = run_many(
            [small_spec()], cache_dir=cache_dir, no_cache=True
        )
        assert sweep.cache_stats.misses == 1
        assert not cache_dir.exists()

    def test_no_cache_ignores_warm_entries(self, tmp_path):
        spec = small_spec()
        run_many([spec], cache_dir=tmp_path)
        assert len(DiskResultCache(tmp_path)) == 1
        rerun = run_many([spec], cache_dir=tmp_path, no_cache=True)
        assert rerun.cache_stats.hits == 0
        assert rerun.cache_stats.misses == 1


class TestMemoryResultCache:
    def test_identity_preserved(self):
        cache = MemoryResultCache()
        session = FabricSession(result_cache=cache)
        result = session.run(small_spec())
        assert cache.get(spec_key(small_spec())) is result
        assert len(cache) == 1


class TestCodeFingerprint:
    def test_tracks_version(self, monkeypatch):
        before = code_fingerprint()
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        after = code_fingerprint()
        assert before != after
        assert len(after) == 16


class TestDiskCacheCaps:
    """Satellite: bounded disk cache with oldest-first eviction."""

    def evaluated(self, n):
        """``n`` distinct (key, result) pairs, cheap to produce."""
        session = FabricSession()
        pairs = []
        for seed in range(n):
            spec = small_spec(seed=seed)
            pairs.append((spec_key(spec), session.run(spec)))
        return pairs

    @staticmethod
    def backdate(cache, key, age_s):
        """Push an entry's mtime into the past (mtime orders eviction)."""
        path = cache._path(key)
        stamp = path.stat().st_mtime - age_s
        os.utime(path, (stamp, stamp))

    @pytest.mark.parametrize(
        "kwargs", [{"max_entries": 0}, {"max_entries": -1}, {"max_bytes": 0}]
    )
    def test_invalid_caps_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            DiskResultCache(tmp_path, **kwargs)

    def test_unbounded_by_default(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        for key, result in self.evaluated(5):
            cache.put(key, result)
        stats = cache.cache_stats()
        assert stats["entries"] == 5
        assert stats["evictions"] == 0
        assert stats["max_entries"] is None

    def test_max_entries_evicts_oldest_first(self, tmp_path):
        cache = DiskResultCache(tmp_path, max_entries=3)
        pairs = self.evaluated(5)
        for age, (key, result) in enumerate(pairs):
            cache.put(key, result)
            self.backdate(cache, key, age_s=100 - 10 * age)
        # The two oldest (earliest backdated) entries are gone...
        assert cache.get(pairs[0][0]) is None
        assert cache.get(pairs[1][0]) is None
        # ...the three newest survive, and the counters agree.
        for key, result in pairs[2:]:
            assert cache.get(key) is not None
        stats = cache.cache_stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 2

    def test_max_bytes_evicts_down_to_cap(self, tmp_path):
        pairs = self.evaluated(4)
        entry_bytes = len(pairs[0][1].to_json().encode())
        cache = DiskResultCache(tmp_path, max_bytes=2 * entry_bytes)
        for age, (key, result) in enumerate(pairs):
            cache.put(key, result)
            self.backdate(cache, key, age_s=100 - 10 * age)
        stats = cache.cache_stats()
        assert stats["bytes"] <= 2 * entry_bytes
        assert stats["evictions"] == 2
        assert cache.get(pairs[-1][0]) is not None

    def test_just_written_entry_survives_any_cap(self, tmp_path):
        cache = DiskResultCache(tmp_path, max_entries=1)
        pairs = self.evaluated(3)
        for age, (key, result) in enumerate(pairs):
            cache.put(key, result)
            self.backdate(cache, key, age_s=100 - 10 * age)
            assert cache.get(key) is not None  # newest always readable
        assert cache.cache_stats()["entries"] == 1

    def test_eviction_spans_code_fingerprints(self, tmp_path, monkeypatch):
        """Entries stranded by an old code version are evicted first."""
        pairs = self.evaluated(3)
        monkeypatch.setattr(repro, "__version__", "0.0.1-stale")
        stale = DiskResultCache(tmp_path)
        stale.put(pairs[0][0], pairs[0][1])
        self.backdate(stale, pairs[0][0], age_s=1000)
        monkeypatch.undo()
        cache = DiskResultCache(tmp_path, max_entries=2)
        for key, result in pairs[1:]:
            cache.put(key, result)
        # Tripping the cap prunes to the low watermark, evicting
        # oldest-first across fingerprints: the stale entry goes before
        # any current-version entry, and the newest write survives.
        assert not stale._path(pairs[0][0]).exists()
        assert cache.cache_stats()["entries"] == 1
        assert cache.evictions == 2
        assert cache.get(pairs[2][0]) is not None

    def test_uncapped_cache_never_scans(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        for key, result in self.evaluated(5):
            cache.put(key, result)
        assert cache.prune_scans == 0

    def test_capped_puts_amortize_scans(self, tmp_path):
        """The perf point: N capped puts cost ~N/(cap/8) scans, not N."""
        _, result = self.evaluated(1)[0]
        cache = DiskResultCache(tmp_path, max_entries=64)
        puts = 200
        for i in range(puts):
            cache.put(f"{i:016x}" + "0" * 48, result)
        # One seed scan, then one scan per ~cap/8 puts once at the cap.
        # The old implementation scanned on every one of the 200 puts.
        assert 1 <= cache.prune_scans <= 25
        stats = cache.cache_stats()
        # Occupancy oscillates between the watermark and the cap.
        assert 56 <= stats["entries"] <= 64

    def test_counters_resync_with_concurrent_writers(self, tmp_path):
        """A second writer's entries are picked up at the next scan."""
        _, result = self.evaluated(1)[0]
        ours = DiskResultCache(tmp_path, max_entries=8)
        other = DiskResultCache(tmp_path)  # unbounded co-writer
        ours.put("a" * 64, result)  # seed scan: counters now exact
        for i in range(16):
            other.put(f"{i:016x}" + "b" * 48, result)
        # Our approximate counters are stale (17 entries on disk)...
        assert ours._approx_entries == 1
        # ...but the next tripping put rescans and enforces the cap.
        for i in range(8):
            ours.put(f"{i:016x}" + "c" * 48, result)
        assert ours.cache_stats()["entries"] <= 8

    def test_session_sees_capped_cache_transparently(self, tmp_path):
        cache = DiskResultCache(tmp_path, max_entries=2)
        session = FabricSession(result_cache=cache)
        specs = [small_spec(seed=seed) for seed in range(4)]
        for spec in specs:
            session.run(spec)
        assert cache.cache_stats()["entries"] <= 2
        # Evicted specs simply re-evaluate; results are unaffected.
        fresh = FabricSession(result_cache=cache)
        assert (
            fresh.run(specs[0]).to_json()
            == FabricSession().run(specs[0]).to_json()
        )


class TestTierCacheStats:
    """Rolled-up occupancy across a sharded tier's worker caches."""

    def test_sums_across_worker_roots(self, tmp_path):
        session = FabricSession()
        spec = small_spec()
        key, result = spec_key(spec), session.run(spec)
        roots = [tmp_path / "worker-0", tmp_path / "worker-1"]
        DiskResultCache(roots[0]).put(key, result)
        DiskResultCache(roots[0]).put("f" * 64, result)
        DiskResultCache(roots[1]).put(key, result)
        stats = tier_cache_stats(roots)
        assert stats["workers"] == 2
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert [w["entries"] for w in stats["per_worker"]] == [2, 1]
        assert stats["per_worker"][0]["root"] == str(roots[0])

    def test_cacheless_workers_counted_but_empty(self, tmp_path):
        stats = tier_cache_stats([None, tmp_path / "worker-1"])
        assert stats["workers"] == 2
        assert stats["entries"] == 0
        assert stats["per_worker"][0] == {
            "root": None,
            "entries": 0,
            "bytes": 0,
        }
