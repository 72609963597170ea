"""Result caches: content-addressed storage for evaluated scenarios.

A :class:`~repro.api.spec.ScenarioSpec` is frozen and JSON-serializable,
so its canonical JSON form yields a *stable, layout-independent content
key* (:func:`spec_key`): two structurally equal specs map to the same
key no matter how they were built, in which process, or under which
``PYTHONHASHSEED``. The session memoization and the persistent on-disk
cache both store results under this key, which is what lets a sweep
started in one process be finished from another's cache.

Backends implement the tiny :class:`ResultCache` protocol:

* :class:`MemoryResultCache` — a per-process dict; the default session
  backend (PR 1's memoization, now keyed consistently).
* :class:`DiskResultCache` — a persistent content-addressed store under
  ``~/.cache/repro`` (or any directory), namespaced by a code/version
  fingerprint so stale entries are never served across releases. Writes
  are atomic (temp file + ``os.replace``), so concurrent sweep workers
  sharing a cache directory cannot corrupt entries; corrupt or truncated
  files read as misses and are rewritten. Optional ``max_entries`` /
  ``max_bytes`` caps prune oldest entries first on write, so a
  long-lived server's cache stays bounded.
* :class:`NullResultCache` — bypasses both reads and writes
  (``--no-cache``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

from ..obs.log import INFO as _INFO, NULL_LOG, EventLog
from .result import RunResult
from .spec import ScenarioSpec

__all__ = [
    "spec_key",
    "code_fingerprint",
    "default_cache_dir",
    "CacheStats",
    "ResultCache",
    "MemoryResultCache",
    "DiskResultCache",
    "NullResultCache",
    "tier_cache_stats",
]


@lru_cache(maxsize=65536)
def _spec_key_cached(spec: ScenarioSpec) -> str:
    canonical = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_key(spec: ScenarioSpec) -> str:
    """Stable content hash of a spec (hex sha256 of its canonical JSON).

    The key depends only on the spec's *contents*, not on object identity,
    dict ordering, or the process that computes it — the property the
    on-disk cache and cross-process sweep workers rely on. Memoized on the
    (frozen, hashable) spec: two structurally equal spec objects share one
    cache slot, and repeated session lookups skip re-serialization.
    """
    return _spec_key_cached(spec)


def code_fingerprint() -> str:
    """Fingerprint of the code that produced a cached result.

    Cached results are only valid for the code that computed them; the
    fingerprint namespaces the disk cache so a version bump invalidates
    every old entry without touching the filesystem. Reads the package
    version lazily so tests (and editable installs) see updates.
    """
    import repro

    raw = f"repro-{repro.__version__}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def default_cache_dir() -> Path:
    """The persistent cache location: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Hit/miss counters and evaluation time of one session or sweep.

    Attributes:
        hits: results served from the cache.
        misses: results that had to be evaluated.
        eval_seconds: wall-clock seconds spent evaluating misses.
        per_backend: hit/miss counters broken out by fabric name
            (``{"photonic": {"hits": 3, "misses": 1}, ...}``) — empty
            when the producer doesn't track fabrics (e.g. sweep rows).
    """

    hits: int = 0
    misses: int = 0
    eval_seconds: float = 0.0
    per_backend: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (per-backend keys sorted for determinism)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "eval_seconds": self.eval_seconds,
            "hit_rate": self.hit_rate,
            "per_backend": {
                fabric: dict(counts)
                for fabric, counts in sorted(self.per_backend.items())
            },
        }


@runtime_checkable
class ResultCache(Protocol):
    """Where a session stores evaluated results, keyed by :func:`spec_key`."""

    def get(self, key: str) -> RunResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key``."""
        ...


class MemoryResultCache:
    """Per-process dict cache; preserves result object identity on hits."""

    def __init__(self) -> None:
        self._results: dict[str, RunResult] = {}

    def get(self, key: str) -> RunResult | None:
        return self._results.get(key)

    def put(self, key: str, result: RunResult) -> None:
        self._results[key] = result

    def __len__(self) -> int:
        return len(self._results)


class NullResultCache:
    """A cache that never stores anything (``--no-cache``)."""

    def get(self, key: str) -> RunResult | None:
        return None

    def put(self, key: str, result: RunResult) -> None:
        pass


class DiskResultCache:
    """Persistent content-addressed result store.

    Entries live at ``root/<fingerprint>/<key[:2]>/<key>.json`` where the
    fingerprint is :func:`code_fingerprint` — results computed by one
    package version are invisible to another. The payload is the
    ``RunResult`` JSON that already round-trips losslessly, so a disk hit
    reproduces the evaluated result byte-for-byte when re-serialized.

    A long-lived server writes into this cache forever, so it can be
    capped: ``max_entries`` / ``max_bytes`` bound the store (across *all*
    fingerprints — entries stranded by old code versions are the first
    to go) with oldest-first pruning. ``None`` (the default) keeps the
    original unbounded behavior.

    Pruning is *amortized*: the instance keeps approximate entry/byte
    counters (seeded by one directory scan on the first capped ``put``,
    advanced by each write) and only re-scans the directory when the
    counters trip a cap. When a scan finds the store over a cap, it
    evicts oldest-first down to a low watermark ``cap - max(1, cap//8)``
    rather than exactly to the cap, so the next scan is ~cap/8 puts away
    — put latency stays O(1) in the entry count instead of one full
    directory scan per write (``benchmarks/test_perf_cache.py`` holds
    this flat). The caps themselves are still never exceeded by this
    instance's own writes. Concurrent writers sharing a directory each
    bound their own contribution; their counters re-synchronize with
    reality on every scan.

    Attributes:
        root: the cache directory.
        max_entries: entry-count cap (``None`` = unbounded).
        max_bytes: payload-byte cap (``None`` = unbounded).
        evictions: entries pruned by this instance since construction.
        prune_scans: full directory scans this instance has paid for.
        log: structured event log ``cache.evict`` records go to
            (:data:`~repro.obs.log.NULL_LOG` default drops them).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        log: EventLog | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.log = log if log is not None else NULL_LOG
        self.evictions = 0
        self.prune_scans = 0
        # Approximate occupancy since the last scan; None = never scanned.
        self._approx_entries: int | None = None
        self._approx_bytes: int = 0

    def _path(self, key: str) -> Path:
        return self.root / code_fingerprint() / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
            return RunResult.from_json(text)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            # Corrupt or truncated entry (interrupted writer, disk fault,
            # JSON nested too deep to decode): treat as a miss and drop
            # it so the next put rewrites it.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: RunResult) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-to-temp + atomic rename: concurrent workers computing the
        # same spec each produce a complete file; the last rename wins and
        # readers never observe a partial entry.
        payload = result.to_json()
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.max_entries is not None or self.max_bytes is not None:
            self._note_put(len(payload.encode("utf-8")))

    def _note_put(self, size: int) -> None:
        """Advance the approximate counters; scan only when a cap trips."""
        if self._approx_entries is None:
            self._prune()  # first capped put: one scan seeds the counters
            return
        self._approx_entries += 1
        self._approx_bytes += size
        over_entries = (
            self.max_entries is not None
            and self._approx_entries > self.max_entries
        )
        over_bytes = (
            self.max_bytes is not None and self._approx_bytes > self.max_bytes
        )
        if over_entries or over_bytes:
            self._prune()

    def _entries(self) -> list[tuple[float, str, int, Path]]:
        """Every entry as ``(mtime, path-str, bytes, path)``, oldest first.

        Spans all fingerprint namespaces so stale-version entries are
        evicted before live ones of the same age (their mtimes are
        older). Files vanishing mid-scan (a concurrent eviction or
        corrupt-entry drop) are simply skipped.
        """
        entries = []
        for path in self.root.glob("*/*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, str(path), stat.st_size, path))
        entries.sort()
        return entries

    def _prune(self) -> None:
        """Scan the store; if over a cap, evict oldest down to a watermark.

        The watermark (``cap - max(1, cap // 8)``, floored so at least
        the newest entry survives) leaves headroom, so after a trip the
        approximate counters take ~cap/8 more puts to trip again — the
        scan cost amortizes instead of recurring every write. The
        just-written entry (the newest) is the last candidate and
        survives any entry cap. Concurrent pruners may race to unlink
        the same file; the loser's unlink is a no-op and is not counted
        as an eviction.
        """
        entries = self._entries()
        self.prune_scans += 1
        count = len(entries)
        total = sum(size for _, _, size, _ in entries)
        evicted_before = self.evictions
        over = (
            self.max_entries is not None and count > self.max_entries
        ) or (self.max_bytes is not None and total > self.max_bytes)
        if over:
            target_entries = (
                None
                if self.max_entries is None
                else max(1, self.max_entries - max(1, self.max_entries // 8))
            )
            target_bytes = (
                None
                if self.max_bytes is None
                else max(0, self.max_bytes - max(1, self.max_bytes // 8))
            )
            for _, _, size, path in entries:
                over_entries = (
                    target_entries is not None and count > target_entries
                )
                over_bytes = target_bytes is not None and total > target_bytes
                if not over_entries and not over_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                self.evictions += 1
                count -= 1
                total -= size
        self._approx_entries = count
        self._approx_bytes = total
        evicted = self.evictions - evicted_before
        if evicted and self.log.enabled_for(_INFO):
            self.log.info(
                "cache.evict", evicted=evicted, entries=count, bytes=total
            )

    def cache_stats(self) -> dict:
        """Occupancy and eviction counters of the on-disk store.

        Unlike :meth:`FabricSession.cache_stats`, which counts lookups,
        this reports what is *on disk* right now — across every code
        fingerprint — plus how many entries this instance evicted.
        """
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, _, size, _ in entries),
            "evictions": self.evictions,
            "prune_scans": self.prune_scans,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def __len__(self) -> int:
        fingerprint_dir = self.root / code_fingerprint()
        if not fingerprint_dir.is_dir():
            return 0
        return sum(1 for _ in fingerprint_dir.glob("*/*.json"))


def tier_cache_stats(roots: Sequence[str | Path | None]) -> dict:
    """Summed on-disk occupancy across a sharded tier's worker caches.

    The shard router gives every worker slot its own cache namespace
    (``<root>/worker-<slot>``); this rolls the per-namespace occupancy
    up into one shared-tier view for the router's ``/metrics``. ``None``
    entries (cacheless workers) are skipped but still counted.

    Returns:
        ``{"workers", "entries", "bytes", "per_worker": [...]}`` with
        ``per_worker`` ordered like ``roots``.
    """
    per_worker = []
    total_entries = 0
    total_bytes = 0
    for root in roots:
        if root is None:
            per_worker.append({"root": None, "entries": 0, "bytes": 0})
            continue
        stats = DiskResultCache(root).cache_stats()
        per_worker.append(
            {
                "root": str(root),
                "entries": stats["entries"],
                "bytes": stats["bytes"],
            }
        )
        total_entries += stats["entries"]
        total_bytes += stats["bytes"]
    return {
        "workers": len(per_worker),
        "entries": total_entries,
        "bytes": total_bytes,
        "per_worker": per_worker,
    }
