"""``sweep_cold`` and ``sim_churn``: specs evaluated in this process.

Both evaluate a seeded list of distinct specs, one ``FabricSession.run``
call each, on one session backed by a fresh ``DiskResultCache``: a user's
first ``repro sweep``. Every result is checked against the digest recorded
for its label in ``digests.json``.

Both are CPU-bound in one thread, so their wall times follow the shared
host's speed, which flips between two levels about 1.8x apart every
second or so and spends minutes more in one level or the other. A
:class:`common.SpeedSampler` reads the host's speed throughout, on the
same vCPU, and every operation's time is reported at the reference speed
(:func:`common.at_reference_speed`) from the probes read right before and
during it; the wall-clock figures go to the diagnostics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

from repro.api import DiskResultCache, FabricSession

from . import common, specs

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def result_digest(data: dict) -> str:
    """Content digest of a result's canonical JSON (``RunResult.to_dict``)."""
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def events_processed(data) -> int:
    """Sum of every ``events_processed`` field in a result dict."""
    if isinstance(data, dict):
        return sum(
            value if key == "events_processed" and isinstance(value, int)
            else events_processed(value)
            for key, value in data.items()
        )
    if isinstance(data, list):
        return sum(events_processed(item) for item in data)
    return 0


def plan(workload: str, seed: int, seconds: float) -> tuple[dict, list[list[str]]]:
    """(pool, cycles): the labels a run of ``workload`` evaluates, in
    cycles of equal make-up (``sim_churn`` has one per round)."""
    if workload == "sweep_cold":
        return specs.sweep_pool(), specs.sweep_labels(seed, specs.sweep_cycles(seconds))
    return specs.sim_pool(), specs.sim_labels(seed, specs.sim_rounds(seconds))


def evaluate(pool: dict, labels: list[str], recorder=None) -> list[dict]:
    """Evaluate ``labels`` in order; one row per operation.

    Without a recorder, a :class:`common.SpeedSampler` runs throughout,
    and each row carries the speed probes read right before and during
    its operation. With a recorder, each evaluation runs inside a root
    span named by its position, and the row carries the engine events it
    ran.
    """
    cache_dir = common.scratch_dir("cache-")
    try:
        with contextlib.ExitStack() as stack:
            sampler = None if recorder else stack.enter_context(common.SpeedSampler())
            session = FabricSession(result_cache=DiskResultCache(cache_dir))
            rows = []
            for index, label in enumerate(labels):
                row = {"label": label, "trace": f"op{index:06d}"}
                rows.append(row)
                if sampler is not None:
                    before = statistics.median(common.speed_probe_ms() for _ in range(3))
                started = time.perf_counter()
                try:
                    if recorder is None:
                        result = session.run(pool[label])
                    else:
                        with recorder.operation(row["trace"]):
                            result = session.run(pool[label])
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    row.update(seconds=math.inf, error=repr(exc))
                    continue
                ended = time.perf_counter()
                row["seconds"] = ended - started
                if sampler is not None:
                    row["probes_ms"] = [before, *sampler.during(started, ended)]
                data = result.to_dict()
                row["digest"] = result_digest(data)
                row["events"] = events_processed(data)
                if recorder is not None:
                    row["engine_events"] = recorder.engine_events()
        return rows
    finally:
        common.remove_dir(cache_dir)


def check(rows: list[dict]) -> int:
    """Failed operations: errors and digests that differ from the record."""
    recorded = json.loads(DIGESTS.read_text())
    failed = 0
    for row in rows:
        expected = recorded.get(row["label"])
        if "error" in row or expected is None or row["digest"] != expected:
            failed += 1
    return failed


def seconds_by_class(rows: list[dict]) -> dict[str, float]:
    """Evaluation seconds summed per cost class, to tell which class a
    slow run lost its time in."""
    totals: dict[str, float] = {}
    for row in rows:
        name = specs.cost_class(row["label"])
        totals[name] = totals.get(name, 0.0) + row["seconds"]
    return totals


def segments(workload: str, rows: list[dict], cycles: list[list[str]],
             scaled: bool = True) -> list[tuple[list[float], float]]:
    """Per cycle, each spec's latency in ms (failures are +inf) and the
    rate: specs per second for ``sweep_cold``, and for ``sim_churn`` the
    simulator events the reports say they processed, per second. Times
    are at the reference speed, unless not ``scaled``."""
    out = []
    start = 0
    for cycle in cycles:
        chunk = rows[start:start + len(cycle)]
        start += len(cycle)
        seconds = [
            common.at_reference_speed(row["seconds"], row["probes_ms"])
            if scaled and "error" not in row else row["seconds"]
            for row in chunk
        ]
        busy = sum(s for row, s in zip(chunk, seconds) if "error" not in row)
        if workload == "sim_churn":
            work = sum(row.get("events", 0) for row in chunk)
        else:
            work = sum(1 for row in chunk if "error" not in row)
        out.append(([s * 1000.0 for s in seconds], work / busy if busy else 0.0))
    return out
