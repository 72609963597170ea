"""Shared plumbing of the benchmark: source checks, scratch space, the
environment block, the CPU and speed probes, memory readings and
percentiles.

Every percentile goes through :func:`repro.obs.metrics.nearest_rank`, the
program's own definition, so the benchmark and ``/metrics`` agree on what
"p90" means.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

#: The checkout root; the program under test is built from ``src/`` here.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, span dumps and temp files (inside the checkout).
SCRATCH = ROOT / ".perfbench_tmp"


class SourceMissing(RuntimeError):
    """The checkout does not contain the program's sources."""


def require_source() -> None:
    """Put ``src/`` first on ``sys.path`` and prove ``repro`` comes from it.

    Raises:
        SourceMissing: when ``src/repro`` is absent, or ``repro`` resolves
            to a copy outside this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def source_env(extra_paths: tuple[Path, ...] = ()) -> dict[str, str]:
    """Environment for a child interpreter that must import from ``src/``.

    Inherits the caller's environment minus any ``REPRO_*`` setting, so a
    stray variable on the host cannot change what the children evaluate.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (*extra_paths, SRC))
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under :data:`SCRATCH`."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def environment() -> dict:
    """Where the run happened: CPUs, interpreter and platform."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Not a metric: it is timed before and after each run so that a run on a
    slow or contended host shows as one in the diagnostics.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


#: The speed probe's graph: 4096 nodes, six edges each, as tuples.
_PROBE_GRAPH = tuple(tuple((node * 7 + k) % 4096 for k in range(6)) for node in range(4096))
#: CPU time, in ms, that :func:`speed_probe_ms` takes on the reference
#: host: a 2-vCPU VM (Xeon, 2.1 GHz nominal, Python 3.11) at its faster
#: speed level.
REFERENCE_PROBE_MS = 0.85


def speed_probe_ms() -> float:
    """How fast the host runs Python right now: the thread CPU time, in ms,
    of a breadth-first walk over a fixed graph.

    Thread CPU time, not wall time, so that waiting for the CPU (for
    another process, or for a thread of the program holding the
    interpreter lock) does not count: the probe reads the host's speed,
    never how busy the program keeps it. A graph walk, because it slows
    with the host as the benchmark's operations do: over 14,000 4-hop
    repairs, their time rose as the 0.86th power of this probe's, against
    the 0.62th power of a tight arithmetic loop's. It allocates one
    bytearray and one list, which reference counting frees, so it barely
    moves the program's garbage-collection schedule.
    """
    started = time.thread_time()
    seen = bytearray(len(_PROBE_GRAPH))
    seen[0] = 1
    queue = [0]
    for node in queue:  # visits the nodes appended while iterating
        for neighbour in _PROBE_GRAPH[node]:
            if not seen[neighbour]:
                seen[neighbour] = 1
                queue.append(neighbour)
    return (time.thread_time() - started) * 1000.0


def at_reference_speed(seconds: float, probes_ms: list[float]) -> float:
    """``seconds`` of work during which the speed probe read ``probes_ms``,
    scaled to the reference host's speed: the work's time on a host where
    the probe reads :data:`REFERENCE_PROBE_MS` throughout."""
    return seconds * REFERENCE_PROBE_MS * statistics.fmean(1.0 / p for p in probes_ms)


class SpeedSampler:
    """Reads :func:`speed_probe_ms` every :attr:`interval` seconds on a
    thread of its own while the ``with`` block runs.

    The caller's thread is pinned to the vCPU it is on for the duration,
    and the sampler thread inherits the pin, so the samples read the
    speed of the vCPU the work runs on (a sample on an idle vCPU reads
    its wake-up, not its speed). Each sample waits for the interpreter
    lock and then takes about 2% of the work's time; at longer intervals
    operations of 0.1 s would get too few samples, at shorter ones more
    operations of a few ms would be stretched by one.
    """

    #: Seconds between samples.
    interval = 0.05

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._affinity: set[int] = set()

    def __enter__(self) -> "SpeedSampler":
        self._affinity = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat", encoding="ascii") as handle:
            # Field 39, the CPU the thread last ran on, counted after the
            # command name's closing parenthesis (field 2).
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # pinning refused: sample wherever the thread runs
            pass
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        try:
            os.sched_setaffinity(0, self._affinity)
        except OSError:
            pass

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            started = time.perf_counter()
            probe = speed_probe_ms()
            self.times.append(started)
            self.probes.append(probe)

    def during(self, start: float, end: float) -> list[float]:
        """The samples that started between ``start`` and ``end``."""
        first = bisect.bisect_left(self.times, start)
        return self.probes[first:bisect.bisect_right(self.times, end)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, whichever of its threads forked them.

    Scans every process's parent id: ``/proc/<pid>/task/<pid>/children``
    would list only the main thread's children, and the router forks its
    workers from an executor thread.
    """
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        # The command name may hold spaces and parentheses; the parent id
        # is the second field after its closing parenthesis.
        if int(text.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(stat.parent.name))
    return sorted(children)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    from repro.obs.metrics import nearest_rank

    return nearest_rank(sorted(values), fraction)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(segments: list[tuple[list[float], float]], setup_s: float,
               peak_rss: float) -> dict:
    """The end-to-end metrics from each segment's (latencies in ms, rate).

    Percentiles and rates are taken per segment and reported as the median
    over segments, so a slow spell of the shared host that spans a
    minority of them does not move the result.
    """
    p50 = [percentile(latencies, 0.5) for latencies, _rate in segments]
    p90 = [percentile(latencies, 0.9) for latencies, _rate in segments]
    rates = [rate for _latencies, rate in segments]
    return {
        "latency_p50_ms": metric(statistics.median(p50), "ms"),
        "latency_p90_ms": metric(statistics.median(p90), "ms"),
        "throughput_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MiB"),
    }


def emit(result: dict, diagnostics: dict) -> None:
    """Print the diagnostics line, then the result as the last line."""
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
