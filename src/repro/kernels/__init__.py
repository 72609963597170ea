"""Evaluation kernels and their time accounting.

The evaluation hot path runs over dense link-index spaces: repair-path
search and ring stage costs as numpy code over flows×links incidence
arrays, max-min water-filling as an incremental bottleneck heap over
per-flow link-index lists. Each kernel performs the same floating-point
operations on the same operands in the same order as the straightforward
loop it replaced, so its results are bit-identical to that loop. The
loops live on as test oracles under ``tests/oracles/``, where property
tests assert exact equality against them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["KernelStats", "STATS"]


class KernelStats:
    """Per-op call counters and accumulated seconds.

    The process-wide :data:`STATS` instance is fed by the kernel call
    sites; :class:`~repro.api.session.FabricSession` snapshots it around
    each evaluation and reports the deltas into its metrics registry
    (``kernel.<op>.calls`` / ``.seconds``). Timing is observability
    only — it never influences results.
    """

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def record(self, op: str, elapsed_s: float) -> None:
        """Charge one call of ``op`` (``elapsed_s`` wall seconds)."""
        self.calls[op] = self.calls.get(op, 0) + 1
        self.seconds[op] = self.seconds.get(op, 0.0) + elapsed_s

    @contextmanager
    def timed(self, op: str) -> Iterator[None]:
        """Time a block and charge it to ``op``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(op, time.perf_counter() - started)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-safe ``{"<op>": {"calls": n, "seconds": s}}``."""
        return {
            op: {"calls": self.calls[op], "seconds": self.seconds[op]}
            for op in sorted(self.calls)
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.calls.clear()
        self.seconds.clear()


#: Process-wide kernel-time accounting.
STATS = KernelStats()
