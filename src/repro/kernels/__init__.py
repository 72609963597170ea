"""Evaluation kernels and their time accounting.

The evaluation hot path runs over dense link-index spaces: repair-path
search and ring stage costs as numpy code over flows×links incidence
arrays, max-min water-filling as an incremental bottleneck heap over
per-flow link-index lists. Each kernel performs the same floating-point
operations on the same operands in the same order as the straightforward
loop it replaced, so its results are bit-identical to that loop. The
loops live on as test oracles under ``tests/oracles/``, where property
tests assert exact equality against them.

The kernel call sites time themselves with :func:`timed`, which charges
``kernel.<op>.calls`` / ``.seconds`` counters to the
:class:`~repro.obs.metrics.MetricsRegistry` that :func:`metered`
installed. :class:`~repro.api.session.FabricSession` installs one per
evaluation it meters; the registry lives in a context variable, so an
evaluation on another thread charges its own. Outside any, a kernel call
records nothing. Timing is observability only — it never influences
results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from ..obs.metrics import MetricsRegistry

__all__ = ["metered", "timed"]

_METER: ContextVar[MetricsRegistry | None] = ContextVar("kernel_meter", default=None)


@contextmanager
def metered(registry: MetricsRegistry | None) -> Iterator[None]:
    """Charge the kernel calls made inside the block to ``registry``
    (``None``: record none)."""
    token = _METER.set(registry)
    try:
        yield
    finally:
        _METER.reset(token)


@contextmanager
def timed(op: str) -> Iterator[None]:
    """Time a block and charge it to ``op`` in the installed registry."""
    registry = _METER.get()
    if registry is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        registry.counter(f"kernel.{op}.calls").inc()
        registry.counter(f"kernel.{op}.seconds").inc(time.perf_counter() - started)
