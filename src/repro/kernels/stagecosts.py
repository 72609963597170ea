"""Vectorized bucket stage-cost computation.

All stages of the multi-dimensional bucket algorithm are computed at once
as array expressions. Bit-identity with the scalar per-stage loop (kept as
a test oracle in ``tests/oracles/kernels.py``) hinges on the buffer
fractions: the loop divides sequentially (``b /= p`` per stage), so
they are reproduced with ``np.divide.accumulate`` — the same chain of
float64 divisions — never a reciprocal ``cumprod``, which rounds
differently.

This module returns plain arrays/lists; :mod:`repro.collectives.
cost_model` wraps them in :class:`~repro.collectives.cost_model.
CollectiveCost` objects, keeping the dependency one-way.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["bucket_stage_arrays"]


@lru_cache(maxsize=4096)
def bucket_stage_arrays(
    dims: tuple[int, ...], bandwidth_fraction: float
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Per-stage ``(alpha_counts, buffer_fractions, beta_factors)``.

    Args:
        dims: ring sizes per dimension, execution order (all >= 2; the
            caller validates and formats errors).
        bandwidth_fraction: per-dimension link bandwidth fraction of the
            chip egress (in ``(0, 1]``; caller-validated).

    Returns:
        Three per-stage tuples: ring steps ``p - 1``, the live buffer
        fraction entering each stage, and the scaled beta factor
        ``(p - 1) / p / bandwidth_fraction * buffer_fraction``.
    """
    p = np.asarray(dims, dtype=np.float64)
    # (p - 1) / p / f, elementwise: the same two float64 divisions the
    # scalar loop performs per stage.
    base_beta = (p - 1.0) / p / bandwidth_fraction
    # Buffer fractions 1, 1/p0, (1/p0)/p1, ...: divide.accumulate over
    # [1, p0, p1, ...] replays the loop's sequential divisions.
    chain = np.empty(p.size, dtype=np.float64)
    chain[0] = 1.0
    chain[1:] = p[:-1]
    buffer_fractions = np.divide.accumulate(chain)
    betas = base_beta * buffer_fractions
    alpha_counts = tuple(int(d) - 1 for d in dims)
    return alpha_counts, tuple(buffer_fractions.tolist()), tuple(betas.tolist())
