"""The alpha-beta-r collective cost model (paper Section 4.1).

The paper reasons about collectives with the classic alpha-beta model [42]
extended with an ``r`` term for optical reconfiguration:

* ``alpha`` — per-message software overhead (seconds per ring step),
* ``beta`` — transmission delay, inversely proportional to the bandwidth
  a ring step can push through its link,
* ``r`` — the constant charged before a ring starts when MZI switches
  must be reprogrammed (3.7 us on LIGHTPATH).

Costs are kept *symbolic*: a :class:`CollectiveCost` stores how many alphas,
how many ``N / B`` units (with ``B`` the full egress bandwidth of one chip)
and how many reconfigurations a collective incurs. This makes the benches
print rows directly comparable to the paper's Tables 1 and 2, while
:meth:`CollectiveCost.seconds` grounds them in wall-clock time for the
simulator cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..kernels.stagecosts import bucket_stage_arrays
from ..phy.constants import CHIP_EGRESS_BYTES, DEFAULT_ALPHA_S, RECONFIG_LATENCY_S

__all__ = [
    "CostParameters",
    "CollectiveCost",
    "ring_reduce_scatter",
    "ring_all_gather",
    "bucket_reduce_scatter",
    "bucket_all_gather",
    "bucket_all_reduce",
    "reduce_scatter_lower_bound",
]


@dataclass(frozen=True)
class CostParameters:
    """Scalars that ground a symbolic cost in seconds.

    Attributes:
        alpha_s: per-step software overhead, seconds.
        chip_bandwidth_bytes: full egress bandwidth ``B`` of a chip, bytes/s.
        reconfig_s: optical reconfiguration latency ``r``, seconds.
    """

    alpha_s: float = DEFAULT_ALPHA_S
    chip_bandwidth_bytes: float = CHIP_EGRESS_BYTES
    reconfig_s: float = RECONFIG_LATENCY_S

    def __post_init__(self) -> None:
        if self.alpha_s < 0 or self.reconfig_s < 0:
            raise ValueError("alpha and r cannot be negative")
        if self.chip_bandwidth_bytes <= 0:
            raise ValueError("chip bandwidth must be positive")


@dataclass(frozen=True)
class CollectiveCost:
    """Symbolic alpha-beta-r cost of a collective.

    Attributes:
        alpha_count: number of alpha terms (ring steps).
        beta_factor: multiplier ``k`` such that the transmission time is
            ``k * N / B`` for buffer size ``N`` and full chip bandwidth
            ``B``. A single full-bandwidth ring over ``p`` chips has
            ``k = (p - 1) / p``; running the same ring on a link that only
            gets ``B / 3`` triples ``k``.
        reconfig_count: number of ``r`` terms charged.
    """

    alpha_count: int
    beta_factor: float
    reconfig_count: int = 0

    def __post_init__(self) -> None:
        if self.alpha_count < 0 or self.beta_factor < 0 or self.reconfig_count < 0:
            raise ValueError("cost terms cannot be negative")

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(
            alpha_count=self.alpha_count + other.alpha_count,
            beta_factor=self.beta_factor + other.beta_factor,
            reconfig_count=self.reconfig_count + other.reconfig_count,
        )

    def with_reconfig(self, count: int = 1) -> "CollectiveCost":
        """The same cost with ``count`` extra reconfigurations charged."""
        return replace(self, reconfig_count=self.reconfig_count + count)

    def alpha_seconds(self, params: CostParameters) -> float:
        """The alpha (+ reconfiguration) portion in seconds."""
        return (
            self.alpha_count * params.alpha_s
            + self.reconfig_count * params.reconfig_s
        )

    def beta_seconds(self, n_bytes: float, params: CostParameters) -> float:
        """The transmission portion in seconds for an ``n_bytes`` buffer."""
        if n_bytes < 0:
            raise ValueError("buffer size cannot be negative")
        return self.beta_factor * n_bytes / params.chip_bandwidth_bytes

    def seconds(self, n_bytes: float, params: CostParameters) -> float:
        """Total cost in seconds for an ``n_bytes`` buffer."""
        return self.alpha_seconds(params) + self.beta_seconds(n_bytes, params)

    def alpha_label(self) -> str:
        """Human-readable alpha term, e.g. ``"7 x a"`` or ``"7 x a + r"``."""
        label = f"{self.alpha_count} x a"
        if self.reconfig_count == 1:
            label += " + r"
        elif self.reconfig_count > 1:
            label += f" + {self.reconfig_count} x r"
        return label

    def beta_label(self) -> str:
        """Human-readable beta term, e.g. ``"N x 2.625 / B"``."""
        return f"N x {self.beta_factor:.4g} / B"


def _check_ring(p: int, bandwidth_fraction: float) -> None:
    if p < 1:
        raise ValueError("a ring needs at least one chip")
    if not 0.0 < bandwidth_fraction <= 1.0:
        raise ValueError(
            f"bandwidth fraction must be in (0, 1], got {bandwidth_fraction}"
        )


def ring_reduce_scatter(p: int, bandwidth_fraction: float = 1.0) -> CollectiveCost:
    """Cost of bucket/ring REDUCESCATTER over ``p`` chips.

    Args:
        p: chips in the ring.
        bandwidth_fraction: fraction of the chip's egress bandwidth ``B``
            the ring's links carry. Static electrical links in a 3D torus
            carry ``1/3``; a fully steered LIGHTPATH ring carries ``1``.

    The ring runs ``p - 1`` steps, each moving ``N / p`` bytes, giving
    ``alpha (p-1)`` and ``beta = N (p-1) / (p * fraction * B)``.
    """
    _check_ring(p, bandwidth_fraction)
    if p == 1:
        return CollectiveCost(0, 0.0)
    return CollectiveCost(
        alpha_count=p - 1,
        beta_factor=(p - 1) / p / bandwidth_fraction,
    )


def ring_all_gather(p: int, bandwidth_fraction: float = 1.0) -> CollectiveCost:
    """Cost of ring ALLGATHER over ``p`` chips (mirror of REDUCESCATTER)."""
    return ring_reduce_scatter(p, bandwidth_fraction)


def _bucket_stages(
    dims: list[int], bandwidth_fraction: float
) -> list[tuple[int, float, CollectiveCost]]:
    """Per-stage ``(ring_size, buffer_fraction, cost)`` of a bucket pass.

    The multi-dimensional bucket algorithm [39] executes one ring per
    dimension sequentially; after the stage over a dimension of size
    ``p_d`` the live buffer shrinks by ``p_d`` (Table 2's N then N/4).

    All stages are computed at once by
    :func:`repro.kernels.stagecosts.bucket_stage_arrays`.
    """
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 2 for d in dims):
        raise ValueError(f"bucket dimensions must have >= 2 chips, got {dims}")
    _check_ring(max(dims), bandwidth_fraction)
    alphas, fractions, betas = bucket_stage_arrays(tuple(dims), bandwidth_fraction)
    return [
        (p, fraction, CollectiveCost(alpha_count=alpha, beta_factor=beta))
        for p, alpha, fraction, beta in zip(dims, alphas, fractions, betas)
    ]


def bucket_reduce_scatter(
    dims: list[int],
    bandwidth_fraction: float = 1.0,
    reconfig_per_stage: bool = False,
) -> CollectiveCost:
    """Cost of the multi-dimensional bucket REDUCESCATTER.

    Args:
        dims: ring sizes per dimension, in execution order (e.g. ``[4, 4]``
            for Slice-3's X then Y stages).
        bandwidth_fraction: per-dimension link bandwidth as a fraction of
            the chip egress ``B`` (``1/3`` static electrical in a 3D rack,
            ``1/2`` with the Z bandwidth steered into X and Y, ...).
        reconfig_per_stage: charge one ``r`` before each stage's ring, as
            LIGHTPATH does when re-steering between dimensions.
    """
    total = CollectiveCost(0, 0.0)
    for _, _, stage_cost in _bucket_stages(dims, bandwidth_fraction):
        total = total + stage_cost
        if reconfig_per_stage:
            total = total.with_reconfig()
    return total


def bucket_stage_costs(
    dims: list[int],
    bandwidth_fraction: float = 1.0,
    reconfig_per_stage: bool = False,
) -> list[CollectiveCost]:
    """Per-stage costs of the bucket REDUCESCATTER (Table 2's two rows)."""
    costs = []
    for _, _, stage_cost in _bucket_stages(dims, bandwidth_fraction):
        costs.append(
            stage_cost.with_reconfig() if reconfig_per_stage else stage_cost
        )
    return costs


def bucket_all_gather(
    dims: list[int],
    bandwidth_fraction: float = 1.0,
    reconfig_per_stage: bool = False,
) -> CollectiveCost:
    """Cost of the bucket ALLGATHER (REDUCESCATTER mirrored in reverse)."""
    return bucket_reduce_scatter(
        list(reversed(dims)), bandwidth_fraction, reconfig_per_stage
    )


def bucket_all_reduce(
    dims: list[int],
    bandwidth_fraction: float = 1.0,
    reconfig_per_stage: bool = False,
) -> CollectiveCost:
    """ALLREDUCE = D REDUCESCATTERs then D ALLGATHERs (paper Section 4.1)."""
    return bucket_reduce_scatter(
        dims, bandwidth_fraction, reconfig_per_stage
    ) + bucket_all_gather(dims, bandwidth_fraction, reconfig_per_stage)


def reduce_scatter_lower_bound(p: int) -> float:
    """beta-factor lower bound ``(p - 1) / p`` for REDUCESCATTER.

    Each chip must ingest ``N (p - 1) / p`` bytes through its total
    bandwidth ``B``; the paper quotes the ~``N / B`` form of this bound.
    """
    if p < 1:
        raise ValueError("need at least one chip")
    if p == 1:
        return 0.0
    return (p - 1) / p


def simultaneous_bucket_beta_factor(dims: list[int]) -> float:
    """beta-factor of running ``D`` buffer-split buckets simultaneously.

    Section 4.1's equivalence: splitting ``N`` into ``D`` parts and running
    ``D`` bucket algorithms in rotated dimension orders, each dimension at
    ``B / D``, costs the same as one full-bandwidth pass. Exact form:
    the D parts run concurrently, so the cost is one part's cost —
    ``sum_d (N/D) * f_d * (p_d-1)/p_d / (B/D)`` with ``f_d`` the shrinking
    buffer fraction — identical to ``bucket_reduce_scatter(dims, 1.0)``.
    """
    if not dims:
        raise ValueError("need at least one dimension")
    d = len(dims)
    per_part = bucket_reduce_scatter(dims, bandwidth_fraction=1.0 / d)
    return per_part.beta_factor / d


def costs_equal(a: float, b: float, rel_tol: float = 1e-12) -> bool:
    """Tolerant equality for beta factors."""
    return math.isclose(a, b, rel_tol=rel_tol)
