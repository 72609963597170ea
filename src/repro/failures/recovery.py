"""Electrical failure recovery and its congestion analysis (Figures 6a/6b).

When a chip of a slice fails in an electrical torus, the only repair that
keeps the job running is to splice a free chip into the broken rings over
*existing* static links — forwarding through intermediate chips. The paper
shows by construction that this always congests somebody: within a rack
(Figure 6a) every path from the failed chip's ring neighbours to any free
chip crosses links already carrying other slices' rings, and across racks
(Figure 6b) the OCS detour collides with the Y-dimension rings of the
remote rack's tenant. This module performs that analysis exhaustively —
enumerating candidate replacement paths and counting collisions — and
implements the production fallback the paper cites [60]: migrate at rack
granularity, with its full-rack blast radius.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.repair import broken_rings
from ..kernels import timed
from ..kernels.paths import (
    evaluate_all_free_chips_vectorized,
    evaluate_free_chip_vectorized,
)
from ..topology.slices import Slice, SliceAllocator
from ..topology.torus import Coordinate, Link, Torus
from .inject import InvalidChipError

__all__ = [
    "ReplacementPath",
    "ReplacementAttempt",
    "ElectricalRecoveryAnalysis",
    "RackMigrationPolicy",
]


@dataclass(frozen=True)
class ReplacementPath:
    """One candidate path from a ring neighbour to a free chip.

    Attributes:
        endpoint: the ring neighbour needing connectivity.
        path: node sequence to the free chip.
        congested_links: links of the path already carrying ring traffic.
    """

    endpoint: Coordinate
    path: tuple[Coordinate, ...]
    congested_links: tuple[Link, ...]

    @property
    def is_congestion_free(self) -> bool:
        """Whether the path avoids every in-use link."""
        return not self.congested_links


@dataclass(frozen=True)
class ReplacementAttempt:
    """Evaluation of one free chip as the replacement.

    Attributes:
        free_chip: the candidate replacement.
        best_paths: least-congested path found per required endpoint.
        feasible: True when every endpoint has a congestion-free path and
            the paths do not collide with each other.
    """

    free_chip: Coordinate
    best_paths: tuple[ReplacementPath, ...]
    feasible: bool

    @property
    def total_congested_links(self) -> int:
        """Sum of congested links across the best paths."""
        return sum(len(p.congested_links) for p in self.best_paths)


class ElectricalRecoveryAnalysis:
    """Exhaustive replacement-path analysis on an electrical torus.

    Attributes:
        torus: the (possibly multi-rack) torus being analysed.
        allocator: slice allocator providing tenants and free chips.
        max_hops: path-length bound for the exhaustive enumeration.
    """

    def __init__(
        self,
        torus: Torus,
        allocator: SliceAllocator,
        max_hops: int = 6,
        dims_per_slice: dict[str, list[int]] | None = None,
    ):
        if allocator.rack.shape != torus.shape:
            raise ValueError(
                f"allocator rack {allocator.rack.shape} does not match the "
                f"analysed torus {torus.shape}"
            )
        self.torus = torus
        self.allocator = allocator
        self.max_hops = max_hops
        self.dims_per_slice = dims_per_slice or {}

    def _ring_dims(self, slc: Slice) -> list[int]:
        """Dimensions a tenant's rings occupy.

        The standard multi-dimensional bucket algorithm rings over every
        active dimension of the slice torus (Section 4.1); override per
        slice via ``dims_per_slice``.
        """
        if self.dims_per_slice and slc.name in self.dims_per_slice:
            return list(self.dims_per_slice[slc.name])
        return slc.active_dimensions()

    def busy_links(self, exclude: Slice | None = None) -> set[Link]:
        """Links occupied by tenants' rings, in both directions.

        Every slice contributes the physical links of the rings it
        executes (its active dimensions by default, including the wrap
        paths of under-spanning dimensions — the Figure 5b traffic).
        Both link directions are claimed: the bucket algorithm's
        REDUCESCATTER and ALLGATHER phases run rings in opposite
        directions (and multi-ported variants [39] ring both directions
        simultaneously), so a cable carrying a tenant's ring is busy both
        ways. Pass ``exclude`` to ignore the failed slice entirely; its
        surviving traffic is added separately by
        :meth:`surviving_ring_links`.
        """
        links: set[Link] = set()
        for slc in self.allocator.slices:
            if exclude is not None and slc.name == exclude.name:
                continue
            for dim in self._ring_dims(slc):
                for link in slc.ring_links(dim):
                    links.add(link)
                    links.add(link.reverse)
        return links

    def surviving_ring_links(self, slc: Slice, failed: Coordinate) -> set[Link]:
        """The failed slice's ring links that remain in use after repair.

        Rings not through the failed chip keep running in full. A broken
        ring keeps all of its links except the hops into and out of the
        failed chip — the repaired ring still flows 9 -> 11 -> 5 in
        Figure 7's Y ring, only the failed chip's own hops are replaced by
        the new circuits.
        """
        links: set[Link] = set()
        for dim in self._ring_dims(slc):
            for ring in slc.rings(dim):
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    if failed in ring and (a == failed or b == failed):
                        continue
                    for link in slc.physical_hop(a, b, dim):
                        links.add(link)
                        links.add(link.reverse)
        return links

    def required_endpoints(
        self, slc: Slice, failed: Coordinate
    ) -> list[Coordinate]:
        """Chips that must reach the replacement to close broken rings."""
        endpoints: list[Coordinate] = []
        for ring in broken_rings(slc, failed):
            for chip in (ring.predecessor, ring.successor):
                if chip != failed and chip not in endpoints:
                    endpoints.append(chip)
        return endpoints

    def _require_in_torus(self, failed: Coordinate) -> None:
        if not self.torus.contains(failed):
            raise InvalidChipError(
                f"failed chip {failed} is outside the torus {self.torus.shape}"
            )

    def evaluate_free_chip(
        self,
        slc: Slice,
        failed: Coordinate,
        free_chip: Coordinate,
        extra_busy: set[Link] | None = None,
    ) -> ReplacementAttempt:
        """Assess splicing ``free_chip`` into the rings broken by ``failed``.

        For each required endpoint, enumerates every simple path up to
        ``max_hops`` (avoiding the failed chip) and keeps the one crossing
        the fewest in-use links. The attempt is feasible only if every
        endpoint found a congestion-free path and the chosen paths are
        mutually link-disjoint (they will carry traffic simultaneously).
        The search runs in index space
        (:func:`repro.kernels.paths.evaluate_free_chip_vectorized`).

        Raises:
            InvalidChipError: for a failed chip outside the torus.
            ValueError: when ``free_chip`` is the failed chip itself.
        """
        self._require_in_torus(failed)
        if free_chip == failed:
            raise ValueError(
                f"free chip {free_chip} is the failed chip; a failed chip "
                "cannot replace itself"
            )
        with timed("repair"):
            return evaluate_free_chip_vectorized(
                self, slc, failed, free_chip, extra_busy
            )

    def evaluate_all_free_chips(
        self, slc: Slice, failed: Coordinate
    ) -> list[ReplacementAttempt]:
        """Evaluate every free chip in the allocator as the replacement.

        The busy/surviving link masks and the per-endpoint path
        enumerations are computed once and shared across all candidates
        (the attempts are independent, so sharing changes nothing but
        the wall clock).

        Raises:
            InvalidChipError: for a failed chip outside the torus.
        """
        self._require_in_torus(failed)
        with timed("repair"):
            return evaluate_all_free_chips_vectorized(self, slc, failed)

    def congestion_free_replacement_exists(
        self, slc: Slice, failed: Coordinate
    ) -> bool:
        """The Figure 6a question: can *any* free chip be spliced in
        without congesting someone?"""
        return any(
            attempt.feasible
            for attempt in self.evaluate_all_free_chips(slc, failed)
        )


@dataclass(frozen=True)
class RackMigrationPolicy:
    """The production baseline [60]: recover at rack granularity.

    A failure anywhere in a rack interrupts the job and moves it to a
    different (fully free) set of racks; the OCSes re-splice the new racks
    into the job's torus.

    Attributes:
        rack_chips: chips per rack (the blast radius).
        checkpoint_restore_s: time to restart the job from its last
            checkpoint on the new rack.
        ocs_reconfigure_s: time to re-program the inter-rack OCSes.
    """

    rack_chips: int = 64
    checkpoint_restore_s: float = 600.0
    ocs_reconfigure_s: float = 20e-3

    def blast_radius_chips(self) -> int:
        """Chips impacted by one failure: the whole rack."""
        return self.rack_chips

    def recovery_latency_s(self) -> float:
        """Job downtime for one failure under this policy."""
        return self.checkpoint_restore_s + self.ocs_reconfigure_s

    def spare_racks_needed(self, concurrent_failures: int) -> int:
        """Fully-free racks required to absorb concurrent failures.

        The paper notes "it may also be infeasible to find an entirely
        unused set of servers for every job with a single failed TPU";
        each concurrent failure consumes one spare rack here.
        """
        if concurrent_failures < 0:
            raise ValueError("failures cannot be negative")
        return concurrent_failures
