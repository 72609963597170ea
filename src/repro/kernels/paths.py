"""Index-space torus paths: BFS, simple-path enumeration, repair search.

The electrical failure analysis (Figure 6a) is the cold-evaluation hot
path: for every free chip it exhaustively enumerates simple replacement
paths with :meth:`~repro.topology.torus.Torus.all_paths`, hashing
coordinate tuples and :class:`~repro.topology.torus.Link` objects at
every step. This module rewrites that search over dense integer node and
link ids:

* a :class:`TorusKernel` (memoized per shape) holds the neighbor table,
  directed-link index space and step→link-id matrix, all built from the
  :class:`~repro.topology.torus.Torus` itself so orderings agree by
  construction;
* simple paths are enumerated once per (endpoint, failed chip) by
  breadth-wise frontier expansion and *shared across every candidate
  free chip* (the coordinate search re-enumerates per free chip — the
  paths do not depend on the destination, only the tail filter does);
* the coordinate search's "first strict minimum in DFS yield order"
  selection is reproduced exactly: DFS preorder equals lexicographic
  order of the paths' neighbor-slot sequences (for a fixed destination
  no candidate is a prefix of another, since a simple path only touches
  the destination at its tail), so a single ``lexsort`` assigns every
  enumerated path its DFS rank and the winner is the minimum of
  ``(congested-link count, rank)``.

Congested-link counting is a boolean gather over per-path link-id rows —
the incidence-array form of ``link in blocked``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..topology.torus import Coordinate, Link, Torus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..failures.recovery import ReplacementAttempt, ReplacementPath
    from ..topology.slices import Slice

__all__ = [
    "TorusKernel",
    "torus_kernel",
    "ring_link_ids",
    "evaluate_free_chip_vectorized",
    "evaluate_all_free_chips_vectorized",
]


class TorusKernel:
    """Dense integer index space over a torus's nodes and directed links.

    Attributes:
        shape: the torus extents.
        coords: node id → coordinate tuple (lexicographic order).
        id_of: coordinate tuple → node id.
        nbr: ``(N, S)`` neighbor table in :meth:`Torus.neighbors` order,
            padded with ``-1``.
        step_link: ``(N, S)`` link id of the step ``node → nbr[node, s]``
            (``-1`` on padding).
        links: link id → :class:`Link`, in :meth:`Torus.links` order.
        reverse_id: link id → id of the reverse link.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        torus = Torus(shape)
        self.shape = torus.shape
        self.coords: list[Coordinate] = list(torus.nodes())
        self.id_of: dict[Coordinate, int] = {
            coord: i for i, coord in enumerate(self.coords)
        }
        self.links: list[Link] = list(torus.links())
        self._lid_of_pair: dict[tuple[int, int], int] = {
            (self.id_of[link.src], self.id_of[link.dst]): i
            for i, link in enumerate(self.links)
        }
        n = len(self.coords)
        nbr_lists = [
            [self.id_of[nb] for nb in torus.neighbors(coord)]
            for coord in self.coords
        ]
        width = max((len(row) for row in nbr_lists), default=0)
        self.nbr = np.full((n, max(width, 1)), -1, dtype=np.intp)
        self.step_link = np.full((n, max(width, 1)), -1, dtype=np.intp)
        for node, row in enumerate(nbr_lists):
            for slot, other in enumerate(row):
                self.nbr[node, slot] = other
                self.step_link[node, slot] = self._lid_of_pair[(node, other)]
        self.reverse_id = np.fromiter(
            (
                self._lid_of_pair[(self.id_of[link.dst], self.id_of[link.src])]
                for link in self.links
            ),
            dtype=np.intp,
            count=len(self.links),
        )

    @property
    def link_count(self) -> int:
        return len(self.links)

    def links_mask(self, links: Iterable[Link]) -> np.ndarray:
        """Boolean mask over link ids; links outside the torus (which no
        enumerated path can use) are ignored."""
        mask = np.zeros(len(self.links), dtype=bool)
        id_of = self.id_of
        pairs = self._lid_of_pair
        for link in links:
            src = id_of.get(link.src)
            dst = id_of.get(link.dst)
            if src is None or dst is None:
                continue
            lid = pairs.get((src, dst))
            if lid is not None:
                mask[lid] = True
        return mask

    def path_link_ids(self, node_ids: Iterable[int]) -> list[int]:
        """Directed link ids along a node-id path."""
        nodes = list(node_ids)
        pairs = self._lid_of_pair
        return [pairs[(a, b)] for a, b in zip(nodes, nodes[1:])]

    # -- searches -----------------------------------------------------------

    def bfs_path(
        self,
        src: int,
        dst: int,
        blocked_links: np.ndarray,
        forbidden_node: int,
    ) -> list[int] | None:
        """Index-space replica of :meth:`Torus.shortest_path`.

        Same frontier iteration and neighbor order, so the returned node
        sequence (or ``None``) is identical.
        """
        if src == dst:
            return [src]
        n = self.nbr.shape[0]
        parents = np.full(n, -1, dtype=np.intp)
        parents[src] = src
        nbr = self.nbr
        step_link = self.step_link
        frontier = [src]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for slot in range(nbr.shape[1]):
                    other = nbr[node, slot]
                    if other < 0 or parents[other] >= 0:
                        continue
                    if blocked_links[step_link[node, slot]]:
                        continue
                    if other != dst and other == forbidden_node:
                        continue
                    parents[other] = node
                    if other == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(int(parents[path[-1]]))
                        path.reverse()
                        return path
                    nxt.append(int(other))
            frontier = nxt
        return None

    def enumerate_simple_paths(
        self, src: int, forbidden_node: int, max_hops: int
    ) -> "PathSet":
        """All simple paths from ``src`` of up to ``max_hops`` edges that
        avoid ``forbidden_node``, with their global DFS ranks.

        The result is destination-agnostic: filtering on a path's tail
        yields exactly :meth:`Torus.all_paths`'s set for that
        destination (paths through the destination are excluded by the
        tail filter itself, mirroring :meth:`Torus.all_paths`'s stop-at-dst rule).
        """
        nodes = np.array([[src]], dtype=np.intp)
        slots = np.empty((1, 0), dtype=np.intp)
        lids = np.empty((1, 0), dtype=np.intp)
        depths = [(nodes, slots, lids)]
        for _ in range(max_hops):
            tails = nodes[:, -1]
            cand = self.nbr[tails]
            ok = cand >= 0
            if forbidden_node >= 0:
                ok &= cand != forbidden_node
            ok &= ~(nodes[:, :, None] == cand[:, None, :]).any(axis=1)
            parent, slot = np.nonzero(ok)
            if parent.size == 0:
                break
            step = cand[parent, slot]
            nodes = np.concatenate(
                [nodes[parent], step[:, None]], axis=1
            )
            slots = np.concatenate(
                [slots[parent], slot[:, None].astype(np.intp)], axis=1
            )
            lids = np.concatenate(
                [lids[parent], self.step_link[tails[parent], slot][:, None]],
                axis=1,
            )
            depths.append((nodes, slots, lids))
        return PathSet(depths, max_hops)


class PathSet:
    """Enumerated simple paths from one source, DFS-ranked.

    Attributes:
        depths: per edge-count ``(nodes, slots, lids)`` arrays.
    """

    def __init__(
        self,
        depths: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        max_hops: int,
    ) -> None:
        self.depths = depths
        # Global DFS rank: lexicographic order of the slot sequences,
        # padded with -1. Padding never decides a comparison between two
        # same-destination candidates (no-prefix property), so any pad
        # value yields the correct relative order.
        total = sum(d[0].shape[0] for d in depths)
        padded = np.full((total, max_hops), -1, dtype=np.intp)
        offset = 0
        self._offsets = []
        for nodes, slots, _ in depths:
            count = nodes.shape[0]
            self._offsets.append(offset)
            if slots.shape[1]:
                padded[offset : offset + count, : slots.shape[1]] = slots
            offset += count
        if max_hops and total:
            order = np.lexsort(padded.T[::-1])
        else:
            order = np.arange(total)
        self._rank = np.empty(total, dtype=np.intp)
        self._rank[order] = np.arange(total)

    def best_for(
        self, dst: int, blocked_links: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The least-congested path ending at ``dst``.

        Returns ``(node_ids, link_ids)`` of the path the coordinate search's
        first-strict-min scan would keep, or ``None`` when no enumerated
        path reaches ``dst``.
        """
        best_key = None
        best_val: tuple[np.ndarray, np.ndarray] | None = None
        for (nodes, _, lids), offset in zip(self.depths, self._offsets):
            rows = np.flatnonzero(nodes[:, -1] == dst)
            if rows.size == 0:
                continue
            counts = blocked_links[lids[rows]].sum(axis=1)
            ranks = self._rank[offset + rows]
            i = int(np.lexsort((ranks, counts))[0])
            key = (int(counts[i]), int(ranks[i]))
            if best_key is None or key < best_key:
                best_key = key
                row = rows[i]
                best_val = (nodes[row], lids[row])
        return best_val


@lru_cache(maxsize=64)
def torus_kernel(shape: tuple[int, ...]) -> TorusKernel:
    """The memoized :class:`TorusKernel` for ``shape``."""
    return TorusKernel(shape)


@lru_cache(maxsize=4096)
def ring_link_ids(
    rack_shape: tuple[int, ...],
    offset: Coordinate,
    shape: tuple[int, ...],
    dim: int,
) -> np.ndarray:
    """Link-id array of a slice geometry's rings along ``dim``.

    The index-space twin of
    :func:`repro.topology.slices._ring_links_for_geometry`, produced by
    mapping its (memoized) link tuple once per geometry. Consumed
    directly by the repair kernel's busy-mask construction.
    """
    from ..topology.slices import _ring_links_for_geometry

    kernel = torus_kernel(rack_shape)
    links = _ring_links_for_geometry(rack_shape, offset, shape, dim)
    pairs = kernel._lid_of_pair
    id_of = kernel.id_of
    out = np.fromiter(
        (pairs[(id_of[lnk.src], id_of[lnk.dst])] for lnk in links),
        dtype=np.intp,
        count=len(links),
    )
    out.setflags(write=False)
    return out


# -- repair analysis ---------------------------------------------------------


def _busy_mask(analysis, kernel: TorusKernel, exclude: "Slice") -> np.ndarray:
    """Index-space :meth:`ElectricalRecoveryAnalysis.busy_links`.

    Ring link-id arrays come straight from :func:`ring_link_ids`; both
    directions are claimed via the kernel's reverse-id table.
    """
    mask = np.zeros(kernel.link_count, dtype=bool)
    for slc in analysis.allocator.slices:
        if exclude is not None and slc.name == exclude.name:
            continue
        for dim in analysis._ring_dims(slc):
            ids = ring_link_ids(slc.rack.shape, slc.offset, slc.shape, dim)
            mask[ids] = True
            mask[kernel.reverse_id[ids]] = True
    return mask


def _attempt(
    analysis,
    kernel: TorusKernel,
    endpoints: list[Coordinate],
    failed: Coordinate,
    free_chip: Coordinate,
    busy_mask: np.ndarray,
    path_sets: dict[int, PathSet],
) -> "ReplacementAttempt":
    """One free chip's :class:`ReplacementAttempt`, index-space."""
    from ..failures.recovery import ReplacementAttempt, ReplacementPath

    failed_id = kernel.id_of[failed]
    free_id = kernel.id_of[free_chip]
    coords = kernel.coords
    links = kernel.links
    chosen_mask = np.zeros(kernel.link_count, dtype=bool)
    attempts: list[ReplacementPath] = []
    feasible = True
    for endpoint in endpoints:
        endpoint_id = kernel.id_of[endpoint]
        blocked = busy_mask | chosen_mask
        clean = kernel.bfs_path(endpoint_id, free_id, blocked, failed_id)
        if clean is not None:
            best = ReplacementPath(
                endpoint=endpoint,
                path=tuple(coords[n] for n in clean),
                congested_links=(),
            )
            best_lids = kernel.path_link_ids(clean)
        else:
            path_set = path_sets.get(endpoint_id)
            if path_set is None:
                path_set = kernel.enumerate_simple_paths(
                    endpoint_id, failed_id, analysis.max_hops
                )
                path_sets[endpoint_id] = path_set
            found = path_set.best_for(free_id, blocked)
            if found is None:
                feasible = False
                attempts.append(
                    ReplacementPath(
                        endpoint=endpoint, path=(endpoint,), congested_links=()
                    )
                )
                continue
            node_row, lid_row = found
            congested = tuple(
                links[lid] for lid in lid_row[blocked[lid_row]].tolist()
            )
            best = ReplacementPath(
                endpoint=endpoint,
                path=tuple(coords[n] for n in node_row.tolist()),
                congested_links=congested,
            )
            best_lids = lid_row
        if not best.is_congestion_free:
            feasible = False
        chosen_mask[best_lids] = True
        attempts.append(best)
    return ReplacementAttempt(
        free_chip=free_chip, best_paths=tuple(attempts), feasible=feasible
    )


def evaluate_free_chip_vectorized(
    analysis,
    slc: "Slice",
    failed: Coordinate,
    free_chip: Coordinate,
    extra_busy=None,
) -> "ReplacementAttempt":
    """Index-space :meth:`ElectricalRecoveryAnalysis.evaluate_free_chip`."""
    kernel = torus_kernel(analysis.torus.shape)
    busy_mask = _busy_mask(analysis, kernel, exclude=slc)
    busy_mask |= kernel.links_mask(
        analysis.surviving_ring_links(slc, failed)
    )
    if extra_busy:
        busy_mask |= kernel.links_mask(extra_busy)
    endpoints = analysis.required_endpoints(slc, failed)
    return _attempt(
        analysis, kernel, endpoints, failed, free_chip, busy_mask, {}
    )


def evaluate_all_free_chips_vectorized(
    analysis, slc: "Slice", failed: Coordinate
) -> "list[ReplacementAttempt]":
    """Index-space :meth:`~ElectricalRecoveryAnalysis.evaluate_all_free_chips`.

    The busy/surviving masks and the per-endpoint path enumerations are
    computed once and shared across all candidate free chips — the
    coordinate search recomputes them per chip, which is where most of
    the cold repair-grid time went.
    """
    kernel = torus_kernel(analysis.torus.shape)
    busy_mask = _busy_mask(analysis, kernel, exclude=slc)
    busy_mask |= kernel.links_mask(
        analysis.surviving_ring_links(slc, failed)
    )
    endpoints = analysis.required_endpoints(slc, failed)
    path_sets: dict[int, PathSet] = {}
    return [
        _attempt(
            analysis, kernel, endpoints, failed, free_chip, busy_mask, path_sets
        )
        for free_chip in analysis.allocator.free_chips()
        if free_chip != failed
    ]
