"""Link-index spaces and a flow population's link incidence.

The kernels never hash a link (or a :class:`~repro.topology.torus.Link`)
on the hot path: links are enumerated once into a dense index space
(:class:`LinkSpace`), and a population of flows becomes one list of
link indices per flow (:class:`FlowIncidence`), which the water-filling
kernel walks directly.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

__all__ = ["LinkSpace", "FlowIncidence"]


class LinkSpace:
    """A dense index space over an ordered link universe.

    Built from a capacity mapping; the index order is the mapping's
    iteration (insertion) order, which is what makes index-space
    reductions reproduce the dict-based oracle loops' iteration
    tie-breaks exactly.

    Attributes:
        links: link objects, index order.
        index: link → index.
        caps: capacities as float64, index order.
    """

    __slots__ = ("links", "index", "caps")

    def __init__(self, capacity_bytes_per_s: dict[Hashable, float]) -> None:
        self.links: list[Hashable] = list(capacity_bytes_per_s)
        self.index: dict[Hashable, int] = {
            link: i for i, link in enumerate(self.links)
        }
        self.caps = np.fromiter(
            capacity_bytes_per_s.values(), dtype=np.float64, count=len(self.links)
        )

    def __len__(self) -> int:
        return len(self.links)

    def indices(self, links: Sequence[Hashable]) -> np.ndarray:
        """Index array for ``links`` (in the given order).

        Raises:
            KeyError: for a link outside the space (the *bare* key; the
                caller formats the flow-specific message).
        """
        index = self.index
        return np.fromiter(
            (index[link] for link in links), dtype=np.intp, count=len(links)
        )


class FlowIncidence:
    """The link incidence of a flow population over a :class:`LinkSpace`.

    Attributes:
        flow_links: per-flow link-index lists, flow order (a link a flow
            crosses twice appears twice).
    """

    __slots__ = ("flow_links",)

    def __init__(self, flow_links: Sequence[list[int]]) -> None:
        self.flow_links = list(flow_links)

    @property
    def flow_count(self) -> int:
        return len(self.flow_links)
