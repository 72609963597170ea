"""Max-min fair progressive filling with an incremental bottleneck heap.

Bit-identical by construction to the dict-based loop kept as a test
oracle (``tests/oracles/kernels.py``), which recomputes every link's
share in every round:

* each link used by an unfrozen flow holds a heap key
  ``(remaining / users, first position)``, where ``users`` counts the
  link's occurrences among the unfrozen flows and ``first position`` is
  the flat (flow, then link) position of the first of them — the
  oracle's first-seen ``link_users`` order, which breaks share ties;
* a freeze changes only the links its flows cross, so only those get
  new keys; superseded keys stay in the heap and are skipped when they
  surface (a key is current only while it is the link's latest);
* demand caps are scanned with a cursor over the capped flows sorted by
  demand: every unfrozen flow with ``demand < share`` freezes at its
  demand, exactly the oracle's capped round (NaN encodes "no cap");
* every capacity debit is the same ``x - rate`` then ``max(x, 0.0)``
  float64 step, per link occurrence, flows in input order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .incidence import FlowIncidence

__all__ = ["waterfill_rates"]


def waterfill_rates(
    caps: np.ndarray,
    incidence: FlowIncidence,
    demands: np.ndarray,
) -> np.ndarray:
    """Max-min rates for a flow population over indexed links.

    Args:
        caps: per-link capacities (float64, all positive).
        incidence: the flows' link-index lists (flow-insertion order),
            each naming at least one link.
        demands: per-flow rate caps, ``NaN`` meaning uncapped.

    Returns:
        Per-flow rates, flow order. Inputs are not modified (a fresh
        remaining-capacity list is debited internally).
    """
    flow_links = incidence.flow_links
    n_flows = len(flow_links)
    remaining = caps.tolist()
    demand = demands.tolist()
    # Each link's occurrences as flat positions, ascending; ``owner``
    # maps a flat position back to its flow.
    occurrences: dict[int, list[int]] = {}
    owner: list[int] = []
    for f, links in enumerate(flow_links):
        for link in links:
            seen = occurrences.get(link)
            if seen is None:
                occurrences[link] = [len(owner)]
            else:
                seen.append(len(owner))
            owner.append(f)
    users = {link: len(seen) for link, seen in occurrences.items()}
    first = dict.fromkeys(occurrences, 0)  # index into occurrences[link]
    current: dict[int, tuple | None] = {}
    heap = []
    for link, seen in occurrences.items():
        key = (remaining[link] / len(seen), seen[0], link)
        current[link] = key
        heap.append(key)
    heapify(heap)
    capped = sorted((d, f) for f, d in enumerate(demand) if d == d)
    cursor = 0
    rates = [0.0] * n_flows
    frozen = [False] * n_flows
    left = n_flows
    while left and heap:
        key = heap[0]
        while current[key[2]] is not key:
            heappop(heap)
            key = heap[0]
        share = key[0]
        while cursor < len(capped) and frozen[capped[cursor][1]]:
            cursor += 1
        freezing = []
        if cursor < len(capped) and capped[cursor][0] < share:
            # Demand caps below the bottleneck share freeze first.
            while cursor < len(capped) and capped[cursor][0] < share:
                f = capped[cursor][1]
                if not frozen[f]:
                    freezing.append(f)
                cursor += 1
            freezing.sort()
            freeze_rate = None
        else:
            # Every unfrozen flow crossing the bottleneck, at its share.
            last = -1
            for position in occurrences[key[2]]:
                f = owner[position]
                if f != last and not frozen[f]:
                    freezing.append(f)
                last = f
            freeze_rate = share
        touched = set()
        for f in freezing:
            rate = demand[f] if freeze_rate is None else freeze_rate
            rates[f] = rate
            frozen[f] = True
            for link in flow_links[f]:
                x = remaining[link] - rate
                if x < 0.0:
                    x = 0.0
                remaining[link] = x
                users[link] -= 1
                touched.add(link)
        left -= len(freezing)
        for link in touched:
            count = users[link]
            if count:
                seen = occurrences[link]
                i = first[link]
                while frozen[owner[seen[i]]]:
                    i += 1
                first[link] = i
                key = (remaining[link] / count, seen[i], link)
                current[link] = key
                heappush(heap, key)
            else:
                current[link] = None
    return np.array(rates, dtype=np.float64)
