"""Vectorized max-min fair progressive filling.

Progressive filling over the CSR incidence of
:mod:`repro.kernels.incidence`. Bit-identical by construction to the
dict-based loop kept as a test oracle (``tests/oracles/kernels.py``):

* per-link user counts are a ``bincount`` over the concatenated link
  indices of the unfrozen flows *in flow-insertion order* — the same
  first-seen order the oracle's ``link_users`` dict iterates in;
* the bottleneck is the minimum share with ties broken by smallest
  first-occurrence position, exactly the oracle's strict ``<`` scan;
* every capacity debit is the same sequence of ``x - rate`` /
  ``max(x, 0.0)`` float64 operations, flow by flow, per link occurrence
  (``np.subtract.at`` is an ordered, unbuffered loop), never a fused or
  reassociated sum;
* demand caps compare as ``demand < share`` with NaN encoding "no cap"
  (NaN comparisons are False, mirroring ``is not None and <``).
"""

from __future__ import annotations

import numpy as np

from .incidence import FlowIncidence

__all__ = ["waterfill_rates"]


def _debit(remaining: np.ndarray, idx: np.ndarray, rate: float) -> None:
    """Subtract ``rate`` per link occurrence of one frozen flow, clamped.

    For duplicate-free ``idx`` (the common case) a gather/scatter equals
    the oracle's per-occurrence subtract-then-clamp. With duplicates,
    ``np.subtract.at`` applies the occurrences sequentially; clamping
    once afterwards is still identical because a mid-sequence clamp only
    fires when the unclamped running value is already negative — both
    orders end at exactly ``0.0`` (rates are non-negative).
    """
    if idx.size > 1 and len(set(idx.tolist())) != idx.size:
        np.subtract.at(remaining, idx, rate)
        touched = remaining[idx]
        np.maximum(touched, 0.0, out=touched)
        remaining[idx] = touched
        return
    vals = remaining[idx] - rate
    np.maximum(vals, 0.0, out=vals)
    remaining[idx] = vals


def waterfill_rates(
    caps: np.ndarray,
    incidence: FlowIncidence,
    demands: np.ndarray,
) -> np.ndarray:
    """Max-min rates for a flow population over indexed links.

    Args:
        caps: per-link capacities (float64, all positive).
        incidence: the flows' CSR link incidence (flow-insertion order).
        demands: per-flow rate caps, ``NaN`` meaning uncapped.

    Returns:
        Per-flow rates, flow order. Inputs are not modified (a fresh
        remaining-capacity array is debited internally).
    """
    n_flows = incidence.flow_count
    n_links = caps.shape[0]
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates
    remaining = caps.astype(np.float64, copy=True)
    flow_links = incidence.flow_links
    flat_all = incidence.flat
    seg_all = incidence.seg
    active = np.ones(n_flows, dtype=bool)

    for _ in range(n_flows + n_links + 1):
        if not active.any():
            break
        keep = active[seg_all]
        flat = flat_all[keep]
        seg = seg_all[keep]
        if flat.size == 0:
            break
        users = np.bincount(flat, minlength=n_links)
        used_idx = np.flatnonzero(users)
        shares = remaining[used_idx] / users[used_idx]
        bottleneck_share = shares.min()
        # First strict-min in first-seen order: among the min-share links,
        # the one whose first occurrence in `flat` comes earliest.
        candidates = used_idx[shares == bottleneck_share]
        if candidates.size > 1:
            first_pos = np.empty(n_links, dtype=np.intp)
            first_pos[flat[::-1]] = np.arange(flat.size - 1, -1, -1)
            bottleneck = candidates[np.argmin(first_pos[candidates])]
        else:
            bottleneck = candidates[0]
        share = float(bottleneck_share)
        # Demand caps below the bottleneck share freeze first, exactly as
        # in the oracle (NaN demands compare False).
        active_idx = np.flatnonzero(active)
        capped = active_idx[demands[active_idx] < bottleneck_share]
        if capped.size:
            for f in capped:
                rate = float(demands[f])
                rates[f] = rate
                _debit(remaining, flow_links[f], rate)
            active[capped] = False
            continue
        frozen_now = np.unique(seg[flat == bottleneck])
        for f in frozen_now:
            rates[f] = share
            _debit(remaining, flow_links[f], share)
        active[frozen_now] = False
    return rates
