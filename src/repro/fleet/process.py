"""Per-chip failure renewal process for the fleet simulator.

:class:`~repro.failures.inject.FleetFailureModel` draws at most one
failure per chip — fine for a blast-radius snapshot, silently
undercounting on long horizons where repaired chips fail again. The
fleet simulator instead treats each chip as a renewal process: after
every repair the chip draws a fresh exponential time-to-failure from its
own RNG substream.

Determinism matches the PR 5 seed-purity guarantee: each chip's
substream is derived from ``(seed, chip_index)`` and consumed only by
that chip's own renewals, so the whole failure trace is a pure function
of the seed and the (deterministic) repair dynamics — two runs of the
same seeded config, in the same process or across sharded serve
workers, produce byte-identical traces request-to-request.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RenewalFailureProcess"]


#: Draws read from a chip's substream at a time. A block holds exactly
#: the values the same number of scalar draws would return, in order.
_BLOCK = 16


class RenewalFailureProcess:
    """Independent exponential renewal streams, one per chip.

    Attributes:
        chips: number of chips (stream count).
        mtbf_s: mean time between failures of one chip, seconds.
        seed: base RNG seed; chip ``i`` draws from
            ``default_rng((seed, i))``, :data:`_BLOCK` values at a time.
    """

    def __init__(self, chips: int, mtbf_s: float, seed: int = 0):
        if chips <= 0:
            raise ValueError("need at least one chip")
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        self.chips = chips
        self.mtbf_s = mtbf_s
        self.seed = seed
        self._streams: list[np.random.Generator | None] = [None] * chips
        self._blocks = np.empty((chips, _BLOCK))
        self._used = [_BLOCK] * chips

    def next_delay_s(self, chip: int) -> float:
        """The chip's next time-to-failure draw, seconds from now.

        Consumes one value from the chip's substream; substreams are
        created lazily so an uneventful chip costs nothing.
        """
        if not 0 <= chip < self.chips:
            raise IndexError(f"chip {chip} outside fleet of {self.chips}")
        used = self._used[chip]
        if used == _BLOCK:
            stream = self._streams[chip]
            if stream is None:
                stream = np.random.default_rng((self.seed, chip))
                self._streams[chip] = stream
            self._blocks[chip] = stream.exponential(self.mtbf_s, _BLOCK)
            used = 0
        self._used[chip] = used + 1
        return self._blocks.item(chip, used)
