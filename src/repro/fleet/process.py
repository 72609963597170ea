"""Per-chip failure renewal process for the fleet simulator.

:class:`~repro.failures.inject.FleetFailureModel` draws at most one
failure per chip — fine for a blast-radius snapshot, silently
undercounting on long horizons where repaired chips fail again. The
fleet simulator instead treats each chip as a renewal process: after
every repair the chip draws a fresh exponential time-to-failure from its
own RNG substream.

Determinism follows the seed-purity guarantee: each chip's
substream is derived from ``(seed, chip_index)`` and consumed only by
that chip's own renewals, so the whole failure trace is a pure function
of the seed and the (deterministic) repair dynamics — two runs of the
same seeded config, in the same process or across sharded serve
workers, produce byte-identical traces request-to-request.

The values live in :class:`RenewalDraws`, which several processes (the
two fabric runs of one fleet report) can share: each chip's first block
is drawn once, and a process only reads it, so a run that stays within
the first block builds no generator of its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RenewalDraws", "RenewalFailureProcess"]


#: Draws read from a chip's substream at a time. A block holds exactly
#: the values the same number of scalar draws would return, in order.
_BLOCK = 64


class RenewalDraws:
    """The renewal streams of one ``(chips, mtbf_s, seed)``, in blocks.

    Every chip's first block is drawn at construction (a fleet run draws
    every chip's first failure at once) and kept read-only in
    :attr:`first`; later blocks are drawn on request and not kept.

    Attributes:
        chips: number of chips (stream count).
        mtbf_s: mean time between failures of one chip, seconds.
        seed: base RNG seed; chip ``i`` draws from
            ``default_rng((seed, i))``, :data:`_BLOCK` values at a time.
        first: ``(chips, _BLOCK)`` array, row ``i`` chip ``i``'s first
            block.
    """

    def __init__(self, chips: int, mtbf_s: float, seed: int = 0):
        if chips <= 0:
            raise ValueError("need at least one chip")
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        self.chips = chips
        self.mtbf_s = mtbf_s
        self.seed = seed
        self._streams = [np.random.default_rng((seed, chip)) for chip in range(chips)]
        self.first = np.empty((chips, _BLOCK))
        for chip, stream in enumerate(self._streams):
            self.first[chip] = stream.exponential(mtbf_s, _BLOCK)
        self.first.flags.writeable = False
        # The block each stream draws next.
        self._next = [1] * chips

    def block(self, chip: int, index: int) -> np.ndarray:
        """Block ``index`` (>= 1) of ``chip``'s stream.

        A stream already past that block (another process read further)
        is built anew and skips the blocks before it.
        """
        stream = self._streams[chip]
        at = self._next[chip]
        if at > index:
            stream = self._streams[chip] = np.random.default_rng((self.seed, chip))
            at = 0
        for _ in range(index - at):
            stream.exponential(self.mtbf_s, _BLOCK)
        self._next[chip] = index + 1
        return stream.exponential(self.mtbf_s, _BLOCK)


class RenewalFailureProcess:
    """Independent exponential renewal streams, one per chip.

    One process reads each chip's stream once, in order; processes that
    share a :class:`RenewalDraws` read the same values.

    Attributes:
        chips: number of chips (stream count).
        mtbf_s: mean time between failures of one chip, seconds.
        seed: base RNG seed; chip ``i`` draws from
            ``default_rng((seed, i))``.
    """

    def __init__(
        self,
        chips: int,
        mtbf_s: float,
        seed: int = 0,
        draws: RenewalDraws | None = None,
    ):
        if draws is None:
            draws = RenewalDraws(chips, mtbf_s, seed)
        elif (draws.chips, draws.mtbf_s, draws.seed) != (chips, mtbf_s, seed):
            raise ValueError(
                f"draws are for {draws.chips} chips, MTBF {draws.mtbf_s} s, "
                f"seed {draws.seed}; the process needs {chips}, {mtbf_s}, {seed}"
            )
        self.chips = chips
        self.mtbf_s = mtbf_s
        self.seed = seed
        self._draws = draws
        # The shared first blocks until some chip needs its second one;
        # then a private copy whose rows move on chip by chip.
        self._blocks = draws.first
        self._block_index = [0] * chips
        self._used = np.zeros(chips, dtype=np.intp)

    def _refill(self, chip: int) -> None:
        if self._blocks is self._draws.first:
            self._blocks = self._blocks.copy()
        index = self._block_index[chip] + 1
        self._block_index[chip] = index
        self._blocks[chip] = self._draws.block(chip, index)

    def next_delay_s(self, chip: int) -> float:
        """The chip's next time-to-failure draw, seconds from now.

        Consumes one value from the chip's substream.
        """
        if not 0 <= chip < self.chips:
            raise IndexError(f"chip {chip} outside fleet of {self.chips}")
        used = self._used.item(chip)
        if used == _BLOCK:
            self._refill(chip)
            used = 0
        self._used[chip] = used + 1
        return self._blocks.item(chip, used)

    def next_delays_s(self, chips: np.ndarray) -> np.ndarray:
        """:meth:`next_delay_s` for each of ``chips`` (distinct chip
        indices, an integer array), as one array in the same order."""
        used = self._used[chips]
        spent = used == _BLOCK
        if spent.any():
            for chip in chips[spent].tolist():
                self._refill(chip)
            used[spent] = 0
        self._used[chips] = used + 1
        return self._blocks[chips, used]
