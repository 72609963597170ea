"""Link-utilization telemetry for fluid-flow simulations.

Production fabrics justify reconfiguration decisions with measured link
utilization; the benches and examples similarly want per-link timelines
("which links sat idle while the slice waited" is exactly Figure 5b's
story, told quantitatively). A :class:`LinkTelemetry` wraps a
:class:`~repro.sim.network.FlowNetwork`'s rate recomputation points and
integrates per-link carried bytes into utilization statistics.

One telemetry instance can observe several networks in sequence (the
schedule runner builds a fresh network per phase): pass it to each
:class:`InstrumentedNetwork` and the sample timelines accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..obs.tracer import Tracer
from .engine import EventEngine
from .network import FlowNetwork

__all__ = ["LinkSample", "LinkTelemetry", "InstrumentedNetwork"]

#: Relative slack under which summed carried bytes count as "nothing".
#: Carried bytes are an integral of float rate x float interval; comparing
#: the sum against exact 0.0 would misclassify links that accumulated a
#: few ulps of drift, so idleness is judged against the busiest link.
IDLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LinkSample:
    """One constant-rate interval on one link.

    Attributes:
        start_s: interval start.
        end_s: interval end.
        rate_bytes_per_s: aggregate rate carried during the interval.
    """

    start_s: float
    end_s: float
    rate_bytes_per_s: float

    @property
    def carried_bytes(self) -> float:
        """Bytes moved during the interval."""
        return (self.end_s - self.start_s) * self.rate_bytes_per_s


@dataclass
class LinkTelemetry:
    """Accumulates per-link carried bytes over a simulation.

    Attributes:
        capacities: link capacities used for utilization ratios. This is
            also the telemetry's link universe: recording a link absent
            from it is an error (see :meth:`record`).
    """

    capacities: dict[Hashable, float]
    _samples: dict[Hashable, list[LinkSample]] = field(
        default_factory=dict, repr=False
    )
    # Running per-link carried-bytes totals, maintained by record() so the
    # aggregate queries (carried_bytes / busiest_links / idle_links /
    # mean_utilization) cost O(1) per link instead of re-summing every
    # sample. The accumulation replays sum()'s exact float sequence —
    # including its int-0 start for never-used links — so results are
    # bit-identical to summing the timeline.
    _carried: dict[Hashable, float] = field(default_factory=dict, repr=False)

    def record(
        self,
        start_s: float,
        end_s: float,
        link_rates: dict[Hashable, float],
    ) -> None:
        """Record one constant-rate interval.

        Links must be known (present in ``capacities``): a silently
        dropped sample would later surface as a confusing ``KeyError``
        from :meth:`utilization` — or worse, as a link wrongly reported
        idle. Register the link (add it to ``capacities``) before
        recording traffic on it.

        Raises:
            ValueError: on a negative-length interval.
            KeyError: for a link without a registered capacity.
        """
        if end_s < start_s:
            raise ValueError("interval end precedes start")
        if end_s == start_s:
            return
        unknown = [link for link in link_rates if link not in self.capacities]
        if unknown:
            raise KeyError(
                f"cannot record links {unknown!r}: no registered capacity "
                "(add them to capacities first)"
            )
        for link, rate in link_rates.items():
            if rate <= 0:
                continue
            sample = LinkSample(
                start_s=start_s, end_s=end_s, rate_bytes_per_s=rate
            )
            self._samples.setdefault(link, []).append(sample)
            self._carried[link] = self._carried.get(link, 0) + sample.carried_bytes

    def samples(self, link: Hashable) -> tuple[LinkSample, ...]:
        """The recorded constant-rate timeline of ``link``."""
        return tuple(self._samples.get(link, ()))

    def carried_bytes(self, link: Hashable) -> float:
        """Total bytes carried on ``link``."""
        return self._carried.get(link, 0)

    def peak_rate(self, link: Hashable) -> float:
        """Highest aggregate rate observed on ``link`` (0.0 if never used)."""
        return max(
            (s.rate_bytes_per_s for s in self._samples.get(link, ())),
            default=0.0,
        )

    def utilization(self, link: Hashable, horizon_s: float) -> float:
        """Mean utilization of ``link`` over ``[0, horizon_s]``.

        Raises:
            KeyError: for a link without a known capacity.
            ValueError: on a non-positive horizon.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        capacity = self.capacities[link]
        return self.carried_bytes(link) / (capacity * horizon_s)

    def peak_utilization(self, link: Hashable) -> float:
        """Highest instantaneous utilization observed on ``link``.

        Raises:
            KeyError: for a link without a known capacity.
        """
        return self.peak_rate(link) / self.capacities[link]

    def busiest_links(self, top: int = 5) -> list[tuple[Hashable, float]]:
        """The ``top`` links by carried bytes, descending."""
        totals = [
            (link, self.carried_bytes(link)) for link in self._samples
        ]
        totals.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return totals[:top]

    def idle_links(self, tolerance: float = IDLE_TOLERANCE) -> list[Hashable]:
        """Links with capacity that carried ~nothing — stranded bandwidth.

        A link is idle when its carried bytes are at most ``tolerance``
        times the busiest link's — a relative comparison, because carried
        bytes are summed floats and exact equality with 0.0 would flip on
        integration drift.
        """
        threshold = tolerance * max(
            (self.carried_bytes(link) for link in self.capacities), default=0.0
        )
        return sorted(
            (
                link
                for link in self.capacities
                if self.carried_bytes(link) <= threshold
            ),
            key=str,
        )

    def mean_utilization(self, horizon_s: float) -> float:
        """Capacity-weighted mean utilization across all links."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        total_capacity = sum(self.capacities.values())
        if total_capacity == 0:
            return 0.0
        carried = sum(self.carried_bytes(link) for link in self.capacities)
        return carried / (total_capacity * horizon_s)


class InstrumentedNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that feeds a :class:`LinkTelemetry`.

    Rates are piecewise-constant between flow arrivals/completions; this
    subclass snapshots the per-link aggregate rate at every change point
    and records the elapsed interval into the telemetry. It observes the
    base class without perturbing it, so measured completion times are
    bit-identical to an uninstrumented run.

    Args:
        telemetry: accumulate into an existing telemetry (its capacities
            must cover this network's links) instead of starting fresh —
            how the schedule runner stitches per-phase networks into one
            timeline.
    """

    def __init__(
        self,
        engine: EventEngine,
        capacities: dict[Hashable, float],
        telemetry: LinkTelemetry | None = None,
        tracer: Tracer | None = None,
    ):
        super().__init__(engine, capacities, tracer=tracer)
        self.telemetry = (
            telemetry
            if telemetry is not None
            else LinkTelemetry(capacities=dict(capacities))
        )
        self._interval_start = engine.now_s
        self._current_rates: dict[Hashable, float] = {}

    def _advance_progress(self) -> None:
        now = self.engine.now_s
        if now > self._interval_start and self._current_rates:
            self.telemetry.record(self._interval_start, now, self._current_rates)
        super()._advance_progress()
        self._interval_start = now

    def _reschedule(self) -> None:
        super()._reschedule()
        self._current_rates = self._aggregate_rates(self._active_records())
        self._interval_start = self.engine.now_s

    def _aggregate_rates(self, records) -> dict[Hashable, float]:
        """Per-link aggregate rate across the active flows.

        Sums per-flow rates per link index, reusing the flow→index lists
        the rate kernel cached for every active flow, adding them in flow
        order — the order a per-flow dict accumulation adds them — so
        every per-link total is exact. The dict's keys come in index
        order; every downstream consumer sorts deterministically.
        """
        if not records:
            return {}
        indices = self._flow_indices
        sums: dict[int, float] = {}
        for record in records:
            rate = record.flow.rate_bytes_per_s
            for i in indices[record.flow.flow_id]:
                sums[i] = sums.get(i, 0.0) + rate
        links = self._link_space.links
        return {links[i]: sums[i] for i in sorted(sums)}

    def _active_records(self):
        return list(self._active.values())
