"""Metrics registry: counters, gauges and summary histograms.

The registry is deliberately tiny and JSON-native: every metric snapshots to
plain dicts of ints/floats, snapshots of different ranks merge by summation
(counters, histogram moments) or max (gauges), and the merged result embeds
directly into the run-summary ``telemetry`` block.  The multi-rank engine ships
worker snapshots to the parent each cycle exactly like the communication
:class:`~repro.parallel.communicator.MessageStats` mirror.
"""

from __future__ import annotations

import math

__all__ = ["Histogram", "MetricsRegistry", "merge_metrics"]


class Histogram:
    """Summary statistics of an observed stream (count/sum/min/max).

    Enough to derive mean and spread per rank and to merge across ranks
    without shipping raw samples; full distributions belong in the Chrome
    trace, not the registry.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms of one telemetry lane."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- snapshot / merge -----------------------------------------------
    def as_dict(self) -> dict:
        """JSON-native snapshot (plain ints stay ints for exact counters)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: v.as_dict() for k, v in self.histograms.items()},
        }


def merge_metrics(snapshots: list[dict]) -> dict:
    """Merge per-rank metric snapshots into cross-rank totals.

    Counters and histogram count/sum add up (so merged totals of N ranks
    equal the single-rank run's totals -- asserted by the test suite);
    gauges keep the maximum across ranks, and histogram min/max widen.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, -math.inf), value)
        for name, h in snap.get("histograms", {}).items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = dict(h)
                continue
            count = mine["count"] + h["count"]
            total = mine["sum"] + h["sum"]
            # only snapshots that observed anything contribute to min/max --
            # an empty histogram's 0.0 placeholders must not clamp the range
            seen = [x for x in (mine, h) if x["count"] > 0]
            mine.update(
                count=count,
                sum=total,
                min=min(x["min"] for x in seen) if seen else 0.0,
                max=max(x["max"] for x in seen) if seen else 0.0,
                mean=total / count if count else 0.0,
            )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
