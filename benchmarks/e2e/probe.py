"""The fixed host probe and the probe-normalised second.

This host is a shared VM: identical runs swing by +-15 % in wall clock and a
pure-Python loop by 1.8x, because neighbours contend for the cores.  Every
timing the benchmark gates is therefore divided by how fast the host was *at
that moment*, measured by one small fixed piece of work run before the first
and after every timed operation:

    normalised = raw_wall * PROBE_REF_S / mean(reading before, reading after)

A *reading* is the median of a short burst of probe samples -- at least
three, and as many as fit in 5 % of the operation it follows (at most 15),
so a single 6 s sweep is not normalised by two noisy 16 ms samples.

The probe mixes the two kinds of work the program does -- batched small
matmuls of the solver's own shapes and interpreted Python -- and is frozen
with the benchmark: changing it changes the unit every committed number is
expressed in.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = [
    "PROBE_REF_S", "HostProbe", "normalise", "percentile", "relative_spread", "pooled_percentiles",
]

#: the probe duration one normalised second is pinned to (a constant, not a
#: measurement: a host where the probe takes 0.020 s reports raw seconds)
PROBE_REF_S = 0.020

_N_ELEMENTS, _N_VARS, _N_BASIS = 1200, 9, 35
_REPEATS = 12
_LOOP_ITERATIONS = 60_000

#: samples per reading: at least MIN, up to MAX when 5 % of the operation's
#: wall has room for more
_MIN_BURST, _MAX_BURST, _BURST_SHARE = 3, 15, 0.05


class HostProbe:
    """Runs the fixed probe and keeps every sample (seconds)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._dofs = rng.standard_normal((_N_ELEMENTS, _N_VARS, _N_BASIS))
        self._stiffness = rng.standard_normal((_N_BASIS, _N_BASIS))
        self._star = rng.standard_normal((_N_ELEMENTS, _N_VARS, _N_VARS))
        self._out = np.empty_like(self._dofs)
        self._tmp = np.empty_like(self._dofs)
        self.samples: list[float] = []
        self.readings: list[float] = []

    def sample(self) -> float:
        """Run the probe once; returns (and records) its wall seconds."""
        start = time.perf_counter()
        for _ in range(_REPEATS):
            np.matmul(self._dofs, self._stiffness, out=self._tmp)
            np.matmul(self._star, self._tmp, out=self._out)
            np.add(self._out, self._dofs, out=self._out)
        acc = 0
        for i in range(_LOOP_ITERATIONS):
            acc += i & 7
        wall = time.perf_counter() - start
        self.samples.append(wall)
        return wall

    def read(self, after_wall_s: float = 0.0) -> float:
        """One reading: the median of a burst of samples sized to the
        operation (``after_wall_s`` seconds) it follows."""
        budget = _BURST_SHARE * after_wall_s
        burst = [self.sample() for _ in range(_MIN_BURST)]
        while len(burst) < _MAX_BURST and sum(burst) < budget:
            burst.append(self.sample())
        self.readings.append(statistics.median(burst))
        return self.readings[-1]

    def timed(self, operation):
        """Run ``operation()`` between two readings.

        Returns ``(result, raw_wall_s, normalised_s)``.  The reading taken
        after the previous operation doubles as this one's "before".
        """
        before = self.readings[-1] if self.readings else self.read()
        start = time.perf_counter()
        result = operation()
        raw = time.perf_counter() - start
        after = self.read(raw)
        return result, raw, normalise(raw, before, after)

    def summary(self) -> dict:
        """p50 and relative interquartile spread of the samples so far."""
        if not self.samples:
            return {"probe_s_p50": 0.0, "probe_spread": 0.0, "n": 0}
        return {
            "probe_s_p50": statistics.median(self.samples),
            "probe_spread": relative_spread(self.samples),
            "n": len(self.samples),
        }


def normalise(raw_wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """Raw wall seconds -> probe-normalised seconds, from the two adjacent
    probe readings."""
    return raw_wall_s * PROBE_REF_S / (0.5 * (probe_before_s + probe_after_s))


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``samples``."""
    return float(np.percentile(list(samples), q))


def relative_spread(values) -> float:
    """Interquartile distance over the median (range over the median below
    four values, where quartiles are not defined)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


#: percentile -> pooled samples needed so that at least ten lie beyond it
_TAIL_RULE = ((99.0, 1000), (90.0, 100), (75.0, 40))


def pooled_percentiles(samples) -> dict:
    """Median plus the highest percentile that has >= 10 samples beyond it.

    ``{"n": count, "p50": median, "tail_q": 75|90|99|None, "tail": value|None}``
    -- the tail is omitted (None), not extrapolated, when the pool is too
    small for even p75.
    """
    samples = list(samples)
    out = {"n": len(samples), "p50": percentile(samples, 50.0), "tail_q": None, "tail": None}
    for q, needed in _TAIL_RULE:
        if len(samples) >= needed:
            out["tail_q"] = q
            out["tail"] = percentile(samples, q)
            break
    return out
