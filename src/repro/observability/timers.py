"""Hierarchical region timers with a true no-op path when disabled.

A :class:`Telemetry` object is one *lane*: one rank's (or the driver's)
stream of timed regions plus its metrics registry.  Regions nest -- entering
``correct`` and then ``recv_wait`` aggregates under the slash-joined path
``correct/recv_wait`` -- and every region uses ``time.perf_counter()``, which
on Linux is CLOCK_MONOTONIC and therefore shares an epoch across forked
worker processes (what makes per-rank Chrome-trace lanes line up).

The disabled path costs one attribute check per ``region()`` call and
returns a shared no-op context manager: instrumented-but-disabled code must
stay within the benchmarked overhead budget (see
``benchmarks/bench_observability.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .metrics import MetricsRegistry, merge_metrics

__all__ = ["Telemetry", "TelemetryConfig", "NULL_TELEMETRY", "merge_snapshots"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable on/off switches shipped to engines and worker processes."""

    enabled: bool = False
    trace: bool = False

    def build(self, rank: int = 0, lane: str | None = None, epoch: float | None = None):
        return Telemetry(
            enabled=self.enabled,
            trace=self.trace,
            rank=rank,
            lane=lane,
            epoch=epoch,
        )


class _NullRegion:
    """Shared do-nothing context manager handed out when telemetry is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


class _Region:
    """One live timed region; created only when telemetry is enabled."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry, name):
        self._telemetry = telemetry
        self._name = name

    def __enter__(self):
        telemetry = self._telemetry
        telemetry._stack.append(
            self._name if not telemetry._stack
            else f"{telemetry._stack[-1]}/{self._name}"
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        telemetry = self._telemetry
        path = telemetry._stack.pop()
        elapsed = end - self._start
        entry = telemetry._regions.get(path)
        if entry is None:
            telemetry._regions[path] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
        if telemetry.trace_enabled:
            telemetry._events.append(
                (path, (self._start - telemetry.epoch) * 1e6, elapsed * 1e6)
            )
        return False


class Telemetry:
    """One lane of region timings + metrics.

    All recording methods are guarded on ``enabled`` so call sites never
    branch themselves; the module-level :data:`NULL_TELEMETRY` is the
    canonical disabled instance used as a default everywhere.  A lane's
    region stack belongs to one thread: another thread records on a
    :meth:`branch`.
    """

    def __init__(self, enabled: bool = True, trace: bool = False,
                 rank: int = 0, lane: str | None = None,
                 epoch: float | None = None):
        self.enabled = enabled
        self.trace_enabled = enabled and trace
        self.rank = rank
        self.lane = lane if lane is not None else f"rank {rank}"
        # shared trace epoch: perf_counter is system-wide monotonic on Linux,
        # so a parent-chosen epoch keeps forked workers on the same timeline
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.metrics = MetricsRegistry()
        self._stack: list[str] = []
        self._regions: dict[str, list] = {}
        self._events: list[tuple] = []

    # -- regions --------------------------------------------------------
    def region(self, name: str):
        """Timed context manager; a shared no-op when disabled."""
        if not self.enabled:
            return _NULL_REGION
        return _Region(self, name)

    def branch(self) -> Telemetry:
        """A lane for another thread's regions inside the open one: same
        switches, rank and epoch, its region stack seeded with this lane's
        open path, so its paths read as if this thread had entered them.
        :meth:`absorb` adds it back; a disabled lane is its own branch."""
        if not self.enabled:
            return self
        lane = Telemetry(trace=self.trace_enabled, rank=self.rank, lane=self.lane,
                         epoch=self.epoch)
        lane._stack = self._stack[-1:]
        return lane

    def absorb(self, branch: Telemetry) -> None:
        """Add a finished :meth:`branch`'s regions and trace events (its
        seconds overlap this lane's: they ran on another thread)."""
        if branch is self:
            return
        for path, (count, total) in branch._regions.items():
            entry = self._regions.get(path)
            if entry is None:
                self._regions[path] = [count, total]
            else:
                entry[0] += count
                entry[1] += total
        self._events += branch._events

    # -- guarded metric shorthands --------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.observe(name, value)

    # -- snapshots ------------------------------------------------------
    def regions(self) -> dict:
        """``{path: {"count", "total_s"}}`` of aggregated region timings."""
        return {
            path: {"count": entry[0], "total_s": entry[1]}
            for path, entry in self._regions.items()
        }

    def snapshot(self) -> dict:
        """Cumulative JSON-native state of this lane (regions + metrics)."""
        snap = {"rank": self.rank, "lane": self.lane, "regions": self.regions()}
        snap.update(self.metrics.as_dict())
        return snap

    def drain_events(self) -> list[tuple]:
        """Hand over trace events accumulated since the last drain.

        A rank worker drains each cycle so the per-cycle IPC payload
        stays proportional to new work, not run length.
        """
        events, self._events = self._events, []
        return events


NULL_TELEMETRY = Telemetry(enabled=False)


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-lane snapshots: region counts/totals and counters sum."""
    snapshots = [s for s in snapshots if s]
    regions: dict[str, dict] = {}
    for snap in snapshots:
        for path, entry in snap.get("regions", {}).items():
            mine = regions.get(path)
            if mine is None:
                regions[path] = dict(entry)
            else:
                mine["count"] += entry["count"]
                mine["total_s"] += entry["total_s"]
    merged = {"regions": regions}
    merged.update(merge_metrics(snapshots))
    return merged
