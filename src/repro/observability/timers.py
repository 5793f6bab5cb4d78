"""Hierarchical region timers with a true no-op path when disabled.

A :class:`Telemetry` object is one *lane*: one rank's (or the driver's)
timed regions, exact counters and trace events.  Regions nest -- entering
``correct`` and then ``recv_wait`` aggregates under the slash-joined path
``correct/recv_wait`` -- and every region uses ``time.perf_counter()``, which
on Linux is CLOCK_MONOTONIC and therefore shares an epoch across forked
worker processes (what makes per-rank Chrome-trace lanes line up).

The disabled path costs one attribute check per ``region()`` call and
returns a shared no-op context manager: the timed runs of the end-to-end
benchmark (``benchmarks/e2e/run.py``) carry this path, and its traced pass
reports what switching telemetry on costs
(``observability.telemetry_overhead_frac``).

Lanes add up by one rule (:meth:`Telemetry.absorb`): region counts and
seconds and counters sum, trace events append.  A thread branch hands its
regions back, a rank worker its increments since the last reply, and
:func:`merge_snapshots` totals lanes, all through it.
"""

from __future__ import annotations

import time

__all__ = ["Telemetry", "NULL_TELEMETRY", "PHASE_REGIONS", "merge_snapshots", "recv_wait_s"]

#: the top-level regions of a stepped macro cycle: a lane's busy time and
#: the phase breakdown of the run summary (preprocessing and checkpoint
#: regions run outside the cycle loop and are reported separately)
PHASE_REGIONS = ("predict", "predict.boundary", "send", "predict.interior", "correct")

#: the one path of a rank's exposed halo wait: the rank stepper's
#: ``recv_wait`` region, always entered inside ``correct``
RECV_WAIT_REGION = "correct/recv_wait"


def recv_wait_s(regions: dict) -> float:
    """Exposed receive-wait seconds of a lane's (or a merged) region table."""
    entry = regions.get(RECV_WAIT_REGION)
    return float(entry["total_s"]) if entry else 0.0


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
    """One lane of region timings, counters and trace events.

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
        self.counters: dict[str, float] = {}
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
        Absorbing its :meth:`drain` adds it back; a disabled lane is its
        own branch."""
        if not self.enabled:
            return self
        lane = Telemetry(trace=self.trace_enabled, rank=self.rank, lane=self.lane,
                         epoch=self.epoch)
        lane._stack = self._stack[-1:]
        return lane

    def absorb(self, increment: dict) -> None:
        """Add an increment (a :meth:`drain`, e.g. of a finished
        :meth:`branch` whose seconds overlap this lane's, or a
        :meth:`snapshot`): region counts and seconds and counters sum,
        trace events append.  A disabled lane records nothing."""
        if not self.enabled:
            return
        for path, entry in increment.get("regions", {}).items():
            mine = self._regions.get(path)
            if mine is None:
                self._regions[path] = [entry["count"], entry["total_s"]]
            else:
                mine[0] += entry["count"]
                mine[1] += entry["total_s"]
        for name, value in increment.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self._events += increment.get("events", ())

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (plain ints stay exact)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- snapshots ------------------------------------------------------
    def regions(self) -> dict:
        """``{path: {"count", "total_s"}}`` of aggregated region timings."""
        return {
            path: {"count": entry[0], "total_s": entry[1]}
            for path, entry in self._regions.items()
        }

    def snapshot(self) -> dict:
        """Cumulative JSON-native state of this lane (regions + counters)."""
        return {
            "rank": self.rank,
            "lane": self.lane,
            "regions": self.regions(),
            "counters": dict(self.counters),
        }

    def drain(self) -> dict:
        """Hand over the regions, counters and trace events recorded since
        the last drain, and start over empty: what a rank worker replies
        each cycle (so the payload stays proportional to new work, not run
        length) and a thread branch hands back to :meth:`absorb`."""
        increment = {"regions": self.regions(), "counters": self.counters,
                     "events": self._events}
        self._regions, self.counters, self._events = {}, {}, []
        return increment

    def drain_events(self) -> list[tuple]:
        """Hand over the trace events accumulated since the last drain."""
        events, self._events = self._events, []
        return events


NULL_TELEMETRY = Telemetry(enabled=False)


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Cross-lane totals of per-lane snapshots (:meth:`Telemetry.absorb`)."""
    total = Telemetry()
    for snap in snapshots:
        total.absorb(snap)
    return {"regions": total.regions(), "counters": total.counters}
