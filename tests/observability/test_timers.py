"""Unit tests for the hierarchical region timers."""

import time

import pytest

from repro.observability import NULL_TELEMETRY, Telemetry, merge_snapshots
from repro.observability.timers import _NULL_REGION


class TestRegionTimers:
    def test_single_region_aggregates_count_and_total(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.region("predict"):
                pass
        regions = telemetry.regions()
        assert regions["predict"]["count"] == 3
        assert regions["predict"]["total_s"] >= 0.0

    def test_nesting_joins_paths_with_slash(self):
        telemetry = Telemetry()
        with telemetry.region("correct"):
            with telemetry.region("recv_wait"):
                pass
            with telemetry.region("recv_wait"):
                pass
        regions = telemetry.regions()
        assert set(regions) == {"correct", "correct/recv_wait"}
        assert regions["correct/recv_wait"]["count"] == 2
        assert regions["correct"]["count"] == 1
        # the parent region covers its children
        assert regions["correct"]["total_s"] >= regions["correct/recv_wait"]["total_s"]

    def test_nesting_unwinds_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.region("outer"):
                with telemetry.region("inner"):
                    raise RuntimeError("boom")
        # the stack unwound: a fresh region is top-level again
        with telemetry.region("after"):
            pass
        assert "after" in telemetry.regions()
        assert "outer/after" not in telemetry.regions()

    def test_region_measures_elapsed_time(self):
        telemetry = Telemetry()
        with telemetry.region("sleep"):
            time.sleep(0.01)
        assert telemetry.regions()["sleep"]["total_s"] >= 0.009

    def test_disabled_lane_returns_shared_null_region(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.region("predict") is _NULL_REGION
        assert telemetry.region("other") is _NULL_REGION
        with telemetry.region("predict"):
            pass
        assert telemetry.regions() == {}
        assert telemetry.snapshot()["counters"] == {}

    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.inc("updates", 5)
        assert NULL_TELEMETRY.counters == {}

    def test_guarded_counters(self):
        telemetry = Telemetry()
        telemetry.inc("updates", 4)
        telemetry.inc("updates")
        telemetry.inc("bytes", 1024)
        snap = telemetry.snapshot()
        assert snap["counters"] == {"updates": 5, "bytes": 1024}
        # integer counters stay exact integers through the snapshot
        assert isinstance(snap["counters"]["updates"], int)
        assert set(snap) == {"rank", "lane", "regions", "counters"}


class TestTraceEvents:
    def test_events_recorded_only_when_tracing(self):
        plain = Telemetry(enabled=True, trace=False)
        with plain.region("predict"):
            pass
        assert plain.drain_events() == []

        tracing = Telemetry(enabled=True, trace=True)
        with tracing.region("predict"):
            pass
        events = tracing.drain_events()
        assert len(events) == 1
        path, start_us, dur_us = events[0]
        assert path == "predict"
        assert start_us >= 0.0 and dur_us >= 0.0
        # draining is destructive
        assert tracing.drain_events() == []

    def test_shared_epoch_aligns_lanes(self):
        epoch = time.perf_counter()
        lane0 = Telemetry(trace=True, rank=0, epoch=epoch)
        lane1 = Telemetry(trace=True, rank=1, epoch=epoch)
        with lane0.region("a"):
            pass
        with lane1.region("b"):
            pass
        (_, start0, _), = lane0.drain_events()
        (_, start1, _), = lane1.drain_events()
        assert start1 >= start0 >= 0.0


class TestLanesAndMerge:
    def test_lane_switches_and_name(self):
        lane = Telemetry(enabled=True, trace=True, rank=2)
        assert lane.enabled and lane.trace_enabled
        assert lane.rank == 2 and lane.lane == "rank 2"

    def test_disabled_lane_never_traces(self):
        lane = Telemetry(enabled=False, trace=True)
        assert not lane.enabled and not lane.trace_enabled

    def test_merge_snapshots_sums_regions_and_counters(self):
        lanes = [Telemetry(rank=r) for r in range(3)]
        for lane in lanes:
            with lane.region("predict"):
                pass
            lane.inc("updates", 10)
        merged = merge_snapshots([lane.snapshot() for lane in lanes])
        assert merged["regions"]["predict"]["count"] == 3
        assert merged["counters"]["updates"] == 30

    def test_merge_skips_empty_snapshots(self):
        lane = Telemetry()
        lane.inc("updates", 2)
        merged = merge_snapshots([{}, lane.snapshot(), {}])
        assert merged["counters"]["updates"] == 2
        assert merged["regions"] == {}

    def test_merge_disjoint_lanes_unions_regions_and_counters(self):
        # rank lanes touch disjoint region paths (e.g. only one rank waits);
        # the merge must union them without cross-contamination
        a = Telemetry(rank=0)
        with a.region("predict"):
            pass
        a.inc("updates/cluster0", 4)
        b = Telemetry(rank=1)
        with b.region("correct"):
            with b.region("recv_wait"):
                pass
        b.inc("updates/cluster1", 6)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert set(merged["regions"]) == {"predict", "correct", "correct/recv_wait"}
        assert merged["regions"]["predict"]["count"] == 1
        assert merged["counters"] == {"updates/cluster0": 4, "updates/cluster1": 6}

    def test_merge_of_cumulative_mirror_with_empty_base_is_identity(self):
        # a lane with nothing recorded (a rank that has not stepped yet)
        # adds nothing to the totals
        lane = Telemetry()
        with lane.region("predict"):
            pass
        lane.inc("updates", 3)
        snap = lane.snapshot()
        merged = merge_snapshots([{}, snap])
        assert merged["regions"] == snap["regions"]
        assert merged["counters"] == {"updates": 3}

    def test_counters_sum_across_ranks(self):
        lanes = []
        for updates in (10, 20, 30):
            lane = Telemetry()
            lane.inc("updates", updates)
            lanes.append(lane.snapshot())
        merged = merge_snapshots(lanes)
        assert merged["counters"]["updates"] == 60
        assert isinstance(merged["counters"]["updates"], int)

    def test_disjoint_counter_names_union(self):
        a, b = Telemetry(), Telemetry()
        a.inc("only_a", 1)
        b.inc("only_b", 2)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"only_a": 1, "only_b": 2}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == {"regions": {}, "counters": {}}


class TestIncrements:
    """What a rank worker replies each cycle: the lane's increments since
    the last reply, added into a mirror lane by the engine."""

    def test_drain_hands_over_and_starts_empty(self):
        lane = Telemetry(trace=True)
        with lane.region("predict"):
            pass
        lane.inc("updates", 4)
        increment = lane.drain()
        assert increment["regions"]["predict"]["count"] == 1
        assert increment["counters"] == {"updates": 4}
        assert [path for path, _, _ in increment["events"]] == ["predict"]
        assert lane.drain() == {"regions": {}, "counters": {}, "events": []}

    def test_absorbed_drains_equal_the_cumulative_lane(self):
        # drained per cycle, with a fresh worker lane midway (a respawn),
        # the mirror totals equal one lane that recorded everything
        whole = Telemetry(trace=True)
        mirror = Telemetry(trace=True)
        worker = Telemetry(trace=True)
        for cycle in range(4):
            if cycle == 2:
                worker = Telemetry(trace=True)
            for lane in (whole, worker):
                with lane.region("correct"):
                    with lane.region("recv_wait"):
                        pass
                lane.inc("updates/cluster0", 5)
            mirror.absorb(worker.drain())
        assert mirror.counters == whole.counters == {"updates/cluster0": 20}
        counts = {path: entry["count"] for path, entry in mirror.regions().items()}
        assert counts == {path: entry["count"] for path, entry in whole.regions().items()}
        assert len(mirror.drain_events()) == len(whole.drain_events()) == 8

    def test_disabled_lane_absorbs_nothing(self):
        lane = Telemetry()
        lane.inc("updates", 2)
        NULL_TELEMETRY.absorb(lane.drain())
        assert NULL_TELEMETRY.counters == {} and NULL_TELEMETRY.regions() == {}
