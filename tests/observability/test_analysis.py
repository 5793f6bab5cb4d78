"""Unit tests for the derived analytics behind ``repro report``.

All blocks are exercised on synthetic run summaries, so the expected
numbers are exact; the end-to-end path over real runs lives in
``tests/scenarios/test_events_and_report.py``.
"""

import json

import pytest

from repro.observability import (
    RunLedger,
    analyze_run,
    build_report,
    load_run,
    render_report,
)
from repro.observability.analysis import (
    comparison_block,
    imbalance_block,
    kernel_stage_block,
    ledger_block,
    halo_block,
    overlap_block,
    render_halo,
    speedup_block,
)


def _lane(name, regions=None, counters=None):
    return {
        "lane": name,
        "regions": {
            path: {"count": 1, "total_s": total} for path, total in (regions or {}).items()
        },
        "counters": counters or {},
    }


def _summary(lanes, **extra):
    base = {
        "scenario": "loh3",
        "solver": "lts",
        "n_elements": 100,
        "order": 2,
        "n_clusters": 2,
        "lambda": 0.8,
        "cycles": 4,
        "element_updates": 600,
        "theoretical_speedup": 1.5,
        "t_end": 2.0,
        "wall_s": 8.0,
        "telemetry": {"lanes": lanes, "regions": {}, "derived": {}},
    }
    base.update(extra)
    return base


class TestOverlapBlock:
    def test_efficiency_is_interior_over_window(self):
        summary = _summary(
            [
                _lane("rank 0", {"predict.interior": 3.0, "correct/recv_wait": 1.0}),
                _lane("rank 1", {"predict.interior": 2.0, "correct/recv_wait": 2.0}),
            ]
        )
        block = overlap_block(summary)
        by_lane = {r["lane"]: r for r in block["ranks"]}
        assert by_lane["rank 0"]["efficiency"] == pytest.approx(0.75)
        assert by_lane["rank 1"]["efficiency"] == pytest.approx(0.5)
        assert block["interior_s"] == pytest.approx(5.0)
        assert block["exposed_wait_s"] == pytest.approx(3.0)
        assert block["efficiency"] == pytest.approx(5.0 / 8.0)

    def test_lane_with_no_data_is_skipped(self):
        summary = _summary(
            [
                _lane("rank 0", {"predict.interior": 1.0}),
                _lane("rank 1", {"predict": 2.0}),  # no interior, no wait
            ]
        )
        block = overlap_block(summary)
        assert [r["lane"] for r in block["ranks"]] == ["rank 0"]
        assert block["ranks"][0]["efficiency"] == 1.0  # never blocked

    def test_none_without_rank_lanes(self):
        assert overlap_block(_summary([_lane("main", {"predict.interior": 1.0})])) is None
        assert overlap_block(_summary([])) is None


class TestHaloBlock:
    @staticmethod
    def _comm(fraction):
        return {
            "comm": {
                "boundary_element_fraction": fraction,
                "cut_faces": 249,
                "halo_bytes_per_element_update": 164.0,
            }
        }

    def test_compact_partition_renders_one_line(self):
        block = halo_block(_summary([], **self._comm(0.08)))
        assert block["compact"] is True
        (line,) = render_halo(block)
        assert "8.0% of the elements" in line and "249 cut faces" in line

    def test_interleaved_partition_warns(self):
        block = halo_block(_summary([], **self._comm(0.995)))
        assert block["compact"] is False
        assert "partition is not compact: overlap has nothing to hide behind" in (
            render_halo(block)[-1]
        )

    def test_none_for_single_rank_runs(self):
        assert halo_block(_summary([])) is None


class TestImbalanceBlock:
    def test_max_over_mean_of_busy_and_updates(self):
        summary = _summary(
            [
                _lane("rank 0", {"predict": 3.0, "correct": 1.0}, {"updates/cluster0": 300}),
                _lane("rank 1", {"predict": 1.0, "correct": 1.0}, {"updates/cluster0": 100}),
            ]
        )
        block = imbalance_block(summary)
        assert block["busy_imbalance"] == pytest.approx(4.0 / 3.0)
        assert block["update_imbalance"] == pytest.approx(1.5)
        assert block["busiest"] == "rank 0"

    def test_single_lane_is_vacuous(self):
        summary = _summary([_lane("rank 0", {"predict": 1.0}, {"updates/cluster0": 10})])
        assert imbalance_block(summary) is None

    def test_non_busy_regions_do_not_count(self):
        summary = _summary(
            [
                _lane("rank 0", {"predict": 1.0, "kernel.volume": 9.0}),
                _lane("rank 1", {"predict": 1.0}),
            ]
        )
        assert imbalance_block(summary)["busy_imbalance"] == pytest.approx(1.0)


class TestSpeedupBlock:
    def test_model_and_update_ratio(self):
        block = speedup_block(_summary([]))
        # GTS at the macro cadence: 100 elements * 2^(2-1) updates per cycle
        # against the run's measured 600 / 4 cycles
        assert block["update_ratio"] == pytest.approx(200.0 / 150.0)
        assert block["model_vs_gts_at_lambda_dt"] == pytest.approx(1.5 / 0.8)
        assert block["measured"] is None

    def test_measured_against_comparable_gts_reference(self):
        lts = _summary([])
        gts = _summary([], solver="gts", wall_s=24.0)
        block = speedup_block(lts, gts)
        # both simulate 2 s: 12 wall-per-sim-s GTS over 4 LTS
        assert block["measured"] == pytest.approx(3.0)
        assert block["attained_vs_model"] == pytest.approx(3.0 / (1.5 / 0.8))

    def test_incomparable_gts_reference_is_ignored(self):
        block = speedup_block(_summary([]), _summary([], solver="gts", n_elements=999))
        assert block["measured"] is None

    def test_none_for_gts_runs(self):
        assert speedup_block(_summary([], solver="gts")) is None


class TestKernelStageBlock:
    def test_gflops_from_flop_model_and_region_seconds(self):
        summary = _summary([])
        summary["telemetry"] = {
            "lanes": [],
            "regions": {
                "predict/kernel.ck": {"count": 1, "total_s": 2.0},
                "predict/kernel.integrate": {"count": 1, "total_s": 1.0},
                "correct/kernel.volume": {"count": 1, "total_s": 4.0},
            },
            "derived": {
                "flops_per_stage": {"time_kernel": 1_000_000, "volume_kernel": 2_000_000}
            },
        }
        block = kernel_stage_block(summary)
        # time stage: 600 updates * 1 MFLOP over the ck+integrate 3 s
        assert block["time"]["gflop"] == pytest.approx(0.6)
        assert block["time"]["gflop_per_s"] == pytest.approx(0.2)
        assert block["volume"]["gflop_per_s"] == pytest.approx(0.3)
        assert "surface" not in block  # no timed region -> no rate

    def test_surface_halves_are_one_stage(self):
        """Both surface halves' FLOPs over every surface region: on ``fast``
        they are one fused pass timed as ``kernel.surface_neighbor``."""
        summary = _summary([])
        summary["telemetry"] = {
            "lanes": [],
            "regions": {
                "predict/kernel.trace": {"count": 1, "total_s": 0.5},
                "correct/kernel.surface_neighbor": {"count": 1, "total_s": 1.5},
            },
            "derived": {
                "flops_per_stage": {"surface_local": 1_000_000, "surface_neighbor": 1_000_000}
            },
        }
        block = kernel_stage_block(summary)
        assert block["surface"]["gflop"] == pytest.approx(1.2)
        assert block["surface"]["gflop_per_s"] == pytest.approx(0.6)

    def test_none_without_flop_stamp(self):
        assert kernel_stage_block(_summary([])) is None


class TestLedgerBlock:
    def _records(self, spec, tmp_path, waits=False):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(spec, total_cycles=2, macro_dt=0.5)
            for cycle, wall in ((1, 0.2), (2, 0.4)):
                record = {
                    "cycle": cycle, "t": 0.5 * cycle, "wall_s": 0.2 + 0.4 * (cycle - 1),
                    "cycle_wall_s": wall, "element_updates": 150 * cycle,
                    "updates_per_s": 150 / wall, "peak_rss_mb": 50.0 + cycle,
                    "comm_bytes": 1000 * cycle,
                }
                if waits:
                    record["recv_wait_s"] = {"rank 0": 0.01 * cycle}
                ledger.cycle(record)
        from repro.observability import read_ledger

        return read_ledger(path)

    def test_cycle_statistics(self, tmp_path):
        from repro.scenarios.registry import get_scenario

        block = ledger_block(self._records(get_scenario("loh3"), tmp_path, waits=True))
        assert block["cycles"] == 2 and not block["complete"]
        assert block["cycle_wall_s"] == {
            "mean": pytest.approx(0.3), "min": pytest.approx(0.2), "max": pytest.approx(0.4),
        }
        assert block["updates_per_s"]["last"] == pytest.approx(150 / 0.4)
        assert block["recv_wait_s"]["rank 0"] == pytest.approx(0.03)
        assert block["comm_bytes"] == 2000
        assert block["peak_rss_mb"] == pytest.approx(52.0)

    def test_empty_input_is_none(self):
        assert ledger_block([]) is None


class TestComparisonAndReport:
    def test_comparison_speedup_vs_first(self):
        runs = [
            {"label": "ref", "path": "ref", "summary": _summary([], wall_s=8.0)},
            {"label": "fast", "path": "fast", "summary": _summary([], wall_s=4.0)},
            {"label": "other", "path": "other",
             "summary": _summary([], wall_s=2.0, scenario="la_habra")},
        ]
        block = comparison_block(runs)
        assert block["baseline"] == "ref"
        rows = {row["label"]: row for row in block["rows"]}
        assert rows["fast"]["speedup_vs_first"] == pytest.approx(2.0)
        assert rows["other"]["speedup_vs_first"] is None
        assert not rows["other"]["comparable"]

    def test_single_run_has_no_comparison(self):
        assert comparison_block([{"label": "a", "path": "a", "summary": _summary([])}]) is None

    def test_analyze_run_collects_blocks_and_provenance(self):
        summary = _summary(
            [_lane("rank 0", {"predict.interior": 1.0, "correct/recv_wait": 1.0})],
            provenance={"git_sha": "abc", "repro_version": "1", "spec_sha256": "f" * 64},
        )
        entry = analyze_run({"label": "x", "path": "x", "summary": summary, "ledger": None})
        assert entry["provenance"]["spec_sha256"] == "f" * 64
        assert entry["blocks"]["overlap"]["efficiency"] == pytest.approx(0.5)
        assert entry["blocks"]["imbalance"] is None
        assert entry["blocks"]["lts_speedup"]["theoretical_model"] == 1.5
        assert entry["blocks"]["ledger"] is None

    def test_build_report_uses_first_gts_run_as_reference(self, tmp_path):
        for name, summary in (
            ("lts_out", _summary([])),
            ("gts_out", _summary([], solver="gts", wall_s=24.0)),
        ):
            directory = tmp_path / name
            directory.mkdir()
            (directory / "run_summary.json").write_text(json.dumps(summary))
        report = build_report([tmp_path / "lts_out", tmp_path / "gts_out"])
        lts_entry = report["runs"][0]
        assert lts_entry["blocks"]["lts_speedup"]["measured"] == pytest.approx(3.0)
        assert report["comparison"]["baseline"] == "lts_out"
        text = render_report(report)
        assert "measured wall-clock speedup" in text
        assert "== comparison (baseline: lts_out) ==" in text

    def test_render_mentions_partial_ledgers(self, tmp_path):
        from repro.scenarios.registry import get_scenario

        records = TestLedgerBlock()._records(get_scenario("loh3"), tmp_path)
        entry = analyze_run({"label": "x", "path": "x", "summary": None, "ledger": records})
        text = render_report({"runs": [entry], "comparison": None})
        assert "PARTIAL (run did not finish)" in text


class TestLoadRun:
    def test_directory_with_summary_and_sibling_ledger(self, tmp_path):
        from repro.scenarios.registry import get_scenario

        directory = tmp_path / "out"
        directory.mkdir()
        (directory / "run_summary.json").write_text(json.dumps(_summary([])))
        with RunLedger(directory / "events.jsonl") as ledger:
            ledger.header(get_scenario("loh3"), total_cycles=1, macro_dt=0.5)
        run = load_run(directory)
        assert run["label"] == "out"
        assert run["summary"]["scenario"] == "loh3"
        assert run["ledger"][0]["kind"] == "header"

    def test_bare_ledger_is_summary_less(self, tmp_path):
        from repro.scenarios.registry import get_scenario

        path = tmp_path / "events.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(get_scenario("loh3"), total_cycles=1, macro_dt=0.5)
        run = load_run(path)
        assert run["summary"] is None and run["label"] == "events"
        assert run["ledger"][0]["kind"] == "header"

    def test_missing_summary_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)
