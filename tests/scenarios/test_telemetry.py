"""Integration tests of the instrumentation subsystem through the runners.

The claims under test:

* the run summary gains a ``telemetry`` block whose phase breakdown covers
  the wall clock and whose counters reproduce the exact element-update
  accounting of the solver,
* per-rank metrics merged across the forked rank workers equal the
  single-rank totals (instrumentation never changes, nor mis-attributes, the
  work),
* ``--trace`` produces a valid Chrome-trace timeline with one lane per rank
  plus the driver lane, and
* telemetry stays off (and out of the summary) by default.
"""

import json
import os

import numpy as np
import pytest

from repro.kernels.backend import KERNEL_KINDS
from repro.observability import merge_snapshots, validate_chrome_trace
from repro.scenarios import ScenarioRunner, get_scenario, make_runner
from repro.scenarios.cli import main as cli_main


@pytest.fixture(scope="module")
def tiny_loh3():
    """A small multi-cluster LOH.3 variant that partitions into 2 ranks."""
    return get_scenario(
        "loh3",
        extent_m=4000.0,
        characteristic_length=2000.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=3,
    )


@pytest.fixture(scope="module")
def single_rank_telemetry(tiny_loh3):
    runner = ScenarioRunner(tiny_loh3.with_overrides(telemetry=True))
    summary = runner.run()
    return runner, summary


@pytest.fixture(scope="module", params=KERNEL_KINDS)
def kernel_regions(request, tiny_loh3):
    """``(kind, telemetry regions)`` of one run per kernel kind."""
    runner = ScenarioRunner(tiny_loh3.with_overrides(telemetry=True, kernels=request.param))
    return request.param, runner.run()["telemetry"]["regions"]


class TestSummaryTelemetryBlock:
    def test_off_by_default(self, tiny_loh3):
        runner = ScenarioRunner(tiny_loh3)
        assert not runner.telemetry.enabled
        assert "telemetry" not in runner.run()

    def test_phases_cover_the_wall_clock(self, single_rank_telemetry):
        _, summary = single_rank_telemetry
        block = summary["telemetry"]
        assert set(block["phases"]) >= {"predict", "correct"}
        assert all(t >= 0.0 for t in block["phases"].values())
        assert block["phase_sum_s"] == pytest.approx(sum(block["phases"].values()))
        assert 0.0 < block["coverage"] <= 1.05
        if not os.environ.get("CI"):
            # acceptance criterion: phase times sum to within 5% of the wall
            # clock (kept off CI where a loaded machine skews the ratio)
            assert block["coverage"] > 0.6

    def test_update_counters_match_solver_accounting(self, single_rank_telemetry):
        runner, summary = single_rank_telemetry
        counters = summary["telemetry"]["counters"]
        per_cluster = {
            name: value for name, value in counters.items()
            if name.startswith("updates/cluster")
        }
        # one counter per *populated* cluster (a cluster may end up empty)
        assert 1 <= len(per_cluster) <= runner.clustering.n_clusters
        assert sum(per_cluster.values()) == summary["element_updates"]

    def test_kernel_regions_are_recorded(self, single_rank_telemetry):
        _, summary = single_rank_telemetry
        regions = summary["telemetry"]["regions"]
        kernel_regions = {name for name in regions if "kernel." in name}
        assert any(name.endswith("kernel.ck") for name in kernel_regions)
        assert any(name.endswith("kernel.surface_neighbor") for name in kernel_regions)

    @pytest.mark.parametrize(
        "region",
        [
            "predict/kernel.ck",
            "predict/kernel.integrate",
            "predict/kernel.volume",
            "correct/kernel.trace",
            "correct/kernel.surface_local",
            "correct/kernel.surface_neighbor",
        ],
    )
    def test_every_kernel_stage_is_timed(self, kernel_regions, region):
        """Both kernel kinds time each stage of the cycle under its region
        (the own traces under the correction, which projects them from
        ``B1``); ``fast`` runs both surface halves as one pass, timed as the
        neighbouring one."""
        kind, regions = kernel_regions
        assert "predict/kernel.trace" not in regions
        if kind == "fast" and region == "correct/kernel.surface_local":
            assert not any(name.endswith("kernel.surface_local") for name in regions)
            return
        assert regions[region]["count"] > 0
        assert regions[region]["total_s"] > 0.0

    def test_derived_rates(self, single_rank_telemetry):
        _, summary = single_rank_telemetry
        derived = summary["telemetry"]["derived"]
        assert derived["element_updates_per_s"] > 0.0
        assert derived["flops_per_element_update"] > 0
        assert derived["gflop"] == pytest.approx(
            summary["element_updates"] * derived["flops_per_element_update"] / 1e9
        )
        assert derived["gflop_per_s"] == pytest.approx(
            derived["gflop"] / summary["telemetry"]["wall_s"]
        )

    def test_preprocessing_stages_timed(self, tiny_loh3):
        # a plain run derives no partition: only steps 1-3 of Fig. 8 run
        runner = ScenarioRunner(tiny_loh3.with_overrides(telemetry=True))
        regions = runner.telemetry.regions()
        for stage in ("mesh", "materials", "time_steps", "clustering"):
            assert f"preprocess.{stage}" in regions
        assert not {"preprocess.partition", "preprocess.reorder"} & set(regions)

    def test_partitioned_run_times_every_preprocessing_stage(self, tiny_loh3):
        runner = ScenarioRunner(
            tiny_loh3.with_overrides(telemetry=True, n_partitions=2, reorder=True)
        )
        (lane,) = runner.solver.telemetry_snapshots()
        for stage in ("mesh", "materials", "time_steps", "clustering",
                      "partition", "reorder"):
            assert f"preprocess.{stage}" in lane["regions"]

    def test_memory_block_always_present(self, tiny_loh3):
        summary = ScenarioRunner(tiny_loh3).summary()
        assert summary["memory"]["peak_rss_mb"] > 0.0


class TestCheckpointCounters:
    def test_checkpoint_writes_and_bytes(self, tiny_loh3, tmp_path):
        path = tmp_path / "telemetry.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3.with_overrides(telemetry=True))
        runner.step_cycle()
        runner.save_checkpoint(path)
        counters = runner.telemetry.metrics.counters
        assert counters["checkpoint/writes"] == 1
        assert counters["checkpoint/bytes"] == os.path.getsize(path)
        assert "checkpoint.write" in runner.telemetry.regions()


@pytest.mark.distributed
class TestCrossRankMerge:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_merged_totals_equal_single_rank(self, tiny_loh3, single_rank_telemetry, n_ranks):
        _, single = single_rank_telemetry
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=n_ranks, telemetry=True))
        summary = dist.run()
        block = summary["telemetry"]
        single_updates = {
            name: value
            for name, value in single["telemetry"]["counters"].items()
            if name.startswith("updates/")
        }
        merged_updates = {
            name: value
            for name, value in block["counters"].items()
            if name.startswith("updates/")
        }
        assert merged_updates == single_updates
        # the engines count their measured halo traffic into the block
        assert block["counters"]["comm/messages"] > 0
        assert block["counters"]["comm/bytes"] > 0
        # overlapped-exchange phases appear alongside the driver lane
        assert set(block["phases"]) >= {
            "predict.boundary", "send", "predict.interior", "correct",
        }
        assert block["recv_wait_s"] >= 0.0
        lanes = {lane["lane"] for lane in block["lanes"]}
        assert lanes >= {f"rank {rank}" for rank in range(n_ranks)} | {"driver"}

    def test_process_backend_merge_survives_worker_release(self, tiny_loh3):
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=2, telemetry=True))
        dist.run()  # releases the workers at the end
        merged = merge_snapshots(dist.engine.telemetry_snapshots())
        updates = sum(
            value for name, value in merged["counters"].items()
            if name.startswith("updates/")
        )
        assert updates == dist.solver.n_element_updates


@pytest.mark.distributed
class TestChromeTrace:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_trace_has_one_lane_per_rank_plus_driver(self, tiny_loh3, tmp_path, n_ranks):
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=n_ranks, trace=True))
        dist.run()
        path = dist.write_trace(tmp_path / "run.trace.json")
        payload = json.loads(path.read_text())
        by_lane = validate_chrome_trace(payload, expect_lanes=n_ranks + 1)
        assert set(by_lane) == {f"rank {rank}" for rank in range(n_ranks)} | {"driver"}
        assert all(count > 0 for count in by_lane.values())
        # the per-rank lanes carry the micro-step schedule
        names = {
            event["args"]["path"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert names >= {"predict.boundary", "send", "predict.interior", "correct"}

    def test_cli_traced_run_explains_its_phases(self, tmp_path):
        """A traced 2-rank CLI run: one lane per rank plus the driver, the
        overlap phases cover wall time, the update counters account for
        every element update, and the summary carries the peak RSS."""
        trace_path, out_dir = tmp_path / "run.trace.json", tmp_path / "out"
        assert cli_main([
            "run", "loh3", "--smoke", "--ranks", "2",
            "--metrics", "--trace", str(trace_path), "--output-dir", str(out_dir),
            "--quiet",
        ]) == 0
        by_lane = validate_chrome_trace(json.loads(trace_path.read_text()), expect_lanes=3)
        assert {"rank 0", "rank 1", "driver"} <= set(by_lane), by_lane
        summary = json.loads((out_dir / "run_summary.json").read_text())
        telemetry = summary["telemetry"]
        assert {"predict.boundary", "send", "predict.interior", "correct"} <= set(
            telemetry["phases"]
        ), telemetry["phases"]
        assert telemetry["phase_sum_s"] > 0.0 and telemetry["coverage"] > 0.0
        assert sum(
            value for name, value in telemetry["counters"].items()
            if name.startswith("updates/")
        ) == summary["element_updates"]
        assert summary["memory"]["peak_rss_mb"] > 0.0

    def test_trace_implies_telemetry(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(trace=True)
        assert spec.output.telemetry and spec.output.trace


class TestCliTelemetry:
    ARGS = [
        "plane_wave",
        "--set", "extent_m=1500.0",
        "--set", "characteristic_length=750.0",
        "--order", "2",
        "--cycles", "2",
    ]

    def test_metrics_flag_adds_summary_block(self, tmp_path):
        out_dir = tmp_path / "out"
        assert cli_main(
            ["run", *self.ARGS, "--metrics", "--quiet", "--output-dir", str(out_dir)]
        ) == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["telemetry"]["phase_sum_s"] > 0.0
        assert summary["memory"]["peak_rss_mb"] > 0.0

    def test_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        out_dir = tmp_path / "out"
        assert cli_main(
            ["run", *self.ARGS, "--trace", str(trace_path),
             "--output-dir", str(out_dir)]
        ) == 0
        validate_chrome_trace(json.loads(trace_path.read_text()), expect_lanes=1)
        banner = capsys.readouterr().err
        assert "peak RSS" in banner and str(trace_path) in banner

    def test_resume_with_metrics(self, tmp_path):
        ckpt = tmp_path / "cli.ckpt.npz"
        out_dir = tmp_path / "out"
        assert cli_main(
            ["run", *self.ARGS, "--checkpoint", str(ckpt), "--quiet"]
        ) == 0
        assert cli_main(
            ["resume", str(ckpt), "--metrics", "--quiet",
             "--output-dir", str(out_dir)]
        ) == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        # the resumed (no-op) segment still reports the telemetry block
        assert "telemetry" in summary

    def test_instrumentation_does_not_change_physics(self, tiny_loh3):
        plain = ScenarioRunner(tiny_loh3)
        instrumented = ScenarioRunner(tiny_loh3.with_overrides(trace=True))
        plain.run()
        instrumented.run()
        np.testing.assert_array_equal(instrumented.solver.dofs, plain.solver.dofs)
