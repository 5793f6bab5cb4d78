"""Integration tests of the scenario runner, checkpoint/restart and the CLI.

The central correctness claims of the subsystem:

* through the runner, single-cluster LTS reproduces GTS bit-for-bit,
* a run interrupted at a checkpoint and resumed is bit-identical (DOFs and
  seismograms) to an uninterrupted run, and
* the CLI drives scenarios end-to-end and writes the run artefacts.
"""

import json

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.cli import main as cli_main
from repro.scenarios.spec import SOLVER_KINDS, ScenarioSpec
from repro.core.lts_solver import ClusteredLtsSolver


@pytest.fixture(scope="module")
def tiny_plane_wave():
    """A very small single-cluster scenario (order 2, ~tens of elements)."""
    return get_scenario(
        "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=3
    )


@pytest.fixture(scope="module")
def tiny_loh3():
    """A small multi-cluster LOH.3 variant exercising the LTS buffers."""
    return get_scenario(
        "loh3",
        extent_m=4000.0,
        characteristic_length=2000.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=4,
    )


class TestRunnerEquivalence:
    def test_single_cluster_lts_matches_gts_bit_for_bit(self, tiny_plane_wave):
        lts = ScenarioRunner(tiny_plane_wave)
        gts = ScenarioRunner(tiny_plane_wave.with_overrides(solver="gts"))
        lts.run()
        gts.run()
        assert lts.solver.n_element_updates == gts.solver.n_element_updates
        np.testing.assert_array_equal(lts.solver.dofs, gts.solver.dofs)
        assert np.abs(lts.solver.dofs).max() > 0.0, "the plane wave must move"

    def test_accounting(self, tiny_plane_wave):
        runner = ScenarioRunner(tiny_plane_wave)
        summary = runner.run()
        n = runner.setup.mesh.n_elements
        assert summary["n_elements"] == n
        assert summary["element_updates"] == n * summary["cycles"]
        assert summary["wall_s"] > 0.0
        assert summary["t_end"] == pytest.approx(summary["cycles"] * summary["macro_dt"])

    def test_solver_kinds_are_gts_and_lts(self, tiny_plane_wave, capsys):
        assert SOLVER_KINDS == ("gts", "lts")
        with pytest.raises(ValueError, match=r"\('gts', 'lts'\)"):
            tiny_plane_wave.with_overrides(solver="legacy-lts")
        payload = tiny_plane_wave.to_dict()
        payload["solver"]["kind"] = "legacy-lts"
        with pytest.raises(ValueError, match=r"\('gts', 'lts'\)"):
            ScenarioSpec.from_dict(payload)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "plane_wave", "--solver", "legacy-lts"])
        assert exit_info.value.code == 2
        assert "'gts', 'lts'" in capsys.readouterr().err

    def test_preprocessing_reorder_keeps_physics(self, tiny_loh3):
        plain = ScenarioRunner(tiny_loh3)
        reordered = ScenarioRunner(tiny_loh3.with_overrides(n_partitions=2, reorder=True))
        assert reordered.preprocessed is not None
        assert reordered.summary()["n_partitions"] == 2
        plain.run()
        reordered.run()
        # same element updates; the reordered run is a permutation of the same mesh
        assert plain.solver.n_element_updates == reordered.solver.n_element_updates
        assert reordered.setup.mesh.n_elements == plain.setup.mesh.n_elements
        # elements are sorted by (partition, cluster)
        parts = reordered.preprocessed.partitions
        assert np.all(np.diff(parts) >= 0)

    def test_explicit_clustering_with_reorder_rejected(self, tiny_loh3):
        from repro.scenarios import build_setup

        setup = build_setup(tiny_loh3)
        with pytest.raises(ValueError, match="explicit clustering"):
            ScenarioRunner(
                tiny_loh3.with_overrides(n_partitions=2, reorder=True),
                setup=setup,
                clustering=setup.clustering(),
            )


class TestCheckpointRestart:
    def test_resume_is_bit_identical(self, tiny_loh3, tmp_path):
        path = tmp_path / "run.ckpt.npz"

        full = ScenarioRunner(tiny_loh3)
        full.run()
        assert isinstance(full.solver, ClusteredLtsSolver)

        interrupted = ScenarioRunner(tiny_loh3)
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        del interrupted

        resumed = ScenarioRunner.resume(path)
        assert resumed.cycles_done == 2
        resumed.run()

        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        assert resumed.solver.time == full.solver.time
        assert resumed.solver.n_element_updates == full.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_full, v_full = full.receivers[name].seismogram()
            t_res, v_res = resumed.receivers[name].seismogram()
            np.testing.assert_array_equal(t_res, t_full)
            np.testing.assert_array_equal(v_res, v_full)

    def test_resume_gts(self, tiny_plane_wave, tmp_path):
        path = tmp_path / "gts.ckpt.npz"
        spec = tiny_plane_wave.with_overrides(solver="gts")
        full = ScenarioRunner(spec)
        full.run()

        interrupted = ScenarioRunner(spec)
        interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        resumed = ScenarioRunner.resume(path)
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)

    def test_resume_restores_explicit_clustering(self, tiny_loh3, tmp_path):
        """A runner built with a non-spec clustering (e.g. a single-cluster
        GTS baseline) must resume with that exact clustering, not re-derive
        the spec's."""
        from repro.scenarios import build_setup

        path = tmp_path / "explicit.ckpt.npz"
        setup = build_setup(tiny_loh3)
        clustering = setup.clustering(1, lam=1.0)  # spec says 2 clusters
        spec = tiny_loh3.with_overrides(solver="gts")

        full = ScenarioRunner(spec, setup=setup, clustering=clustering)
        full.run()

        interrupted = ScenarioRunner(spec, setup=setup, clustering=clustering)
        interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        resumed = ScenarioRunner.resume(path)
        assert resumed.clustering.n_clusters == 1
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)

    def _counting_runner(self, runner, path, monkeypatch):
        """Wrap ``save_checkpoint`` to record at which cycles it writes."""
        calls = []
        original = runner.save_checkpoint

        def counting(target):
            calls.append(runner.cycles_done)
            original(target)

        monkeypatch.setattr(runner, "save_checkpoint", counting)
        return calls

    def test_final_checkpoint_not_written_twice(self, tiny_plane_wave, tmp_path, monkeypatch):
        """When the last cycle coincides with the cadence the same state used
        to be serialised twice back-to-back."""
        path = tmp_path / "dedup.ckpt.npz"
        runner = ScenarioRunner(tiny_plane_wave)  # 3 cycles
        calls = self._counting_runner(runner, path, monkeypatch)
        runner.run(checkpoint_path=path, checkpoint_every=1)
        assert calls == [1, 2, 3]  # one write per cycle, no duplicate final

    def test_checkpoint_every_zero_disables_cadence(self, tiny_plane_wave, tmp_path, monkeypatch):
        path = tmp_path / "nocadence.ckpt.npz"
        spec = tiny_plane_wave.with_overrides(checkpoint_every=1)
        runner = ScenarioRunner(spec)
        calls = self._counting_runner(runner, path, monkeypatch)
        runner.run(checkpoint_path=path, checkpoint_every=0)
        assert calls == [runner.total_cycles]  # only the final write

    def test_resume_with_a_new_cadence(self, tiny_loh3, tmp_path, monkeypatch):
        """A resumed run can change its checkpoint cadence instead of
        inheriting the spec's."""
        path = tmp_path / "cadence.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3)  # 4 cycles
        runner.step_cycle()
        runner.save_checkpoint(path)

        resumed = ScenarioRunner.resume(path)
        calls = self._counting_runner(resumed, path, monkeypatch)
        resumed.run(checkpoint_path=path, checkpoint_every=2)
        # cadence writes at cycles 2 and 4; the final write is the cadence's
        assert calls == [2, 4]

    def test_checkpoint_path_without_npz_suffix(self, tiny_plane_wave, tmp_path):
        path = tmp_path / "my.ckpt"  # savez would silently write my.ckpt.npz
        runner = ScenarioRunner(tiny_plane_wave)
        runner.step_cycle()
        runner.save_checkpoint(path)
        assert path.exists()
        resumed = ScenarioRunner.resume(path)
        assert resumed.cycles_done == 1

    def test_mismatched_checkpoint_rejected(self, tiny_plane_wave, tmp_path):
        path = tmp_path / "bad.ckpt.npz"
        runner = ScenarioRunner(tiny_plane_wave)
        runner.step_cycle()
        runner.save_checkpoint(path)
        # corrupt the stored spec so the rebuilt mesh no longer matches
        data = dict(np.load(path))
        meta = json.loads(str(data["meta"]))
        meta["spec"]["mesh"]["characteristic_length"] = 300.0
        data["meta"] = json.dumps(meta)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="does not match"):
            ScenarioRunner.resume(path)


    def test_checkpoint_is_an_uncompressed_archive(self, tiny_loh3, tmp_path):
        import zipfile

        path = tmp_path / "run.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3)
        runner.step_cycle()
        runner.save_checkpoint(path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        assert runner.checkpoint_s > 0.0

    def test_compressed_checkpoint_of_older_trees_resumes_bit_identically(
        self, tiny_loh3, tmp_path
    ):
        """Trees before the uncompressed writer used ``np.savez_compressed``
        under the same format version: those files must keep resuming."""
        path, old = tmp_path / "run.ckpt.npz", tmp_path / "old.ckpt.npz"
        full = ScenarioRunner(tiny_loh3)
        full.run()
        interrupted = ScenarioRunner(tiny_loh3)
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        with np.load(path) as data, open(old, "wb") as handle:
            np.savez_compressed(handle, **{name: data[name] for name in data.files})
        assert old.stat().st_size < path.stat().st_size

        resumed = ScenarioRunner.resume(old)
        assert resumed.cycles_done == 2
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        assert resumed.solver.time == full.solver.time
        for name in ("receiver_9", "epicentre"):
            np.testing.assert_array_equal(
                resumed.receivers[name].seismogram()[1], full.receivers[name].seismogram()[1]
            )

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "bare_npy", "no_meta"])
    def test_corrupt_checkpoint_is_one_named_error(self, tiny_plane_wave, tmp_path, damage, capsys):
        from repro.scenarios.runner import CorruptCheckpointError

        path = tmp_path / "run.ckpt.npz"
        runner = ScenarioRunner(tiny_plane_wave)
        runner.step_cycle()
        runner.save_checkpoint(path)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "garbage":
            path.write_bytes(b"\x00not a checkpoint\n" * 9)
        elif damage == "bare_npy":
            with open(path, "wb") as handle:
                np.save(handle, np.zeros(3))
        else:
            with open(path, "wb") as handle:
                np.savez(handle, dofs=np.zeros(3))
        with pytest.raises(CorruptCheckpointError, match="^corrupt checkpoint: .*run.ckpt.npz: ."):
            ScenarioRunner.resume(path)
        # the CLI reports the same line and a non-zero status, no traceback
        assert cli_main(["resume", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: corrupt checkpoint: {path}: ")
        assert "Traceback" not in err

    def test_missing_checkpoint_is_not_reported_as_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ScenarioRunner.resume(tmp_path / "nope.ckpt.npz")


class TestOutputs:
    def test_seismograms_of_an_unrun_scenario_are_empty_csvs(self, tiny_plane_wave, tmp_path):
        from repro.scenarios import write_outputs

        runner = ScenarioRunner(tiny_plane_wave)  # not run: no samples yet
        written = write_outputs(runner, tmp_path)
        csv = written["seismograms"][0]
        assert csv.read_text().strip() == "time,vx,vy,vz"


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "loh3" in out and "plane_wave" in out

    def test_describe(self, capsys):
        assert cli_main(["describe", "bimaterial_slab"]) == 0
        out = capsys.readouterr().out
        assert "default spec" in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "run",
                "plane_wave",
                "--set", "extent_m=1500.0",
                "--set", "characteristic_length=750.0",
                "--order", "2",
                "--cycles", "2",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["scenario"] == "plane_wave"
        assert summary["cycles"] == 2
        csv = out_dir / "seismogram_centre.csv"
        assert csv.exists()
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "time,vx,vy,vz"
        assert len(lines) == 1 + 2  # header + one sample per cycle (single cluster)

    def test_run_summary_and_report_carry_the_startup_split(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        args = [
            "run", "plane_wave", "--set", "extent_m=1500.0",
            "--set", "characteristic_length=750.0", "--order", "2", "--cycles", "3",
            "--output-dir", str(out_dir), "--checkpoint", str(tmp_path / "c.npz"), "--quiet",
        ]
        assert cli_main(args) == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        startup = summary["startup"]
        assert set(startup) == {"import_s", "setup_s", "first_cycle_s", "checkpoint_s"}
        assert all(value > 0.0 for value in startup.values())
        assert startup["first_cycle_s"] <= summary["wall_s"]
        capsys.readouterr()
        assert cli_main(["report", str(out_dir)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Startup:"))
        for word in ("import", "setup", "first cycle", "checkpoints"):
            assert word in line

    def test_run_spec_file_round_trip(self, tmp_path):
        spec = get_scenario(
            "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=1
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        assert cli_main(["run", "--spec", str(spec_file), "--quiet"]) == 0

    def test_run_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "cli.ckpt.npz"
        args = [
            "run",
            "plane_wave",
            "--set", "extent_m=1500.0",
            "--set", "characteristic_length=750.0",
            "--order", "2",
            "--cycles", "2",
            "--checkpoint", str(ckpt),
            "--quiet",
        ]
        assert cli_main(args) == 0
        assert ckpt.exists()
        # the finished run's checkpoint resumes as a no-op continuation
        assert cli_main(["resume", str(ckpt), "--quiet"]) == 0

    def test_run_smoke_flag(self, capsys):
        assert cli_main(["run", "homogeneous_halfspace", "--smoke", "--quiet"]) == 0

    def test_checkpoint_every_zero_is_not_coerced_to_keep(self, tmp_path):
        """``--checkpoint-every 0`` must disable the spec's cadence (a falsy
        check used to silently keep it)."""
        from repro.scenarios.cli import _resolve_spec, build_parser

        spec = get_scenario(
            "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=1
        ).with_overrides(checkpoint_every=3)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())

        parser = build_parser()
        kept = _resolve_spec(parser.parse_args(["run", "--spec", str(spec_file)]))
        assert kept.run.checkpoint_every == 3
        disabled = _resolve_spec(
            parser.parse_args(["run", "--spec", str(spec_file), "--checkpoint-every", "0"])
        )
        assert disabled.run.checkpoint_every is None

    def test_resume_accepts_a_new_cadence(self, tmp_path):
        ckpt = tmp_path / "cadence.ckpt.npz"
        assert cli_main(
            [
                "run",
                "plane_wave",
                "--set", "extent_m=1500.0",
                "--set", "characteristic_length=750.0",
                "--order", "2",
                "--cycles", "2",
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "1",
                "--quiet",
            ]
        ) == 0
        assert cli_main(
            ["resume", str(ckpt), "--checkpoint-every", "0", "--quiet"]
        ) == 0
