"""Integration tests of the scenario runner, checkpoint/restart and the CLI.

The central correctness claims of the subsystem:

* through the runner, single-cluster LTS reproduces GTS bit-for-bit,
* a run interrupted at a checkpoint and resumed is bit-identical (DOFs and
  seismograms) to an uninterrupted run, and
* the CLI drives scenarios end-to-end and writes the run artefacts.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.cli import main as cli_main
from repro.scenarios.spec import SOLVER_KINDS, ScenarioSpec
from repro.core.clustering import derive_clustering
from repro.core.lts_solver import ClusteredLtsSolver

from ..rank_setup import generation_dofs


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

    @pytest.mark.parametrize("solver", ["lts", "gts"])
    def test_preprocessing_reorder_keeps_physics(self, tiny_loh3, solver):
        """A partitioned run is a permutation of the plain one: the same
        updates, and (``ref`` and ``fast``) the DOFs in generation order and
        the seismograms bit for bit -- every operator and kernel
        contraction is per element or per face, and ``F_bar`` comes from
        each face's orientation alone."""
        for kernels in ("ref", "fast"):
            spec = tiny_loh3.with_overrides(solver=solver, kernels=kernels, precision="f64")
            plain = ScenarioRunner(spec)
            reordered = ScenarioRunner(spec.with_overrides(n_partitions=2))
            assert reordered.summary()["n_partitions"] == 2
            assert "n_partitions" not in plain.summary()
            plain.run()
            reordered.run()
            assert plain.solver.n_element_updates == reordered.solver.n_element_updates
            # elements are sorted by (cluster, partition)
            clusters = reordered.clustering.cluster_ids
            parts = reordered.setup.partitions
            assert np.all(np.diff(clusters) >= 0)
            for cluster in np.unique(clusters):
                assert np.all(np.diff(parts[clusters == cluster]) >= 0)

            assert not np.array_equal(reordered.setup.mesh.original_ids,
                                      plain.setup.mesh.original_ids)
            np.testing.assert_array_equal(generation_dofs(reordered), generation_dofs(plain))
            for receiver in plain.receivers.receivers:
                t_plain, v_plain = receiver.seismogram()
                t_part, v_part = reordered.receivers[receiver.name].seismogram()
                np.testing.assert_array_equal(t_part, t_plain)
                np.testing.assert_array_equal(v_part, v_plain)

    def test_legacy_reorder_value_selects_nothing(self, tiny_loh3):
        """``preprocessing.reorder`` stays a spec field: ``reorder: true``
        loads and round-trips, and with one partition it builds the plain
        setup, bit for bit, without partitions."""
        from repro.scenarios import build_setup

        payload = tiny_loh3.to_dict()
        payload["preprocessing"]["reorder"] = True
        spec = ScenarioSpec.from_dict(payload)
        assert spec.preprocessing.reorder and spec.to_dict() == payload
        assert spec.n_partitions == 1
        legacy, plain = build_setup(spec), build_setup(tiny_loh3)
        assert legacy.partitions is None
        np.testing.assert_array_equal(legacy.mesh.original_ids, plain.mesh.original_ids)
        np.testing.assert_array_equal(legacy.disc.time_steps, plain.disc.time_steps)
        for name, array in plain.disc.operator_arrays().items():
            theirs = np.ascontiguousarray(legacy.disc.operator_arrays()[name])
            assert np.ascontiguousarray(array).tobytes() == theirs.tobytes(), name

    def test_build_setup_of_partitioned_spec_is_assembled(self, tiny_loh3):
        """``build_setup`` returns the runner's own setup for a partitioned
        spec, and the per-update cost probe runs on it."""
        from repro.scenarios import build_setup, measure_update_cost

        spec = tiny_loh3.with_overrides(n_partitions=2)
        setup = build_setup(spec)
        runner = ScenarioRunner(spec)
        assert setup.disc is not None
        np.testing.assert_array_equal(
            setup.mesh.original_ids, runner.setup.mesh.original_ids
        )
        np.testing.assert_array_equal(setup.partitions, runner.setup.partitions)
        np.testing.assert_array_equal(setup.disc.time_steps, runner.setup.disc.time_steps)
        for name, array in runner.setup.disc.operator_arrays().items():
            np.testing.assert_array_equal(setup.disc.operator_arrays()[name], array)
        assert measure_update_cost(setup, n_cycles=1) > 0.0


def _assert_ref_tier(actual, desired):
    """Equal within the ``ref`` tier: 1e-12 of the peak."""
    peak = np.abs(desired).max()
    assert peak > 0.0
    assert np.abs(np.asarray(actual) - np.asarray(desired)).max() <= 1e-12 * peak


class TestGtsStepsItsOwnClustering:
    """A GTS run steps, partitions and orders by one clustering: every
    element in cluster 0 of its policy clustering's ladder."""

    def test_gts_partitions_balance_unit_weights(self):
        from repro.parallel.partition import partition_dual_graph
        from repro.scenarios import build_setup

        spec = get_scenario("loh3").with_overrides(solver="gts", n_partitions=2)
        setup = build_setup(spec)
        unit = partition_dual_graph(
            setup.mesh.neighbors, np.ones(setup.mesh.n_elements), 2
        ).partitions
        assert np.bincount(setup.partitions).tolist() == np.bincount(unit).tolist()
        # one cluster: the partition/role order, no cluster-major blocks
        assert np.all(np.diff(setup.partitions) >= 0)


class TestCheckpointRestart:
    def test_resume_is_bit_identical(self, tiny_loh3, tmp_path):
        resumed, full = self._interrupt_and_resume(tiny_loh3, tmp_path)
        assert isinstance(full.solver, ClusteredLtsSolver)

    def test_resume_partitioned_is_bit_identical(self, tiny_loh3, tmp_path):
        """A partitioned run resumes with the checkpointed clustering over
        the rebuilt partition-ordered setup."""
        resumed, full = self._interrupt_and_resume(
            tiny_loh3.with_overrides(n_partitions=2), tmp_path
        )
        np.testing.assert_array_equal(resumed.setup.partitions, full.setup.partitions)

    def test_a_cluster_ordered_2rank_checkpoint_resumes_bitwise(self, tiny_loh3, tmp_path):
        """A 2-rank checkpoint whose rows are in (cluster, id) order -- the
        layout of multi-rank checkpoints written before the setup carried
        the partition order -- resumes onto the partition-ordered setup,
        bitwise the uninterrupted run."""
        from repro.mesh.reorder import reorder_elements

        spec = tiny_loh3.with_overrides(n_ranks=2)
        path = tmp_path / "cluster-order.ckpt.npz"
        full = ScenarioRunner(spec)
        full.run()
        interrupted = ScenarioRunner(spec)
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        interrupted.solver.close()

        data = dict(np.load(path))
        row_of_id = np.argsort(data["element_order"])
        rows = row_of_id[reorder_elements(data["cluster_ids"][row_of_id])]
        for name in ("dofs", "cluster_ids", "element_order"):
            data[name] = data[name][rows]
        assert not np.array_equal(data["element_order"], full.setup.mesh.original_ids)
        np.savez(path, **data)

        resumed = ScenarioRunner.resume(path)
        assert resumed.cycles_done == 2
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        for name in ("receiver_9", "epicentre"):
            np.testing.assert_array_equal(
                resumed.receivers[name].seismogram()[1], full.receivers[name].seismogram()[1]
            )

    def test_a_checkpoint_of_another_mesh_is_refused(self, tiny_loh3, tmp_path):
        """Only a checkpoint of the rebuilt mesh resumes: one whose
        generation ids are another mesh's is refused, on ``resume`` and on
        a direct state load."""
        from repro.scenarios.runner import _read_checkpoint

        path = tmp_path / "other-mesh.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3)
        runner.step_cycle()
        runner.save_checkpoint(path)
        data, meta = _read_checkpoint(path)
        finer = ScenarioRunner(
            replace(tiny_loh3, mesh=replace(tiny_loh3.mesh, characteristic_length=1500.0))
        )
        assert finer.setup.mesh.n_elements != runner.setup.mesh.n_elements
        with pytest.raises(ValueError, match="element order does not match"):
            finer._load_state(data, meta)

        meta["spec"] = finer.spec.to_dict()
        np.savez(path, meta=json.dumps(meta), **data)
        with pytest.raises(ValueError, match="element order does not match"):
            ScenarioRunner.resume(path)

    @staticmethod
    def _interrupt_and_resume(spec, tmp_path):
        """Checkpoint at cycle 2, resume, and assert the rest of the run is
        bitwise the uninterrupted one (DOFs and seismograms)."""
        path = tmp_path / "run.ckpt.npz"

        full = ScenarioRunner(spec)
        full.run()

        interrupted = ScenarioRunner(spec)
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
        return resumed, full

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
        clustering = derive_clustering(setup.time_steps, 1, 1.0)  # spec says 2 clusters
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
        runner = ScenarioRunner(tiny_plane_wave.with_overrides(checkpoint_every=1))  # 3 cycles
        calls = self._counting_runner(runner, path, monkeypatch)
        runner.run(checkpoint_path=path)
        assert calls == [1, 2, 3]  # one write per cycle, no duplicate final

    def test_checkpoint_every_zero_disables_cadence(self, tiny_plane_wave, tmp_path, monkeypatch):
        path = tmp_path / "nocadence.ckpt.npz"
        spec = tiny_plane_wave.with_overrides(checkpoint_every=1)
        runner = ScenarioRunner(spec.with_overrides(checkpoint_every=0))
        calls = self._counting_runner(runner, path, monkeypatch)
        runner.run(checkpoint_path=path)
        assert calls == [runner.total_cycles]  # only the final write

    def test_resume_with_a_new_cadence(self, tiny_loh3, tmp_path, monkeypatch):
        """A resumed run can change its checkpoint cadence instead of
        inheriting the spec's."""
        path = tmp_path / "cadence.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3)  # 4 cycles
        runner.step_cycle()
        runner.save_checkpoint(path)

        resumed = ScenarioRunner.resume(path, checkpoint_every=2)
        calls = self._counting_runner(resumed, path, monkeypatch)
        resumed.run(checkpoint_path=path)
        # cadence writes at cycles 2 and 4; the final write is the cadence's
        assert calls == [2, 4]
        # and the new cadence is what the resumed run's checkpoints record
        assert ScenarioRunner.resume(path).spec.run.checkpoint_every == 2

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

    @pytest.mark.parametrize("kernels", ["ref", "fast"])
    def test_checkpoint_holds_solver_order_and_resumes_bitwise(self, tmp_path, kernels):
        """Format 3: DOFs and cluster ids in the setup's cluster order,
        which the resumed run rebuilds from the stored spec (La Habra: its
        generation order is not cluster order), and no LTS buffers or step
        counters."""
        spec = get_scenario("la_habra").smoke().with_overrides(
            n_clusters=3, n_cycles=3, kernels=kernels
        )
        path = tmp_path / "run.ckpt.npz"
        full = ScenarioRunner(spec)
        full.run()
        interrupted = ScenarioRunner(spec)
        n_elements = interrupted.setup.mesh.n_elements
        assert not np.array_equal(interrupted.setup.mesh.original_ids, np.arange(n_elements))
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        with np.load(path) as data:
            assert json.loads(str(data["meta"]))["format_version"] == 3
            assert np.all(np.diff(data["cluster_ids"]) >= 0)
            np.testing.assert_array_equal(data["dofs"], interrupted.solver.dofs)
            assert not {"step_index", "b1", "b2", "b3"} & set(data.files)

        resumed = ScenarioRunner.resume(path)
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        for receiver in full.receivers.receivers:
            np.testing.assert_array_equal(
                resumed.receivers[receiver.name].seismogram()[1], receiver.seismogram()[1]
            )

    @pytest.mark.parametrize(
        "n_ranks", [1, pytest.param(2, marks=pytest.mark.distributed)]
    )
    def test_format_2_checkpoint_resumes_bitwise(self, tiny_loh3, tmp_path, n_ranks):
        """Format 2 also stored ``step_index`` and the three LTS buffers: a
        resume ignores them, whatever they hold, and continues bitwise."""
        spec = tiny_loh3.with_overrides(n_ranks=n_ranks)
        path = tmp_path / "run.ckpt.npz"
        full = ScenarioRunner(spec)
        full.run()
        interrupted = ScenarioRunner(spec)
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        interrupted.solver.close()
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["format_version"] = 2
        rng = np.random.default_rng(5)
        buffer_shape = arrays["dofs"].shape[:1] + (9,) + arrays["dofs"].shape[2:]
        for name in ("b1", "b2", "b3"):
            arrays[name] = rng.standard_normal(buffer_shape)
        arrays["step_index"] = rng.integers(0, 9, len(arrays["cluster_time_steps"]))
        with open(path, "wb") as handle:
            np.savez(handle, meta=json.dumps(meta), **arrays)

        resumed = ScenarioRunner.resume(path)
        assert resumed.spec.solver.n_ranks == n_ranks
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        for receiver in full.receivers.receivers:
            np.testing.assert_array_equal(
                resumed.receivers[receiver.name].seismogram()[1], receiver.seismogram()[1]
            )

    def test_gts_checkpoint_of_the_lts_policy_clustering_resumes_bitwise(
        self, tiny_loh3, tmp_path
    ):
        """GTS checkpoints once stored the spec policy's LTS clustering; such
        a file resumes onto the GTS clustering it stepped, bit for bit."""
        from repro.scenarios.runner import staged_setup

        policy_spec = tiny_loh3.with_overrides(lam=0.7)
        spec = policy_spec.with_overrides(solver="gts")
        full = ScenarioRunner(spec)
        full.run()
        path = tmp_path / "gts.ckpt.npz"
        head = ScenarioRunner(spec)
        for _ in range(2):
            head.step_cycle()
        head.save_checkpoint(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        policy = staged_setup(policy_spec).clustering
        assert len(set(policy.cluster_ids.tolist())) == 2
        arrays.update(
            cluster_ids=policy.cluster_ids, cluster_time_steps=policy.cluster_time_steps
        )
        meta["clustering"] = {"lam": policy.lam, "dt_min": policy.dt_min}
        with open(path, "wb") as handle:
            np.savez(handle, meta=json.dumps(meta), **arrays)

        resumed = ScenarioRunner.resume(path)
        assert resumed.clustering.counts.tolist() == [resumed.setup.mesh.n_elements, 0]
        resumed.run()
        assert resumed.solver.n_element_updates == full.solver.n_element_updates
        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        for receiver in full.receivers.receivers:
            np.testing.assert_array_equal(
                resumed.receivers[receiver.name].seismogram()[1], receiver.seismogram()[1]
            )

    def test_checkpoint_in_another_element_order_resumes_by_generation_id(self, tmp_path):
        """A GTS run stepped on an LTS (cluster-ordered) setup writes rows in
        that order; its spec rebuilds generation order, and the resume maps
        every row onto it by generation id: the next cycle is bitwise the
        uninterrupted run's."""
        from repro.scenarios import build_setup

        path = tmp_path / "foreign.ckpt.npz"
        spec = get_scenario("la_habra").smoke().with_overrides(n_clusters=3)
        setup = build_setup(spec)
        runner = ScenarioRunner(
            spec.with_overrides(solver="gts"),
            setup=setup,
            clustering=derive_clustering(setup.time_steps, 1, 1.0),
        )
        runner.step_cycle()
        runner.save_checkpoint(path)
        resumed = ScenarioRunner.resume(path)
        assert not np.array_equal(
            resumed.setup.mesh.original_ids, runner.setup.mesh.original_ids
        )
        runner.step_cycle()
        resumed.step_cycle()
        np.testing.assert_array_equal(generation_dofs(resumed), generation_dofs(runner))

    def test_format_1_checkpoint_is_refused(self, tiny_loh3, tmp_path, capsys):
        """Format 1 stored generation order: it cannot resume into a cluster-
        ordered setup and is refused like any unknown format."""
        path = tmp_path / "run.ckpt.npz"
        runner = ScenarioRunner(tiny_loh3)
        runner.step_cycle()
        runner.save_checkpoint(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["format_version"] = 1
        with open(path, "wb") as handle:
            np.savez(handle, meta=json.dumps(meta), **arrays)
        with pytest.raises(ValueError, match="^unsupported checkpoint format 1$"):
            ScenarioRunner.resume(path)
        assert cli_main(["resume", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unsupported checkpoint format 1")
        assert "Traceback" not in err

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

    def test_report_attributes_the_setup_stages(self, tmp_path, capsys):
        """With telemetry the report lists every setup stage's seconds,
        operator assembly included, under the startup line."""
        out_dir = tmp_path / "out"
        args = [
            "run", "plane_wave", "--set", "extent_m=1500.0",
            "--set", "characteristic_length=750.0", "--order", "2", "--cycles", "1",
            "--output-dir", str(out_dir), "--metrics", "--quiet",
        ]
        assert cli_main(args) == 0
        regions = json.loads((out_dir / "run_summary.json").read_text())["telemetry"]["regions"]
        capsys.readouterr()
        assert cli_main(["report", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        stages = lines[next(i for i, l in enumerate(lines) if l.startswith("Startup:")) + 1]
        assert stages.startswith("  setup stages: ")
        for stage in ("mesh", "materials", "time_steps", "clustering", "operators"):
            assert f"preprocess.{stage}" in regions
            assert f"{stage} " in stages

    def test_run_spec_file_round_trip(self, tmp_path):
        spec = get_scenario(
            "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=1
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        assert cli_main(["run", "--spec", str(spec_file), "--quiet"]) == 0

    @pytest.mark.parametrize(
        "ranks", [[], pytest.param(["--ranks", "2"], marks=pytest.mark.distributed)],
        ids=["1rank", "2rank"],
    )
    def test_run_checkpoint_and_resume(self, tmp_path, capsys, ranks):
        ckpt = tmp_path / "cli.ckpt.npz"
        args = [
            "run",
            "plane_wave",
            "--set", "extent_m=1500.0",
            "--set", "characteristic_length=750.0",
            "--order", "2",
            "--cycles", "2",
            *ranks,
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

    def test_smoke_applies_before_explicit_flags(self):
        """``--smoke`` coarsens the spec first; explicit flags win over it
        (they used to be silently replaced by the smoke run's cycles,
        order and cadence)."""
        from repro.scenarios.cli import _resolve_spec, build_parser

        args = build_parser().parse_args([
            "run", "plane_wave", "--smoke", "--cycles", "3", "--order", "4",
            "--checkpoint-every", "1",
        ])
        spec = _resolve_spec(args)
        assert spec.run.n_cycles == 3 and spec.run.t_end is None
        assert spec.run.checkpoint_every == 1
        assert spec.order == 4
        smoke = get_scenario("plane_wave").smoke()
        assert spec.mesh == smoke.mesh and spec.clustering == smoke.clustering

    def test_cycles_and_t_end_together_is_an_input_error(self, capsys):
        """``--cycles`` and ``--t-end`` are two run durations; passing both
        used to drop ``--cycles`` silently."""
        assert cli_main(["run", "plane_wave", "--cycles", "3", "--t-end", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "n_cycles" in err and "t_end" in err

    def test_partitions_orders_elements_with_or_without_reorder(self, capsys):
        """``--partitions 2`` alone activates the (cluster, partition, role)
        order; a spec's ``reorder`` changes nothing, and ``--reorder`` is
        no flag."""
        from repro.scenarios.cli import _resolve_spec, build_parser
        from repro.scenarios.runner import build_setup

        argv = ["run", "loh3", "--set", "extent_m=4000.0", "--set", "characteristic_length=2000.0",
                "--order", "2", "--partitions", "2"]
        parser = build_parser()
        plain = _resolve_spec(parser.parse_args(argv))
        reordered = plain.with_overrides(reorder=True)
        assert not plain.preprocessing.reorder and reordered.preprocessing.reorder
        a, b = build_setup(plain), build_setup(reordered)
        np.testing.assert_array_equal(a.mesh.original_ids, b.mesh.original_ids)
        np.testing.assert_array_equal(a.partitions, b.partitions)
        assert a.partitions.max() == 1
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--reorder"])
        assert "--reorder" in capsys.readouterr().err

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


class TestCliProcess:
    """The CLI as a user runs it: ``python -m repro`` in a fresh process,
    on both kernel backends and in single precision."""

    @staticmethod
    def _repro(*argv, cwd):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=300, env=env, cwd=cwd,
        )

    def test_list(self, tmp_path):
        done = self._repro("list", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "loh3" in done.stdout and "plane_wave" in done.stdout

    @pytest.mark.parametrize("kernels, precision", [
        ("ref", "f64"), ("fast", "f64"), ("fast", "f32"),
    ])
    def test_loh3_smoke_run(self, tmp_path, kernels, precision):
        done = self._repro(
            "run", "loh3", "--smoke", "--kernels", kernels, "--precision", precision,
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout)
        assert (summary["kernels"], summary["precision"]) == (kernels, precision)
        assert summary["cycles"] == 2

    def test_plane_wave_smoke_run_quiet(self, tmp_path):
        done = self._repro(
            "run", "plane_wave", "--smoke", "--quiet", "--output-dir", "out", cwd=tmp_path
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["precision"] == "f64" and summary["kernels"] in ("ref", "fast")

    def test_checkpoint_into_a_directory_that_does_not_exist_yet(self, tmp_path):
        """``--checkpoint D/run.ckpt.npz`` with ``D`` absent: the run creates
        ``D`` at its first cadence checkpoint (not only after ``--events``
        made it), writes its outputs there, and resumes from it."""
        run_dir = tmp_path / "D"
        done = self._repro(
            "run", "loh3", "--smoke", "--kernels", "fast", "--output-dir", "D",
            "--checkpoint", "D/run.ckpt.npz", "--checkpoint-every", "1", "--quiet",
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert (run_dir / "run.ckpt.npz").is_file()
        assert not list(run_dir.glob("*.tmp"))
        csvs = sorted(p.name for p in run_dir.glob("seismogram_*.csv"))
        assert csvs and (run_dir / "run_summary.json").is_file()

        resumed = self._repro(
            "resume", "D/run.ckpt.npz", "--output-dir", "D/resumed", "--quiet", cwd=tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        for name in csvs:
            assert (run_dir / "resumed" / name).read_bytes() == (run_dir / name).read_bytes()
