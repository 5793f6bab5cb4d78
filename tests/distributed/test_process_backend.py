"""Tests of the process-per-rank backend and the overlap restructure.

The central claims:

* the per-cluster boundary/interior split is a true partition, every halo
  send reads from a boundary element, and the receive packs account for
  exactly the modelled per-cycle messages and payloads,
* a ``--backend process`` run (one worker process per rank, overlapped halo
  exchange) produces DOFs, seismograms, element-update counts and per-pair
  measured traffic bit-identical to the serial backend and the single-rank
  runner, for 2 and 4 ranks,
* checkpoints are interchangeable across backends: write under ``serial``,
  resume under ``process`` (and vice versa), bit-identically,
* the engine survives its worker lifecycle: state reads after ``close()``
  are served from the cache, stepping again respawns the workers, and
  workers of a SIGKILLed parent exit on their own, and
* specs written while ``solver.comm`` still existed stay readable: a
  ``"queue"`` value is dropped, any other value fails loudly.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import ProcessLtsEngine
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, make_runner
from repro.parallel.supervisor import ORPHAN_POLL_S
from repro.scenarios.cli import main as cli_main

from .conftest import assert_cross_rank_equal

pytestmark = pytest.mark.distributed

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def tiny_loh3():
    """A small 2-cluster LOH.3 variant exercising all buffer relations."""
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
def single_run(tiny_loh3):
    runner = ScenarioRunner(tiny_loh3)
    runner.run()
    return runner


@pytest.fixture(scope="module")
def serial_run(tiny_loh3):
    runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
    runner.run()
    return runner


class TestOverlapStructure:
    def test_boundary_interior_rows_partition_each_cluster(self, serial_run):
        for sub in serial_run.engine.subdomains:
            ghost_elements = set()
            for plan in sub.send_plans:
                # a buffer-store row is ``buffer * (n_owned + 1) + local id``
                ghost_elements.update((plan.rows % (sub.n_owned + 1)).tolist())
            for cluster in range(serial_run.clustering.n_clusters):
                batch = np.where(sub.clustering.cluster_ids == cluster)[0]
                boundary = sub.boundary_rows[cluster]
                interior = sub.interior_rows[cluster]
                # two adjacent row ranges: boundary first, interior after
                assert (boundary.start, boundary.stop) == (0, interior.start)
                assert interior.stop == len(batch)
                # every sending element of this cluster is a boundary row
                sending = ghost_elements & set(batch.tolist())
                assert sending == set(batch[boundary].tolist())

    def test_recv_packs_cover_the_model_message_count(self, serial_run):
        """The receivers drain exactly the modelled messages and payloads."""
        engine = serial_run.engine
        model = engine.modelled_exchange_per_cycle()
        packs = [pack for sub in engine.subdomains for step in sub.recv_packs for pack in step]
        assert len(packs) == model["n_messages"]
        assert sum(len(pack.rows) for pack in packs) == model["n_payloads"]


class TestBitIdentity:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_process_matches_serial_and_single_rank(
        self, tiny_loh3, single_run, n_ranks
    ):
        spec = tiny_loh3.with_overrides(n_ranks=n_ranks)
        serial = make_runner(spec)
        serial_summary = serial.run()
        process = make_runner(spec.with_overrides(backend="process"))
        assert process.solver is process.engine
        assert isinstance(process.engine, ProcessLtsEngine)
        process_summary = process.run()

        np.testing.assert_array_equal(process.solver.dofs, serial.solver.dofs)
        assert_cross_rank_equal(process.solver.dofs, single_run.solver.dofs)
        assert np.abs(process.solver.dofs).max() > 0.0, "the run must move"
        assert (
            process_summary["element_updates"]
            == serial_summary["element_updates"]
            == single_run.solver.n_element_updates
        )
        for name in ("receiver_9", "epicentre"):
            t_single, v_single = single_run.receivers[name].seismogram()
            t_proc, v_proc = process.receivers[name].seismogram()
            np.testing.assert_array_equal(t_proc, t_single)
            assert_cross_rank_equal(v_proc, v_single)
        # measured traffic: process == serial, entry by entry, and == model
        assert process_summary["comm"]["per_pair"] == serial_summary["comm"]["per_pair"]
        model = process_summary["comm"]["model"]
        assert process_summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]
        assert (
            process_summary["comm"]["measured_messages_per_cycle"] == model["n_messages"]
        )
        assert process_summary["backend"] == "process"
        json.dumps(process_summary)  # embeds without a custom encoder


class TestCheckpointAcrossBackends:
    def test_serial_checkpoint_resumes_under_process(self, tiny_loh3, serial_run, tmp_path):
        path = tmp_path / "serial.ckpt.npz"
        interrupted = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        del interrupted

        resumed = ScenarioRunner.resume(path, backend="process")
        assert isinstance(resumed.engine, ProcessLtsEngine)
        assert resumed.cycles_done == 2
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, serial_run.solver.dofs)
        assert resumed.solver.n_element_updates == serial_run.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_full, v_full = serial_run.receivers[name].seismogram()
            t_res, v_res = resumed.receivers[name].seismogram()
            np.testing.assert_array_equal(t_res, t_full)
            np.testing.assert_array_equal(v_res, v_full)

    def test_process_checkpoint_resumes_under_serial(self, tiny_loh3, serial_run, tmp_path):
        path = tmp_path / "process.ckpt.npz"
        interrupted = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, backend="process")
        )
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        interrupted.engine.close()
        del interrupted

        resumed = ScenarioRunner.resume(path, backend="serial")
        assert resumed.spec.solver.backend == "serial"
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, serial_run.solver.dofs)


class TestEngineLifecycle:
    def test_close_serves_cached_state_and_respawns(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, backend="process"))
        engine = runner.engine
        runner.step_cycle()
        stats_before = engine.stats.as_dict()
        dofs_before = engine.dofs.copy()
        engine.close()
        assert not engine._alive
        # reads come from the cache
        np.testing.assert_array_equal(engine.dofs, dofs_before)
        assert engine.stats.as_dict() == stats_before
        # stepping respawns the workers and continues bit-identically
        runner.step_cycle()
        assert engine._alive
        reference = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        reference.step_cycle()
        reference.step_cycle()
        np.testing.assert_array_equal(engine.dofs, reference.solver.dofs)
        # pre-close traffic survives the respawn
        assert engine.stats.n_messages == reference.engine.stats.n_messages
        engine.close()

    def test_worker_death_fails_loudly_instead_of_respawning_blank(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, backend="process"))
        engine = runner.engine
        runner.step_cycle()
        engine._procs[0].terminate()
        engine._procs[0].join()
        with pytest.raises(RuntimeError, match="worker"):
            runner.step_cycle()
        # the dynamic state died with the worker: no silent zero-state respawn
        with pytest.raises(RuntimeError, match="lost its workers"):
            runner.step_cycle()

    def test_workers_self_exit_after_parent_sigkill(self, tmp_path):
        # fork-inherited peer pipe fds mean a SIGKILLed parent produces no
        # EOF on ctrl.recv(); the workers' orphan watchdog must notice the
        # reparenting and exit instead of lingering forever -- wherever the
        # kill finds them (here: during start-up or the first cycles)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", "loh3",
                "--set", "extent_m=4000.0",
                "--set", "characteristic_length=2000.0",
                "--set", "n_mechanisms=1",
                "--order", "2", "--clusters", "2", "--lambda", "0.8",
                "--cycles", "500", "--ranks", "2", "--backend", "process",
                "--output-dir", str(tmp_path / "orphan"), "--quiet",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
            )),
        )

        def workers() -> list[int]:
            found = []
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    stat = open(f"/proc/{entry}/stat").read()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[1]) == proc.pid:
                    found.append(int(entry))
            return found

        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and len(workers()) < 2:
            assert proc.poll() is None, f"run exited early rc {proc.returncode}"
            time.sleep(0.1)
        # capture the pids while the parent lives: once it dies the workers
        # reparent and the ppid scan can no longer find them
        worker_pids = workers()
        assert len(worker_pids) >= 2, "workers never appeared"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        # far below the 120 s halo-receive timeout a stranded rank would sit out
        orphan_deadline = time.monotonic() + 15 * ORPHAN_POLL_S

        def pids_alive(pids) -> list[int]:
            live = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                live.append(pid)
            return live

        while time.monotonic() < orphan_deadline and pids_alive(worker_pids):
            time.sleep(0.5)
        assert pids_alive(worker_pids) == [], "orphaned workers never exited"


class TestSpecAndCli:
    def test_backend_round_trips_through_json(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_ranks=2, backend="process")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.solver.backend == "process"

    def test_process_backend_requires_ranks(self, tiny_loh3):
        with pytest.raises(ValueError, match="n_ranks >= 2"):
            tiny_loh3.with_overrides(backend="process")

    def test_unknown_backend_rejected(self, tiny_loh3):
        with pytest.raises(ValueError, match="backend"):
            tiny_loh3.with_overrides(n_ranks=2, backend="threads")

    def test_comm_timeout_round_trips_through_json(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_ranks=2, backend="process", comm_timeout=30.0)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.solver.comm_timeout == 30.0

    def test_bad_comm_timeout_rejected(self, tiny_loh3):
        with pytest.raises(ValueError, match="comm_timeout"):
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm_timeout=0.0)

    def test_comm_timeout_reaches_the_engine(self, tiny_loh3):
        runner = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm_timeout=33.0)
        )
        assert runner.engine.comm_timeout == 33.0
        runner.engine.close()

    def test_legacy_queue_comm_is_dropped(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_ranks=2, backend="process")
        payload = spec.to_dict()
        assert "comm" not in payload["solver"]
        payload["solver"]["comm"] = "queue"
        assert ScenarioSpec.from_dict(payload) == spec

    def test_legacy_shm_comm_fails_naming_the_removed_transport(self, tiny_loh3, tmp_path):
        payload = tiny_loh3.with_overrides(n_ranks=2, backend="process").to_dict()
        payload["solver"]["comm"] = "shm"
        with pytest.raises(ValueError, match="'shm' is no longer supported.*shared-memory"):
            ScenarioSpec.from_dict(payload)
        path = tmp_path / "shm.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["run", "--spec", str(path), "--quiet"]) == 2

    def test_checkpoint_with_legacy_queue_comm_resumes(self, tiny_loh3, serial_run, tmp_path):
        path = tmp_path / "legacy.ckpt.npz"
        interrupted = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        del interrupted
        # the spec block as checkpoints wrote it while the knob existed
        data = dict(np.load(path))
        meta = json.loads(str(data["meta"]))
        meta["spec"]["solver"]["comm"] = "queue"
        data["meta"] = json.dumps(meta)
        np.savez(path, **data)

        resumed = ScenarioRunner.resume(path, backend="process")
        assert isinstance(resumed.engine, ProcessLtsEngine)
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, serial_run.solver.dofs)

    def test_cli_run_with_process_backend(self, tmp_path):
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "run",
                "loh3",
                "--set", "extent_m=4000.0",
                "--set", "characteristic_length=2000.0",
                "--set", "n_mechanisms=1",
                "--order", "2",
                "--clusters", "2",
                "--lambda", "1.0",
                "--cycles", "1",
                "--ranks", "2",
                "--backend", "process",
                "--output-dir", str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["backend"] == "process"
        assert summary["n_ranks"] == 2
        assert summary["comm"]["n_messages"] > 0
