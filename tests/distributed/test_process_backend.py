"""Tests of the process-per-rank engine and the overlap restructure.

The central claims:

* the per-cluster boundary/interior split is a true partition, every halo
  send reads from a boundary element, and the receive packs account for
  exactly the modelled per-cycle messages and payloads,
* a multi-rank run (one forked worker process per rank, overlapped halo
  exchange) produces DOFs, seismograms, element-update counts and measured
  traffic bit-identical to the single-rank runner, for 2, 3 and 4 ranks,
* the rank host is no longer a choice: specs and checkpoints naming either
  legacy ``solver.backend`` value load unchanged and run on forked ranks,
  and ``--backend`` / ``resume(backend=...)`` are refused by name,
* the engine survives its worker lifecycle: state reads after ``close()``
  are served from the cache, stepping again respawns the workers, a rank
  that fails to start leaves no started rank behind, and workers of a
  SIGKILLed parent exit on their own, and
* specs written while ``solver.comm`` still existed stay readable: a
  ``"queue"`` value is dropped, any other value fails loudly.
"""

import errno
import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import ProcessLtsEngine
from repro.distributed import engine as engine_module
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, make_runner
from repro.parallel.supervisor import ORPHAN_POLL_S
from repro.scenarios.spec import RESUMABLE_OVERRIDES
from repro.verification import GOLDEN_SCENARIOS, load_golden
from repro.scenarios.cli import main as cli_main

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
def rank_run(tiny_loh3):
    runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
    runner.run()
    return runner


def _worker_pids(engine) -> list[int]:
    return [handle.pid for handle in engine._host.handles]


def _steps_on_forked_ranks(spec) -> None:
    runner = make_runner(spec)
    runner.step_cycle()
    pids = _worker_pids(runner.engine)
    assert len(pids) == spec.solver.n_ranks and os.getpid() not in pids
    runner.engine.close()


class TestOverlapStructure:
    def test_boundary_interior_rows_partition_each_cluster(self, rank_run):
        for sub in rank_run.engine.subdomains:
            ghost_elements = set()
            for plan in sub.send_plans:
                # a buffer-store row is ``buffer * (n_owned + 1) + local id``
                ghost_elements.update((plan.rows % (sub.n_owned + 1)).tolist())
            for cluster in range(rank_run.clustering.n_clusters):
                batch = np.where(sub.clustering.cluster_ids == cluster)[0]
                boundary = sub.boundary_rows[cluster]
                interior = sub.interior_rows[cluster]
                # two adjacent row ranges: boundary first, interior after
                assert (boundary.start, boundary.stop) == (0, interior.start)
                assert interior.stop == len(batch)
                # every sending element of this cluster is a boundary row
                sending = ghost_elements & set(batch.tolist())
                assert sending == set(batch[boundary].tolist())

    def test_recv_packs_cover_the_model_message_count(self, rank_run):
        """The receivers drain exactly the modelled messages and payloads."""
        engine = rank_run.engine
        model = engine.modelled_exchange_per_cycle()
        packs = [pack for sub in engine.subdomains for step in sub.recv_packs for pack in step]
        assert len(packs) == model["n_messages"]
        assert sum(len(pack.rows) for pack in packs) == model["n_payloads"]


class TestBitIdentity:
    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_multi_rank_run_matches_single_rank(self, tiny_loh3, single_run, n_ranks):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=n_ranks))
        assert runner.solver is runner.engine
        assert isinstance(runner.engine, ProcessLtsEngine)
        summary = runner.run()

        np.testing.assert_array_equal(runner.solver.dofs, single_run.solver.dofs)
        assert np.abs(runner.solver.dofs).max() > 0.0, "the run must move"
        assert summary["element_updates"] == single_run.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_single, v_single = single_run.receivers[name].seismogram()
            t_rank, v_rank = runner.receivers[name].seismogram()
            np.testing.assert_array_equal(t_rank, t_single)
            np.testing.assert_array_equal(v_rank, v_single)
        model = summary["comm"]["model"]
        assert summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]
        assert summary["comm"]["measured_messages_per_cycle"] == model["n_messages"]
        # the spec's default ("serial") forks too: every rank reports its
        # own peak RSS, and the summary names no rank host
        assert tiny_loh3.solver.backend == "serial"
        assert "backend" not in summary
        peaks = summary["memory"]["worker_peak_rss_mb"]
        assert len(peaks) == n_ranks and all(peak > 0.0 for peak in peaks)
        json.dumps(summary)  # embeds without a custom encoder


class TestLegacyBackendValues:
    """``solver.backend`` selects nothing: either value loads unchanged and
    runs forked rank workers."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_checkpoint_resumes_on_forked_ranks(self, tiny_loh3, rank_run, tmp_path, backend):
        path = tmp_path / f"{backend}.ckpt.npz"
        interrupted = make_runner(tiny_loh3.with_overrides(n_ranks=2, backend=backend))
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        interrupted.engine.close()
        del interrupted

        resumed = ScenarioRunner.resume(path)
        assert resumed.spec.solver.backend == backend
        assert isinstance(resumed.engine, ProcessLtsEngine)
        assert resumed.cycles_done == 2
        resumed.step_cycle()
        assert os.getpid() not in _worker_pids(resumed.engine)
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, rank_run.solver.dofs)
        assert resumed.solver.n_element_updates == rank_run.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_full, v_full = rank_run.receivers[name].seismogram()
            t_res, v_res = resumed.receivers[name].seismogram()
            np.testing.assert_array_equal(t_res, t_full)
            np.testing.assert_array_equal(v_res, v_full)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_spec_file_runs_on_forked_ranks(self, tiny_loh3, backend):
        payload = tiny_loh3.with_overrides(n_ranks=2, n_cycles=1).to_dict()
        payload["solver"]["backend"] = backend
        spec = ScenarioSpec.from_dict(payload)
        assert spec.solver.backend == backend and spec.to_dict() == payload
        _steps_on_forked_ranks(spec)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_golden_spec_block_runs_on_forked_ranks(self, name):
        block = load_golden(name)["spec"]
        spec = ScenarioSpec.from_dict(block)
        assert block["solver"]["backend"] == spec.solver.backend == "serial"
        assert spec.to_dict() == block
        _steps_on_forked_ranks(spec.with_overrides(n_ranks=2, n_cycles=1))

    def test_resume_refuses_a_backend_override(self, tiny_loh3, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, n_cycles=1))
        runner.step_cycle()
        runner.save_checkpoint(path)
        runner.engine.close()
        assert "backend" not in RESUMABLE_OVERRIDES
        with pytest.raises(TypeError, match="resume cannot override backend") as refused:
            ScenarioRunner.resume(path, backend="process")
        assert f"(resumable: {', '.join(RESUMABLE_OVERRIDES)})" in str(refused.value)

    @pytest.mark.parametrize(
        "command", [["run", "loh3", "--smoke", "--ranks", "2"], ["verify", "loh3", "--ranks", "2"],
                    ["resume", "run.ckpt.npz"]], ids=lambda command: command[0],
    )
    def test_cli_refuses_the_backend_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            cli_main([*command, "--backend", "process"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --backend process" in capsys.readouterr().err


def _live_workers() -> set:
    """The child processes alive in this process."""
    return set(multiprocessing.active_children())


class TestEngineLifecycle:
    def test_close_serves_cached_state_and_respawns(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        engine = runner.engine
        runner.step_cycle()
        stats_before = engine.stats.as_dict()
        dofs_before = engine.dofs.copy()
        engine.close()
        assert engine._host is None
        # reads come from the cache
        np.testing.assert_array_equal(engine.dofs, dofs_before)
        assert engine.stats.as_dict() == stats_before
        # stepping respawns the workers and continues bit-identically
        runner.step_cycle()
        assert engine._host is not None
        reference = make_runner(tiny_loh3)
        reference.step_cycle()
        reference.step_cycle()
        np.testing.assert_array_equal(engine.dofs, reference.solver.dofs)
        # pre-close traffic survives the respawn
        assert engine.stats.n_messages == 2 * stats_before["n_messages"]
        engine.close()

    @pytest.mark.parametrize("spawn", ["first", "respawn"])
    def test_a_failed_start_leaves_no_rank_running(self, tiny_loh3, monkeypatch, spawn):
        """The second rank's fork fails (EAGAIN): the error propagates, and
        the rank already started is stopped, not left without a handle."""
        before = _live_workers()
        spec = tiny_loh3.with_overrides(n_ranks=2)
        real, calls = engine_module.start_worker, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "injected fork failure")
            return real(*args, **kwargs)

        if spawn == "first":
            monkeypatch.setattr(engine_module, "start_worker", failing)
            with pytest.raises(OSError, match="injected fork failure"):
                make_runner(spec)
        else:
            runner = make_runner(spec)
            runner.step_cycle()
            runner.engine.close()
            monkeypatch.setattr(engine_module, "start_worker", failing)
            with pytest.raises(OSError, match="injected fork failure"):
                runner.step_cycle()
        gc.collect()
        assert len(calls) == 2
        assert _live_workers() - before == set()

    @pytest.mark.parametrize("fail_at", [2, 3, 4], ids=lambda n: f"fork-{n}")
    def test_a_failed_fork_stops_every_rank_started_before_it(
        self, tiny_loh3, monkeypatch, fail_at
    ):
        """On 4 ranks the ``fail_at``-th fork fails: each of the ranks
        forked before it is stopped, whichever rank failed."""
        before = _live_workers()
        real, started = engine_module.start_worker, []

        def failing(*args, **kwargs):
            if len(started) + 1 == fail_at:
                raise OSError(errno.EAGAIN, "injected fork failure")
            started.append(real(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(engine_module, "start_worker", failing)
        with pytest.raises(OSError, match="injected fork failure"):
            make_runner(tiny_loh3.with_overrides(n_ranks=4))
        gc.collect()
        assert len(started) == fail_at - 1
        assert not any(process.is_alive() for process in started)
        assert _live_workers() - before == set()

    def test_worker_death_fails_loudly_instead_of_respawning_blank(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        engine = runner.engine
        runner.step_cycle()
        engine._host.handles[0].terminate()
        engine._host.handles[0].join()
        with pytest.raises(RuntimeError, match="worker"):
            runner.step_cycle()
        # the dynamic state died with the worker: no silent zero-state respawn
        with pytest.raises(RuntimeError, match="lost its workers"):
            runner.step_cycle()

    def test_a_failed_cycle_restores_to_the_uninterrupted_run(self, tiny_loh3):
        """A SIGKILLed rank fails the engine by name; a restored state steps
        on on fresh workers and channels, bitwise the uninterrupted run."""
        spec = tiny_loh3.with_overrides(n_ranks=2)
        clean = make_runner(spec)
        clean.step_cycle()
        clean.step_cycle()
        before = _live_workers()
        runner = make_runner(spec)
        engine = runner.engine
        runner.step_cycle()
        saved = engine.state_arrays()
        time_, updates = engine.time, engine.n_element_updates
        os.kill(engine._host.handles[0].pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="rank 0 worker"):
            engine.step_cycle()
        assert _live_workers() - before == set()
        with pytest.raises(RuntimeError, match="lost its workers"):
            engine.step_cycle()
        engine.restore_state(saved, time_, updates)
        runner.step_cycle()
        np.testing.assert_array_equal(engine.dofs, clean.solver.dofs)
        assert engine.n_element_updates == clean.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_clean, v_clean = clean.receivers[name].seismogram()
            t_run, v_run = runner.receivers[name].seismogram()
            np.testing.assert_array_equal(t_run, t_clean)
            np.testing.assert_array_equal(v_run, v_clean)
        engine.close()
        clean.engine.close()
        assert _live_workers() - before == set()

    def test_a_missing_pack_fails_in_bounded_time(self, tiny_loh3):
        """One pack dropped from rank 0's sends: its receiver gives up after
        ``comm_timeout``, naming both ranks and the micro step, and no rank
        worker process outlives the failure."""
        before = _live_workers()
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, comm_timeout=0.5))
        engine = runner.engine
        plans = engine.subdomains[0].send_plans
        # the last pack of the cycle: no later send of its receiver waits on
        # it, so exactly one rank stalls
        step = max(s for s, plan in enumerate(plans) if plan.packs)
        (dst, _), *rest = plans[step].packs
        plans[step] = replace(plans[step], packs=tuple(rest))
        engine.close()  # the next cycle respawns the workers on the cut plan
        start = time.monotonic()
        with pytest.raises(RuntimeError) as failure:
            engine.step_cycle()
        assert time.monotonic() - start < 30.0
        assert f"rank {dst}: no halo pack from rank 0 for micro step {step}" in str(
            failure.value
        )
        assert _live_workers() - before == set()

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
                "--cycles", "500", "--ranks", "2",
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

    def test_checkpoint_with_legacy_queue_comm_resumes(self, tiny_loh3, rank_run, tmp_path):
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

        resumed = ScenarioRunner.resume(path)
        assert isinstance(resumed.engine, ProcessLtsEngine)
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, rank_run.solver.dofs)

    def test_cli_run_on_forked_ranks(self, tmp_path):
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
                "--output-dir", str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert "backend" not in summary
        assert summary["n_ranks"] == 2
        assert summary["comm"]["n_messages"] > 0
