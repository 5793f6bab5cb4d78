"""Tests of the shared-memory halo transport wired through the full stack.

The central claims:

* a ``--comm shm`` process-backend run (payloads written in place into
  per-rank-pair shared-memory rings, queues carrying only tokens) produces
  DOFs, seismograms, element-update counts and per-pair measured traffic
  bit-identical to the serial backend, the single-rank runner *and* the
  queue transport, for 2 and 4 ranks, with measured traffic exactly equal
  to ``exchange_volumes_per_cycle``,
* segment lifetime is airtight: rings exist exactly while workers are
  alive, ``close()``/``_terminate()``/respawn unlink them (including the
  crash path after a SIGKILLed worker), and nothing is left in
  ``/dev/shm``, and
* the spec/CLI surface round-trips ``solver.comm``/``solver.comm_timeout``
  and rejects invalid combinations.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.distributed import ProcessLtsEngine
from repro.distributed.process_engine import _ORPHAN_POLL_S, _reap_stale_segments
from repro.parallel.shm_comm import create_ring_segment
from repro.scenarios import ScenarioRunner, ScenarioSpec, make_runner
from repro.scenarios.cli import main as cli_main

from .conftest import assert_cross_rank_equal
from .test_process_backend import tiny_loh3, single_run, serial_run  # noqa: F401

pytestmark = pytest.mark.distributed


def _repro_segments(owner_pid: int | None = None) -> list[str]:
    """The shm rings in /dev/shm created by one process (default: this one).

    Ring names embed the creating pid, so the leak assertions only see the
    segments of the engine under test -- an orphan of an earlier (failed)
    test or of a concurrent session cannot fail the next one.
    """
    pid = os.getpid() if owner_pid is None else owner_pid
    return sorted(glob.glob(f"/dev/shm/repro-{pid}-*"))


class TestBitIdentity:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_shm_matches_serial_single_rank_and_queue(
        self, tiny_loh3, single_run, n_ranks  # noqa: F811
    ):
        spec = tiny_loh3.with_overrides(n_ranks=n_ranks, backend="process")
        queue_runner = make_runner(spec)
        queue_summary = queue_runner.run()
        before = _repro_segments()
        shm_runner = make_runner(spec.with_overrides(comm="shm"))
        assert isinstance(shm_runner.engine, ProcessLtsEngine)
        assert shm_runner.engine.comm_kind == "shm"
        shm_summary = shm_runner.run()

        np.testing.assert_array_equal(
            shm_runner.solver.dofs, queue_runner.solver.dofs
        )
        assert_cross_rank_equal(shm_runner.solver.dofs, single_run.solver.dofs)
        assert np.abs(shm_runner.solver.dofs).max() > 0.0, "the run must move"
        assert (
            shm_summary["element_updates"]
            == queue_summary["element_updates"]
            == single_run.solver.n_element_updates
        )
        for name in ("receiver_9", "epicentre"):
            t_single, v_single = single_run.receivers[name].seismogram()
            t_shm, v_shm = shm_runner.receivers[name].seismogram()
            np.testing.assert_array_equal(t_shm, t_single)
            assert_cross_rank_equal(v_shm, v_single)
        # byte accounting: identical to the queue transport, entry by entry,
        # and exactly equal to the exchange model per cycle
        assert shm_summary["comm"]["per_pair"] == queue_summary["comm"]["per_pair"]
        model = shm_summary["comm"]["model"]
        cycles = shm_summary["comm"]["cycles_measured"]
        assert shm_summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]
        for pair, per_cycle in model["per_pair"].items():
            assert (
                shm_summary["comm"]["per_pair"][pair]["bytes"] == per_cycle * cycles
            )
        assert shm_summary["comm"]["transport"] == "shm"
        assert queue_summary["comm"]["transport"] == "queue"
        json.dumps(shm_summary)  # embeds without a custom encoder
        # the run released every segment it created
        assert _repro_segments() == before


class TestSegmentLifecycle:
    def test_segments_live_with_the_workers(self, tiny_loh3):  # noqa: F811
        before = _repro_segments()
        runner = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm="shm")
        )
        engine = runner.engine
        created = set(_repro_segments()) - set(before)
        # one ring per directed pair named by the exchange model
        assert len(created) == len(engine.modelled_exchange_per_cycle()["per_pair"])
        runner.step_cycle()
        engine.close()
        assert _repro_segments() == before  # close() unlinked everything
        # a respawn creates a fresh generation...
        runner.step_cycle()
        respawned = set(_repro_segments()) - set(before)
        assert len(respawned) == len(created) and respawned != created
        # ...and continues bit-identically across the transport's respawn
        reference = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        reference.step_cycle()
        reference.step_cycle()
        np.testing.assert_array_equal(engine.dofs, reference.solver.dofs)
        assert engine.stats.n_messages == reference.engine.stats.n_messages
        engine.close()
        assert _repro_segments() == before

    def test_sigkilled_worker_leaves_no_segments(self, tiny_loh3):  # noqa: F811
        before = _repro_segments()
        runner = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm="shm")
        )
        engine = runner.engine
        runner.step_cycle()
        assert set(_repro_segments()) > set(before)
        # SIGKILL one worker: no atexit, no finally blocks, no detach
        engine._procs[0].kill()
        engine._procs[0].join()
        with pytest.raises(RuntimeError, match="worker"):
            runner.step_cycle()
        # the failure path tore the fabric down: no leaked segments
        assert _repro_segments() == before

    def test_stale_segments_of_dead_owners_are_reaped(self):
        # a whole-process-group SIGKILL takes out parent, workers AND the
        # resource tracker, so rings survive in /dev/shm; the reaper (run
        # at every engine start) reclaims rings whose embedded pid is dead
        dead_pid = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        orphaned = create_ring_segment(f"repro-{dead_pid}-feed-0to1", 1 << 16)
        orphaned.close()
        alive = create_ring_segment(f"repro-{os.getpid()}-cafe-0to1", 1 << 16)
        unparseable = create_ring_segment("repro-test-suite-0to1", 1 << 16)
        try:
            reaped = _reap_stale_segments()
            assert f"repro-{dead_pid}-feed-0to1" in reaped
            # a live owner's ring and names without an embedded pid survive
            assert f"/dev/shm/repro-{os.getpid()}-cafe-0to1" in _repro_segments()
            assert os.path.exists("/dev/shm/repro-test-suite-0to1")
            assert _repro_segments(dead_pid) == []
        finally:
            for segment in (alive, unparseable):
                segment.close()
                segment.unlink()

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
                "--backend", "process", "--comm", "shm",
                "--output-dir", str(tmp_path / "orphan"), "--quiet",
            ]
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
        worker_pids = workers()
        # the scan also catches the resource tracker (a third child); all of
        # them must exit -- the tracker's pipe closes once the workers die.
        # capture the pids while the parent lives: once it dies the workers
        # reparent and the ppid scan can no longer find them
        assert len(worker_pids) >= 2, "workers never appeared"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        # far below the 120 s halo-receive timeout a stranded rank would sit out
        orphan_deadline = time.monotonic() + 15 * _ORPHAN_POLL_S

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
        # with parent and workers gone the resource tracker (or the next
        # engine start's reaper) reclaims the rings
        tracker_deadline = time.monotonic() + 30.0
        while time.monotonic() < tracker_deadline and _repro_segments(proc.pid):
            time.sleep(0.5)
        if _repro_segments(proc.pid):
            _reap_stale_segments()
        assert _repro_segments(proc.pid) == []

    def test_checkpoint_resumes_across_transports(
        self, tiny_loh3, serial_run, tmp_path  # noqa: F811
    ):
        path = tmp_path / "shm.ckpt.npz"
        interrupted = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm="shm")
        )
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        interrupted.engine.close()
        del interrupted

        # transports are bit-identical, so a shm checkpoint continues under
        # queue (and under the serial backend, where comm resets to queue)
        resumed = ScenarioRunner.resume(path, comm="queue")
        assert resumed.spec.solver.comm == "queue"
        resumed.run()
        np.testing.assert_array_equal(resumed.solver.dofs, serial_run.solver.dofs)

        serial = ScenarioRunner.resume(path, backend="serial")
        assert serial.spec.solver.comm == "queue"
        serial.run()
        np.testing.assert_array_equal(serial.solver.dofs, serial_run.solver.dofs)


class TestSpecAndCli:
    def test_comm_round_trips_through_json(self, tiny_loh3):  # noqa: F811
        spec = tiny_loh3.with_overrides(
            n_ranks=2, backend="process", comm="shm", comm_timeout=30.0
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.solver.comm == "shm"
        assert spec.solver.comm_timeout == 30.0

    def test_shm_requires_the_process_backend(self, tiny_loh3):  # noqa: F811
        with pytest.raises(ValueError, match="requires backend='process'"):
            tiny_loh3.with_overrides(comm="shm")
        with pytest.raises(ValueError, match="requires backend='process'"):
            tiny_loh3.with_overrides(n_ranks=2, comm="shm")

    def test_unknown_comm_and_bad_timeout_rejected(self, tiny_loh3):  # noqa: F811
        with pytest.raises(ValueError, match="solver comm"):
            tiny_loh3.with_overrides(n_ranks=2, backend="process", comm="mpi")
        with pytest.raises(ValueError, match="comm_timeout"):
            tiny_loh3.with_overrides(
                n_ranks=2, backend="process", comm_timeout=0.0
            )

    def test_comm_timeout_reaches_both_transports(self, tiny_loh3):  # noqa: F811
        for comm in ("queue", "shm"):
            runner = make_runner(
                tiny_loh3.with_overrides(
                    n_ranks=2, backend="process", comm=comm, comm_timeout=33.0
                )
            )
            assert runner.engine.comm_timeout == 33.0
            runner.engine.close()

    def test_cli_run_with_shm_transport(self, tmp_path):
        out_dir = tmp_path / "out"
        before = _repro_segments()
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
                "--comm", "shm",
                "--comm-timeout", "45",
                "--output-dir", str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["comm"]["transport"] == "shm"
        assert summary["comm"]["n_messages"] > 0
        assert _repro_segments() == before
