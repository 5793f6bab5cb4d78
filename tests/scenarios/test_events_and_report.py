"""End-to-end tests of the run ledger, heartbeat and ``repro report``.

The crash-durability claim is tested for real: a 2-rank run
is SIGKILLed mid-flight and its partial ledger must still parse and
validate.  The report CLI is driven over an instrumented distributed run
plus a GTS reference, asserting the overlap / imbalance / LTS-speedup
blocks the paper's evaluation reads off.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.observability import read_ledger, validate_run_ledger
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.cli import main as cli_main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: the tiny LOH.3 variant all CLI runs here use
TINY_LOH3 = (
    "--set", "extent_m=4000.0", "--set", "characteristic_length=2000.0",
    "--set", "n_mechanisms=1", "--order", "2", "--clusters", "2",
    "--lambda", "0.8",
)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One instrumented 2-rank run + a GTS reference, via the CLI."""
    base = tmp_path_factory.mktemp("report_runs")
    lts_dir, gts_dir = base / "lts_out", base / "gts_out"
    events = lts_dir / "events.jsonl"
    assert cli_main(
        ["run", "loh3", *TINY_LOH3, "--cycles", "3", "--ranks", "2",
         "--events", str(events),
         "--output-dir", str(lts_dir), "--quiet"]
    ) == 0
    assert cli_main(
        ["run", "loh3", *TINY_LOH3, "--cycles", "3", "--solver", "gts",
         "--metrics", "--output-dir", str(gts_dir), "--quiet"]
    ) == 0
    return lts_dir, gts_dir


class TestOutputSpecSemantics:
    def test_events_implies_telemetry_and_round_trips(self):
        from repro.scenarios.spec import ScenarioSpec

        spec = get_scenario("loh3").with_overrides(events="out/run.jsonl", progress=True)
        assert spec.output.telemetry  # recv-wait columns need the timers
        assert spec.output.progress
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.output.events == "out/run.jsonl"

    def test_progress_alone_does_not_enable_telemetry(self):
        spec = get_scenario("loh3").with_overrides(progress=True)
        assert spec.output.progress and not spec.output.telemetry


class TestLedgerEndToEnd:
    def test_interrupted_run_resumes_into_a_second_segment(self, tmp_path, monkeypatch):
        """A checkpointed run killed mid-flight leaves a partial first
        segment; the resumed run appends a second segment that completes
        the same ledger file."""
        events = tmp_path / "run.jsonl"
        ckpt = tmp_path / "run.ckpt.npz"
        spec = get_scenario(
            "loh3", extent_m=4000.0, characteristic_length=2000.0, order=2,
            n_mechanisms=1, lam=1.0, n_clusters=2, n_cycles=4,
        ).with_overrides(events=str(events), checkpoint_every=2)

        runner = ScenarioRunner(spec)
        original = runner.save_checkpoint

        def save_then_die(path):
            original(path)
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "save_checkpoint", save_then_die)
        with pytest.raises(KeyboardInterrupt):
            runner.run(checkpoint_path=ckpt)

        partial = validate_run_ledger(read_ledger(events))
        assert partial == {
            "segments": 1, "cycles": 2, "complete": False,
            "last_cycle": partial["last_cycle"],
        }

        resumed = ScenarioRunner.resume(ckpt, events=str(events))
        resumed.run()
        records = read_ledger(events)
        info = validate_run_ledger(records, expect_complete=True)
        assert info["segments"] == 2
        assert info["cycles"] == 4
        assert info["last_cycle"]["cycle"] == 4
        headers = [r for r in records if r["kind"] == "header"]
        assert [h["run"]["resumed_at_cycle"] for h in headers] == [0, 2]

    def test_sigkilled_process_run_leaves_valid_partial_ledger(self, tmp_path):
        """SIGKILL -- no atexit, no finally -- mid-run: the flushed JSONL
        ledger must still parse, modulo a torn last line."""
        events = tmp_path / "killed.jsonl"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "loh3", *TINY_LOH3,
             "--cycles", "200", "--ranks", "2",
             "--events", str(events), "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if events.exists() and sum(
                    1 for line in events.read_text().splitlines() if '"cycle"' in line
                ) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail(f"run exited early with rc {proc.returncode}")
                time.sleep(0.1)
            else:
                pytest.fail("ledger never reached 3 cycle records")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        records = read_ledger(events)
        info = validate_run_ledger(records)  # must not raise
        assert info["segments"] == 1
        assert info["cycles"] >= 2
        assert not info["complete"]
        header = records[0]
        assert header["run"]["n_ranks"] == 2 and "backend" not in header["run"]
        # the distributed records carry the comm accounting
        assert records[1]["comm_bytes"] > 0
        assert len(records[1]["sent_bytes_per_rank"]) == 2

    def test_disk_full_on_a_ledger_append_fails_fast_then_resumes(self, tmp_path):
        """ENOSPC after half of cycle 3's ledger line of a 2-rank process run
        that checkpoints every cycle; the ledger's closing flush hits the
        full disk too.  The run exits non-zero within seconds naming the
        error, its rank workers are stopped before it exits, and ``repro
        resume`` from the cycle-2 checkpoint completes the ledger and the
        seismograms bitwise the uninterrupted run."""
        events, ckpt = tmp_path / "run.jsonl", tmp_path / "ckpt" / "run.ckpt.npz"
        run = ["run", "loh3", *TINY_LOH3, "--cycles", "4", "--ranks", "2", "--quiet"]
        script = textwrap.dedent(f"""
            import errno, json, os, sys, time
            from repro.distributed import engine
            from repro.observability.events import DurableJsonl
            from repro.scenarios.cli import main
            write, close, workers, full = DurableJsonl.write, DurableJsonl.close, [], []
            def enospc():
                return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            def write_until_full(self, record):
                if full or record.get("cycle") == 3:
                    if not full:
                        line = json.dumps(record, sort_keys=True)
                        self._handle.write(line[: len(line) // 2])
                        self._handle.flush()
                        full.append(record)
                    raise enospc()
                write(self, record)
            def close_on_full_disk(self):
                close(self)
                if full:
                    raise enospc()
            DurableJsonl.write, DurableJsonl.close = write_until_full, close_on_full_disk
            start_worker = engine.start_worker
            def recorded(*args, **kwargs):
                workers.append(start_worker(*args, **kwargs))
                return workers[-1]
            engine.start_worker = recorded
            started = time.monotonic()
            def report(type_, error, tb):
                print(json.dumps({{
                    "error": repr(error), "errno": getattr(error, "errno", None),
                    "wall_s": time.monotonic() - started, "pids": [w.pid for w in workers],
                    "alive": [w.pid for w in workers if w.is_alive()],
                }}))
            sys.excepthook = report
            sys.exit(main({run + ["--events", str(events), "--checkpoint", str(ckpt),
                                  "--checkpoint-every", "1"]!r}))
        """)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and proc.stdout, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["errno"] == errno.ENOSPC, result
        assert "No space left on device" in result["error"]
        assert result["wall_s"] < 60.0
        assert len(result["pids"]) == 2 and result["alive"] == [], result
        for pid in result["pids"]:
            assert not _running(pid), pid
        assert not events.read_text().endswith("\n")  # the torn cycle-3 line
        partial = validate_run_ledger(read_ledger(events))
        assert partial["cycles"] == 2 and not partial["complete"]

        resumed, straight = tmp_path / "resumed", tmp_path / "straight"
        assert cli_main(["resume", str(ckpt), "--events", str(events),
                         "--output-dir", str(resumed), "--quiet"]) == 0
        info = validate_run_ledger(read_ledger(events), expect_complete=True)
        assert info["segments"] == 2 and info["last_cycle"]["cycle"] == 4
        assert cli_main([*run, "--output-dir", str(straight)]) == 0
        csvs = sorted(p.name for p in straight.glob("seismogram_*.csv"))
        assert csvs and csvs == sorted(p.name for p in resumed.glob("seismogram_*.csv"))
        for name in csvs:
            assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live (not zombie) process."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return "\nState:\tZ" not in status


class TestProgressHeartbeat:
    def test_cli_progress_writes_heartbeat_to_stderr(self, tmp_path, capsys):
        assert cli_main(
            ["run", "loh3", *TINY_LOH3, "--cycles", "2", "--progress", "--quiet"]
        ) == 0
        err = capsys.readouterr().err
        assert "[loh3] cycle 2/2" in err
        assert "updates/s" in err and "ETA" in err


class TestReportCli:
    def test_instrumented_run_writes_ledger_and_report_artefacts(self, traced_runs):
        lts_dir, _ = traced_runs
        summary = json.loads((lts_dir / "run_summary.json").read_text())
        assert summary["provenance"]["spec_sha256"]
        assert summary["events"] == str(lts_dir / "events.jsonl")
        info = validate_run_ledger(
            read_ledger(lts_dir / "events.jsonl"), expect_complete=True
        )
        assert info["cycles"] == 3
        # instrumented runs precompute their report next to the summary
        report = json.loads((lts_dir / "report.json").read_text())
        assert report["blocks"]["overlap"]["efficiency"] > 0.0

    def test_report_renders_all_derived_blocks(self, traced_runs, capsys):
        lts_dir, gts_dir = traced_runs
        assert cli_main(["report", str(lts_dir), str(gts_dir)]) == 0
        out = capsys.readouterr().out
        assert "LTS speedup:" in out
        assert "measured wall-clock speedup" in out  # the GTS reference was used
        assert "Halo: " in out and "cut faces" in out
        assert "partition is not compact" not in out
        assert "Overlap efficiency" in out
        assert "rank 0:" in out and "rank 1:" in out
        assert "Load imbalance across ranks:" in out
        assert "Kernel stages" in out
        assert "Ledger: 3 cycle records in 1 segment(s), complete" in out
        assert "== comparison (baseline:" in out

    def test_report_json_payload(self, traced_runs, capsys):
        lts_dir, gts_dir = traced_runs
        assert cli_main(["report", str(lts_dir), str(gts_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        lts_entry = payload["runs"][0]
        blocks = lts_entry["blocks"]
        assert blocks["overlap"] is not None and len(blocks["overlap"]["ranks"]) == 2
        assert blocks["halo"]["compact"] is True
        assert blocks["imbalance"]["busy_imbalance"] >= 1.0
        assert blocks["lts_speedup"]["measured"] is not None
        assert blocks["ledger"]["complete"] is True
        assert blocks["ledger"]["comm_bytes"] > 0
        # the GTS entry contributes the reference but no LTS blocks
        gts_entry = payload["runs"][1]
        assert gts_entry["blocks"]["lts_speedup"] is None
        assert payload["comparison"]["rows"][1]["speedup_vs_first"] is not None
        # the rank host is not a choice, so no entry or row names one
        assert lts_entry["n_ranks"] == 2 and "backend" not in lts_entry
        assert all("backend" not in row for row in payload["comparison"]["rows"])

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_report_reads_a_run_that_names_its_backend(self, traced_runs, tmp_path, capsys, backend):
        """Summaries and ledgers written while the rank host was a choice
        carry a ``backend`` key: they still report, without naming it."""
        lts_dir, _ = traced_runs
        run_dir = tmp_path / "legacy"
        run_dir.mkdir()
        records = read_ledger(lts_dir / "events.jsonl")
        records[0]["run"]["backend"] = backend
        (run_dir / "events.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        summary = json.loads((lts_dir / "run_summary.json").read_text())
        summary.update(backend=backend, events=str(run_dir / "events.jsonl"))
        (run_dir / "run_summary.json").write_text(json.dumps(summary))

        assert cli_main(["report", str(run_dir), "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["runs"]
        assert entry["n_ranks"] == 2 and "backend" not in entry
        assert entry["blocks"]["ledger"]["complete"] is True
        assert cli_main(["report", str(run_dir)]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines() if "2 ranks" in line]
        assert headers and all(line.endswith(", 2 ranks) ==") for line in headers), headers

    def test_report_on_bare_ledger(self, traced_runs, capsys):
        lts_dir, _ = traced_runs
        assert cli_main(["report", str(lts_dir / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Ledger: 3 cycle records" in out

    def test_report_on_missing_run_is_an_input_error(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def fast_lts_run(tmp_path_factory):
    """One single-rank fast LTS run with telemetry, via the CLI."""
    out = tmp_path_factory.mktemp("fast_lts") / "out"
    assert cli_main(
        ["run", "loh3", *TINY_LOH3, "--cycles", "2", "--kernels", "fast", "--metrics",
         "--output-dir", str(out), "--quiet"]
    ) == 0
    return out


#: the owners of a single-rank run's memory ledger
OWNERS = {"dofs", "lts_buffers", "operators", "kernel_scratch", "workspaces"}


class TestMemoryAndStageReport:
    def test_memory_owners_in_the_summary_and_the_report(self, fast_lts_run, traced_runs, capsys):
        """``memory.owned_mb`` lists every owner of a single-rank run (no
        per-batch prediction storage among them), fits in the peak RSS, and
        ``repro report`` prints it; a multi-rank summary has none yet."""
        summary = json.loads((fast_lts_run / "run_summary.json").read_text())
        memory = summary["memory"]
        owned = memory["owned_mb"]
        assert set(owned) == OWNERS
        assert not any("pending" in owner for owner in owned)
        assert all(mib > 0.0 for mib in owned.values())
        assert sum(owned.values()) <= memory["peak_rss_mb"]
        assert cli_main(["report", str(fast_lts_run)]) == 0
        out = capsys.readouterr().out
        assert "Memory owners: " in out
        for owner in OWNERS:
            assert f"  {owner} " in out
        lts_dir, _ = traced_runs
        assert "owned_mb" not in json.loads((lts_dir / "run_summary.json").read_text())["memory"]

    def test_owner_figures_are_the_owners_nbytes(self):
        spec = get_scenario(
            "loh3", extent_m=4000.0, characteristic_length=2000.0, order=2, n_mechanisms=1,
            n_clusters=2, n_cycles=1,
        )
        for kind in ("gts", "lts"):
            runner = ScenarioRunner(spec.with_overrides(solver=kind, kernels="fast"))
            runner.step_cycle()
            solver = runner.solver
            owned = solver.memory_owners()
            assert set(owned) == OWNERS
            assert owned["dofs"] == solver.dofs.nbytes / 2**20
            buffers = getattr(solver, "buffers", None)
            expected = 0 if buffers is None else buffers.store.base.nbytes
            assert owned["lts_buffers"] == expected / 2**20
            scratch = solver.backend._thread_scratch
            assert owned["kernel_scratch"] == sum(
                pool.nbytes for ws in scratch for pool in ws._pools.values()
            ) / 2**20

    def test_correction_traces_count_toward_the_surface_stage(self, fast_lts_run, capsys):
        """The own traces are projected in the correction: ``repro report``
        still counts ``correct/kernel.trace`` toward the surface stage."""
        from repro.observability.analysis import KERNEL_STAGES

        assert "kernel.trace" in KERNEL_STAGES["surface"][1]
        summary = json.loads((fast_lts_run / "run_summary.json").read_text())
        regions = summary["telemetry"]["regions"]
        assert regions["correct/kernel.trace"]["total_s"] > 0.0
        assert not any(name.endswith("kernel.trace") and "correct" not in name for name in regions)
        assert cli_main(["report", str(fast_lts_run), "--json"]) == 0
        stages = json.loads(capsys.readouterr().out)["runs"][0]["blocks"]["kernel_stages"]
        surface = sum(
            entry["total_s"] for name, entry in regions.items()
            if name.rsplit("/", 1)[-1] in KERNEL_STAGES["surface"][1]
        )
        assert stages["surface"]["seconds"] == pytest.approx(surface)
        assert stages["surface"]["seconds"] > regions["correct/kernel.surface_neighbor"]["total_s"]
