"""End-to-end tests of the run ledger, heartbeat and ``repro report``.

The crash-durability claim is tested for real: a 2-rank process-backend run
is SIGKILLed mid-flight and its partial ledger must still parse and
validate.  The report CLI is driven over an instrumented distributed run
plus a GTS reference, asserting the overlap / imbalance / LTS-speedup
blocks the paper's evaluation reads off.
"""

import json
import os
import signal
import subprocess
import sys
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
    """One instrumented 2-rank process run + a GTS reference, via the CLI."""
    base = tmp_path_factory.mktemp("report_runs")
    lts_dir, gts_dir = base / "lts_out", base / "gts_out"
    events = lts_dir / "events.jsonl"
    assert cli_main(
        ["run", "loh3", *TINY_LOH3, "--cycles", "3", "--ranks", "2",
         "--backend", "process", "--events", str(events),
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
        ).with_overrides(events=str(events))

        runner = ScenarioRunner(spec)
        original = runner.save_checkpoint

        def save_then_die(path):
            original(path)
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "save_checkpoint", save_then_die)
        with pytest.raises(KeyboardInterrupt):
            runner.run(checkpoint_path=ckpt, checkpoint_every=2)

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
             "--cycles", "200", "--ranks", "2", "--backend", "process",
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
        assert header["run"]["backend"] == "process" and header["run"]["n_ranks"] == 2
        # the distributed records carry the comm accounting
        assert records[1]["comm_bytes"] > 0
        assert len(records[1]["sent_bytes_per_rank"]) == 2


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

    def test_report_on_bare_ledger(self, traced_runs, capsys):
        lts_dir, _ = traced_runs
        assert cli_main(["report", str(lts_dir / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Ledger: 3 cycle records" in out

    def test_report_on_missing_run_is_an_input_error(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2
        capsys.readouterr()
