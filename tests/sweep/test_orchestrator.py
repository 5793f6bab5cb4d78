"""End-to-end tests of the sweep service: manifest, cache proof, crashes.

The headline guarantees are tested for real: a 4-member shared-mesh sweep
pays preprocessing exactly once (the manifest's hit/miss counters prove
it), member results are bit-identical to a standalone ``repro run`` of the
same expanded spec, a worker SIGKILLed mid-member is retried and the sweep
still completes, a sweep whose *parent* is SIGKILLed mid-flight leaves
a partial manifest that resumes without re-running finished members, and
the workers of a SIGKILLed pool parent stop instead of running the rest of
the queue.  A worker killed the moment it takes a unit, or right after its
reply, never strands a unit, and a full disk mid-sweep ends the sweep with
its error and no worker left behind.
"""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.observability import (
    build_report,
    expand_report_paths,
    read_ledger,
    render_report,
    validate_run_ledger,
)
from repro.parallel.supervisor import ORPHAN_POLL_S
from repro.scenarios import get_scenario
from repro.scenarios.cli import main as cli_main
from repro.scenarios.outputs import write_outputs
from repro.scenarios.runner import make_runner
from repro.sweep import (
    SweepAxis,
    SweepSpec,
    manifest_member_paths,
    manifest_state,
    read_manifest,
    run_sweep,
    validate_manifest,
)
from repro.sweep.orchestrator import KILL_ENV, preprocessing_signature

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

LOCATIONS = [
    [0.0, 0.0, -1000.0],
    [500.0, 0.0, -1000.0],
    [0.0, 500.0, -1000.0],
    [250.0, 250.0, -500.0],
    [1000.0, 1000.0, -1000.0],
    [2000.0, 2000.0, -2000.0],
    [3000.0, 1000.0, -1500.0],
    [1000.0, 3000.0, -500.0],
]


def tiny_sweep(n=4, **overrides):
    base = get_scenario(
        "loh3", extent_m=4000.0, characteristic_length=2000.0, n_mechanisms=1
    ).with_overrides(**{"order": 2, "n_clusters": 2, "lam": 0.8, "n_cycles": 2, **overrides})
    return SweepSpec(
        base=base,
        axes=[SweepAxis(path="source.location", values=LOCATIONS[:n])],
        name="tiny-source-sweep",
    )


@pytest.fixture(scope="module")
def inline_sweep(tmp_path_factory):
    """One 4-member inline sweep shared (read-only) by the fast tests."""
    out_dir = tmp_path_factory.mktemp("sweep")
    sweep = tiny_sweep()
    tally = run_sweep(sweep, out_dir, workers=0)
    return sweep, out_dir, tally


class TestInlineSweep:
    def test_tally(self, inline_sweep):
        _, _, tally = inline_sweep
        assert tally["n_members"] == 4
        assert tally["done"] == 4
        assert tally["failed"] == 0
        assert tally["skipped"] == 0

    def test_manifest_validates_complete(self, inline_sweep):
        _, out_dir, _ = inline_sweep
        report = validate_manifest(out_dir / "manifest.jsonl")
        assert report["complete"]
        assert report["members"] == {"done": 4}
        assert report["records"] == {"header": 1, "prewarm": 1, "member": 8,
                                     "final": 1}

    def test_preprocessing_paid_exactly_once(self, inline_sweep):
        """The manifest counters prove the shared mesh was built once."""
        sweep, out_dir, tally = inline_sweep
        assert tally["prewarmed"] == 1  # all 4 members share one signature
        signatures = {preprocessing_signature(m.spec) for m in sweep.expand()}
        assert len(signatures) == 1

        records = read_manifest(out_dir / "manifest.jsonl")
        prewarms = [r for r in records if r["record"] == "prewarm"]
        assert len(prewarms) == 1
        assert any(c["misses"] > 0 for c in prewarms[0]["cache"].values())

        done = [r for r in records
                if r["record"] == "member" and r["status"] == "done"]
        assert len(done) == 4
        for row in done:
            # every member ran against a warm cache: pure hits, zero misses
            assert row["cache"], row["member"]
            for stage, counters in row["cache"].items():
                assert counters["misses"] == 0, (row["member"], stage)
                assert counters["hits"] > 0, (row["member"], stage)

    def test_member_artifacts_on_disk(self, inline_sweep):
        _, out_dir, _ = inline_sweep
        for member_id in ("0000", "0001", "0002", "0003"):
            member_dir = out_dir / "members" / member_id
            assert (member_dir / "run_summary.json").exists()
            assert (member_dir / "run.jsonl").exists()  # events on by default

    def test_member_bit_identical_to_standalone_run(self, inline_sweep, tmp_path):
        sweep, out_dir, _ = inline_sweep
        member = sweep.expand()[1]
        runner = make_runner(member.spec)
        summary = runner.run()
        write_outputs(runner, tmp_path, summary=summary)

        member_dir = out_dir / "members" / member.member_id
        sweep_summary = json.loads((member_dir / "run_summary.json").read_text())
        for key in ("t_end", "element_updates", "lambda", "n_clusters",
                    "n_elements"):
            assert sweep_summary[key] == summary[key], key
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (member_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_resume_of_complete_sweep_skips_everything(self, inline_sweep, tmp_path):
        sweep, out_dir, _ = inline_sweep
        clone = tmp_path / "clone"
        shutil.copytree(out_dir, clone)
        tally = run_sweep(sweep, clone, workers=0, resume=True)
        assert tally["skipped"] == 4
        assert tally["done"] == 0
        assert tally["prewarmed"] == 0

    def test_resume_refuses_a_different_sweep(self, inline_sweep, tmp_path):
        _, out_dir, _ = inline_sweep
        clone = tmp_path / "clone"
        shutil.copytree(out_dir, clone)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(tiny_sweep(n=3), clone, workers=0, resume=True)

    def test_resume_requeues_only_unfinished_members(self, inline_sweep, tmp_path):
        """Drop 0003's ``done`` row (leaving it in-flight ``started``): a
        resume must re-run 0003 and nothing else."""
        sweep, out_dir, _ = inline_sweep
        clone = tmp_path / "clone"
        shutil.copytree(out_dir, clone)
        manifest = clone / "manifest.jsonl"
        kept = [
            line for line in manifest.read_text().splitlines()
            if not (
                '"member": "0003"' in line and '"status": "done"' in line
                or '"record": "final"' in line
            )
        ]
        manifest.write_text("\n".join(kept) + "\n")
        shutil.rmtree(clone / "members" / "0003")
        untouched = (clone / "members" / "0000" / "run.jsonl").read_bytes()

        tally = run_sweep(sweep, clone, workers=0, resume=True)
        assert tally["skipped"] == 3
        assert tally["done"] == 1
        assert tally["prewarmed"] == 0  # the copied cache is already warm
        state = manifest_state(read_manifest(manifest))
        assert {m: r["status"] for m, r in state.items()} == {
            m: "done" for m in ("0000", "0001", "0002", "0003")
        }
        reran = [r for r in read_manifest(manifest)
                 if r.get("record") == "member" and r.get("status") == "started"
                 and r.get("attempt") == 1]
        # 4 original starts + exactly one new one (0003)
        assert len(reran) == 5
        assert (clone / "members" / "0003" / "run_summary.json").exists()
        assert (clone / "members" / "0000" / "run.jsonl").read_bytes() == untouched


class TestReportIntegration:
    def test_expand_report_paths(self, inline_sweep):
        _, out_dir, _ = inline_sweep
        manifest = out_dir / "manifest.jsonl"
        expected = manifest_member_paths(manifest)
        assert len(expected) == 4
        assert expand_report_paths([str(manifest)]) == expected
        assert expand_report_paths([str(out_dir)]) == expected  # via manifest
        from_dir = expand_report_paths([str(out_dir / "members")])
        assert sorted(Path(p).resolve() for p in from_dir) == sorted(
            Path(p).resolve() for p in expected
        )

    def test_report_renders_comparison_table(self, inline_sweep):
        _, out_dir, _ = inline_sweep
        report = build_report(expand_report_paths([str(out_dir / "manifest.jsonl")]))
        assert len(report["runs"]) == 4
        text = render_report(report)
        assert "== comparison" in text

    def test_report_cli_accepts_manifest_and_dir(self, inline_sweep, capsys):
        _, out_dir, _ = inline_sweep
        assert cli_main(["report", str(out_dir / "manifest.jsonl")]) == 0
        manifest_out = capsys.readouterr().out
        assert "== comparison" in manifest_out
        assert cli_main(["report", str(out_dir / "members")]) == 0
        assert "== comparison" in capsys.readouterr().out


def _patched_sweep(tmp_path, sweep, patch: str, **kwargs) -> dict:
    """``run_sweep(sweep, tmp_path / "out", **kwargs)`` in a subprocess that
    first runs ``patch`` (with ``orchestrator`` imported; pool workers are
    forked, so they inherit it).  Returns the last JSON line the subprocess
    prints -- the tally, unless the patch reports otherwise -- within 120 s,
    so a stranded unit fails the test instead of hanging it."""
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(sweep.to_json())
    script = "\n".join([
        "import errno, json, os, signal, sys, time",
        "from repro.sweep import SweepSpec, orchestrator, run_sweep",
        textwrap.dedent(patch),
        f"sweep = SweepSpec.from_json(open({str(spec_path)!r}).read())",
        f"print(json.dumps(run_sweep(sweep, {str(tmp_path / 'out')!r}, **{kwargs!r})))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _member_rows(out_dir: Path) -> dict:
    """Member id -> its manifest rows, in order."""
    rows = {}
    for record in read_manifest(out_dir / "manifest.jsonl"):
        if record.get("record") == "member":
            rows.setdefault(record["member"], []).append(record)
    return rows


class TestArguments:
    @pytest.mark.parametrize("name", ["workers", "retries"])
    def test_negative_count_rejected(self, tmp_path, name, capsys):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            run_sweep(tiny_sweep(), tmp_path / "api", **{name: -1})
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(tiny_sweep().to_json())
        out_dir = tmp_path / "cli"
        argv = ["sweep", "--spec", str(spec_path), "--out", str(out_dir),
                f"--{name}", "-1", "--quiet"]
        assert cli_main(argv) == 2
        assert f"{name} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "api").exists() and not out_dir.exists()


class TestPoolAndCrashes:
    def test_worker_killed_on_taking_its_unit_is_requeued(self, tmp_path):
        """A worker SIGKILLed the instant it takes member 0001 (before it
        can tell the parent anything) must not strand 0001: the parent knows
        which unit that worker held, charges it one attempt and re-queues."""
        flag = tmp_path / "killed.flag"
        tally = _patched_sweep(tmp_path, tiny_sweep(), f"""
            def kill_once(unit_id):
                if unit_id == "0001" and not os.path.exists({str(flag)!r}):
                    open({str(flag)!r}, "w").close()
                    os.kill(os.getpid(), signal.SIGKILL)
            orchestrator._maybe_kill = kill_once
        """, workers=2)
        assert flag.exists()  # the kill really fired
        assert tally["done"] == 4 and tally["failed"] == 0
        rows = _member_rows(tmp_path / "out")
        assert [(r["status"], r["attempt"]) for r in rows["0001"]] == [
            ("started", 1), ("requeued", 1), ("started", 2), ("done", 2),
        ]
        assert "worker crashed (exit code -9)" in rows["0001"][1]["error"]
        assert validate_manifest(tmp_path / "out" / "manifest.jsonl")["complete"]

    @pytest.mark.parametrize("linger_s", [0.0, 0.5])
    def test_worker_killed_after_its_reply_costs_no_attempt(self, tmp_path, linger_s):
        """A worker SIGKILLed right after replying for member 0001 leaves
        0001 done at attempt 1, never re-run; the unit it was handed next
        (already waiting unread in its pipe when it lingers 0.5 s) goes back
        uncharged: every member is done at attempt 1, nothing requeued."""
        tally = _patched_sweep(tmp_path, tiny_sweep(n=6), f"""
            from repro.preprocessing.cache import PreprocessingCache
            def serve(conn, cache_dir):
                cache = PreprocessingCache(cache_dir)
                for unit in iter(conn.recv, None):
                    conn.send(orchestrator._attempt(unit, cache))
                    if unit.unit_id == "0001":
                        time.sleep({linger_s})
                        os.kill(os.getpid(), signal.SIGKILL)
            orchestrator._serve = serve
        """, workers=2)
        assert tally["done"] == 6 and tally["failed"] == 0
        rows = _member_rows(tmp_path / "out")
        assert [r["status"] for r in rows["0001"]] == ["started", "done"]
        for member_id, member_rows in rows.items():
            assert {r["status"] for r in member_rows} == {"started", "done"}, member_id
            assert all(r["attempt"] == 1 for r in member_rows), member_id
        if linger_s:  # the dead worker's unread unit was handed out again
            assert sorted(len(r) for r in rows.values()) == [2] * 5 + [3]
        assert validate_manifest(tmp_path / "out" / "manifest.jsonl")["complete"]

    def test_disk_full_on_a_manifest_append_fails_fast_then_resumes(self, tmp_path):
        """ENOSPC after half of member 0001's ``done`` line: ``run_sweep``
        raises it at once, stops both workers (one still mid-member) before
        returning, and a ``--resume`` completes every member."""
        sweep = tiny_sweep(n_cycles=40)
        result = _patched_sweep(tmp_path, sweep, """
            from repro.sweep.manifest import SweepManifest
            write, workers = SweepManifest.write, []
            def write_until_full(self, record):
                if record.get("member") == "0001" and record.get("status") == "done":
                    line = json.dumps(record, sort_keys=True)
                    with open(self.path, "a") as handle:
                        handle.write(line[: len(line) // 2])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                write(self, record)
            SweepManifest.write = write_until_full
            start_worker = orchestrator.start_worker
            def recorded(*args, **kwargs):
                workers.append(start_worker(*args, **kwargs))
                return workers[-1]
            orchestrator.start_worker = recorded
            started = time.monotonic()
            def report(type_, error, tb):
                print(json.dumps({
                    "errno": error.errno, "wall_s": time.monotonic() - started,
                    "n_workers": len(workers),
                    "alive": [w.pid for w in workers if w.is_alive()],
                }))
            sys.excepthook = report
        """, workers=2)
        assert result["errno"] == errno.ENOSPC
        assert result["wall_s"] < 30.0
        assert result["n_workers"] == 2 and result["alive"] == []
        manifest = tmp_path / "out" / "manifest.jsonl"
        assert not manifest.read_text().endswith("\n")  # the torn row

        spec_path = tmp_path / "sweep.json"
        assert cli_main(["sweep", "--spec", str(spec_path), "--out",
                         str(tmp_path / "out"), "--resume", "--quiet"]) == 0
        final = validate_manifest(manifest)
        assert final["complete"] and final["members"] == {"done": 4}, final

    def test_pool_sweep_with_worker_crash_retry(self, tmp_path, monkeypatch):
        """A worker SIGKILLed right after claiming member 0001 (once, via
        the flag file) must be detected, the member re-queued, and the
        sweep must still complete with pure-hit cache counters."""
        flag = tmp_path / "killed.flag"
        monkeypatch.setenv(KILL_ENV, f"0001:{flag}")
        sweep = tiny_sweep()
        tally = run_sweep(sweep, tmp_path / "out", workers=2)
        assert flag.exists()  # the kill really fired
        assert tally["done"] == 4
        assert tally["failed"] == 0

        records = read_manifest(tmp_path / "out" / "manifest.jsonl")
        by_status = {}
        for record in records:
            if record.get("record") == "member" and record["member"] == "0001":
                by_status.setdefault(record["status"], []).append(record)
        assert "requeued" in by_status
        assert by_status["done"][-1]["attempt"] == 2
        state = manifest_state(records)
        assert all(state[m]["status"] == "done"
                   for m in ("0000", "0001", "0002", "0003"))

    def test_multi_rank_members_fork_their_ranks_under_pool_workers(self, tmp_path):
        """Members on 2 and 4 ranks, each run by a pool worker that forks
        the member's rank workers: both complete, and their seismograms are
        bitwise the single-rank run's (ref kernels)."""
        base = get_scenario("loh3").smoke().with_overrides(kernels="ref")
        sweep = SweepSpec(
            base=base, axes=[SweepAxis(path="solver.n_ranks", values=[2, 4])], name="ranks"
        )
        out_dir = tmp_path / "out"
        tally = run_sweep(sweep, out_dir, workers=2, events=False)
        assert tally["done"] == 2 and tally["failed"] == 0
        single = make_runner(base)
        write_outputs(single, tmp_path / "single", summary=single.run())
        csvs = sorted(p.name for p in (tmp_path / "single").glob("*.csv"))
        assert csvs
        for member in sweep.expand():
            member_dir = out_dir / "members" / member.member_id
            summary = json.loads((member_dir / "run_summary.json").read_text())
            assert summary["n_ranks"] == member.spec.solver.n_ranks
            for name in csvs:
                assert (member_dir / name).read_bytes() == (tmp_path / "single" / name).read_bytes()

    def test_parent_sigkill_then_resume(self, tmp_path):
        """Kill the whole sweep process -- no atexit, no finally -- while
        member 0002 is in flight; the partial manifest must validate, and a
        resumed sweep must re-run only the unfinished members."""
        out_dir = tmp_path / "out"
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(tiny_sweep().to_json())
        argv = [sys.executable, "-m", "repro", "sweep", "--spec", str(spec_path),
                "--out", str(out_dir), "--workers", "0", "--quiet"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)

        proc = subprocess.run(
            argv, env={**env, KILL_ENV: "0002"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
        )
        assert proc.returncode != 0  # died by SIGKILL mid-sweep

        manifest = out_dir / "manifest.jsonl"
        partial = validate_manifest(manifest)
        assert not partial["complete"]
        assert partial["members"] == {"done": 2, "started": 1}
        n_rows_before = len(read_manifest(manifest))
        done_summaries = {
            m: (out_dir / "members" / m / "run_summary.json").read_bytes()
            for m in ("0000", "0001")
        }

        resumed = subprocess.run(
            argv + ["--resume", "--json"], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        tally = json.loads(resumed.stdout)
        assert tally["skipped"] == 2
        assert tally["done"] == 2
        assert tally["prewarmed"] == 0  # cache survived the kill too

        final = validate_manifest(manifest)
        assert final["complete"]
        assert final["members"] == {"done": 4}
        records = read_manifest(manifest)
        # resume appended: its own header + 0002/0003 rows + final
        assert len(records) > n_rows_before
        headers = [r for r in records if r.get("record") == "header"]
        assert [h["resumed"] for h in headers] == [False, True]
        for member_id, payload in done_summaries.items():
            path = out_dir / "members" / member_id / "run_summary.json"
            assert path.read_bytes() == payload  # finished members untouched

    def test_orphaned_workers_stop_after_parent_sigkill(self, tmp_path):
        """SIGKILL only the parent of a 2-worker sweep once 2 members are
        done: the workers must exit on their own instead of running the rest
        of the queue (which a resume would then race), and a resume
        completes every member."""
        out_dir = tmp_path / "out"
        spec_path = tmp_path / "sweep.json"
        # members of ~2 s, twice the orphan poll: a worker cannot
        # finish another member between the kill and its own exit
        spec_path.write_text(tiny_sweep(n=8, n_cycles=200).to_json())
        argv = [sys.executable, "-m", "repro", "sweep", "--spec", str(spec_path),
                "--out", str(out_dir), "--workers", "2", "--quiet"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        manifest = out_dir / "manifest.jsonl"

        def n_done() -> int:
            if not manifest.exists():
                return 0
            state = manifest_state(read_manifest(manifest))
            return sum(r["status"] == "done" for r in state.values())

        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            deadline = time.monotonic() + 120.0
            while n_done() < 2:
                assert proc.poll() is None, f"sweep exited early rc {proc.returncode}"
                assert time.monotonic() < deadline, "no 2 members done in time"
                time.sleep(0.05)
            # the pids while the parent lives: orphans reparent away from it
            worker_pids = _children(proc.pid)
            proc.send_signal(signal.SIGKILL)  # the parent only, not its group
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert len(worker_pids) == 2, worker_pids

        deadline = time.monotonic() + 15 * ORPHAN_POLL_S
        while _alive(worker_pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        leftover = _alive(worker_pids)
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == [], "orphaned sweep workers never exited"
        # each worker may finish the member it held, nothing more
        summaries = list((out_dir / "members").glob("*/run_summary.json"))
        assert len(summaries) <= n_done() + 2, (len(summaries), n_done())

        resumed = subprocess.run(
            argv + ["--resume"], env=env, capture_output=True, text=True, timeout=300
        )
        assert resumed.returncode == 0, resumed.stderr
        final = validate_manifest(manifest)
        assert final["complete"] and final["members"] == {"done": 8}, final
        # a member cut short by the kill appends its re-run as a new segment
        for ledger in (out_dir / "members").glob("*/run.jsonl"):
            validate_run_ledger(read_ledger(ledger), expect_complete=True)


def _children(pid: int) -> list[int]:
    """Pids of the live child processes of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pids) -> list[int]:
    """The pids still running (a zombie awaiting its reaper is gone)."""
    live = []
    for pid in pids:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            live.append(pid)
    return live
