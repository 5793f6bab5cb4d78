"""The sweep orchestrator: queue, worker pool, manifest, resume.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into a run
queue and shards it over a pool of persistent worker processes.  The parent
owns the manifest (workers report over a result queue; only the parent
writes, so rows are totally ordered) and the preprocessing cache directory
is shared by everyone:

1. **Prewarm** -- the parent builds every missing stage artifact once per
   unique preprocessing signature *before* the pool starts, so a
   shared-mesh ensemble pays mesh/clustering/partition cost exactly once no
   matter how many workers run.  The prewarm's cache misses and each
   member's pure-hit counters land in the manifest as proof.
2. **Shard** -- workers pull members off a task queue, run them through
   :func:`~repro.scenarios.runner.make_runner` with the shared cache
   (each member possibly itself multi-rank via the process backend), and
   write the member's artefacts under ``members/<id>/``.
3. **Survive** -- every state transition is a flushed manifest line.  A
   member whose worker crashes (or raises) is re-queued once, then marked
   failed.  A sweep killed outright resumes from its manifest: members
   whose latest status is ``done`` are skipped, everything else --
   including in-flight ``started`` members -- is re-queued.

``workers=0`` runs every member inline in the parent (deterministic,
single-process -- the mode the fast tests use).

``fuse=True`` adds a collapse pass between expansion and sharding: members
that differ only in fusable source axes (time function, moment tensor,
force) run once as a single fused ensemble whose per-member artefacts are
demuxed back out of the fused slots -- see :mod:`repro.sweep.fuse`.  The
schedulable unit is then a *group*; manifest rows, resume decisions and
``repro report`` stay per-member.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ..kernels.threads import share_cpus
from ..observability.events import spec_content_hash
from ..preprocessing.cache import (
    PreprocessingCache,
    diff_stats,
    needed_stage_keys,
    result_content_hash,
    warm_preprocessing,
)
from ..scenarios.outputs import write_outputs
from ..scenarios.runner import make_runner
from ..scenarios.spec import ScenarioSpec
from .fuse import plan_fused_groups, run_fused_group
from .manifest import SweepManifest, is_sweep_manifest, manifest_state, read_manifest
from .spec import SweepSpec

__all__ = ["run_sweep", "preprocessing_signature", "sweep_sha256"]

#: test hook: ``REPRO_SWEEP_KILL=<member_id>[:<flag_path>]`` SIGKILLs the
#: worker right after it claims that member -- once only when a flag path
#: is given (the retry then succeeds), every time otherwise
KILL_ENV = "REPRO_SWEEP_KILL"


def sweep_sha256(sweep: SweepSpec) -> str:
    """Content hash of the sweep definition (manifest <-> sweep pairing)."""
    canonical = json.dumps(sweep.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def preprocessing_signature(spec: ScenarioSpec) -> str:
    """One hash over every stage key a spec needs -- the prewarm dedup unit.

    Two members share a signature exactly when they share *all* cached
    preprocessing artifacts, so warming one representative warms them all.
    """
    keys = [key for _, key in needed_stage_keys(spec)]
    return hashlib.sha256("".join(keys).encode()).hexdigest()[:16]


def _maybe_kill(member_id: str) -> None:
    target = os.environ.get(KILL_ENV)
    if not target:
        return
    target, _, flag = target.partition(":")
    if target != member_id:
        return
    if flag:
        if os.path.exists(flag):
            return  # already fired once
        open(flag, "w").close()
    # give the queue feeder thread a beat to flush the "claimed" message,
    # so the parent can attribute the corpse to its member deterministically
    time.sleep(0.25)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_member(spec: ScenarioSpec, member_dir: Path, cache: PreprocessingCache) -> dict:
    """Run one member end-to-end; returns its manifest ``done`` fields."""
    before = cache.snapshot()
    start = time.perf_counter()
    runner = make_runner(spec, cache=cache)
    summary = runner.run()
    write_outputs(runner, member_dir, summary=summary)
    if spec.output.trace:
        runner.write_trace(member_dir / "trace.json")
    return {
        "summary_path": str(member_dir / "run_summary.json"),
        "wall_s": float(summary["wall_s"]),
        "total_wall_s": time.perf_counter() - start,
        "n_elements": summary["n_elements"],
        "cache": diff_stats(before, cache.snapshot()),
    }


def _worker_main(
    task_queue, result_queue, cache_dir: str, parent_pid: int, n_workers: int
) -> None:
    """Worker loop: pull units until the ``None`` sentinel (or orphaning).

    A task payload is either a plain spec dict (one member) or a
    ``{"__fused__": {...}}`` envelope carrying a collapsed group's fused
    spec plus its slot -> (member id, directory) mapping.
    """
    share_cpus(n_workers)  # the workers split the host's cores
    cache = PreprocessingCache(cache_dir)
    while True:
        try:
            task = task_queue.get(timeout=0.5)
        except queue_module.Empty:
            # a SIGKILLed parent can never send sentinels; orphaned workers
            # notice the re-parenting and exit instead of lingering forever
            if os.getppid() != parent_pid:
                return
            continue
        if task is None:
            return
        unit_id, payload, unit_dir, attempt = task
        result_queue.put(("claimed", unit_id, os.getpid(), attempt))
        _maybe_kill(unit_id)
        try:
            if "__fused__" in payload:
                fused = payload["__fused__"]
                row = run_fused_group(
                    ScenarioSpec.from_dict(fused["spec"]),
                    Path(unit_dir),
                    fused["members"],
                    cache,
                )
            else:
                row = _run_member(
                    ScenarioSpec.from_dict(payload), Path(unit_dir), cache
                )
        except Exception:
            result_queue.put(
                ("failed", unit_id, os.getpid(), attempt,
                 traceback.format_exc(limit=20))
            )
        else:
            result_queue.put(("done", unit_id, os.getpid(), attempt, row))


@dataclass(frozen=True)
class _Unit:
    """One schedulable work item: a single member or a collapsed group.

    ``members`` and ``member_dirs`` are parallel, in slot order; singles
    have width 1 and ``fused=False``.  ``spec`` is the spec that actually
    runs (events-instrumented; the fused spec for groups) while per-member
    manifest identity comes from each member's own spec.
    """

    unit_id: str
    spec: ScenarioSpec
    dir: Path
    members: tuple
    member_dirs: tuple
    fused: bool = False

    @property
    def width(self) -> int:
        return len(self.members)


class _MemberTracker:
    """Parent-side bookkeeping: manifest rows, retries, the tally.

    Rows are always per *member*: a fused unit fans every state transition
    out to one row per absorbed member, tagged with its slot in the group
    (``fused_group`` / ``fused_slot`` / ``fused_width``), so resume logic
    and ``repro report`` never need to know about fusion.
    """

    def __init__(self, manifest: SweepManifest, out_dir: Path, retries: int, log):
        self.manifest = manifest
        self.out_dir = out_dir
        self.retries = retries
        self.log = log
        self.done = 0
        self.failed = 0

    def _identity(self, unit: _Unit, slot: int) -> dict:
        member = unit.members[slot]
        # singles are identified by the spec they actually run (with the
        # ledger override); fused members by their own standalone spec --
        # the identity their demuxed results are bit-identical to
        spec = member.spec if unit.fused else unit.spec
        fields = {
            "index": member.index,
            "overrides": member.overrides,
            "spec_sha256": spec_content_hash(spec),
            "result_sha256": result_content_hash(spec),
        }
        if unit.fused:
            fields["fused_group"] = unit.unit_id
            fields["fused_slot"] = slot
            fields["fused_width"] = unit.width
        return fields

    def started(self, unit: _Unit, attempt: int) -> None:
        for slot, member in enumerate(unit.members):
            self.manifest.member(
                member.member_id, "started", attempt=attempt,
                **self._identity(unit, slot),
            )

    def finished(self, unit: _Unit, attempt: int, row: dict) -> None:
        member_rows = row.get("members") if unit.fused else None
        shared = {k: row[k] for k in ("wall_s", "total_wall_s", "n_elements")}
        for slot, member in enumerate(unit.members):
            fields = dict(member_rows[member.member_id]) if unit.fused else dict(row)
            # manifest rows stay valid when the output tree is moved/archived
            fields["summary_path"] = os.path.relpath(
                fields["summary_path"], self.out_dir
            )
            if unit.fused:
                fields.update(shared)
                # the cache delta belongs to the shared run; carried once,
                # on slot 0, so per-member tallies never double-count it
                if slot == 0:
                    fields["cache"] = row.get("cache")
            self.manifest.member(
                member.member_id, "done", attempt=attempt,
                **self._identity(unit, slot), **fields,
            )
            self.done += 1
        if unit.fused:
            self.log(
                f"fused group {unit.unit_id} done ({unit.width} members, "
                f"wall {row['wall_s']:.2f}s, cache {row.get('cache') or 'cold'})"
            )
        else:
            self.log(
                f"member {unit.unit_id} done "
                f"(wall {row['wall_s']:.2f}s, cache {row.get('cache') or 'cold'})"
            )

    def errored(self, unit: _Unit, attempt: int, error: str) -> bool:
        """Handle a failed attempt; returns True when the unit should requeue."""
        label = f"fused group {unit.unit_id}" if unit.fused else f"member {unit.unit_id}"
        if attempt <= self.retries:
            for slot, member in enumerate(unit.members):
                self.manifest.member(
                    member.member_id, "requeued", attempt=attempt,
                    error=error.strip(), **self._identity(unit, slot),
                )
            self.log(f"{label} attempt {attempt} failed; requeued")
            return True
        for slot, member in enumerate(unit.members):
            self.manifest.member(
                member.member_id, "failed", attempt=attempt,
                error=error.strip(), **self._identity(unit, slot),
            )
            self.failed += 1
        self.log(f"{label} failed after {attempt} attempts")
        return False


def run_sweep(
    sweep: SweepSpec,
    out_dir,
    *,
    workers: int = 2,
    cache_dir=None,
    resume: bool = False,
    events: bool = True,
    retries: int = 1,
    fuse: bool = False,
    log=None,
) -> dict:
    """Run (or resume) a sweep; returns the final tally.

    Layout under ``out_dir``: ``manifest.jsonl``, the shared ``cache/``
    (override with ``cache_dir``) and one ``members/<id>/`` directory per
    member (run summary, seismograms, run ledger when ``events``).

    ``resume=True`` with an existing manifest skips members already
    ``done`` and re-queues the rest; the manifest must belong to the same
    sweep definition (content-hash checked).  ``events`` gives every member
    a JSONL run ledger (``members/<id>/run.jsonl``).  ``workers=0`` runs
    inline in the parent.

    ``fuse=True`` collapses members differing only in fusable source axes
    into single fused ensemble runs (see :mod:`repro.sweep.fuse`): the
    fused run's own artefacts land under ``fused/<group>/`` while every
    absorbed member keeps its ``members/<id>/`` directory with demuxed
    seismograms and a slot-annotated summary; fused members share one run
    ledger (the group's), not per-member ledgers.
    """
    log = log or (lambda message: None)
    out_dir = Path(out_dir)
    members_root = out_dir / "members"
    cache_dir = Path(cache_dir) if cache_dir is not None else out_dir / "cache"
    manifest_path = out_dir / "manifest.jsonl"
    sweep_sha = sweep_sha256(sweep)
    members = sweep.expand()
    started_at = time.perf_counter()

    previously_done: dict[str, dict] = {}
    append = False
    if resume and manifest_path.exists():
        records = read_manifest(manifest_path)
        if not is_sweep_manifest(records):
            raise ValueError(f"{manifest_path} is not a sweep manifest")
        header = records[0]
        if header.get("sweep_sha256") != sweep_sha:
            raise ValueError(
                f"{manifest_path} belongs to a different sweep "
                f"(manifest {header.get('sweep_sha256', '?')[:12]}, "
                f"requested {sweep_sha[:12]}); refusing to mix results"
            )
        previously_done = {
            member_id: record
            for member_id, record in manifest_state(records).items()
            if record.get("status") == "done"
        }
        append = True

    pending = [m for m in members if m.member_id not in previously_done]

    # -- plan units: singles, or (with fuse) collapsed groups + singles --
    units: list[_Unit] = []
    fused_groups = ()
    if fuse:
        fused_groups, singles = plan_fused_groups(pending)
        for group in fused_groups:
            group_dir = out_dir / "fused" / group.group_id
            run_spec = (
                group.spec.with_overrides(events=str(group_dir / "run.jsonl"))
                if events
                else group.spec
            )
            units.append(
                _Unit(
                    unit_id=group.group_id,
                    spec=run_spec,
                    dir=group_dir,
                    members=group.members,
                    member_dirs=tuple(
                        members_root / m.member_id for m in group.members
                    ),
                    fused=True,
                )
            )
    else:
        singles = tuple(pending)
    for member in singles:
        member_dir = members_root / member.member_id
        run_spec = (
            member.spec.with_overrides(events=str(member_dir / "run.jsonl"))
            if events
            else member.spec
        )
        units.append(
            _Unit(
                unit_id=member.member_id,
                spec=run_spec,
                dir=member_dir,
                members=(member,),
                member_dirs=(member_dir,),
            )
        )
    units.sort(key=lambda unit: unit.members[0].index)

    tally = {
        "sweep": sweep.name,
        "sweep_sha256": sweep_sha,
        "manifest": str(manifest_path),
        "cache_dir": str(cache_dir),
        "n_members": len(members),
        "skipped": len(previously_done),
        "done": 0,
        "failed": 0,
        "prewarmed": 0,
    }
    if fuse:
        tally["fused_groups"] = len(fused_groups)
        tally["fused_members"] = sum(g.width for g in fused_groups)

    with SweepManifest(manifest_path, append=append) as manifest:
        manifest.header(
            sweep_name=sweep.name,
            sweep_sha256=sweep_sha,
            n_members=len(members),
            cache_dir=str(cache_dir),
            workers=workers,
            resumed=append,
            fuse=fuse,
        )
        if append:
            log(
                f"resuming: {len(previously_done)} member(s) already done, "
                f"{len(pending)} to run"
            )
        if fuse and fused_groups:
            log(
                f"fuse: collapsed {tally['fused_members']} member(s) into "
                f"{len(fused_groups)} fused group(s) "
                f"({len(singles)} standalone)"
            )

        # -- prewarm: pay preprocessing once, in the parent ---------------
        # keyed on the *unit* specs (what actually runs); the fused spec
        # shares every stage key with its members, so the signature set is
        # identical to the unfused sweep's
        cache = PreprocessingCache(cache_dir)
        seen_signatures: set[str] = set()
        for unit in units:
            sig = preprocessing_signature(unit.spec)
            if sig in seen_signatures:
                continue
            seen_signatures.add(sig)
            if cache.is_warm(unit.spec):
                continue
            warm_start = time.perf_counter()
            stats = warm_preprocessing(unit.spec, cache)
            manifest.prewarm(
                signature=sig,
                member=unit.members[0].member_id,
                wall_s=time.perf_counter() - warm_start,
                cache=stats,
            )
            tally["prewarmed"] += 1
            log(
                f"prewarmed preprocessing signature {sig} "
                f"(member {unit.members[0].member_id})"
            )

        tracker = _MemberTracker(manifest, out_dir, retries, log)
        if not units:
            log("nothing to run: every member is already done")
        elif workers <= 0:
            _run_inline(units, cache, tracker)
        else:
            _run_pool(units, cache_dir, min(workers, len(units)), tracker)
        tally["done"] = tracker.done
        tally["failed"] = tracker.failed
        tally["wall_s"] = time.perf_counter() - started_at
        final_keys = [
            "sweep", "n_members", "skipped", "done", "failed", "prewarmed", "wall_s",
        ]
        if fuse:
            final_keys += ["fused_groups", "fused_members"]
        manifest.final({k: tally[k] for k in final_keys})
    return tally


def _run_unit(unit: _Unit, cache) -> dict:
    """Run one unit in-process: a single member, or a fused group + demux."""
    if not unit.fused:
        return _run_member(unit.spec, unit.dir, cache)
    return run_fused_group(
        unit.spec,
        unit.dir,
        [
            (member.member_id, directory)
            for member, directory in zip(unit.members, unit.member_dirs)
        ],
        cache,
    )


def _unit_payload(unit: _Unit) -> dict:
    """The picklable task payload ``_worker_main`` dispatches on."""
    if not unit.fused:
        return unit.spec.to_dict()
    return {
        "__fused__": {
            "spec": unit.spec.to_dict(),
            "members": [
                [member.member_id, str(directory)]
                for member, directory in zip(unit.members, unit.member_dirs)
            ],
        }
    }


def _run_inline(units, cache, tracker) -> None:
    for unit in units:
        attempt = 1
        while True:
            tracker.started(unit, attempt)
            _maybe_kill(unit.unit_id)
            try:
                row = _run_unit(unit, cache)
            except Exception:
                if tracker.errored(unit, attempt, traceback.format_exc(limit=20)):
                    attempt += 1
                    continue
                break
            tracker.finished(unit, attempt, row)
            break


def _run_pool(units, cache_dir: Path, n_workers: int, tracker) -> None:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    parent_pid = os.getpid()

    def spawn():
        worker = ctx.Process(
            target=_worker_main,
            args=(task_queue, result_queue, str(cache_dir), parent_pid, n_workers),
        )
        worker.start()
        return worker

    by_id = {unit.unit_id: unit for unit in units}
    tasks = {
        unit.unit_id: (unit.unit_id, _unit_payload(unit), str(unit.dir), 1)
        for unit in units
    }
    outstanding = set(tasks)
    for task in tasks.values():
        task_queue.put(task)
    pool = [spawn() for _ in range(n_workers)]
    claimed: dict[int, tuple[str, int]] = {}  # worker pid -> (unit, attempt)

    def requeue(unit_id: str, attempt: int) -> None:
        base = tasks[unit_id]
        task_queue.put((base[0], base[1], base[2], attempt + 1))

    try:
        while outstanding:
            try:
                message = result_queue.get(timeout=0.25)
            except queue_module.Empty:
                # liveness sweep: a crashed worker orphans its claimed
                # unit -- retry it and keep the pool at full strength
                for i, worker in enumerate(pool):
                    if worker.is_alive():
                        continue
                    pid = worker.pid
                    if pid in claimed:
                        unit_id, attempt = claimed.pop(pid)
                        if unit_id in outstanding:
                            error = f"worker crashed (exit code {worker.exitcode})"
                            if tracker.errored(by_id[unit_id], attempt, error):
                                requeue(unit_id, attempt)
                            else:
                                outstanding.discard(unit_id)
                    pool[i] = spawn()
                continue
            kind, unit_id, pid, attempt = message[:4]
            if kind == "claimed":
                claimed[pid] = (unit_id, attempt)
                tracker.started(by_id[unit_id], attempt)
            elif kind == "done":
                claimed.pop(pid, None)
                if unit_id in outstanding:
                    tracker.finished(by_id[unit_id], attempt, message[4])
                    outstanding.discard(unit_id)
            elif kind == "failed":
                claimed.pop(pid, None)
                if unit_id in outstanding:
                    if tracker.errored(by_id[unit_id], attempt, message[4]):
                        requeue(unit_id, attempt)
                    else:
                        outstanding.discard(unit_id)
    finally:
        for _ in pool:
            task_queue.put(None)
        deadline = time.monotonic() + 10.0
        for worker in pool:
            worker.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=2.0)
        task_queue.close()
        result_queue.close()
