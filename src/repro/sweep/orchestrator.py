"""The sweep orchestrator: scheduling loop, worker pool, manifest, resume.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
schedulable units and runs them through one scheduling loop over a pool of
persistent worker processes.  The parent owns the manifest (only the parent
writes, so rows are totally ordered) and the in-process preprocessing
store, which the forked workers inherit:

1. **Prewarm** -- the parent builds every missing stage artifact once per
   unique preprocessing signature *before* the pool starts, so a
   shared-mesh ensemble pays mesh/clustering/partition cost exactly once no
   matter how many workers run.  The prewarm's cache misses and each
   member's pure-hit counters land in the manifest as proof.  The store
   lives with the process: a sweep resumed in a new one prewarms again.
2. **Shard** -- the parent hands each idle worker one unit at a time over
   that worker's own pipe; the worker runs it through
   :func:`~repro.sweep.fuse.run_unit` with its inherited cache (each member
   possibly itself multi-rank on forked rank workers), writes its
   artefacts under ``members/<id>/`` (and ``fused/<group>/``) and replies
   on the same pipe.  The workers are a
   :class:`~repro.parallel.supervisor.WorkerPool` (not daemons: a
   multi-rank member forks rank workers of its own), so a worker whose
   parent is gone exits within a second instead of running on, and a
   worker that fails to start stops the ones started before it.
3. **Survive** -- every state transition is a flushed manifest line.  The
   pool waits on the pipes and the worker processes together, so the
   parent always knows which unit a dead worker held: the slot restarts at
   once, a unit the worker never read goes back uncharged, and a unit whose
   worker crashes (or raises) is re-queued ``retries`` times, then marked
   failed.  A sweep
   killed outright resumes from its manifest: members whose latest status
   is ``done`` are skipped, everything else -- including in-flight
   ``started`` members -- is re-queued.

``workers=0`` runs the same loop with the parent as the only worker
(deterministic, single-process -- the mode the fast tests use).

``fuse=True`` adds a collapse pass between expansion and sharding: members
that differ only in fusable source axes (time function, moment tensor,
force) run once as a single fused ensemble whose per-member artefacts are
demuxed back out of the fused slots -- see :mod:`repro.sweep.fuse`.  The
schedulable unit is then a *group*; manifest rows, resume decisions and
``repro report`` stay per-member.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from ..observability.events import canonical_sha256, spec_content_hash
from ..parallel.supervisor import WorkerPool
from ..preprocessing.cache import (
    PreprocessingCache,
    needed_stage_keys,
    result_content_hash,
    warm_preprocessing,
)
from ..scenarios.spec import ScenarioSpec
from .fuse import plan_fused_groups, run_unit
from .manifest import SweepManifest, is_sweep_manifest, manifest_state, read_manifest
from .spec import SweepSpec

__all__ = ["run_sweep", "preprocessing_signature", "sweep_sha256"]


def sweep_sha256(sweep: SweepSpec) -> str:
    """Content hash of the sweep definition (manifest <-> sweep pairing)."""
    return canonical_sha256(sweep.to_dict())


def preprocessing_signature(spec: ScenarioSpec) -> str:
    """One hash over every stage key a spec needs -- the prewarm dedup unit.

    Two members share a signature exactly when they share *all* cached
    preprocessing artifacts, so warming one representative warms them all.
    """
    keys = [key for _, key in needed_stage_keys(spec)]
    return hashlib.sha256("".join(keys).encode()).hexdigest()[:16]


def _attempt(unit: "_Unit", cache: PreprocessingCache) -> tuple:
    """One attempt at a unit: ``("done", row)`` or ``("failed", traceback)``."""
    try:
        return "done", run_unit(unit.spec, unit.dir, unit.member_dirs, cache)
    except Exception:
        return "failed", traceback.format_exc(limit=20)


def _serve(conn, cache_dir: str) -> None:
    """A pool worker: attempt each unit the parent sends, until ``None``."""
    cache = PreprocessingCache(cache_dir)
    for unit in iter(conn.recv, None):
        conn.send(_attempt(unit, cache))


@dataclass(frozen=True)
class _Unit:
    """One schedulable work item: a single member or a collapsed group.

    ``members`` and ``member_dirs`` are parallel, in slot order; singles
    have width 1.  ``spec`` is the spec that actually runs
    (events-instrumented; the fused spec for groups) while per-member
    manifest identity comes from each member's own spec.
    """

    unit_id: str
    spec: ScenarioSpec
    dir: Path
    members: tuple
    member_dirs: tuple

    @property
    def fused(self) -> bool:
        """A fused group runs in its own directory and demuxes into its
        members' (a single member runs in its own)."""
        return self.member_dirs != (self.dir,)

    @property
    def width(self) -> int:
        return len(self.members)

    @property
    def label(self) -> str:
        return f"fused group {self.unit_id}" if self.fused else f"member {self.unit_id}"


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

    def _row(self, unit: _Unit, slot: int, status: str, attempt: int, **fields) -> None:
        member = unit.members[slot]
        # singles are identified by the spec they actually run (with the
        # ledger override); fused members by their own standalone spec --
        # the identity their demuxed results are bit-identical to
        spec = member.spec if unit.fused else unit.spec
        if unit.fused:
            fields.update(fused_group=unit.unit_id, fused_slot=slot, fused_width=unit.width)
        self.manifest.member(
            member.member_id, status, attempt=attempt, index=member.index,
            overrides=member.overrides, spec_sha256=spec_content_hash(spec),
            result_sha256=result_content_hash(spec), **fields,
        )

    def started(self, unit: _Unit, attempt: int) -> None:
        for slot in range(unit.width):
            self._row(unit, slot, "started", attempt)

    def finished(self, unit: _Unit, attempt: int, row: dict) -> None:
        shared = {k: row[k] for k in ("wall_s", "total_wall_s", "n_elements")}
        for slot, path in enumerate(row["summary_paths"]):
            # the cache delta belongs to the one run; carried once, on
            # slot 0, so per-member tallies never double-count it
            cache = {"cache": row["cache"]} if slot == 0 else {}
            self._row(
                unit, slot, "done", attempt,
                # manifest rows stay valid when the output tree is moved/archived
                summary_path=os.path.relpath(path, self.out_dir), **shared, **cache,
            )
        self.done += unit.width
        self.log(
            f"{unit.label} done (wall {row['wall_s']:.2f}s, "
            f"cache {row['cache'] or 'cold'})"
        )

    def errored(self, unit: _Unit, attempt: int, error: str) -> bool:
        """Handle a failed attempt; returns True when the unit should requeue."""
        requeue = attempt <= self.retries
        for slot in range(unit.width):
            self._row(
                unit, slot, "requeued" if requeue else "failed", attempt,
                error=error.strip(),
            )
        if requeue:
            self.log(f"{unit.label} attempt {attempt} failed; requeued")
        else:
            self.failed += unit.width
            self.log(f"{unit.label} failed after {attempt} attempts")
        return requeue


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

    Layout under ``out_dir``: ``manifest.jsonl`` and one ``members/<id>/``
    directory per member (run summary, seismograms, run ledger when
    ``events``).  ``cache_dir`` (default ``out_dir / "cache"``) names the
    in-process preprocessing store; nothing is written there.

    ``resume=True`` with an existing manifest skips members already
    ``done`` and re-queues the rest; the manifest must belong to the same
    sweep definition (content-hash checked).  ``events`` gives every member
    a JSONL run ledger (``members/<id>/run.jsonl``).  ``workers=0`` runs
    inline in the parent.  A negative ``workers`` or ``retries`` raises
    ``ValueError``.

    ``fuse=True`` collapses members differing only in fusable source axes
    into single fused ensemble runs (see :mod:`repro.sweep.fuse`): the
    fused run's own artefacts land under ``fused/<group>/`` while every
    absorbed member keeps its ``members/<id>/`` directory with demuxed
    seismograms and a slot-annotated summary; fused members share one run
    ledger (the group's), not per-member ledgers.
    """
    for name, count in (("workers", workers), ("retries", retries)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    log = log or (lambda message: None)
    out_dir = Path(out_dir)
    members_root = out_dir / "members"
    cache_dir = Path(cache_dir) if cache_dir is not None else out_dir / "cache"
    manifest_path = out_dir / "manifest.jsonl"
    sweep_sha = sweep_sha256(sweep)
    members = sweep.expand()
    started_at = time.perf_counter()

    previously_done: set[str] = set()
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
            member_id for member_id, record in manifest_state(records).items()
            if record.get("status") == "done"
        }
        append = True

    pending = [m for m in members if m.member_id not in previously_done]

    # -- plan units: singles, or (with fuse) collapsed groups + singles --
    fused_groups, singles = plan_fused_groups(pending) if fuse else ((), pending)
    planned = [
        (group.group_id, group.spec, out_dir / "fused" / group.group_id, group.members)
        for group in fused_groups
    ] + [
        (member.member_id, member.spec, members_root / member.member_id, (member,))
        for member in singles
    ]
    units = [
        _Unit(
            unit_id=unit_id,
            spec=spec.with_overrides(events=str(unit_dir / "run.jsonl")) if events else spec,
            dir=unit_dir,
            members=unit_members,
            member_dirs=tuple(members_root / m.member_id for m in unit_members),
        )
        for unit_id, spec, unit_dir, unit_members in planned
    ]
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
        for unit in units:
            if cache.is_warm(unit.spec):  # an earlier unit or sweep warmed it
                continue
            warm_start = time.perf_counter()
            stats = warm_preprocessing(unit.spec, cache)
            sig = preprocessing_signature(unit.spec)
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
        _schedule(
            units, tracker,
            WorkerPool(_serve, [(str(cache_dir),)] * min(workers, len(units)))
            if workers else _Inline(cache),
        )
        tally.update(
            done=tracker.done, failed=tracker.failed,
            wall_s=time.perf_counter() - started_at,
        )
        paths = ("sweep_sha256", "manifest", "cache_dir")  # the header's business
        manifest.final({k: v for k, v in tally.items() if k not in paths})
    return tally


def _schedule(units, tracker, workers) -> None:
    """The one scheduling loop: hand each idle worker the next unit, then
    settle every reply or death; a failed attempt goes back to the front.

    A dead worker's slot restarts at once.  The unit it held goes back
    uncharged if it was still unread, and is charged a crashed attempt if
    the worker had taken it.
    """
    todo = deque((unit, 1) for unit in units)
    held: dict[int, tuple] = {}  # worker slot -> (unit, attempt)
    try:
        while todo or held:
            for slot in range(workers.size):
                if slot not in held and todo:
                    unit, attempt = held[slot] = todo.popleft()
                    tracker.started(unit, attempt)
                    try:
                        workers.send(slot, unit)
                    except OSError:  # the worker died after its last reply
                        workers.restart(slot)
                        workers.send(slot, unit)
            for slot, outcome, detail in workers.wait(held):
                unit, attempt = held.pop(slot)
                if outcome != "reply":
                    workers.restart(slot)
                    if outcome == "unread":
                        todo.appendleft((unit, attempt))
                        continue
                    detail = ("failed", f"worker crashed (exit code {detail})")
                status, result = detail
                if status == "done":
                    tracker.finished(unit, attempt, result)
                elif tracker.errored(unit, attempt, result):
                    todo.appendleft((unit, attempt + 1))
    finally:
        # workers still holding a unit are abandoned (the sweep is failing)
        workers.stop(grace_s=0.0 if held else 10.0)


class _Inline:
    """The parent as the only worker (``workers=0``): a unit runs when sent."""

    size = 1

    def __init__(self, cache: PreprocessingCache):
        self.cache = cache
        self.outcome = None

    def send(self, slot: int, unit: _Unit) -> None:
        self.outcome = _attempt(unit, self.cache)

    def wait(self, held) -> list:
        return [(0, "reply", self.outcome)]

    def stop(self, grace_s: float) -> None:
        pass
