"""The crash-durable JSONL sweep manifest.

The manifest is a schema over the same store as the run ledger,
:class:`~repro.observability.events.DurableJsonl`: one flushed line per
record, a torn last line dropped on read and cut away before an append,
and a corrupt line anywhere else raising ``ValueError``.  Its records: a
``header`` identifying the sweep, one ``prewarm`` record per preprocessing
signature built in the parent, ``member`` records tracking each member
through ``started`` -> ``done`` / ``requeued`` / ``failed``, and a
``final`` tally.  A sweep killed mid-flight leaves a readable prefix;
resuming reads it back, skips every member whose latest status is ``done``
and re-queues the rest in a new segment (a second ``header``).

``done`` rows carry the member's summary path, wall time and the per-stage
preprocessing-cache hit/miss delta its run observed -- the counters that
*prove* a shared-mesh ensemble paid mesh/clustering/partition cost once
(prewarm records show the misses; member rows show pure hits).

A ``--fuse`` sweep keeps one row per *member* even when several members ran
as one collapsed fused ensemble; those rows additionally record the
grouping (``fused_group`` / ``fused_slot`` / ``fused_width``), and the
shared run's cache delta is carried once, on the slot-0 row.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..observability.events import DurableJsonl, read_jsonl

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "SweepManifest",
    "read_manifest",
    "manifest_state",
    "manifest_member_paths",
    "is_sweep_manifest",
    "validate_manifest",
]

MANIFEST_FORMAT_VERSION = 1

MEMBER_STATUSES = ("started", "done", "failed", "requeued")


#: a sweep manifest is a :class:`DurableJsonl` file
read_manifest = read_jsonl


class SweepManifest(DurableJsonl):
    """The manifest schema (``append=False`` starts a new sweep's file)."""

    def header(self, *, sweep_name: str, sweep_sha256: str, n_members: int,
               cache_dir: str, workers: int, resumed: bool = False,
               fuse: bool = False) -> None:
        self.write(
            {
                "record": "header",
                "format_version": MANIFEST_FORMAT_VERSION,
                "sweep": sweep_name,
                "sweep_sha256": sweep_sha256,
                "n_members": int(n_members),
                "cache_dir": str(cache_dir),
                "workers": int(workers),
                "resumed": bool(resumed),
                "fuse": bool(fuse),
                "written_at": time.time(),
            }
        )

    def prewarm(self, *, signature: str, member: str, wall_s: float,
                cache: dict) -> None:
        """Record a parent-side cache prewarm (one per unique signature)."""
        self.write(
            {
                "record": "prewarm",
                "signature": signature,
                "member": member,
                "wall_s": float(wall_s),
                "cache": cache,
            }
        )

    def member(self, member_id: str, status: str, **fields) -> None:
        if status not in MEMBER_STATUSES:
            raise ValueError(f"status must be one of {MEMBER_STATUSES}, got {status!r}")
        self.write({"record": "member", "member": member_id, "status": status, **fields})

    def final(self, tally: dict) -> None:
        self.write({"record": "final", **tally})


def manifest_state(records: list[dict]) -> dict:
    """Latest member record per member id (the resume decision input)."""
    state: dict[str, dict] = {}
    for record in records:
        if record.get("record") == "member":
            state[record["member"]] = record
    return state


def manifest_member_paths(path) -> list[str]:
    """Summary paths of every completed member, for ``repro report``.

    Relative paths resolve against the manifest's directory, so a sweep
    output tree can be archived and reported from anywhere.
    """
    path = Path(path)
    base = path.parent
    paths = []
    for record in manifest_state(read_manifest(path)).values():
        if record.get("status") == "done" and record.get("summary_path"):
            summary = Path(record["summary_path"])
            if not summary.is_absolute():
                summary = base / summary
            paths.append(str(summary))
    return sorted(paths)


def is_sweep_manifest(records: list[dict]) -> bool:
    """Whether a parsed JSONL file is a sweep manifest (vs a run ledger)."""
    return bool(records) and records[0].get("record") == "header" and "sweep" in records[0]


def validate_manifest(path) -> dict:
    """Structural validation of a (possibly partial) manifest.

    Returns a tally: record counts, member states, and whether a ``final``
    record closed the sweep.  Raises ``ValueError`` on structural problems
    (no header, member rows with unknown status, done rows without a
    summary path).
    """
    records = read_manifest(path)
    if not is_sweep_manifest(records):
        raise ValueError(f"{path} is not a sweep manifest (no header record)")
    header = records[0]
    counts = {"header": 0, "prewarm": 0, "member": 0, "final": 0}
    for record in records:
        kind = record.get("record")
        if kind not in counts:
            raise ValueError(f"unknown manifest record kind {kind!r}")
        counts[kind] += 1
        if kind == "member":
            if record.get("status") not in MEMBER_STATUSES:
                raise ValueError(
                    f"member {record.get('member')!r} has unknown status "
                    f"{record.get('status')!r}"
                )
            if record["status"] == "done" and not record.get("summary_path"):
                raise ValueError(
                    f"member {record['member']!r} is done but has no summary_path"
                )
    state = manifest_state(records)
    by_status: dict[str, int] = {}
    for record in state.values():
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
    return {
        "sweep": header["sweep"],
        "n_members": header["n_members"],
        "records": counts,
        "members": by_status,
        "complete": counts["final"] > 0,
    }
