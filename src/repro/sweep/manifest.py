"""The crash-durable JSONL sweep manifest.

One line per event, flushed immediately (the same durability contract as
the :class:`~repro.observability.events.RunLedger`): a ``header`` record
identifying the sweep, one ``prewarm`` record per preprocessing signature
built in the parent, ``member`` records tracking each member through
``started`` -> ``done`` / ``requeued`` / ``failed``, and a ``final``
tally.  A sweep killed mid-flight leaves a readable prefix; resuming reads
it back, skips every member whose latest status is ``done`` and re-queues
the rest.

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

import json
import time
from pathlib import Path

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


class SweepManifest:
    """Append-only JSONL manifest writer (one flushed line per record)."""

    def __init__(self, path, append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a" if append else "w")

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def header(self, *, sweep_name: str, sweep_sha256: str, n_members: int,
               cache_dir: str, workers: int, resumed: bool = False,
               fuse: bool = False) -> None:
        self._write(
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
        self._write(
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
        self._write({"record": "member", "member": member_id, "status": status, **fields})

    def final(self, tally: dict) -> None:
        self._write({"record": "final", **tally})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_manifest(path) -> list[dict]:
    """Parse a manifest, tolerating a torn final line (killed mid-write)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail: everything before it is intact
    return records


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
