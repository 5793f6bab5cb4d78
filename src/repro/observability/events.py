"""Structured JSONL run ledger and the live progress heartbeat.

A *run ledger* is the crash-durable, incrementally written record of one
run's progress: a provenance header (spec content hash, git SHA, repro
version, host metadata), one flushed record per macro cycle (simulated
time, wall clock, updates/s, per-rank recv-wait, communication bytes, peak
RSS) and a final record when the run completes.  The ledger and the sweep
manifest are two schemas over one crash-durable store, :class:`DurableJsonl`
(one flushed line per record) read back by :func:`read_jsonl`, so a run
killed at any point leaves a readable partial ledger.
:func:`validate_run_ledger` is the ledger's schema lint, mirroring
``validate_chrome_trace``.

The :class:`Heartbeat` renders the same per-cycle records as a live
progress line on stderr (cycle counter, updates/s, ETA from the remaining
simulated time), for single- and multi-rank runs alike: both emit from the
parent's macro-cycle loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "LEDGER_FORMAT_VERSION",
    "DurableJsonl",
    "RunLedger",
    "Heartbeat",
    "git_revision",
    "spec_content_hash",
    "provenance_block",
    "host_block",
    "peak_rss_mb",
    "resident_nbytes",
    "read_jsonl",
    "read_ledger",
    "validate_run_ledger",
]

LEDGER_FORMAT_VERSION = 1

#: keys every cycle record must carry (validated by the schema lint)
CYCLE_RECORD_KEYS = (
    "cycle",
    "t",
    "wall_s",
    "cycle_wall_s",
    "element_updates",
    "updates_per_s",
    "peak_rss_mb",
)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def git_revision() -> str | None:
    """The git SHA of the source tree this process runs from, if known.

    Resolved by walking up from the package directory (not the CWD) and
    reading ``.git`` directly -- no subprocess, since forking from a large
    process pollutes ``RUSAGE_CHILDREN`` peak-RSS accounting and the stamp
    must work without a ``git`` binary.  Installed checkouts report their
    repository; plain sdist installs report None.
    """
    for parent in Path(__file__).resolve().parents:
        git_dir = parent / ".git"
        if git_dir.is_file():  # linked worktree: "gitdir: <path>"
            try:
                pointer = git_dir.read_text().strip()
            except OSError:
                return None
            if not pointer.startswith("gitdir: "):
                return None
            git_dir = (parent / pointer[len("gitdir: "):]).resolve()
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text().strip()
            if not head.startswith("ref: "):
                return head or None  # detached HEAD holds the SHA itself
            ref = head[len("ref: "):]
            ref_path = git_dir / ref
            if ref_path.exists():
                return ref_path.read_text().strip() or None
            # common dir for worktree refs, then the packed-refs fallback
            common = git_dir / "commondir"
            if common.exists():
                git_dir = (git_dir / common.read_text().strip()).resolve()
                ref_path = git_dir / ref
                if ref_path.exists():
                    return ref_path.read_text().strip() or None
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
        except OSError:
            pass
        return None
    return None


def spec_content_hash(spec) -> str:
    """SHA-256 of the spec's canonical JSON form.

    Key-sorted and whitespace-free, so the hash identifies the scenario
    *content* independently of dict ordering or formatting -- the key the
    future sweep service's preprocessing cache and manifests use.
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance_block(spec) -> dict:
    """The self-description stamped into ledgers and run summaries."""
    from .. import __version__

    return {
        "git_sha": git_revision(),
        "repro_version": __version__,
        "spec_sha256": spec_content_hash(spec),
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident-set size of *this* process in MiB (with ``children``:
    of its largest terminated child process).

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalised here.
    Cheap enough for once-per-cycle ledger records; process-backend workers
    call it themselves, since ``RUSAGE_CHILDREN`` only counts terminated
    children and the workers are still alive mid-run.
    """
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(who).ru_maxrss * scale / 1024.0**2


def resident_nbytes(held) -> int:
    """Bytes of the distinct arrays in ``held`` (an array, or dicts, lists
    and tuples nesting them): a view counts through its base array, and
    every base array once -- an owner's own ``nbytes``, no allocation
    tracing."""
    bases, stack = {}, [held]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value.nbytes
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return sum(bases.values())


def _platform_stamp() -> str:
    """``platform.platform()``-style stamp from fork-free primitives.

    ``platform.platform()`` can shell out (``platform.architecture`` runs
    ``file``), and any fork from a large process pollutes the
    ``RUSAGE_CHILDREN`` peak-RSS accounting the memory block reports.
    """
    stamp = "-".join(
        part for part in (platform.system(), platform.release(), platform.machine())
        if part
    )
    libc = "-".join(part for part in platform.libc_ver() if part)
    return f"{stamp}-with-{libc}" if libc else stamp


def host_block() -> dict:
    """Host facts that make wall-clock records comparable across machines."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": _platform_stamp(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pid": os.getpid(),
    }


# ---------------------------------------------------------------------------
# the durable JSONL store and the ledger schema
# ---------------------------------------------------------------------------


class DurableJsonl:
    """Crash-durable JSONL writer: one line per record, flushed at once.

    ``append=True`` continues an existing file; a torn last line (a writer
    killed mid-record) is cut back to the last newline first, so the new
    records never fuse with it.  ``append=False`` starts the file afresh.
    Keys are written sorted.  :func:`read_jsonl` reads the file back.
    """

    def __init__(self, path, append: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if append and self.path.exists():
            with open(self.path, "r+b") as handle:  # cut a torn last line
                handle.truncate(handle.read().rfind(b"\n") + 1)
        self._handle = open(self.path, "a" if append else "w")

    def write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path) -> list[dict]:
    """Every record of a :class:`DurableJsonl` file.

    Records are flushed whole, so the only line a kill can corrupt is the
    last one (interrupted mid-write), which is dropped; a malformed line
    anywhere *else* is real corruption and raises ``ValueError``.
    """
    records: list[dict] = []
    lines = Path(path).read_text().splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if index == len(lines) - 1:
                break  # the torn tail of a killed writer
            raise ValueError(f"{path}: corrupt line {index + 1}: {error}") from error
    return records


#: a run ledger is a :class:`DurableJsonl` file
read_ledger = read_jsonl


class RunLedger(DurableJsonl):
    """One run's progress records.

    Opened for append: a resumed run continues the same file with a new
    header record (one *segment* per runner invocation), exactly like the
    checkpoint machinery keeps one state file per run.
    """

    def header(self, spec, *, total_cycles: int, macro_dt: float,
               resumed_at_cycle: int = 0) -> None:
        """The provenance header opening one segment of the ledger."""
        self.write(
            {
                "kind": "header",
                "format_version": LEDGER_FORMAT_VERSION,
                "provenance": provenance_block(spec),
                "host": host_block(),
                "run": {
                    "scenario": spec.name,
                    "solver": spec.solver.kind,
                    "kernels": spec.solver.kernels,
                    "precision": spec.solver.precision,
                    "n_ranks": spec.solver.n_ranks,
                    "order": spec.order,
                    "total_cycles": int(total_cycles),
                    "macro_dt": float(macro_dt),
                    "resumed_at_cycle": int(resumed_at_cycle),
                },
            }
        )

    def cycle(self, record: dict) -> None:
        self.write({"kind": "cycle", **record})

    def final(self, record: dict) -> None:
        self.write({"kind": "final", **record})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _require_finite(record: dict, keys, context: str) -> None:
    for key in keys:
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{context}: {key!r} missing or non-numeric: {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{context}: {key!r} is not finite: {value!r}")


def validate_run_ledger(records: list[dict], expect_complete: bool = False) -> dict:
    """Structural sanity check of a parsed ledger.

    Verifies the segment structure (each segment opens with a provenance
    header), the per-cycle record schema (finite numbers, monotone cycle
    index / simulated time / update counts) and -- with ``expect_complete``
    -- the closing ``final`` record.  Returns a summary
    ``{"segments", "cycles", "complete", "last_cycle"}``; raises
    ``ValueError`` on the first violation.
    """
    if not records:
        raise ValueError("empty ledger")
    if records[0].get("kind") != "header":
        raise ValueError("ledger does not start with a header record")
    segments = 0
    cycles = 0
    complete = False
    last_cycle: dict | None = None
    prev_cycle_index = None
    prev_updates = None
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            segments += 1
            if record.get("format_version") != LEDGER_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported ledger format {record.get('format_version')!r}"
                )
            provenance = record.get("provenance")
            if not isinstance(provenance, dict) or not {
                "repro_version",
                "spec_sha256",
            } <= set(provenance):
                raise ValueError("header lacks a provenance block")
            if not isinstance(record.get("host"), dict):
                raise ValueError("header lacks the host block")
            run = record.get("run")
            if not isinstance(run, dict) or "scenario" not in run:
                raise ValueError("header lacks the run block")
            # a resumed segment restarts the monotonicity baseline
            prev_cycle_index = run.get("resumed_at_cycle", 0)
            prev_updates = None
            complete = False
        elif kind == "cycle":
            cycles += 1
            context = f"cycle record {cycles}"
            _require_finite(record, CYCLE_RECORD_KEYS, context)
            if prev_cycle_index is not None and record["cycle"] <= prev_cycle_index:
                raise ValueError(
                    f"{context}: cycle index {record['cycle']} did not advance "
                    f"past {prev_cycle_index}"
                )
            if prev_updates is not None and record["element_updates"] < prev_updates:
                raise ValueError(f"{context}: element_updates decreased")
            prev_cycle_index = record["cycle"]
            prev_updates = record["element_updates"]
            last_cycle = record
        elif kind == "final":
            _require_finite(record, ("cycles", "wall_s", "element_updates"), "final record")
            complete = True
        else:
            raise ValueError(f"unknown ledger record kind {kind!r}")
    if expect_complete and not complete:
        raise ValueError("ledger has no final record (the run did not complete)")
    return {
        "segments": segments,
        "cycles": cycles,
        "complete": complete,
        "last_cycle": last_cycle,
    }


# ---------------------------------------------------------------------------
# the heartbeat
# ---------------------------------------------------------------------------


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class Heartbeat:
    """Live progress line driven by the runner's per-cycle records.

    On a TTY the line redraws in place (carriage return); on a pipe -- CI
    logs -- each emission is a full line, throttled to ``min_interval_s``
    so long runs do not flood the log.  The final cycle always emits.
    """

    def __init__(self, label: str, total_cycles: int, *, stream=None,
                 min_interval_s: float = 0.5):
        self.label = label
        self.total_cycles = int(total_cycles)
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = float(min_interval_s)
        self._last_emit = -math.inf
        self._segment_cycles = 0
        self._segment_wall = 0.0
        self._sticky = bool(getattr(self.stream, "isatty", lambda: False)())
        self._dirty = False

    def emit(self, record: dict) -> None:
        """Render one cycle record (throttled)."""
        self._segment_cycles += 1
        self._segment_wall += float(record.get("cycle_wall_s", 0.0))
        now = time.perf_counter()
        final = record["cycle"] >= self.total_cycles
        if not final and now - self._last_emit < self.min_interval_s:
            return
        self._last_emit = now
        remaining = max(0, self.total_cycles - int(record["cycle"]))
        eta = remaining * self._segment_wall / self._segment_cycles
        line = (
            f"[{self.label}] cycle {record['cycle']}/{self.total_cycles}"
            f"  t {record['t']:.3g} s"
            f"  {record['updates_per_s']:.3g} updates/s"
            f"  ETA {_format_eta(eta)}"
        )
        if self._sticky:
            self.stream.write("\r\x1b[2K" + line)
            if final:
                self.stream.write("\n")
            self._dirty = not final
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Terminate a sticky line that a non-final exit left open."""
        if self._sticky and self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
