"""Observability: hierarchical phase timers, counters and Chrome traces.

The measurement substrate for the paper's performance decomposition --
per-phase/per-cluster/per-rank timings of the clustered-LTS micro-step
schedule, counters for updates/FLOPs/halo traffic, and ``chrome://tracing``
timelines showing how well communication hides behind interior work.
Disabled by default with a near-zero no-op path; enabled per run via
``output.telemetry`` in the scenario spec or ``--metrics``/``--trace`` on
the CLI.
"""

from .events import (
    Heartbeat,
    RunLedger,
    git_revision,
    host_block,
    peak_rss_mb,
    provenance_block,
    read_ledger,
    resident_nbytes,
    spec_content_hash,
    validate_run_ledger,
)
from .timers import NULL_TELEMETRY, PHASE_REGIONS, Telemetry, merge_snapshots, recv_wait_s
from .trace import build_chrome_trace, validate_chrome_trace, write_chrome_trace


def __getattr__(name: str):
    # the ``repro report`` engine loads on first access: a plain run never
    # analyses anything
    if name in ("analyze_run", "build_report", "expand_report_paths", "load_run", "render_report"):
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NULL_TELEMETRY",
    "PHASE_REGIONS",
    "Telemetry",
    "merge_snapshots",
    "recv_wait_s",
    "build_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "Heartbeat",
    "RunLedger",
    "git_revision",
    "host_block",
    "peak_rss_mb",
    "provenance_block",
    "read_ledger",
    "resident_nbytes",
    "spec_content_hash",
    "validate_run_ledger",
    "analyze_run",
    "build_report",
    "expand_report_paths",
    "load_run",
    "render_report",
]
