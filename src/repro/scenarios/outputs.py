"""Run artefacts: seismogram CSVs and the run-summary JSON.

One CSV per receiver (``seismogram_<name>.csv`` with a ``time`` column and
one velocity column per component -- per fused simulation for ensemble runs)
plus a single ``run_summary.json`` carrying the runner's accounting.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "seismogram_header",
    "write_seismograms",
    "write_fused_slot_seismograms",
    "write_run_summary",
    "write_outputs",
]


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def seismogram_header(n_columns: int) -> str:
    """The CSV header for a seismogram with ``n_columns`` value columns.

    Scalar runs (and fused runs of width 1, whose flattened table is
    indistinguishable from a scalar run's) use the plain ``vx,vy,vz``
    columns; wider fused runs get one column per (component, simulation) in
    the flattened ``(component, simulation)`` order of the sample arrays.
    An empty recording still names the three scalar columns.
    """
    if n_columns % 3 != 0:
        raise ValueError(f"seismogram tables have 3 x n_fused columns, got {n_columns}")
    if n_columns in (0, 3):
        return "time,vx,vy,vz"
    n_fused = n_columns // 3
    return "time," + ",".join(f"v{axis}_{f}" for axis in "xyz" for f in range(n_fused))


def _write_seismogram_csvs(receivers, directory, select) -> list[Path]:
    """The one seismogram CSV writer: per receiver, ``seismogram_<name>.csv``
    with a ``time`` column and the per-sample rows of ``select(name,
    values)`` (its ``(n, 3[, F])`` recording, or a part of it) flattened."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for receiver in receivers.receivers:
        times, values = receiver.seismogram()
        values = select(receiver.name, np.asarray(values, dtype=np.float64))
        # reshape(0, -1) is ambiguous for empty recordings; emit an empty CSV.
        # Receiver.seismogram() returns (0, 3) for empty recordings regardless
        # of the fused width, so an unrecorded station gets the scalar header;
        # the prod() keeps receiver-likes that do report (0, 3, n) consistent
        if len(times):
            flat = values.reshape(len(times), -1)
        else:
            flat = values.reshape(0, int(np.prod(values.shape[1:])) if values.ndim > 1 else 3)
        header = seismogram_header(flat.shape[1])
        path = directory / f"seismogram_{receiver.name}.csv"
        table = np.column_stack([np.asarray(times, dtype=np.float64), flat])
        np.savetxt(path, table, delimiter=",", header=header, comments="")
        paths.append(path)
    return paths


def write_seismograms(receivers, directory) -> list[Path]:
    """Write one ``seismogram_<name>.csv`` per receiver; returns the paths."""
    return _write_seismogram_csvs(receivers, directory, lambda name, values: values)


def write_fused_slot_seismograms(receivers, directory, slot: int) -> list[Path]:
    """Demux one fused slot into scalar ``seismogram_<name>.csv`` files.

    Slices slot ``slot`` out of each receiver's ``(n, 3, F)`` recording and
    hands the ``(n, 3)`` table to the writer :func:`write_seismograms` uses,
    so a demuxed ref/f64 CSV is byte-identical to the CSV a standalone run
    of that slot's source would write.  Unrecorded stations keep the
    scalar-header empty-CSV form, like the scalar writer.
    """

    def one_slot(name: str, values: np.ndarray) -> np.ndarray:
        if values.ndim == 3:
            return values[:, :, slot]
        if len(values):
            raise ValueError(
                f"receiver {name!r} recorded a non-fused table "
                f"of shape {values.shape}; nothing to demux"
            )
        return values

    return _write_seismogram_csvs(receivers, directory, one_slot)


def write_run_summary(path, summary: dict) -> Path:
    """Write the run summary as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(summary), indent=2) + "\n")
    return path


def write_outputs(runner, directory, summary: dict | None = None) -> dict:
    """Write all artefacts of a finished run into ``directory``.

    ``summary`` reuses an already-computed run summary (``run()`` returns
    one); recomputing it is not just wasted work -- the accuracy block
    integrates error norms over the full state, and on a multi-rank run
    every summary gathers the distributed DOFs.
    """
    directory = Path(directory)
    if summary is None:
        summary = runner.summary()
    written = {"run_summary": write_run_summary(directory / "run_summary.json", summary)}
    if runner.receivers is not None:
        written["seismograms"] = write_seismograms(runner.receivers, directory)
    if summary.get("telemetry"):
        # instrumented runs also get their derived analytics precomputed
        # (the same payload `repro report <directory>` would produce)
        from ..observability.analysis import analyze_run

        report_path = directory / "report.json"
        report = analyze_run(
            {
                "label": directory.name or str(directory),
                "path": str(directory),
                "summary": _jsonable(summary),
                "ledger": None,
            }
        )
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        written["report"] = report_path
    return written
