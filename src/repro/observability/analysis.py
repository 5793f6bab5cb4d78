"""Derived analytics over the telemetry layer: the ``repro report`` engine.

PR 6's instrumentation records *raw* quantities -- per-rank region timings,
counters, Chrome traces, and (with this layer) the per-cycle run ledger.
The numbers the paper actually argues about are *derived* from those:

* **halo compactness** (Sec. V-C): the share of elements on a partition
  boundary, the cut faces and the halo bytes per element update -- with a
  warning when more than half the mesh is boundary, because the overlap
  below then has no interior work to hide anything behind.
* **overlap efficiency** (Sec. V-C): how much of each rank's communication
  wait is hidden behind interior compute.  The exposed wait is the measured
  ``correct/recv_wait`` region; the hiding capacity is the
  ``predict.interior`` span that runs while sends are in flight, so
  ``efficiency = interior / (interior + exposed_wait)`` -- 1.0 means every
  receive completed behind interior work, 0.0 means every receive blocked.
* **load imbalance** (Fig. 7): ``max / mean`` of the per-rank busy time
  (the stepped phase regions) and of the per-rank element updates.
* **measured vs theoretical LTS speedup** (Figs. 4/5, Table 1): the
  cluster-weighted model from the run summary next to the realized
  update ratio, and -- when a GTS reference run is supplied -- the actual
  wall-clock speedup, normalised per simulated second.
* **per-kernel-stage GFLOP/s**: the existing FLOP model's per-stage counts
  against the measured kernel region times.
* **multi-run comparison**: wall-clock speedups of N runs of the same
  scenario (e.g. ref vs fast), normalised per simulated second.
* **startup split**: the summary's ``startup`` block (package import, runner
  construction, first cycle, checkpoint writes) on one line, so a short
  invocation's wall is attributable beside its stepping wall.

Everything consumes the JSON artefacts a finished (or killed) run leaves
behind -- ``run_summary.json``, the ``--events`` JSONL ledger, optionally a
Chrome trace -- so reports are post-hoc and need no live solver.
"""

from __future__ import annotations

import json
from pathlib import Path

from .events import read_ledger, validate_run_ledger

__all__ = [
    "expand_report_paths",
    "load_run",
    "halo_block",
    "render_halo",
    "overlap_block",
    "imbalance_block",
    "speedup_block",
    "kernel_stage_block",
    "ledger_block",
    "memory_block",
    "comparison_block",
    "analyze_run",
    "build_report",
    "render_report",
]

#: region paths that make up a lane's stepped busy time
BUSY_REGIONS = ("predict", "predict.boundary", "send", "predict.interior",
                "correct", "update")

#: kernel stage -> (FLOP-model fields, region leaf names that implement it);
#: the two surface halves are one stage: the fast backend runs them as one
#: fused pass, timed under ``kernel.surface_neighbor``
KERNEL_STAGES = {
    "time": (("time_kernel",), ("kernel.ck", "kernel.integrate")),
    "volume": (("volume_kernel",), ("kernel.volume",)),
    "surface": (
        ("surface_local", "surface_neighbor"),
        ("kernel.trace", "kernel.surface_local", "kernel.surface_neighbor"),
    ),
}


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def expand_report_paths(paths: list) -> list:
    """Expand sweep manifests and summary trees into individual run paths.

    Three indirections resolve, in input order (each expansion sorted):

    * a sweep ``manifest.jsonl`` (or a directory containing one) -> the
      summary path of every completed member recorded in it;
    * a directory without a ``run_summary.json`` of its own -> every
      ``run_summary.json`` found beneath it (e.g. a sweep's ``members/``
      tree, or any folder of archived runs);
    * anything else (run directory, summary file, run ledger) passes
      through to :func:`load_run` unchanged.
    """
    from ..sweep.manifest import is_sweep_manifest, manifest_member_paths, read_manifest

    expanded = []
    for path in paths:
        path = Path(path)
        if path.is_dir() and not (path / "run_summary.json").exists():
            if (path / "manifest.jsonl").exists():
                expanded.extend(manifest_member_paths(path / "manifest.jsonl"))
                continue
            summaries = sorted(path.rglob("run_summary.json"))
            if not summaries:
                raise FileNotFoundError(
                    f"{path} has no run_summary.json, sweep manifest.jsonl or "
                    "member summaries beneath it"
                )
            expanded.extend(str(p) for p in summaries)
            continue
        if path.suffix == ".jsonl" and path.is_file() and is_sweep_manifest(
            read_manifest(path)
        ):
            expanded.extend(manifest_member_paths(path))
            continue
        expanded.append(str(path))
    return expanded


def load_run(path) -> dict:
    """Load one run's artefacts from a directory, summary file or ledger.

    Accepts a run output directory (containing ``run_summary.json``), the
    summary JSON itself, or a ``.jsonl`` ledger.  The ledger is discovered
    from the summary's recorded ``events`` path or as a sibling of the
    summary; a bare ledger yields a summary-less run (ledger analytics
    only).
    """
    path = Path(path)
    run = {"label": str(path), "path": str(path), "summary": None, "ledger": None}
    if path.is_dir():
        summary_path = path / "run_summary.json"
        if not summary_path.exists():
            raise FileNotFoundError(f"{path} has no run_summary.json")
        run["summary"] = json.loads(summary_path.read_text())
        run["label"] = path.name or str(path)
    elif path.suffix == ".jsonl":
        run["ledger"] = read_ledger(path)
        run["label"] = path.stem
        return run
    else:
        run["summary"] = json.loads(path.read_text())
        run["label"] = path.parent.name or path.stem
    events = run["summary"].get("events")
    candidates = [Path(events)] if events else []
    base = path if path.is_dir() else path.parent
    candidates += sorted(base.glob("*.jsonl"))
    for candidate in candidates:
        if candidate.exists():
            run["ledger"] = read_ledger(candidate)
            break
    return run


def _rank_lanes(summary: dict) -> list[dict]:
    telemetry = summary.get("telemetry") or {}
    return [
        lane for lane in telemetry.get("lanes", [])
        if str(lane.get("lane", "")).startswith("rank")
    ]


def _region_s(regions: dict, path: str) -> float:
    entry = regions.get(path)
    return float(entry["total_s"]) if entry else 0.0


# ---------------------------------------------------------------------------
# the derived blocks
# ---------------------------------------------------------------------------


def overlap_block(summary: dict) -> dict | None:
    """Per-rank communication-hiding efficiency (None without rank lanes).

    ``exposed_wait_s`` is the time a rank measurably blocked in
    ``correct/recv_wait``; ``interior_s`` is the compute span available to
    hide in-flight messages.  The efficiency is the fraction of the
    post-send window spent computing instead of waiting.
    """
    ranks = []
    for lane in _rank_lanes(summary):
        regions = lane.get("regions", {})
        interior = _region_s(regions, "predict.interior")
        exposed = sum(
            float(entry["total_s"])
            for name, entry in regions.items()
            if name.endswith("/recv_wait") or name == "recv_wait"
        )
        if interior == 0.0 and exposed == 0.0:
            continue
        window = interior + exposed
        ranks.append(
            {
                "lane": lane.get("lane"),
                "interior_s": interior,
                "exposed_wait_s": exposed,
                "efficiency": interior / window if window > 0 else 1.0,
            }
        )
    if not ranks:
        return None
    interior = sum(r["interior_s"] for r in ranks)
    exposed = sum(r["exposed_wait_s"] for r in ranks)
    return {
        "ranks": ranks,
        "interior_s": interior,
        "exposed_wait_s": exposed,
        "efficiency": interior / (interior + exposed) if interior + exposed > 0 else 1.0,
    }


#: share of elements on a partition boundary above which the boundary-first
#: prediction leaves too little interior work to hide the halo transfer
HALO_BOUNDARY_LIMIT = 0.5


def halo_block(summary: dict) -> dict | None:
    """How thin the partition's halo is (None for single-rank runs)."""
    comm = summary.get("comm") or {}
    if "boundary_element_fraction" not in comm:
        return None
    return {
        "boundary_element_fraction": comm["boundary_element_fraction"],
        "cut_faces": comm["cut_faces"],
        "halo_bytes_per_element_update": comm["halo_bytes_per_element_update"],
        "compact": comm["boundary_element_fraction"] <= HALO_BOUNDARY_LIMIT,
    }


def render_halo(halo: dict) -> list[str]:
    """The halo block as text (shared by ``repro run``'s banner and the report)."""
    lines = [
        f"Halo: {halo['boundary_element_fraction']:.1%} of the elements on a partition "
        f"boundary, {halo['cut_faces']} cut faces, "
        f"{halo['halo_bytes_per_element_update']:.3g} halo B per element update"
    ]
    if not halo["compact"]:
        lines.append(
            "  WARNING: partition is not compact: overlap has nothing to hide behind"
        )
    return lines


def imbalance_block(summary: dict) -> dict | None:
    """Max/mean load-imbalance ratios across the rank lanes (Fig. 7)."""
    ranks = []
    for lane in _rank_lanes(summary):
        regions = lane.get("regions", {})
        busy = sum(_region_s(regions, name) for name in BUSY_REGIONS)
        updates = sum(
            value
            for name, value in lane.get("counters", {}).items()
            if name.startswith("updates/")
        )
        ranks.append({"lane": lane.get("lane"), "busy_s": busy, "element_updates": updates})
    ranks = [r for r in ranks if r["busy_s"] > 0 or r["element_updates"] > 0]
    if len(ranks) < 2:  # imbalance of a single lane is vacuous
        return None
    busy = [r["busy_s"] for r in ranks]
    updates = [r["element_updates"] for r in ranks]
    mean_busy = sum(busy) / len(busy)
    mean_updates = sum(updates) / len(updates)
    return {
        "ranks": ranks,
        "busy_imbalance": max(busy) / mean_busy if mean_busy > 0 else 1.0,
        "update_imbalance": max(updates) / mean_updates if mean_updates > 0 else 1.0,
        "busiest": ranks[busy.index(max(busy))]["lane"],
    }


def speedup_block(summary: dict, gts_summary: dict | None = None) -> dict | None:
    """Measured LTS speedup against the cluster-weighted theoretical model.

    The *model* is the summary's ``theoretical_speedup`` (update cost vs
    GTS at ``dt_min``).  The *realized update ratio* compares the run's
    actual element updates against the GTS run the runner would execute
    (every element at the cluster-0 step ``lambda * dt_min``), so the
    model's prediction for that comparison is ``model / lambda``.  With a
    GTS reference summary of the same scenario, ``measured`` is the actual
    wall-clock ratio, normalised per simulated second.
    """
    if summary.get("solver") == "gts" or "theoretical_speedup" not in summary:
        return None
    n_clusters = int(summary["n_clusters"])
    cycles = int(summary["cycles"])
    updates = int(summary["element_updates"])
    if cycles <= 0 or updates <= 0:
        return None
    gts_updates_per_cycle = int(summary["n_elements"]) * 2 ** (n_clusters - 1)
    lts_updates_per_cycle = updates / cycles
    model = float(summary["theoretical_speedup"])
    lam = float(summary["lambda"])
    block = {
        "theoretical_model": model,
        "lambda": lam,
        "update_ratio": gts_updates_per_cycle / lts_updates_per_cycle,
        "model_vs_gts_at_lambda_dt": model / lam,
        "measured": None,
    }
    if gts_summary is not None and _comparable(summary, gts_summary):
        lts_rate = _wall_per_sim_second(summary)
        gts_rate = _wall_per_sim_second(gts_summary)
        if lts_rate and gts_rate:
            measured = gts_rate / lts_rate
            block["measured"] = measured
            block["gts_reference"] = gts_summary.get("scenario")
            block["attained_vs_model"] = measured / block["model_vs_gts_at_lambda_dt"]
    return block


def _wall_per_sim_second(summary: dict) -> float | None:
    t = float(summary.get("t_end") or 0.0)
    wall = float(summary.get("wall_s") or 0.0)
    return wall / t if t > 0 and wall > 0 else None


def _comparable(a: dict, b: dict) -> bool:
    keys = ("scenario", "n_elements", "order")
    return all(a.get(k) == b.get(k) for k in keys)


def kernel_stage_block(summary: dict) -> dict | None:
    """Per-kernel-stage GFLOP/s from the FLOP model and region timings.

    Seconds are summed across all lanes (and nesting paths), so on a
    multi-rank run the rate is per lane-second -- a per-core figure.
    Needs the ``flops_per_stage`` stamp PR 7 added to the derived block.
    """
    telemetry = summary.get("telemetry") or {}
    per_stage = (telemetry.get("derived") or {}).get("flops_per_stage")
    regions = telemetry.get("regions") or {}
    if not per_stage:
        return None
    updates = int(summary.get("element_updates", 0))
    stages = {}
    for stage, (flop_keys, leaves) in KERNEL_STAGES.items():
        seconds = sum(
            float(entry["total_s"])
            for name, entry in regions.items()
            if name.rsplit("/", 1)[-1] in leaves
        )
        flops = updates * sum(int(per_stage.get(key, 0)) for key in flop_keys)
        if seconds <= 0.0 or flops <= 0:
            continue
        stages[stage] = {
            "seconds": seconds,
            "gflop": flops / 1e9,
            "gflop_per_s": flops / 1e9 / seconds,
        }
    return stages or None


def memory_block(summary: dict) -> dict | None:
    """The single-rank run's resident MiB by owner, their total and the
    peak RSS they sit in."""
    memory = summary.get("memory") or {}
    owned = memory.get("owned_mb")
    if not owned:
        return None
    return {
        "owned_mb": owned,
        "total_mb": float(sum(owned.values())),
        "peak_rss_mb": memory.get("peak_rss_mb"),
    }


def ledger_block(records: list[dict]) -> dict | None:
    """Progress analytics of the per-cycle ledger records."""
    if not records:
        return None
    summary = validate_run_ledger(records)
    cycles = [r for r in records if r.get("kind") == "cycle"]
    if not cycles:
        return {**summary, "updates_per_s": None}
    walls = [float(r["cycle_wall_s"]) for r in cycles]
    rates = [float(r["updates_per_s"]) for r in cycles]
    wait_totals: dict[str, float] = {}
    for record in cycles:
        for lane, wait in (record.get("recv_wait_s") or {}).items():
            wait_totals[lane] = wait_totals.get(lane, 0.0) + float(wait)
    last = cycles[-1]
    return {
        **summary,
        "t": float(last["t"]),
        "wall_s": float(last["wall_s"]),
        "element_updates": int(last["element_updates"]),
        "cycle_wall_s": {
            "mean": sum(walls) / len(walls),
            "min": min(walls),
            "max": max(walls),
        },
        "updates_per_s": {
            "mean": sum(rates) / len(rates),
            "min": min(rates),
            "max": max(rates),
            "last": rates[-1],
        },
        "recv_wait_s": wait_totals or None,
        "comm_bytes": int(last["comm_bytes"]) if "comm_bytes" in last else None,
        "peak_rss_mb": max(float(r["peak_rss_mb"]) for r in cycles),
    }


def comparison_block(runs: list[dict]) -> dict | None:
    """Wall-clock speedup table of N runs, first run as the baseline."""
    rows = []
    baseline_rate = None
    baseline = None
    for run in runs:
        summary = run.get("summary")
        if summary is None:
            continue
        rate = _wall_per_sim_second(summary)
        row = {
            "label": run["label"],
            "scenario": summary.get("scenario"),
            "solver": summary.get("solver"),
            "kernels": summary.get("kernels"),
            "precision": summary.get("precision"),
            "n_ranks": summary.get("n_ranks", 1),
            "wall_s": summary.get("wall_s"),
            "element_updates_per_s": summary.get("element_updates_per_s"),
            "wall_per_sim_s": rate,
            "speedup_vs_first": None,
            "comparable": True,
        }
        if baseline is None:
            baseline, baseline_rate = summary, rate
        else:
            row["comparable"] = _comparable(summary, baseline)
            if row["comparable"] and baseline_rate and rate:
                row["speedup_vs_first"] = baseline_rate / rate
        rows.append(row)
    return {"baseline": rows[0]["label"], "rows": rows} if len(rows) > 1 else None


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def analyze_run(run: dict, gts_summary: dict | None = None) -> dict:
    """All derived blocks of one loaded run (absent blocks are None)."""
    summary = run.get("summary")
    blocks = {
        "halo": halo_block(summary) if summary else None,
        "overlap": overlap_block(summary) if summary else None,
        "imbalance": imbalance_block(summary) if summary else None,
        "lts_speedup": speedup_block(summary, gts_summary) if summary else None,
        "kernel_stages": kernel_stage_block(summary) if summary else None,
        "memory": memory_block(summary) if summary else None,
        "ledger": ledger_block(run.get("ledger") or []),
        "startup": summary.get("startup") if summary else None,
    }
    info = {"label": run["label"], "path": run["path"]}
    if summary is not None:
        info.update(
            scenario=summary.get("scenario"),
            solver=summary.get("solver"),
            kernels=summary.get("kernels"),
            precision=summary.get("precision"),
            n_ranks=summary.get("n_ranks", 1),
            wall_s=summary.get("wall_s"),
            provenance=summary.get("provenance"),
        )
    return {**info, "blocks": blocks}


def build_report(paths: list) -> dict:
    """Load every run and assemble the full report payload.

    Paths may be run directories, summary files or ledgers -- or sweep
    manifests / summary trees, which expand to their members first (see
    :func:`expand_report_paths`).
    """
    runs = [load_run(path) for path in expand_report_paths(paths)]
    # the first GTS run among the inputs serves as the measured-speedup
    # reference for every comparable LTS run
    gts_summary = next(
        (
            run["summary"]
            for run in runs
            if run.get("summary") and run["summary"].get("solver") == "gts"
        ),
        None,
    )
    return {
        "runs": [analyze_run(run, gts_summary) for run in runs],
        "comparison": comparison_block(runs),
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _fmt(value, pattern="{:.3g}") -> str:
    return pattern.format(value) if isinstance(value, (int, float)) else "-"


def _render_run(entry: dict) -> list[str]:
    parts = [entry["label"]]
    if entry.get("scenario"):
        ranks = f", {entry['n_ranks']} ranks" if entry.get("n_ranks", 1) > 1 else ""
        parts.append(
            f"({entry['scenario']}, {entry.get('solver')}, "
            f"kernels {entry.get('kernels')}/{entry.get('precision')}{ranks})"
        )
    lines = ["== run " + " ".join(parts) + " =="]
    blocks = entry["blocks"]

    startup = blocks.get("startup")
    if startup:
        lines.append(
            f"Startup: import {_fmt(startup.get('import_s'))} s, "
            f"setup {_fmt(startup.get('setup_s'))} s, "
            f"first cycle {_fmt(startup.get('first_cycle_s'))} s, "
            f"checkpoints {_fmt(startup.get('checkpoint_s'))} s"
            f"  (stepping wall {_fmt(entry.get('wall_s'))} s)"
        )

    speedup = blocks.get("lts_speedup")
    if speedup:
        lines.append("LTS speedup:")
        lines.append(
            f"  theoretical model (vs GTS @ dt_min)   {speedup['theoretical_model']:.2f}x"
        )
        lines.append(
            f"  realized update ratio (vs GTS run)    {speedup['update_ratio']:.2f}x"
            f"  [model predicts {speedup['model_vs_gts_at_lambda_dt']:.2f}x at "
            f"lambda={speedup['lambda']:.2f}]"
        )
        if speedup.get("measured") is not None:
            lines.append(
                f"  measured wall-clock speedup           {speedup['measured']:.2f}x"
                f"  ({speedup['attained_vs_model']:.0%} of the model)"
            )
        else:
            lines.append(
                "  measured wall-clock speedup           - (add a GTS run of the "
                "same scenario to the report)"
            )

    halo = blocks.get("halo")
    if halo:
        lines.extend(render_halo(halo))

    overlap = blocks.get("overlap")
    if overlap:
        lines.append("Overlap efficiency (recv-wait hidden behind interior compute):")
        for rank in overlap["ranks"]:
            lines.append(
                f"  {rank['lane']}: interior {rank['interior_s']:.3g} s, "
                f"exposed wait {rank['exposed_wait_s']:.3g} s"
                f" -> efficiency {rank['efficiency']:.0%}"
            )
        lines.append(f"  all ranks: efficiency {overlap['efficiency']:.0%}")

    imbalance = blocks.get("imbalance")
    if imbalance:
        lines.append("Load imbalance across ranks:")
        for rank in imbalance["ranks"]:
            lines.append(
                f"  {rank['lane']}: busy {rank['busy_s']:.3g} s, "
                f"{rank['element_updates']:.0f} updates"
            )
        lines.append(
            f"  busy max/mean {imbalance['busy_imbalance']:.2f}, "
            f"updates max/mean {imbalance['update_imbalance']:.2f}"
            f" (busiest: {imbalance['busiest']})"
        )

    stages = blocks.get("kernel_stages")
    if stages:
        lines.append("Kernel stages (FLOP model vs measured region time):")
        for stage, row in stages.items():
            lines.append(
                f"  {stage:<17} {row['seconds']:8.3g} s  "
                f"{row['gflop']:8.3g} GFLOP  {row['gflop_per_s']:8.3g} GFLOP/s"
            )

    memory = blocks.get("memory")
    if memory:
        lines.append(
            f"Memory owners: {memory['total_mb']:.1f} MiB of peak RSS "
            f"{_fmt(memory.get('peak_rss_mb'), '{:.0f}')} MiB"
        )
        for owner, mib in memory["owned_mb"].items():
            lines.append(f"  {owner:<17} {mib:8.1f} MiB")

    ledger = blocks.get("ledger")
    if ledger:
        status = "complete" if ledger["complete"] else "PARTIAL (run did not finish)"
        lines.append(
            f"Ledger: {ledger['cycles']} cycle records in {ledger['segments']} "
            f"segment(s), {status}"
        )
        if ledger.get("updates_per_s"):
            rates = ledger["updates_per_s"]
            lines.append(
                f"  t {_fmt(ledger.get('t'))} s, wall {_fmt(ledger.get('wall_s'))} s, "
                f"updates/s mean {rates['mean']:.3g} "
                f"(min {rates['min']:.3g}, max {rates['max']:.3g}), "
                f"peak RSS {_fmt(ledger.get('peak_rss_mb'), '{:.0f}')} MiB"
            )
    return lines


def render_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_report`'s payload."""
    lines: list[str] = []
    for entry in report["runs"]:
        lines.extend(_render_run(entry))
        lines.append("")
    comparison = report.get("comparison")
    if comparison:
        lines.append(f"== comparison (baseline: {comparison['baseline']}) ==")
        header = (
            f"{'run':<24} {'solver':<10} {'kernels':<12} {'wall_s':>9} "
            f"{'updates/s':>11} {'speedup':>8}"
        )
        lines.append(header)
        for row in comparison["rows"]:
            kernels = f"{row['kernels']}/{row['precision']}"
            speedup = (
                f"{row['speedup_vs_first']:.2f}x"
                if row.get("speedup_vs_first")
                else ("base" if row["label"] == comparison["baseline"] else "-")
            )
            note = "" if row["comparable"] else "  (different scenario!)"
            lines.append(
                f"{row['label']:<24} {str(row['solver']):<10} {kernels:<12} "
                f"{_fmt(row['wall_s'], '{:9.3g}')} "
                f"{_fmt(row['element_updates_per_s'], '{:11.3g}')} {speedup:>8}{note}"
            )
    return "\n".join(lines).rstrip() + "\n"
