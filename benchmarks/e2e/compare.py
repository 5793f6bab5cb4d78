"""``run.py --compare A.json B.json``: judge two result sets of full runs.

One row per (workload, end-to-end metric): both medians, how much worse B
is than A in the metric's own direction, the bound ``BENCHMARK.json`` fixes,
and a verdict --

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is, and the run-to-run spread is within the bound;
* ``unresolved``  the spread of either side is wider than the bound, so the
                  pair cannot say "unchanged" (nor "worse").

Exact counts (element updates, halo bytes, flop per update) must be equal.
Two sets from different hosts are refused: normalised seconds are
comparable across *moments* of one host, not across machines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from probe import relative_spread

__all__ = ["HOST_KEYS", "EXACT_COUNTS", "worse_by", "verdict", "compare", "main"]

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

HOST_KEYS = ("cpu_count", "numpy", "blas", "python", "platform")
EXACT_COUNTS = ("core.updates_per_cycle", "parallel.halo_bytes_per_cycle", "kernels.flop_per_update")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative:
    better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(worse: float, spread: float, bound: float) -> str:
    if spread > bound:
        return "unresolved"
    return "worse" if worse > bound else "ok"


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows and exact-count mismatches of two result sets."""
    rows, mismatches = [], []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in end_to_end:
            ea, eb = wa["end_to_end"].get(metric["name"]), wb["end_to_end"].get(metric["name"])
            if ea is None or eb is None:
                continue
            worse = worse_by(ea["median"], eb["median"], metric["better"])
            spread = max(relative_spread(ea["values"]), relative_spread(eb["values"]))
            rows.append({
                "workload": name, "metric": metric["name"], "unit": ea["unit"],
                "a": ea["median"], "b": eb["median"], "worse_by": worse, "spread": spread,
                "bound": metric["bound"], "verdict": verdict(worse, spread, metric["bound"]),
            })
        for count in EXACT_COUNTS:
            ca, cb = wa["counts"].get(count), wb["counts"].get(count)
            if ca != cb:
                mismatches.append(f"{name}: {count} {ca} != {cb}")
    return rows, mismatches


def main(path_a: str, path_b: str) -> int:
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    differing = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differing:
        print(f"compare: refused: host blocks differ on {', '.join(differing)}", file=sys.stderr)
        return 2
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows, mismatches = compare(a, b, end_to_end)
    print(f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:14s} {row['a']:12.5g} {row['b']:12.5g} "
              f"{row['worse_by']:+9.1%} {row['spread']:7.1%} {row['bound']:6.0%}  "
              f"{row['verdict']}  [{row['unit']}]")
    for mismatch in mismatches:
        print(f"count mismatch: {mismatch}")
    return 1 if mismatches or any(row["verdict"] == "worse" for row in rows) else 0
