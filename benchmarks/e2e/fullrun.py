"""Full mode of ``run.py``: every workload, round-robin, then a traced pass.

Each (workload, round) is one driver-mode run in a process of its own, so a
workload's peak RSS, worker processes and lazily built caches never leak
into the next; visiting the workloads round-robin makes a slow minute of the
host hit every workload instead of one.  Per-cycle samples are pooled across
rounds; every end-to-end metric keeps one value per round so ``--compare``
can see the run-to-run spread.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import workloads as wl
from compare import EXACT_COUNTS
from layers import PER_LAYER
from probe import PROBE_REF_S, pooled_percentiles, relative_spread

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
RUN_TIMEOUT_S = 180


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One driver-mode run in a child process; returns its detail record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark: run_failed: {name} (trace {trace}) exited {done.returncode}")
    return json.loads((RESULTS / f"run_{name}_t{trace}.json").read_text())


def derived(workloads: dict) -> dict:
    """Cross-workload ratios, each with its base."""
    def p50(name):
        return workloads[name]["end_to_end"]["cycle_s_p50"]["median"]

    out = {}
    if {"loh3-m-lts", "loh3-m-gts"} <= set(workloads):
        out["core.realized_speedup"] = {
            "value": p50("loh3-m-gts") / p50("loh3-m-lts"),
            "base": "cycle_s_p50(loh3-m-gts) / cycle_s_p50(loh3-m-lts), same macro_dt",
        }
    if {"loh3-m-lts", "loh3-m-2rank"} <= set(workloads):
        out["distributed.speedup_vs_1rank"] = {
            "value": p50("loh3-m-lts") / p50("loh3-m-2rank"),
            "base": "cycle_s_p50(loh3-m-lts) / cycle_s_p50(loh3-m-2rank)",
        }
    return out


def main(args) -> int:
    seconds = args.seconds if args.seconds is not None else wl.NOMINAL_SECONDS
    host = harness.host_block()
    if host["load_avg"][0] > host["cpu_count"]:
        raise SystemExit(
            f"benchmark: host_busy: 1-minute load average {host['load_avg'][0]:.2f} exceeds "
            f"cpu_count {host['cpu_count']}; numbers would measure the neighbours"
        )
    names = [n for n in wl.WORKLOAD_NAMES if wl.WORKLOADS[n]["processes"] <= host["cpu_count"]]
    for skipped in set(wl.WORKLOAD_NAMES) - set(names):
        print(f"skipped {skipped}: needs {wl.WORKLOADS[skipped]['processes']} processes, "
              f"host has {host['cpu_count']} core(s)", file=sys.stderr)

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for round_index in range(args.rounds):
        for name in names:
            print(f"round {round_index + 1}/{args.rounds}  {name}", file=sys.stderr)
            runs[name].append(one_run(name, args.seed, seconds, 0))
    traced = {}
    for name in names:
        print(f"traced pass  {name}", file=sys.stderr)
        traced[name] = one_run(name, args.seed, seconds, 1)

    failures = []
    workloads = {}
    for name in names:
        details = runs[name] + [traced[name]]
        for detail in details:
            failures += [f"{name}: {f['check']}: {f['detail']}" for f in detail["failures"]]
        attempted = sum(d["attempted"] for d in details)
        failed = sum(d["failed"] for d in details)
        end_to_end = {}
        for metric, unit in harness.END_TO_END.items():
            values = [d["metrics"][metric]["value"] for d in runs[name]]
            end_to_end[metric] = {
                "median": statistics.median(values), "values": values, "unit": unit,
                "spread": relative_spread(values),
            }
        pooled = [s for d in runs[name] for s in d["normalised"].get("cycle", [])]
        per_layer = traced[name]["metrics"]
        counts = dict(runs[name][0]["counts"])
        counts.update({k: per_layer[k]["value"] for k in EXACT_COUNTS if per_layer[k]["value"]})
        workloads[name] = {
            "why": wl.WORKLOADS[name]["why"],
            "processes": wl.WORKLOADS[name]["processes"],
            "operations_per_run": runs[name][0]["operations"],
            "end_to_end": end_to_end,
            "pooled_cycle_s": pooled_percentiles(pooled) if pooled else None,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "rel_err_vs_ref": max(d["rel_err_vs_ref"] for d in details),
            "per_layer": per_layer,
            "counts": counts,
            "spec_sha256": runs[name][0]["spec_sha256"],
            "raw": [d["raw"] for d in runs[name]],
            "host_per_run": [
                {k: d["host"][k] for k in ("load_avg", "load_avg_end", "probe_s_p50", "probe_spread")}
                for d in runs[name]
            ],
        }

    host["load_avg_end"] = list(os.getloadavg())
    result = {
        "host": host,
        "probe_ref_s": PROBE_REF_S,
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": seconds,
        "closed_loop": "one client: the next operation is issued when the previous returned",
        "workloads": workloads,
        "derived": derived(workloads),
    }
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    for name, entry in workloads.items():
        print(f"\n== {name}: {entry['why']}")
        print(f"   operations {entry['attempted']} attempted, {entry['failed']} failed "
              f"(failed_frac {entry['failed_frac']:.3g}); rel_err_vs_ref {entry['rel_err_vs_ref']:.3g}")
        for metric, value in entry["end_to_end"].items():
            print(f"   {metric:42s} {value['median']:14.6g} {value['unit']:8s} "
                  f"spread {value['spread']:.1%} over {len(value['values'])} run(s)")
        pooled = entry["pooled_cycle_s"]
        if pooled:
            tail = (f", p{pooled['tail_q']:.0f} {pooled['tail']:.6g} s" if pooled["tail_q"]
                    else ", tail percentile withheld (< 40 samples)")
            print(f"   pooled cycles: n {pooled['n']}, p50 {pooled['p50']:.6g} s{tail}")
        for metric in PER_LAYER:
            value = entry["per_layer"][metric]
            print(f"   {metric:42s} {value['value']:14.6g} {value['unit']}")
    for metric, value in result["derived"].items():
        print(f"\n{metric} {value['value']:.4g}  ({value['base']})")
    print(f"\nresults written to {out}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0
