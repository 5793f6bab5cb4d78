#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, seven named workloads.

Driver mode (what ``BENCHMARK.json`` names; one workload, one run)::

    python3 benchmarks/e2e/run.py --workload loh3-m-lts --seed 0 --seconds 5 --trace 0

prints, as the last line of stdout, one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Full mode (no ``--workload``) visits every workload round-robin for
``--rounds`` rounds, pools the per-cycle samples, makes one traced pass per
workload, prints every metric by name with its unit and writes the result
set under ``benchmarks/e2e/results/``; it exits non-zero naming the check
if any output is wrong.  ``--compare A.json B.json`` judges two result sets.

See ``benchmarks/e2e/README.md`` for the method.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, before numpy loads: rank workers, sweep
# workers and the CLI subprocess inherit it.  With the default (2 threads)
# a 2-rank run puts 4 threads on 2 cores and the harness would measure the
# scheduler.  Knobs that change what the program does are scrubbed; every
# spec names kernels/precision explicitly instead.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
for _name in ("REPRO_KERNELS", "REPRO_HALO_TIMEOUT_S", "REPRO_TRACEMALLOC", "REPRO_SWEEP_KILL"):
    os.environ.pop(_name, None)

import argparse
import json
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def _need_program() -> None:
    """The benchmark measures the program in this checkout; without its
    sources there is nothing to run (and no result is printed)."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload once (driver mode)")
    parser.add_argument("--seed", type=int, default=0, help="mesh seed of every workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run at this host's nominal speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 makes the traced pass and prints per-layer metrics")
    parser.add_argument("--rounds", type=int, default=2, help="full mode: round-robin rounds")
    parser.add_argument("--out", help="full mode: result file (default results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets and exit non-zero on 'worse'")
    return parser


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload in this process; returns its detail record."""
    import harness
    from probe import PROBE_REF_S

    started = time.time()
    host = harness.host_block()
    if trace:
        import layers

        result, metrics, spans = layers.traced_run(name, seed, seconds)
    else:
        result = harness.run_workload(name, seed, seconds)
        metrics = harness.end_to_end_metrics(result)
        spans = None
    host["load_avg_end"] = list(os.getloadavg())
    checks = result.checks
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "operations": result.n_ops,
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "rel_err_vs_ref": checks.rel_err,
        "metrics": metrics,
        "counts": result.counts,
        "raw": dict(
            {label: [raw for raw, _ in pairs] for label, pairs in result.times.items()},
            probe_s=result.probe.samples,
            probe_readings=result.probe.readings,
        ),
        "normalised": {label: [n for _, n in pairs] for label, pairs in result.times.items()},
        "host": dict(host, probe_ref_s=PROBE_REF_S, **result.probe.summary()),
        "spec_sha256": harness.spec_hashes(result),
        "started_at": started,
        "wall_s": time.time() - started,
    }
    harness.cleanup(result)
    if spans is not None:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{name}.json").write_text(json.dumps(spans))
    return detail


def driver_mode(args) -> int:
    import workloads as wl

    seconds = args.seconds if args.seconds is not None else wl.NOMINAL_SECONDS
    detail = run_once(args.workload, args.seed, seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"run_{args.workload}_t{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for failure in detail["failures"]:
        print(f"FAILED {failure['check']}: {failure['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(*args.compare)
    _need_program()
    if args.workload:
        return driver_mode(args)
    import fullrun

    return fullrun.main(args)


if __name__ == "__main__":
    sys.exit(main())
