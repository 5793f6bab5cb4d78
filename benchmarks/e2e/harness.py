"""One run of one workload: timed operations, correctness checks and the
end-to-end metrics.

Closed loop, one client: a single driver issues the next setup / macro
cycle / sweep / CLI invocation only after the previous one returned.  Every
timed operation is bracketed by the host probe (see :mod:`probe`); gated
numbers are probe-normalised seconds, raw walls are kept beside them.

With a :class:`~tracing.SpanRecorder` the same loop becomes the traced pass:
one setup instead of several, and the second half of the timed cycles runs
with the layer wrappers installed (see :mod:`layers`).
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.observability import events
from repro.preprocessing.cache import PreprocessingCache, warm_preprocessing
from repro.scenarios import ScenarioRunner, ScenarioSpec, make_runner, write_outputs
from repro.scenarios.runner import peak_memory
from repro.sweep import SweepSpec, run_sweep

import workloads as wl
from probe import HostProbe, percentile
from tracing import NullRecorder

REPO_ROOT = Path(__file__).resolve().parents[2]
WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: the repo's fast tolerance tier: fast/f64 against the ref/f64 oracle
REL_ERR_LIMIT = 1e-9

#: end-to-end metric name -> unit (the order is the print order)
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cycle_s_p50": "s",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

SWEEP_WORKERS = 2
CLI_TIMEOUT_S = 120


class Checks:
    """Operations attempted / failed, with the named check that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.rel_err = 0.0

    def fail(self, check: str, detail: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append({"check": check, "detail": detail})

    def run(self, label: str, operation):
        """Attempt one operation; a raise counts it failed.  Returns
        ``(ok, result)``."""
        self.attempted += 1
        try:
            return True, operation()
        except Exception as error:  # the boundary that must keep reporting
            self.fail("operation_raised", f"{label}: {type(error).__name__}: {error}")
            return False, None

    def compare(self, label: str, value: np.ndarray, reference: np.ndarray) -> None:
        """``max|value - ref| / max|ref|`` against the fast-tier limit."""
        scale = float(np.max(np.abs(reference)))
        err = float(np.max(np.abs(value - reference))) / scale if scale > 0 else float("inf")
        self.rel_err = max(self.rel_err, err)
        if not err <= REL_ERR_LIMIT:
            self.fail("rel_err_vs_ref", f"{label}: {err:.3e} > {REL_ERR_LIMIT:.0e}")

    def finite(self, label: str, *arrays) -> None:
        if not all(np.all(np.isfinite(a)) for a in arrays):
            self.fail("finite_state", f"{label}: non-finite values")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class RunResult:
    """Everything one run measured (raw and normalised) plus its context."""

    def __init__(self, name: str, seed: int, n_ops: int):
        self.name = name
        self.seed = seed
        self.n_ops = n_ops
        self.checks = Checks()
        self.probe = HostProbe()
        #: label -> list of (raw_s, normalised_s)
        self.times: dict[str, list[tuple[float, float]]] = {}
        self.counts: dict[str, float] = {}
        self.context: dict = {}

    def timed(self, label: str, operation, span=nullcontext()):
        """Run ``operation`` between two probe readings and keep its (raw,
        normalised) wall under ``label``; ``span`` (a context manager) is
        entered around the operation alone, not the probe."""
        def spanned():
            with span:
                return operation()

        result, raw, norm = self.probe.timed(spanned)
        self.times.setdefault(label, []).append((raw, norm))
        return result

    def norm(self, label: str) -> list[float]:
        return [n for _, n in self.times.get(label, [])]

    def raw(self, label: str) -> list[float]:
        return [r for r, _ in self.times.get(label, [])]


# ---------------------------------------------------------------------------
# host block and guards
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """The thread count the OpenBLAS mapped into this process reports (None
    where no OpenBLAS is mapped or ``/proc`` is not there to say)."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_block() -> dict:
    """Host facts that decide whether two result sets are comparable: the
    program's own ledger stamp plus what this benchmark pins."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    block = events.host_block()
    del block["pid"]
    block.update(
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
        blas_threads=blas_threads(),
        thread_env={
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        load_avg=list(os.getloadavg()),
        git_sha=events.git_revision(),
    )
    return block


def leftovers() -> dict:
    """Worker processes and shared-memory segments still around (checked and
    reported after a workload, never cleaned silently)."""
    return {
        "processes": [p.pid for p in multiprocessing.active_children()],
        "shm_segments": sorted(glob.glob("/dev/shm/repro-*")),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child, MiB."""
    memory = peak_memory()
    return memory["peak_rss_mb"] + memory.get("peak_rss_children_mb", 0.0)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def oracle_runner(spec: ScenarioSpec, setup=None, clustering=None) -> ScenarioRunner:
    """The ``ref``/f64 single-rank runner of the same problem; built from the
    workload's own ``ScenarioSetup`` when given, so only execution differs."""
    ref_spec = replace(
        spec,
        solver=replace(spec.solver, kernels="ref", precision="f64", n_ranks=1, backend="serial"),
        preprocessing=replace(spec.preprocessing, reorder=False, n_partitions=1),
        output=replace(spec.output, telemetry=False, trace=False, events=None, progress=False),
    )
    if setup is None:
        return make_runner(ref_spec)
    return ScenarioRunner(ref_spec, setup=setup, clustering=clustering)


def updates_per_cycle(runner) -> int:
    """Element updates one macro cycle must perform (the clustering's model)."""
    clustering = runner.clustering
    steps = 2 ** (clustering.n_clusters - 1 - np.arange(clustering.n_clusters))
    if runner.spec.solver.kind == "gts":
        return int(runner.setup.mesh.n_elements * steps[0])
    return int(np.sum(clustering.counts * steps))


def release(runner) -> None:
    """Stop a runner's rank workers (no-op for single-rank runners)."""
    close = getattr(getattr(runner, "engine", None), "close", None)
    if close is not None:
        close()


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------


def step_checked(result: RunResult, runner, label: str, expected_updates: int) -> bool:
    """One timed macro cycle plus its update-count check."""
    before = int(runner.solver.n_element_updates)
    ok, _ = result.checks.run(label, lambda: result.timed(label, runner.step_cycle))
    if ok and int(runner.solver.n_element_updates) - before != expected_updates:
        result.checks.fail(
            "updates_per_cycle",
            f"{label}: {int(runner.solver.n_element_updates) - before} != {expected_updates}",
        )
    return ok


def run_solver(result: RunResult, generated: dict, work: Path, rec, traced_cycles):
    """Setup repeats, warm-up, timed cycles, outputs, oracle.

    A recording ``rec`` switches to the traced pass: a single setup, and
    ``traced_cycles(result, runner, n, expected_updates)`` runs the second
    half of the timed cycles (see :mod:`layers`)."""
    entry = wl.WORKLOADS[result.name]
    checks = result.checks
    spec_text = json.dumps(generated["spec"])
    spec = result.timed("spec_load", lambda: ScenarioSpec.from_json(spec_text))
    span = rec.span

    # -- setup: spec -> runner ready to step, repeated -----------------
    cached = bool(entry.get("cache"))
    labels = ["setup"] * (1 if rec.recording else entry["setups"]) + ["setup_warm"] * cached
    runner = None
    for index, label in enumerate(labels):
        if runner is not None:
            release(runner)
        # every cold setup fills a fresh cache; the warm one re-reads the last
        cache_dir = work / f"cache{index if label == 'setup' else index - 1}"
        cache = PreprocessingCache(cache_dir) if cached else None
        rec.ident = (result.name, label, index)
        ok, runner = checks.run(label, lambda: result.timed(
            label, lambda: make_runner(spec, cache=cache), span("scenarios.make_runner")
        ))
        if not ok:
            return
        if cache is not None:
            result.context[f"cache_{label}"] = cache.snapshot()
            result.context["cache_dir"] = cache_dir
    result.context.update(runner=runner, spec=spec, disc=runner.setup.disc)
    expected = updates_per_cycle(runner)
    result.counts["core.updates_per_cycle"] = expected

    try:
        # -- warm-up cycles (lazy kernel plans, worker page-in) ---------
        checked = None
        for cycle in range(entry["warmup"]):
            if not step_checked(result, runner, "warmup", expected):
                return
            if cycle + 1 == entry["check_cycles"]:
                checked = np.array(runner.solver.dofs, copy=True)  # outside the timed region

        # -- timed cycles -----------------------------------------------
        n_plain = max(1, result.n_ops // 2) if rec.recording else result.n_ops
        for cycle in range(n_plain):
            if not step_checked(result, runner, "cycle", expected):
                return
        if rec.recording:
            traced_cycles(result, runner, max(1, result.n_ops - n_plain), expected)

        # -- outputs ----------------------------------------------------
        out_dir = work / "out"
        rec.ident = (result.name, "outputs", 0)

        def outputs():
            summary = runner.summary()
            write_outputs(runner, out_dir, summary=summary)
            return summary

        ok, summary = checks.run(
            "outputs", lambda: result.timed("outputs", outputs, span("scenarios.outputs"))
        )
        if not ok:
            return
        result.context.update(summary=summary, out_dir=out_dir)
        final = np.asarray(runner.solver.dofs)
    finally:
        with span("distributed.close"):
            release(runner)

    # -- checks on the finished run -------------------------------------
    seismograms = [r.seismogram()[1] for r in runner.receivers.receivers] if runner.receivers else []
    checks.finite("final state", final, *seismograms)
    comm = summary.get("comm")
    if comm is not None:
        result.counts["parallel.halo_bytes_per_cycle"] = comm["measured_bytes_per_cycle"]
        result.counts["parallel.model_bytes_per_cycle"] = comm["model"]["total_bytes"]
        if comm["measured_bytes_per_cycle"] != comm["model"]["total_bytes"]:
            checks.fail(
                "halo_bytes_model",
                f"{comm['measured_bytes_per_cycle']} != {comm['model']['total_bytes']}",
            )
    oracle = oracle_runner(spec, runner.setup, runner.clustering)
    start = time.perf_counter()
    for _ in range(entry["check_cycles"]):
        oracle.step_cycle()
    result.context["ref_cycle_s"] = (time.perf_counter() - start) / entry["check_cycles"]
    checks.compare(f"dofs after {entry['check_cycles']} cycle(s)", checked, oracle.solver.dofs)


# ---------------------------------------------------------------------------
# sweep workload
# ---------------------------------------------------------------------------


def load_seismogram(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def run_sweep_workload(result: RunResult, generated: dict, work: Path, rec, traced_cycles):
    entry = wl.WORKLOADS[result.name]
    checks = result.checks
    sweep = SweepSpec.from_dict(generated["sweep"])
    span = rec.span
    members = result.timed("expand", sweep.expand, span("sweep.expand"))
    result.context.update(sweep=sweep, members=members)

    # -- setup: the prewarm every cold sweep pays once, repeated --------
    for index in range(1 if rec.recording else entry["setups"]):
        scratch = PreprocessingCache(work / f"prewarm{index}")
        result.timed(
            "setup", lambda: warm_preprocessing(members[0].spec, scratch), span("sweep.prewarm")
        )

    # -- operations: whole sweeps, the first on a cold cache ------------
    tallies = []
    for index in range(result.n_ops):
        out_dir = work / f"sweep{index}"
        rec.ident = (result.name, "sweep", index)
        tally = result.timed(
            "sweep",
            lambda: run_sweep(
                sweep, out_dir, workers=SWEEP_WORKERS, cache_dir=work / "cache", fuse=True
            ),
            span("sweep.run_sweep"),
        )
        tallies.append(tally)
        checks.attempted += len(members)
        not_done = len(members) - tally["done"]
        if not_done:
            checks.fail("operation_raised", f"sweep {index}: {not_done} member(s) not done", not_done)
    result.context.update(tallies=tallies, out_dir=work / "sweep0")

    # -- checks ---------------------------------------------------------
    total_updates = 0
    for member in members:
        member_dir = work / "sweep0" / "members" / member.member_id
        tables = [load_seismogram(p) for p in sorted(member_dir.glob("seismogram_*.csv"))]
        if not tables:
            checks.fail("finite_state", f"member {member.member_id}: no seismograms written")
            continue
        checks.finite(f"member {member.member_id}", *tables)
        total_updates += json.loads((member_dir / "run_summary.json").read_text())["element_updates"]
    result.counts["sweep.element_updates"] = total_updates
    # member 0's seismograms against a standalone ref run, relative to peak
    oracle = oracle_runner(members[0].spec)
    start = time.perf_counter()
    oracle.run()
    result.context["ref_cycle_s"] = (time.perf_counter() - start) / oracle.cycles_done
    result.context["disc"] = oracle.setup.disc
    member_dir = work / "sweep0" / "members" / members[0].member_id
    for receiver in oracle.receivers.receivers:
        times, values = receiver.seismogram()
        written = load_seismogram(member_dir / f"seismogram_{receiver.name}.csv")
        checks.compare(f"member 0 seismogram {receiver.name}", written[:, 1:], np.asarray(values))


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def cli_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def run_cli(result: RunResult, generated: dict, work: Path, rec, traced_cycles):
    checks = result.checks
    spec = ScenarioSpec.from_dict(generated["spec"])
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(generated["spec"]))
    span = rec.span

    oracle = oracle_runner(spec)
    start = time.perf_counter()
    oracle.run()
    result.context["ref_cycle_s"] = (time.perf_counter() - start) / oracle.cycles_done
    result.context["disc"] = oracle.setup.disc
    expected_updates = int(oracle.solver.n_element_updates)
    result.counts["core.updates_per_cycle"] = expected_updates // oracle.cycles_done

    summaries = []
    for index in range(result.n_ops):
        out_dir = work / f"cli{index}"
        command = [
            sys.executable, "-m", "repro", "run", "--spec", str(spec_path),
            "--output-dir", str(out_dir), "--checkpoint", str(out_dir / "run.ckpt.npz"),
            "--events", str(out_dir / "events.jsonl"), "--quiet",
        ]
        rec.ident = (result.name, "invocation", index)

        def invoke():
            subprocess.run(
                command, env=cli_environment(), cwd=work, check=True, timeout=CLI_TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            return json.loads((out_dir / "run_summary.json").read_text())

        ok, summary = checks.run(
            f"invocation {index}",
            lambda: result.timed("cli", invoke, span("scenarios.cli_invocation")),
        )
        if not ok:
            continue
        summaries.append(summary)
        if summary["element_updates"] != expected_updates:
            checks.fail("updates_per_cycle", f"{summary['element_updates']} != {expected_updates}")
        with np.load(out_dir / "run.ckpt.npz") as data:
            dofs = data["dofs"]
        tables = [load_seismogram(p) for p in sorted(out_dir.glob("seismogram_*.csv"))]
        checks.finite(f"invocation {index}", dofs, *tables)
        checks.compare(f"invocation {index} checkpoint dofs", dofs, oracle.solver.dofs)
    result.context.update(summaries=summaries, spec=spec, out_dir=work / "cli0")


# ---------------------------------------------------------------------------
# entry point and metrics
# ---------------------------------------------------------------------------

_DRIVERS = {"solver": run_solver, "sweep": run_sweep_workload, "cli": run_cli}


def run_workload(
    name: str, seed: int, seconds: float, rec=NullRecorder(), traced_cycles=None
) -> RunResult:
    """Run one workload once -- untraced by default; :mod:`layers` passes a
    recording ``rec`` and its ``traced_cycles``.  Refuses (ValueError) a
    workload that needs more processes than the host has cores: such a run
    would measure the scheduler."""
    entry = wl.WORKLOADS[name]
    cpus = os.cpu_count() or 1
    if entry["processes"] > cpus:
        raise ValueError(
            f"workload {name!r} needs {entry['processes']} processes but the host has "
            f"{cpus} core(s): wall-clock numbers would measure the scheduler"
        )
    result = RunResult(name, seed, wl.n_operations(name, seconds))
    generated = wl.generate(name, seed)
    result.context["generated"] = generated
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result.context["work"] = work
    rec.ident = (name, "run", 0)
    with rec.span("bench.run"):
        _DRIVERS[entry["kind"]](result, generated, work, rec, traced_cycles)
    left = leftovers()
    if left["processes"] or left["shm_segments"]:
        result.checks.fail("leftovers", json.dumps(left))
    return result


def spec_hashes(result: RunResult) -> dict:
    """Content hash of the spec(s) this run executed (``provenance_block``'s key)."""
    generated = result.context["generated"]
    if "spec" in generated:
        return {result.name: events.spec_content_hash(ScenarioSpec.from_dict(generated["spec"]))}
    return {m.member_id: events.spec_content_hash(m.spec) for m in result.context.get("members", ())}


def cleanup(result: RunResult) -> None:
    """Remove the run's work directory (outputs, caches, sweep trees)."""
    shutil.rmtree(result.context["work"], ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run is using it


def end_to_end_metrics(result: RunResult) -> dict:
    """The five gated metrics of one finished run (probe-normalised)."""
    kind = wl.WORKLOADS[result.name]["kind"]
    counts = result.counts
    if kind == "solver":
        setup_s = statistics.median(result.norm("setup"))
        cycles = result.norm("cycle")
        # the steady-state run: neither setup (gated by setup_s) nor the
        # lazy first cycle, whose run-to-run spread on this host (25-85 %)
        # no bound could hold; cli-s-run's run_s is where that one is gated
        run_s = sum(cycles) + sum(result.norm("outputs"))
        cycle_s = percentile(cycles, 50.0)
        updates_per_s = counts["core.updates_per_cycle"] * len(cycles) / sum(cycles)
    elif kind == "sweep":
        setup_s = statistics.median(result.norm("setup"))
        sweeps = result.norm("sweep")
        member_cycles = len(result.context["members"]) * wl.SWEEP_MEMBER_CYCLES
        run_s = sum(sweeps)
        cycle_s = percentile(sweeps, 50.0) / member_cycles
        updates_per_s = counts["sweep.element_updates"] * len(sweeps) / sum(sweeps)
    else:
        walls = result.times["cli"]
        summaries = result.context["summaries"]
        # the share of each invocation spent before/after stepping, in
        # normalised seconds: (raw - wall_s) scaled like the invocation
        setup_s = statistics.median(
            norm * (raw - s["wall_s"]) / raw for (raw, norm), s in zip(walls, summaries)
        )
        run_s = statistics.median(result.norm("cli"))
        cycle_s = statistics.median(
            norm * s["wall_s"] / raw / s["cycles"] for (raw, norm), s in zip(walls, summaries)
        )
        updates_per_s = summaries[0]["element_updates"] / run_s
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cycle_s_p50": cycle_s,
        "updates_per_s": updates_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
