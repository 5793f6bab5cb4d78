"""The traced pass: per-layer metrics, one layer per ``src/repro`` package.

Spans are recorded from here, around the calls into each layer's public
callables (:mod:`tracing`); nothing under ``src/`` is edited.  Where wrappers
cannot reach -- rank worker processes, sweep workers, the CLI subprocess --
the run is made with the program's own ``telemetry`` switched on and the
already-public ``summary["telemetry"]`` block is read instead.

Every metric is reported for every workload; one that a workload does not
exercise reads 0.  Counts (calls, bytes, updates, flop) repeat exactly and
are what a later change may cite; seconds are raw self times of one short
traced pass and explain *where* an end-to-end delta went, they are not
gated.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import repro.distributed.runner as distributed_runner
import repro.scenarios.runner as scenario_runner
from repro.basis.reference_element import ReferenceElement
from repro.core import ClusteredLtsSolver, GlobalTimeSteppingSolver
from repro.distributed.process_engine import ProcessLtsEngine
from repro.equations import MaterialTable
from repro.kernels import Discretization
from repro.kernels.backend import make_backend
from repro.kernels.flops import count_flops_per_element_update
from repro.mesh import TetMesh
from repro.observability import analyze_run
from repro.observability.analysis import imbalance_block
from repro.parallel import ProcessCommunicator
from repro.preprocessing.cache import PreprocessingCache
from repro.preprocessing.pipeline import PreprocessingPipeline
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.source.receivers import ReceiverSet
from repro.sweep import read_manifest

import harness
import workloads as wl
from probe import percentile
from tracing import SpanRecorder

#: per-layer metric name -> unit
PER_LAYER = {
    # kernels: self seconds per macro cycle, work counts, achieved rate
    "kernels.time_s": "s", "kernels.integrate_s": "s", "kernels.traces_s": "s",
    "kernels.volume_s": "s", "kernels.surface_local_s": "s", "kernels.face_coeffs_s": "s",
    "kernels.surface_neighbor_s": "s", "kernels.calls": "count",
    "kernels.elements_per_call_p50": "count", "kernels.flop_per_update": "count",
    "kernels.gflops": "GFLOP/s", "kernels.surface_gflops": "GFLOP/s",
    "kernels.roofline_frac": "ratio",
    # kernels: fixed costs
    "kernels.dispatch_us": "us", "kernels.lazy_warm_s": "s", "kernels.assemble_s": "s",
    # core
    "core.buffers_fill_s": "s", "core.buffers_gather_s": "s", "core.schedule_self_s": "s",
    "core.solver_build_s": "s", "core.clustering_s": "s", "core.updates_per_cycle": "count",
    "core.micro_steps_per_cycle": "count", "core.model_speedup": "ratio",
    "core.sim_s_per_s": "s/s",
    # source
    "source.inject_s": "s", "source.record_s": "s", "source.receivers_build_s": "s",
    # mesh, basis, equations
    "mesh.generate_s": "s", "mesh.permute_s": "s", "mesh.n_elements": "count",
    "basis.build_s": "s", "equations.materials_s": "s",
    # preprocessing
    "preprocessing.pipeline_s": "s", "preprocessing.partition_s": "s",
    "preprocessing.permutation_s": "s", "preprocessing.cache_store_s": "s",
    "preprocessing.cache_load_s": "s", "preprocessing.cache_bytes": "B",
    "preprocessing.cache_hits": "count", "preprocessing.cache_misses": "count",
    "preprocessing.setup_warm_s": "s",
    # parallel
    "parallel.partition_s": "s", "parallel.halo_bytes_per_cycle": "B",
    "parallel.halo_msgs_per_cycle": "count", "parallel.model_bytes_per_cycle": "B",
    "parallel.rtt_us": "us", "parallel.mb_s": "MB/s",
    # distributed
    "distributed.engine_build_s": "s", "distributed.close_s": "s",
    "distributed.recv_wait_s": "s", "distributed.rank_busy_imbalance": "ratio",
    "distributed.parent_self_s": "s",
    # scenarios
    "scenarios.import_s": "s", "scenarios.spec_load_s": "s", "scenarios.runner_self_s": "s",
    "scenarios.outputs_s": "s", "scenarios.outputs_bytes": "B",
    "scenarios.checkpoint_save_s": "s", "scenarios.checkpoint_load_s": "s",
    "scenarios.checkpoint_bytes": "B",
    # sweep
    "sweep.expand_s": "s", "sweep.prewarm_s": "s", "sweep.member_s_p50": "s",
    "sweep.worker_idle_frac": "ratio", "sweep.fused_groups": "count",
    "sweep.manifest_bytes": "B",
    # observability
    "observability.telemetry_overhead_frac": "ratio",
    "observability.ledger_overhead_frac": "ratio", "observability.coverage": "ratio",
    "observability.report_s": "s",
    # verification, host, the benchmark itself
    "verification.ref_cycle_s": "s", "verification.max_rel_err": "ratio",
    "host.probe_s_p50": "s", "host.probe_spread": "ratio", "host.peak_gflops": "GFLOP/s",
    "host.stream_gb_s": "GB/s",
    "bench.trace_overhead_frac": "ratio", "bench.trace_coverage": "ratio",
}

#: kernel-stage span -> the telemetry region leaf that times the same stage
_KERNEL_STAGES = {
    "kernels.time": "kernel.ck",
    "kernels.integrate": "kernel.integrate",
    "kernels.traces": "kernel.trace",
    "kernels.volume": "kernel.volume",
    "kernels.surface_local": "kernel.surface_local",
    "kernels.face_coeffs": None,  # not a telemetry region: part of "correct"
    "kernels.surface_neighbor": "kernel.surface_neighbor",
}

#: workloads whose traced pass also measures what the program's own
#: telemetry and run ledger cost (most and fewest region entries per second)
_OBSERVABILITY_WORKLOADS = ("loh3-m-lts", "basin-s-lts")


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def setup_targets() -> list[tuple]:
    """Class- and module-level callables of the setup path (installed for
    the whole traced run: they are only reached while a runner is built)."""
    targets = [
        (scenario_runner, "build_setup", "scenarios.build_setup"),
        (scenario_runner, "preprocess_setup", "preprocessing.pipeline"),
        (scenario_runner, "layered_box_mesh", "mesh.generate"),
        (scenario_runner, "optimize_lambda", "core.clustering"),
        (scenario_runner, "derive_clustering", "core.clustering"),
        (MaterialTable, "from_velocity_model", "equations.materials"),
        (Discretization, "__init__", "kernels.assemble"),
        (ReferenceElement, "__init__", "basis.build"),
        (TetMesh, "permuted", "mesh.permute"),
        (ReceiverSet, "__init__", "source.receivers_build"),
        (ClusteredLtsSolver, "__init__", "core.solver_build"),
        (GlobalTimeSteppingSolver, "__init__", "core.solver_build"),
        (PreprocessingPipeline, "derive_clustering", "core.clustering"),
        (PreprocessingPipeline, "derive_partition", "preprocessing.partition"),
        (PreprocessingPipeline, "derive_permutation", "preprocessing.permutation"),
        (distributed_runner, "partition_dual_graph", "parallel.partition"),
        (ProcessLtsEngine, "__init__", "distributed.engine_build"),
    ]
    for stage in ("mesh", "materials", "discretization", "clustering", "partition", "store_partition"):
        targets.append((PreprocessingCache, stage, "preprocessing.cache"))
    return targets


def step_targets(runner) -> list[tuple]:
    """Instance-level callables of one single-rank runner's stepping path."""
    solver = runner.solver
    backend = solver.backend
    batch = lambda args, kwargs: len(args[3])  # local_update(disc, dofs, dt, elements)
    targets = [
        (runner, "step_cycle", "scenarios.step_cycle"),
        (solver, "step_cycle" if hasattr(solver, "step_cycle") else "step", "core.schedule"),
        (backend, "local_update", "kernels.local_update", batch),
        (backend, "compute_time_derivatives", "kernels.time"),
        (backend, "time_integrate", "kernels.integrate"),
        (backend, "project_local_traces", "kernels.traces"),
        (backend, "volume_kernel", "kernels.volume"),
        (backend, "surface_kernel_local", "kernels.surface_local"),
        (backend, "neighbor_face_coefficients", "kernels.face_coeffs"),
        (backend, "surface_kernel_neighbor", "kernels.surface_neighbor"),
    ]
    if hasattr(solver, "buffers"):
        targets += [
            (solver.buffers, "fill", "core.buffers_fill"),
            (solver.buffers, "neighbor_data", "core.buffers_gather"),
        ]
    targets += [(source, "inject", "source.inject") for source in solver.sources]
    if runner.receivers is not None:
        targets += [
            (runner.receivers, "record_elements", "source.record"),
            (runner.receivers, "record_all", "source.record"),
        ]
    return targets


# ---------------------------------------------------------------------------
# the traced half of a solver workload's cycles
# ---------------------------------------------------------------------------


def traced_cycles(rec: SpanRecorder, result, runner, n: int, expected: int) -> None:
    """Run ``n`` macro cycles under the trace (called by ``run_solver``)."""
    if hasattr(runner, "engine"):
        # the kernels run in rank workers: trace through the program's own
        # telemetry on a twin runner over the same setup
        with rec.span("distributed.close"):
            harness.release(runner)  # give the twin the cores
        twin = type(runner)(
            runner.spec.with_overrides(telemetry=True),
            setup=runner.setup, clustering=runner.clustering,
        )
        try:
            harness.step_checked(result, twin, "traced_warmup", expected)
            baseline = twin.summary()["telemetry"]
            with rec.installed([(twin, "step_cycle", "scenarios.step_cycle")]):
                for cycle in range(n):
                    rec.ident = (result.name, "cycle", cycle)
                    harness.step_checked(result, twin, "traced_cycle", expected)
            summary = twin.summary()
        finally:
            harness.release(twin)
        result.context["telemetry_runs"] = [(summary, baseline, n)]
        return
    with rec.installed(step_targets(runner)):
        for cycle in range(n):
            rec.ident = (result.name, "cycle", cycle)
            harness.step_checked(result, runner, "traced_cycle", expected)


# ---------------------------------------------------------------------------
# micro-measurements
# ---------------------------------------------------------------------------


def peak_gflops(n: int = 512, repeats: int = 6) -> float:
    """Best single-thread ``n x n`` dgemm rate of this host, GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


#: triad arrays of 64 MiB each: this host has 4 MiB L2 + 260 MiB L3 shared
#: with its neighbours, so the number is "sustained beyond L2", labelled so
STREAM_ARRAY_BYTES = 64 << 20


def stream_gb_s(repeats: int = 3) -> float:
    """Best triad (``a = b + s * c``) bandwidth, GB/s, 3 x 64 MiB arrays."""
    n = STREAM_ARRAY_BYTES // 8
    b, c = np.ones(n), np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    # multiply reads c writes a; add reads a, b writes a: 5 array passes
    return 5.0 * STREAM_ARRAY_BYTES / best / 1e9


def dispatch_us(spec: ScenarioSpec, disc, dt: float, calls: int = 200) -> float:
    """Microseconds per ``backend.local_update`` on a one-element batch:
    the fixed Python cost every (cluster, micro step) pays."""
    backend = make_backend(spec.solver.kernels)
    workspace = backend.make_workspace()
    dofs = disc.allocate_dofs(n_fused=spec.solver.n_fused)
    elements = np.array([0])
    for _ in range(5):
        backend.local_update(disc, dofs, dt, elements, ws=workspace)
    start = time.perf_counter()
    for _ in range(calls):
        backend.local_update(disc, dofs, dt, elements, ws=workspace)
    return (time.perf_counter() - start) / calls * 1e6


def _echo_rank(inbound, outbound, n_messages: int, rounds: int) -> None:
    comm = ProcessCommunicator(1, 2, inbound, {0: outbound})
    for _ in range(rounds):
        payloads = [comm.recv(0, 1, tag) for tag in range(n_messages)]
        for tag, payload in enumerate(payloads):
            comm.send(payload, 1, 0, tag)
        comm.flush()


def comm_roundtrip(payload_shape, n_messages: int, rounds: int = 20) -> tuple[float, float]:
    """Two-process flush+recv round trip of one micro step's halo batch
    through the public communicator: ``(rtt_us, MB/s both ways)``."""
    ctx = multiprocessing.get_context("fork")
    to_peer, to_self = ctx.Queue(), ctx.Queue()
    peer = ctx.Process(target=_echo_rank, args=(to_peer, to_self, n_messages, rounds + 1), daemon=True)
    peer.start()
    comm = ProcessCommunicator(0, 2, to_self, {1: to_peer}, timeout=30.0)
    payload = np.ones(payload_shape)
    walls = []
    try:
        for _ in range(rounds + 1):
            start = time.perf_counter()
            for tag in range(n_messages):
                comm.send(payload, 0, 1, tag)
            comm.flush()
            for tag in range(n_messages):
                comm.recv(1, 0, tag)
            walls.append(time.perf_counter() - start)
    finally:
        peer.join(timeout=10)
        if peer.is_alive():
            peer.terminate()
            peer.join()
    rtt = statistics.median(walls[1:])  # the first round pays the feeder-thread start
    return rtt * 1e6, 2.0 * n_messages * payload.nbytes / rtt / 1e6


def import_s(repeats: int = 3) -> float:
    """``import repro.scenarios.cli`` minus ``import numpy``, seconds."""
    def wall(statement: str) -> float:
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", statement], env=harness.cli_environment(), check=True)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)

    return wall("import repro.scenarios.cli") - wall("import numpy")


def directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def observability_overheads(result, cycles: int) -> dict:
    """What the program's own telemetry and run ledger cost, from one twin
    run with ``events=`` (which implies telemetry) and no harness wrappers.

    The ledger's ``cycle_wall_s`` brackets only ``step_cycle`` -- that is
    stepping with the phase timers on; what ``run()`` spends beyond those
    walls is the per-cycle record building and flushing."""
    runner = result.context["runner"]
    events = result.context["work"] / "observability.jsonl"
    twin = ScenarioRunner(
        runner.spec.with_overrides(events=str(events), n_cycles=cycles + 1),
        setup=runner.setup, clustering=runner.clustering,
    )
    summary = result.timed("observability", twin.run)
    raw, norm = result.times["observability"][-1]
    host_speed = norm / raw  # normalised seconds per raw second during the twin run
    records = [json.loads(line) for line in events.read_text().splitlines()]
    walls = [r["cycle_wall_s"] for r in records if "cycle_wall_s" in r]
    raw -= walls.pop(0)  # the first cycle pays the twin's lazy warm-up
    plain = percentile(result.norm("cycle"), 50.0)
    start = time.perf_counter()
    analyze_run({"label": "bench", "path": "", "summary": summary, "ledger": None})
    report_s = time.perf_counter() - start
    return {
        "observability.telemetry_overhead_frac": percentile(walls, 50.0) * host_speed / plain - 1.0,
        "observability.ledger_overhead_frac": (raw - sum(walls)) / sum(walls),
        "observability.coverage": summary["telemetry"]["coverage"],
        "observability.report_s": report_s,
    }


# ---------------------------------------------------------------------------
# telemetry-block readers (rank workers, sweep workers, CLI subprocess)
# ---------------------------------------------------------------------------


def region_seconds(regions: dict, leaf: str, baseline: dict | None = None) -> float:
    """Total seconds of every region path ending in ``leaf`` (minus the
    same sum in ``baseline``, a snapshot taken before the measured cycles)."""
    def total(block):
        return sum(
            entry["total_s"] for path, entry in (block or {}).items()
            if path.split("/")[-1] == leaf
        )
    return total(regions) - total(baseline)


def telemetry_kernel_seconds(runs) -> dict:
    """Kernel-stage seconds per macro cycle and lane from telemetry blocks:
    ``runs`` is ``[(summary, baseline_block_or_None, cycles), ...]``."""
    out = dict.fromkeys(_KERNEL_STAGES, 0.0)
    lane_cycles = 0
    for summary, baseline, cycles in runs:
        block = summary["telemetry"]
        lane_cycles += cycles * max(1, summary.get("n_ranks", 1))
        for stage, leaf in _KERNEL_STAGES.items():
            if leaf is not None:
                out[stage] += region_seconds(
                    block["regions"], leaf, baseline["regions"] if baseline else None
                )
    return {stage: seconds / lane_cycles for stage, seconds in out.items()}


# ---------------------------------------------------------------------------
# the traced run and its metrics
# ---------------------------------------------------------------------------


def traced_run(name: str, seed: int, seconds: float):
    """One traced run: ``(result, per-layer metrics, spans as JSON)``."""
    rec = SpanRecorder()
    with rec.installed(setup_targets()):
        result = harness.run_workload(name, seed, seconds, rec, partial(traced_cycles, rec))
        values = layer_values(result, rec)
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in PER_LAYER.items()
    }
    return result, metrics, rec.to_json()


def layer_values(result, rec: SpanRecorder) -> dict:
    """Every per-layer number this run can produce (absent ones read 0)."""
    kind = wl.WORKLOADS[result.name]["kind"]
    context = result.context
    values: dict[str, float] = dict(result.counts)
    values.pop("sweep.element_updates", None)

    def phase(*phases):
        return rec.totals(lambda span: span["id"][1] in phases)

    def self_s(totals, name):
        return totals.get(name, {}).get("self_s", 0.0)

    # -- host and the benchmark itself ----------------------------------
    host = result.probe.summary()
    values["host.probe_s_p50"] = host["probe_s_p50"]
    values["host.probe_spread"] = host["probe_spread"]
    values["host.peak_gflops"] = peak_gflops()
    values["host.stream_gb_s"] = stream_gb_s()
    values["verification.ref_cycle_s"] = context.get("ref_cycle_s", 0.0)
    values["verification.max_rel_err"] = result.checks.rel_err

    # -- setup path (cold setup unless stated) --------------------------
    cold, warm = phase("setup"), phase("setup_warm")
    for span_name in (
        "kernels.assemble", "basis.build", "mesh.generate", "mesh.permute",
        "equations.materials", "core.clustering", "core.solver_build",
        "source.receivers_build", "preprocessing.partition", "preprocessing.permutation",
        "parallel.partition", "distributed.engine_build",
    ):
        values[f"{span_name}_s"] = self_s(cold, span_name)
    values["preprocessing.pipeline_s"] = cold.get("preprocessing.pipeline", {}).get("total_s", 0.0)
    values["preprocessing.cache_store_s"] = self_s(cold, "preprocessing.cache")
    values["preprocessing.cache_load_s"] = self_s(warm, "preprocessing.cache")
    values["scenarios.runner_self_s"] = (
        self_s(cold, "scenarios.make_runner") + self_s(cold, "scenarios.build_setup")
    )
    values["scenarios.spec_load_s"] = sum(result.raw("spec_load"))
    if "cache_setup" in context:
        values["preprocessing.cache_misses"] = sum(s["misses"] for s in context["cache_setup"].values())
        values["preprocessing.cache_hits"] = sum(s["hits"] for s in context["cache_setup_warm"].values())
        values["preprocessing.setup_warm_s"] = result.norm("setup_warm")[0]
    cache_dir = context.get("cache_dir", context["work"] / "cache")
    if cache_dir.is_dir():
        values["preprocessing.cache_bytes"] = directory_bytes(cache_dir)
    everything = rec.totals()
    values["distributed.close_s"] = everything.get("distributed.close", {}).get("total_s", 0.0)
    values["scenarios.outputs_s"] = sum(result.raw("outputs"))
    if "out_dir" in context and Path(context["out_dir"]).is_dir():
        values["scenarios.outputs_bytes"] = directory_bytes(context["out_dir"])

    # -- stepping: spans (single rank) or telemetry blocks --------------
    n_traced = len(result.raw("traced_cycle"))
    cycle = phase("cycle")
    kernel_s = {stage: self_s(cycle, stage) / max(1, n_traced) for stage in _KERNEL_STAGES}
    glue_s = self_s(cycle, "kernels.local_update") / max(1, n_traced)
    updates = values.get("core.updates_per_cycle", 0)
    disc = context["disc"]
    values["mesh.n_elements"] = disc.n_elements
    if kind == "solver":
        runner = context["runner"]
        clustering = runner.clustering
        values["core.micro_steps_per_cycle"] = 2 ** (clustering.n_clusters - 1)
        values["core.model_speedup"] = float(clustering.speedup())
        plain = percentile(result.norm("cycle"), 50.0)
        values["core.sim_s_per_s"] = runner.macro_dt / plain
        values["kernels.lazy_warm_s"] = result.norm("warmup")[0] - plain
        values["kernels.dispatch_us"] = dispatch_us(
            runner.spec, disc, float(clustering.cluster_time_steps[0])
        )
        values["bench.trace_overhead_frac"] = (
            percentile(result.norm("traced_cycle"), 50.0) / plain - 1.0
        )
        for span_name in ("core.buffers_fill", "core.buffers_gather", "source.inject", "source.record"):
            values[f"{span_name}_s"] = self_s(cycle, span_name) / max(1, n_traced)
        values["core.schedule_self_s"] = self_s(cycle, "core.schedule") / max(1, n_traced)
        values["kernels.calls"] = sum(
            cycle.get(stage, {}).get("calls", 0) for stage in _KERNEL_STAGES
        ) / max(1, n_traced)
        batches = [s["size"] for s in rec.spans if s["name"] == "kernels.local_update"]
        if batches:
            values["kernels.elements_per_call_p50"] = percentile(batches, 50.0)
        if result.name in _OBSERVABILITY_WORKLOADS:
            values.update(observability_overheads(result, max(2, result.n_ops // 2)))
    telemetry_runs = context.get("telemetry_runs")
    if kind == "sweep":
        values.update(sweep_values(result))
        fused = sorted((context["work"] / "sweep0" / "fused").glob("*/run_summary.json"))
        telemetry_runs = [(json.loads(p.read_text()), None, wl.SWEEP_MEMBER_CYCLES) for p in fused]
        updates = result.counts["sweep.element_updates"] / (len(fused) * wl.SWEEP_MEMBER_CYCLES)
    if kind == "cli":
        values.update(cli_values(result))
        telemetry_runs = [(s, None, s["cycles"]) for s in context["summaries"]]
    if telemetry_runs:
        kernel_s = telemetry_kernel_seconds(telemetry_runs)
        glue_s = 0.0
        first = telemetry_runs[0][0]
        values["observability.coverage"] = first["telemetry"]["coverage"]
        if "comm" in first:
            values.update(distributed_values(result, *telemetry_runs[0]))
            updates = updates / first["n_ranks"]  # kernel seconds are per lane
    for stage, seconds in kernel_s.items():
        values[f"{stage}_s"] = seconds
    flops = count_flops_per_element_update(disc)
    values["kernels.flop_per_update"] = flops.total
    busy = sum(kernel_s.values()) + glue_s
    surface = kernel_s["kernels.surface_local"] + kernel_s["kernels.surface_neighbor"]
    if busy > 0:
        values["kernels.gflops"] = updates * flops.total / busy / 1e9
        values["kernels.roofline_frac"] = values["kernels.gflops"] / values["host.peak_gflops"]
    if surface > 0:
        values["kernels.surface_gflops"] = (
            updates * (flops.surface_local + flops.surface_neighbor) / surface / 1e9
        )

    # -- accounting sanity: the spans cover what the harness timed -------
    timed = sum(
        sum(result.raw(label))
        for label in ("setup", "setup_warm", "traced_cycle", "outputs", "sweep", "cli")
    )
    spanned = sum(
        everything.get(name, {}).get("total_s", 0.0)
        for name in (
            "scenarios.make_runner", "scenarios.step_cycle", "scenarios.outputs",
            "sweep.prewarm", "sweep.run_sweep", "scenarios.cli_invocation",
        )
    )
    values["bench.trace_coverage"] = spanned / timed if timed > 0 else 0.0
    return values


def distributed_values(result, summary: dict, baseline: dict, cycles: int) -> dict:
    """Halo and rank-lane numbers of a multi-rank telemetry run."""
    comm = summary["comm"]
    n_ranks = summary["n_ranks"]
    block = summary["telemetry"]
    wait = region_seconds(block["regions"], "recv_wait", baseline["regions"])
    lanes = [lane for lane in block["lanes"] if str(lane.get("lane", "")).startswith("rank")]
    base_lanes = {lane.get("lane"): lane for lane in baseline["lanes"]}
    busiest = 0.0
    for lane in lanes:
        before = base_lanes.get(lane.get("lane"), {}).get("regions", {})
        busiest = max(
            busiest,
            sum(
                entry["total_s"] - before.get(path, {}).get("total_s", 0.0)
                for path, entry in lane["regions"].items()
                if "/" not in path  # top-level phases: predict.*, send, correct
            ),
        )
    imbalance = imbalance_block(summary) or {}
    # one flush ships one micro step's halo faces of one rank
    shape = (9, int(comm["model"]["values_per_face"]) // 9)
    micro_steps = 2 ** (summary["n_clusters"] - 1)
    per_flush = max(1, round(comm["measured_messages_per_cycle"] / n_ranks / micro_steps))
    rtt_us, mb_s = comm_roundtrip(shape, per_flush)
    return {
        "parallel.halo_msgs_per_cycle": comm["measured_messages_per_cycle"],
        "parallel.rtt_us": rtt_us,
        "parallel.mb_s": mb_s,
        "distributed.recv_wait_s": wait / cycles / n_ranks,
        "distributed.rank_busy_imbalance": imbalance.get("busy_imbalance", 0.0),
        "distributed.parent_self_s": sum(result.raw("traced_cycle")) / cycles - busiest / cycles,
    }


def sweep_values(result) -> dict:
    """Manifest- and tally-derived numbers of the first (cold) sweep."""
    context = result.context
    manifest = context["work"] / "sweep0" / "manifest.jsonl"
    records = read_manifest(manifest)
    prewarm = [r["wall_s"] for r in records if r.get("record") == "prewarm"]
    done = {
        r.get("fused_group", r["member"]): r["total_wall_s"]
        for r in records if r.get("record") == "member" and r.get("status") == "done"
    }
    pool_wall = result.raw("sweep")[0] - sum(prewarm)
    return {
        "sweep.expand_s": sum(result.raw("expand")),
        "sweep.prewarm_s": sum(prewarm),
        "sweep.member_s_p50": percentile(list(done.values()), 50.0) if done else 0.0,
        "sweep.worker_idle_frac": 1.0 - sum(done.values()) / (harness.SWEEP_WORKERS * pool_wall),
        "sweep.fused_groups": context["tallies"][0].get("fused_groups", 0),
        "sweep.manifest_bytes": manifest.stat().st_size,
    }


def cli_values(result) -> dict:
    """What only a whole invocation shows: import, checkpoint, outputs."""
    context = result.context
    out_dir = context["out_dir"]
    checkpoint = out_dir / "run.ckpt.npz"
    first = context["summaries"][0]
    start = time.perf_counter()
    ScenarioRunner.resume(checkpoint)
    load_s = time.perf_counter() - start
    return {
        "scenarios.import_s": import_s(),
        "scenarios.checkpoint_save_s": region_seconds(first["telemetry"]["regions"], "checkpoint.write"),
        "scenarios.checkpoint_load_s": load_s,
        "scenarios.checkpoint_bytes": checkpoint.stat().st_size,
        "scenarios.outputs_bytes": directory_bytes(out_dir) - checkpoint.stat().st_size,
    }
