"""Scenario orchestration: spec -> setup -> solver -> cycle loop.

:func:`build_setup` materialises a :class:`~repro.scenarios.spec.ScenarioSpec`
into the executable objects (mesh, material table, discretization, source,
initial condition) through the paper's preprocessing pipeline (Fig. 8):
meshing, material sampling, CFL steps and the LTS clustering
(:func:`staged_setup`), then the optional weighted partitioning and
reordering (:func:`preprocess_setup`), and one operator assembly in the
final, solver element order.  :class:`ScenarioRunner` builds the stepper and
drives a macro-cycle loop with wall-clock and element-update accounting.
The stepper is a GTS or clustered-LTS solver on one rank, or a multi-rank
engine (:func:`repro.distributed.build_engine`) when the spec asks for
``solver.n_ranks > 1``; all of them implement the stepper protocol of
:mod:`repro.core.stepper`, so the runner never asks which one it drives.

Checkpoint/restart serialises the complete dynamic state of a run -- DOFs,
simulation time, per-cluster ``step_index``, the three LTS time buffers and
the receiver recordings -- at macro-cycle boundaries (where no prediction is
pending), so a resumed run is bit-identical to an uninterrupted one.  The
per-element arrays are stored in solver element order; the rebuilt setup
derives the same order from the stored spec.  A multi-rank engine gathers
its per-rank state into the same global arrays, so single-rank and
distributed checkpoints are interchangeable: ``resume`` follows the
checkpointed spec's ``n_ranks``.
"""

from __future__ import annotations

import json
import os
import time as _time
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from ..core.clustering import Clustering, derive_clustering
# unused here: the setup tracer (benchmarks/e2e/layers.py) wraps it by name
from ..core.clustering import optimize_lambda  # noqa: F401
from ..core.gts_solver import GlobalTimeSteppingSolver
from ..core.lts_solver import ClusteredLtsSolver
from ..equations.material import MaterialTable
from ..kernels.discretization import Discretization
from ..mesh.generation import layered_box_mesh
from ..mesh.geometry import cfl_time_steps
from ..mesh.refinement import elements_per_wavelength_rule
from ..mesh.reorder import reorder_elements
from ..mesh.tet_mesh import TetMesh
from ..observability import (
    NULL_TELEMETRY,
    Heartbeat,
    RunLedger,
    TelemetryConfig,
    merge_snapshots,
    peak_rss_mb,
    provenance_block,
    write_chrome_trace,
)
from ..preprocessing.pipeline import PreprocessingPipeline
from ..preprocessing.velocity_model import LaHabraBasinModel, Layer, LayeredVelocityModel, loh3_model
from ..source.receivers import ReceiverSet
from .spec import RESUMABLE_OVERRIDES, ScenarioSpec

__all__ = [
    "ScenarioSetup",
    "ScenarioRunner",
    "build_setup",
    "staged_setup",
    "preprocess_setup",
    "make_runner",
    "measure_update_cost",
    "CHECKPOINT_FORMAT_VERSION",
    "CorruptCheckpointError",
]

#: 2: DOFs, buffers and ``cluster_ids`` are stored in solver element order
#: (cluster order for LTS), no longer in generation order, with the
#: ``element_order`` (generation id per row) they were written in
CHECKPOINT_FORMAT_VERSION = 2


class CorruptCheckpointError(ValueError):
    """The checkpoint file is truncated, bit-rotted or not a checkpoint."""


#: top-level region names that make up the stepping phase breakdown of the
#: ``telemetry`` summary block (preprocessing/checkpoint regions run outside
#: the timed cycle loop and are reported separately)
PHASE_REGIONS = (
    "predict",
    "predict.boundary",
    "predict.interior",
    "send",
    "correct",
    "update",
)


def peak_memory() -> dict:
    """Peak resident-set size (and tracemalloc peak, when tracing) in MiB.

    The RSS figures come from :func:`~repro.observability.peak_rss_mb`.
    ``tracemalloc`` only reports when the caller started it (e.g. via
    ``REPRO_TRACEMALLOC=1``) -- tracing slows allocation-heavy code down far
    too much to be on by default.
    """
    import tracemalloc

    block = {"peak_rss_mb": peak_rss_mb()}
    children = peak_rss_mb(children=True)
    if children > 0:  # rank or sweep worker processes that have exited
        block["peak_rss_children_mb"] = children
    if tracemalloc.is_tracing():
        block["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / (1024.0**2)
    return block


# ---------------------------------------------------------------------------
# spec -> executable objects
# ---------------------------------------------------------------------------


def build_velocity_model(spec: ScenarioSpec):
    """Construct the velocity model named by the spec."""
    vm = spec.velocity_model
    if vm.kind == "loh3":
        return loh3_model()
    if vm.kind == "la_habra_basin":
        x0, x1, y0, y1, _, _ = spec.domain.extent
        return LaHabraBasinModel(extent=(x0, x1, y0, y1), **vm.params)
    if vm.kind == "homogeneous":
        params = dict(vm.params)
        return LayeredVelocityModel(
            [
                Layer(
                    z_top=1e9,
                    z_bottom=-1e9,
                    rho=params["rho"],
                    vp=params["vp"],
                    vs=params["vs"],
                    qp=params.get("qp", np.inf),
                    qs=params.get("qs", np.inf),
                )
            ]
        )
    if vm.kind == "layered":
        return LayeredVelocityModel([Layer(**layer) for layer in vm.params["layers"]])
    raise ValueError(f"unknown velocity model kind {vm.kind!r}")


def _edge_rules(spec: ScenarioSpec, model):
    """The vertical edge-length rule ``h(z)`` and the horizontal edge length."""
    mesh = spec.mesh
    if mesh.mode == "characteristic":
        base = mesh.characteristic_length
        refinements = sorted(mesh.refinements, key=lambda r: -r.z_above)

        def rule(z: float) -> float:
            for refinement in refinements:
                if z > refinement.z_above:
                    return base / refinement.divide_by
            return base

        return rule, base * mesh.horizontal_factor
    rule = elements_per_wavelength_rule(
        model.min_shear_velocity, mesh.max_frequency, mesh.elements_per_wavelength, spec.order
    )
    z_top = spec.domain.extent[5]
    return rule, rule(z_top) * mesh.horizontal_factor


def _topography(spec: ScenarioSpec):
    domain = spec.domain
    if domain.topography == "none":
        return None
    x0, x1, y0, y1, _, _ = domain.extent
    amplitude = domain.topography_amplitude

    def topography(x, y):
        return amplitude * np.sin(2 * np.pi * (x - x0) / (x1 - x0)) * np.cos(
            2 * np.pi * (y - y0) / (y1 - y0)
        )

    return topography


def _initial_condition(spec: ScenarioSpec, materials: MaterialTable):
    ic = spec.initial_condition
    if ic is None:
        return None
    params = ic.params
    if ic.kind == "gaussian_pulse":
        x0, x1, y0, y1, z0, z1 = spec.domain.extent
        center = np.asarray(
            params.get("center", (0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * (z0 + z1))),
            dtype=np.float64,
        )
        width = float(params.get("width", 0.1 * (x1 - x0)))
        amplitude = float(params.get("amplitude", 1.0))
        component = int(params.get("component", 8))

        def gaussian(points):
            out = np.zeros((len(points), 9))
            r2 = np.sum((points - center) ** 2, axis=1)
            out[:, component] = amplitude * np.exp(-r2 / (2.0 * width**2))
            return out

        return gaussian
    if ic.kind == "plane_wave":
        # exact elastic plane P wave travelling in +x; the closed form lives
        # in repro.verification.analytic (one source of truth for the
        # initial condition AND the accuracy comparisons against it)
        from ..verification.analytic import plane_wave_from_params

        solution = plane_wave_from_params(params, materials)
        return lambda points: solution(points, 0.0)
    raise ValueError(f"unknown initial condition kind {ic.kind!r}")


@dataclass
class ScenarioSetup:
    """Executable objects materialised from a :class:`ScenarioSpec`.

    ``mesh``, ``materials``, ``time_steps``, ``clustering``, ``partitions``
    and ``disc`` share one element order: the solver's for a
    :func:`build_setup`, generation order for a :func:`staged_setup`.
    """

    spec: ScenarioSpec
    velocity_model: object
    mesh: TetMesh
    materials: MaterialTable
    disc: Discretization | None
    time_steps: np.ndarray
    #: the spec policy's clustering, derived once from ``time_steps``
    clustering: Clustering
    source: object | None
    receiver_locations: dict
    initial_condition: object | None
    #: every element's weighted partition (``preprocessing.active`` only)
    partitions: np.ndarray | None = None


def _build_discretization(
    spec: ScenarioSpec,
    mesh: TetMesh,
    materials: MaterialTable,
    *,
    cache=None,
):
    """Discretization per the spec's material/solver options.  The operators
    are assembled every time, cache or not: that is faster than loading them.
    """
    n_mechanisms = (
        spec.material.n_mechanisms
        if (spec.material.anelastic and materials.is_attenuating())
        else 0
    )
    band = spec.material.frequency_band or (
        spec.mesh.max_frequency / 20.0,
        2.0 * spec.mesh.max_frequency,
    )
    build = Discretization if cache is None else cache.discretization
    return build(
        mesh,
        materials,
        order=spec.order,
        n_mechanisms=n_mechanisms,
        frequency_band=band,
        flux=spec.solver.flux,
        cfl=spec.solver.cfl,
        precision=spec.solver.precision,
    )


def staged_setup(spec: ScenarioSpec, *, cache=None, telemetry=None) -> ScenarioSetup:
    """Steps 1-3 of the preprocessing pipeline -- velocity model, mesh,
    materials, CFL steps and the clustering -- in generation order, with no
    operators assembled (``disc`` is ``None``).

    With ``cache`` set, the mesh, material table and clustering are loaded
    from the content-addressed preprocessing cache when present (and stored
    after building otherwise); the returned setup is bit-identical either way.
    Every stage that runs is timed as a ``preprocess.*`` region of
    ``telemetry``.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    model = build_velocity_model(spec)
    rule, horizontal = _edge_rules(spec, model)

    def _build_mesh() -> TetMesh:
        with telemetry.region("preprocess.mesh"):
            return layered_box_mesh(
                extent=spec.domain.extent,
                edge_length_of_depth=rule,
                horizontal_edge_length=horizontal,
                jitter=spec.mesh.jitter,
                seed=spec.mesh.seed,
                topography=_topography(spec),
                free_surface_top=spec.domain.free_surface,
            )

    mesh = cache.mesh(spec, _build_mesh) if cache is not None else _build_mesh()

    def _build_materials() -> MaterialTable:
        with telemetry.region("preprocess.materials"):
            materials = MaterialTable.from_velocity_model(model, mesh.centroids)
        if not spec.material.anelastic:
            materials = MaterialTable(
                rho=materials.rho, vp=materials.vp, vs=materials.vs
            )
        return materials

    materials = (
        cache.materials(spec, _build_materials) if cache is not None else _build_materials()
    )
    with telemetry.region("preprocess.time_steps"):
        time_steps = cfl_time_steps(
            mesh.insphere_radii, materials.max_wave_speed, spec.order, spec.solver.cfl
        )
    pipeline = PreprocessingPipeline(spec, telemetry)

    def _derive_clustering() -> Clustering:
        return pipeline.derive_clustering(mesh, time_steps)

    clustering = (
        cache.clustering(spec, _derive_clustering)
        if cache is not None
        else _derive_clustering()
    )
    return ScenarioSetup(
        spec=spec,
        velocity_model=model,
        mesh=mesh,
        materials=materials,
        disc=None,
        time_steps=time_steps,
        clustering=clustering,
        source=spec.source.build() if spec.source is not None else None,
        receiver_locations=spec.receiver_locations,
        initial_condition=_initial_condition(spec, materials),
    )


def build_setup(spec: ScenarioSpec, *, cache=None, telemetry=None) -> ScenarioSetup:
    """Materialise a spec: the :func:`staged_setup`, permuted once into
    solver element order, with the operators assembled in that order.

    With ``preprocessing.active`` the order is the pipeline's (cluster,
    partition, communication role, id) one (:func:`preprocess_setup`) and
    the setup carries the partitions; any other LTS setup is sorted into
    (cluster, id) order (:func:`~repro.mesh.reorder.reorder_elements`).
    Either way every cluster is one contiguous slice of every per-element
    array.  Plain GTS steps all elements as one batch and keeps generation
    order.
    """
    setup = staged_setup(spec, cache=cache, telemetry=telemetry)
    ids = setup.clustering.cluster_ids
    partitions = order = None
    if spec.preprocessing.active:
        partitions, order = preprocess_setup(spec, setup, cache=cache, telemetry=telemetry)
    elif spec.solver.kind == "lts" and np.any(np.diff(ids) < 0):
        order = reorder_elements(ids)
    if order is not None:
        setup = replace(
            setup,
            mesh=setup.mesh.permuted(order),
            materials=setup.materials.subset(order),
            time_steps=setup.time_steps[order],
            clustering=setup.clustering.permuted(order),
            partitions=None if partitions is None else partitions[order],
        )
    setup.disc = _build_discretization(spec, setup.mesh, setup.materials, cache=cache)
    return setup


def preprocess_setup(spec: ScenarioSpec, setup: ScenarioSetup, *, cache=None,
                     telemetry=None) -> tuple[np.ndarray, np.ndarray]:
    """Steps 4-5 of the preprocessing pipeline on a :func:`staged_setup`:
    ``(partitions, permutation)``, the weighted partition of every element
    and the generation -> solver order permutation, both in generation order.

    With ``cache`` set, both are loaded from the preprocessing cache when
    present (and stored after deriving otherwise).
    """
    stored = cache.partition(spec) if cache is not None else None
    if stored is not None:
        return stored["partitions"], stored["permutation"]
    pipeline = PreprocessingPipeline(spec, telemetry)
    mesh, clustering = setup.mesh, setup.clustering
    partitions = pipeline.derive_partition(mesh, clustering).partitions
    permutation = pipeline.derive_permutation(mesh, clustering, partitions)
    if cache is not None:
        cache.store_partition(spec, partitions=partitions, permutation=permutation)
    return partitions, permutation


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class ScenarioRunner:
    """Drives one scenario end-to-end with accounting and checkpointing."""

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        setup: ScenarioSetup | None = None,
        clustering: Clustering | None = None,
        cache=None,
    ):
        setup_start = _time.perf_counter()
        self.spec = spec
        #: optional content-addressed preprocessing cache
        #: (:class:`~repro.preprocessing.cache.PreprocessingCache`): the
        #: mesh, materials, clustering and partition/reordering stages are
        #: loaded from it when present, with bit-identical results either way
        self.cache = cache
        self.telemetry_config = TelemetryConfig(
            enabled=spec.output.telemetry, trace=spec.output.trace
        )
        #: the runner's own telemetry lane: the single-rank solver shares it
        #: directly; a multi-rank engine keeps it as the "driver" lane
        #: (engine construction, checkpoint I/O) beside the per-rank lanes
        self.telemetry = self.telemetry_config.build(rank=0)
        if os.environ.get("REPRO_TRACEMALLOC"):
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
        self.setup = (
            setup
            if setup is not None
            else build_setup(spec, cache=cache, telemetry=self.telemetry)
        )
        #: an explicit clustering must be in the setup's element order (an
        #: LTS solver rejects one whose clusters are not contiguous in it)
        self.clustering = clustering if clustering is not None else self.setup.clustering

        disc = self.setup.disc
        self.receivers = (
            ReceiverSet(disc, self.setup.receiver_locations)
            if self.setup.receiver_locations
            else None
        )
        sources = [self.setup.source] if self.setup.source is not None else []
        self.solver = self._build_solver(disc, sources)
        if self.setup.initial_condition is not None:
            self.solver.set_initial_condition(self.setup.initial_condition)
        self.cycles_done = 0
        self.wall_s = 0.0
        #: the ``startup`` block of the summary: constructor wall, the first
        #: stepped cycle (it pays the lazy workspace warm-up) and the
        #: checkpoint writes -- what a short run spends outside steady cycles
        self.setup_s = _time.perf_counter() - setup_start
        self.first_cycle_s: float | None = None
        self.checkpoint_s = 0.0

    def _build_solver(self, disc: Discretization, sources: list):
        """Construct the stepper: a multi-rank engine (also bound as
        ``self.engine``) when the spec asks for ranks, else GTS or LTS."""
        spec = self.spec
        if spec.solver.n_ranks > 1:
            from ..distributed.runner import build_engine

            self.engine = build_engine(self, disc, sources)
            return self.engine
        if spec.solver.kind == "gts":
            # one macro cycle = 2^(N_c - 1) GTS steps at the cluster-0 step
            return GlobalTimeSteppingSolver(
                disc,
                dt=float(self.clustering.cluster_time_steps[0]),
                sources=sources,
                receivers=self.receivers,
                n_fused=spec.solver.n_fused,
                kernels=spec.solver.kernels,
                telemetry=self.telemetry,
                steps_per_cycle=2 ** (self.clustering.n_clusters - 1),
            )
        return ClusteredLtsSolver(
            disc,
            self.clustering,
            sources=sources,
            receivers=self.receivers,
            n_fused=spec.solver.n_fused,
            kernels=spec.solver.kernels,
            telemetry=self.telemetry,
        )

    # -- cycle loop -----------------------------------------------------
    @property
    def macro_dt(self) -> float:
        """Duration of one macro cycle (one step of the largest cluster)."""
        return self.solver.macro_dt

    @property
    def total_cycles(self) -> int:
        run = self.spec.run
        if run.n_cycles is not None:
            return run.n_cycles
        return int(np.ceil(run.t_end / self.macro_dt - 1e-12))

    def step_cycle(self) -> None:
        """Advance the simulation by one macro cycle."""
        self.solver.step_cycle()
        self.cycles_done += 1

    def run(self, *, checkpoint_path=None) -> dict:
        """Run the remaining macro cycles; returns the run summary.

        With ``checkpoint_path`` set, a checkpoint is written every
        ``spec.run.checkpoint_every`` cycles (``None``: no cadence) and after
        the final cycle -- unless the cadence already wrote it, so the same
        state is never serialised twice back-to-back.
        The stepper is closed at the end: a process engine releases its
        workers but keeps serving summaries, outputs and checkpoints from
        its cached state, and stepping again respawns them.
        """
        checkpoint_every = self.spec.run.checkpoint_every
        output = self.spec.output
        ledger = heartbeat = None
        if output.events:
            ledger = RunLedger(output.events)
            ledger.header(
                self.spec,
                total_cycles=self.total_cycles,
                macro_dt=self.macro_dt,
                resumed_at_cycle=self.cycles_done,
            )
        if output.progress:
            heartbeat = Heartbeat(self.spec.name, self.total_cycles)
        self._ledger_prev_updates = int(self.solver.n_element_updates)
        self._ledger_prev_recv_wait: dict = {}
        last_saved_at = None
        try:
            while self.cycles_done < self.total_cycles:
                # checkpoint and ledger I/O stay outside the timed region so
                # wall_s and element_updates_per_s are comparable to
                # uninstrumented runs
                start = _time.perf_counter()
                self.step_cycle()
                cycle_wall_s = _time.perf_counter() - start
                self.wall_s += cycle_wall_s
                if self.first_cycle_s is None:
                    self.first_cycle_s = cycle_wall_s
                if ledger is not None or heartbeat is not None:
                    record = self._cycle_record(cycle_wall_s)
                    if ledger is not None:
                        ledger.cycle(record)
                    if heartbeat is not None:
                        heartbeat.emit(record)
                if (
                    checkpoint_path is not None
                    and checkpoint_every
                    and self.cycles_done % checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint_path)
                    last_saved_at = self.cycles_done
            if checkpoint_path is not None and last_saved_at != self.cycles_done:
                self.save_checkpoint(checkpoint_path)
            if ledger is not None:
                ledger.final(
                    {
                        "cycles": int(self.cycles_done),
                        "t": float(self.solver.time),
                        "wall_s": float(self.wall_s),
                        "element_updates": int(self.solver.n_element_updates),
                    }
                )
        finally:
            try:
                if heartbeat is not None:
                    heartbeat.close()
                if ledger is not None:
                    ledger.close()  # its last flush may fail (a full disk)
            finally:
                self.solver.close()
        return self.summary()

    # -- run ledger ------------------------------------------------------
    def _recv_wait_by_lane(self) -> dict:
        """Cumulative exposed receive-wait seconds per telemetry lane."""
        if not self.telemetry_config.enabled:
            return {}
        waits = {}
        for snap in self.solver.telemetry_snapshots():
            total = sum(
                entry["total_s"]
                for name, entry in snap.get("regions", {}).items()
                if name.endswith("/recv_wait") or name == "recv_wait"
            )
            if total > 0.0:
                waits[snap.get("lane")] = total
        return waits

    def _cycle_record(self, cycle_wall_s: float) -> dict:
        """One ledger/heartbeat record of the cycle that just finished.

        A multi-rank run adds the engine's traffic and worker-memory
        columns; the recv-wait column is per cycle (deltas of the
        cumulative region totals), like every other rate here.
        """
        updates = int(self.solver.n_element_updates)
        cycle_updates = updates - self._ledger_prev_updates
        self._ledger_prev_updates = updates
        record = {
            "cycle": int(self.cycles_done),
            "t": float(self.solver.time),
            "wall_s": float(self.wall_s),
            "cycle_wall_s": float(cycle_wall_s),
            "element_updates": updates,
            "cycle_element_updates": cycle_updates,
            "updates_per_s": (
                cycle_updates / cycle_wall_s if cycle_wall_s > 0 else 0.0
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        waits = self._recv_wait_by_lane()
        if waits:
            record["recv_wait_s"] = {
                lane: total - self._ledger_prev_recv_wait.get(lane, 0.0)
                for lane, total in waits.items()
            }
            self._ledger_prev_recv_wait = waits
        if hasattr(self, "engine"):
            record.update(self.engine.ledger_columns())
            workers = record.get("worker_peak_rss_mb", ())
            record["peak_rss_mb"] = max([record["peak_rss_mb"], *workers])
        return record

    def summary(self) -> dict:
        """Key figures of the run (JSON-ready)."""
        spec = self.spec
        clustering = self.clustering
        updates = int(self.solver.n_element_updates)
        out = {
            "scenario": spec.name,
            "solver": spec.solver.kind,
            "kernels": spec.solver.kernels,
            "precision": spec.solver.precision,
            "order": spec.order,
            "n_fused": spec.solver.n_fused,
            "n_elements": int(self.setup.mesh.n_elements),
            "n_clusters": int(clustering.n_clusters),
            "lambda": float(clustering.lam),
            "cluster_counts": clustering.counts.tolist(),
            "theoretical_speedup": float(clustering.speedup()),
            "cycles": int(self.cycles_done),
            "macro_dt": self.macro_dt,
            "t_end": float(self.solver.time),
            "element_updates": updates,
            "wall_s": float(self.wall_s),
            "element_updates_per_s": updates / self.wall_s if self.wall_s > 0 else 0.0,
            "n_receivers": len(self.receivers) if self.receivers is not None else 0,
        }
        if spec.source is not None and spec.source.fused:
            # label the fused ensemble: slot f of every (..., F) output below
            # belongs to this per-slot source
            out["fused_sources"] = spec.source.slot_labels()
        if self.setup.partitions is not None:
            out["n_partitions"] = int(self.setup.partitions.max() + 1)
        # self-describing summaries: the sweep-manifest key set (git SHA,
        # repro version, spec content hash), same block as the ledger header
        out["provenance"] = provenance_block(spec)
        if spec.output.events:
            out["events"] = spec.output.events
        from .. import import_s  # the package finishes importing after this module

        out["startup"] = {
            "import_s": import_s,
            "setup_s": self.setup_s,
            "first_cycle_s": self.first_cycle_s,
            "checkpoint_s": self.checkpoint_s,
        }
        out["memory"] = peak_memory()
        if not hasattr(self, "engine"):  # one solver: its resident bytes by owner
            out["memory"]["owned_mb"] = self.solver.memory_owners()
        if self.telemetry_config.enabled:
            out["telemetry"] = self.telemetry_block()
        accuracy = self.accuracy()
        if accuracy is not None:
            out["accuracy"] = accuracy
        comm = self.solver.comm_summary()
        if comm is not None:
            out["n_ranks"] = self.engine.n_ranks
            out["comm"] = comm
            workers = self.engine.rank_peak_rss_mb
            if any(workers):
                # the parent's RUSAGE_CHILDREN misses still-live workers, so
                # the summary carries the workers' self-reported peaks
                out["memory"]["worker_peak_rss_mb"] = list(workers)
        return out

    # -- telemetry ------------------------------------------------------
    def telemetry_block(self) -> dict:
        """The ``telemetry`` block of the run summary: phase breakdown,
        merged regions/counters and derived rates.

        Phase totals are divided by the stepper's ``concurrent_lanes`` so
        their sum is comparable to ``wall_s``: the ranks of a multi-rank
        engine overlap in time (each lane spans the whole wall clock), while
        a single solver accounts every second exactly once.
        """
        from ..kernels.flops import count_flops_per_element_update

        snapshots = self.solver.telemetry_snapshots()
        merged = merge_snapshots(snapshots)
        concurrency = max(1, self.solver.concurrent_lanes)
        phases = {
            name: entry["total_s"] / concurrency
            for name, entry in merged["regions"].items()
            if name in PHASE_REGIONS
        }
        phase_sum = float(sum(phases.values()))
        recv_wait = sum(
            entry["total_s"]
            for name, entry in merged["regions"].items()
            if name.endswith("/recv_wait")
        )
        comm = self.solver.comm_summary()
        if comm is not None:  # the measured halo traffic of a multi-rank run
            merged["counters"]["comm/messages"] = int(comm["n_messages"])
            merged["counters"]["comm/bytes"] = int(comm["n_bytes"])
        updates = int(self.solver.n_element_updates)
        per_stage = count_flops_per_element_update(self.setup.disc)
        flops = per_stage.total
        block = {
            "phases": phases,
            "phase_sum_s": phase_sum,
            "wall_s": float(self.wall_s),
            "coverage": phase_sum / self.wall_s if self.wall_s > 0 else 0.0,
            "recv_wait_s": float(recv_wait),
            "regions": merged["regions"],
            "counters": merged["counters"],
            "histograms": merged["histograms"],
            "lanes": [
                {
                    "lane": snap.get("lane"),
                    "regions": snap.get("regions", {}),
                    "counters": snap.get("counters", {}),
                }
                for snap in snapshots
            ],
            "derived": {
                "element_updates_per_s": (
                    updates / self.wall_s if self.wall_s > 0 else 0.0
                ),
                "flops_per_element_update": int(flops),
                "flops_per_stage": {
                    "time_kernel": int(per_stage.time_kernel),
                    "volume_kernel": int(per_stage.volume_kernel),
                    "surface_local": int(per_stage.surface_local),
                    "surface_neighbor": int(per_stage.surface_neighbor),
                },
                "gflop": updates * flops / 1e9,
                "gflop_per_s": (
                    updates * flops / 1e9 / self.wall_s if self.wall_s > 0 else 0.0
                ),
            },
        }
        return block

    def write_trace(self, path):
        """Export the collected trace events as Chrome-trace JSON.

        Draining is destructive: the trace is written once, after the run.
        """
        return write_chrome_trace(path, self.solver.trace_lanes())

    def accuracy(self) -> dict | None:
        """Error norms against the scenario's analytic solution, if any.

        Scenarios with a closed-form reference (the elastic plane wave)
        report per-field L2/Linf errors of the current state; everything
        else returns ``None`` and the summary carries no accuracy block.
        Works unchanged for multi-rank runs: the engine's ``dofs`` property
        gathers the per-rank state.
        """
        from ..verification.analytic import analytic_solution_for
        from ..verification.norms import state_error_norms

        solution = analytic_solution_for(self.setup)
        if solution is None:
            return None
        return state_error_norms(
            self.setup.disc, self.solver.dofs, float(self.solver.time), solution
        )

    # -- checkpoint / restart -------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Serialise the complete dynamic state at a macro-cycle boundary."""
        start = _time.perf_counter()
        solver = self.solver
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "solver_kind": self.spec.solver.kind,
            "cycles_done": self.cycles_done,
            "time": solver.time,
            "wall_s": self.wall_s,
            "n_element_updates": int(solver.n_element_updates),
            "receiver_names": (
                [r.name for r in self.receivers.receivers] if self.receivers else []
            ),
        }
        meta["clustering"] = {
            "lam": self.clustering.lam,
            "dt_min": self.clustering.dt_min,
        }
        # the stepper's dynamic state: dofs (plus step_index/b1/b2/b3 for
        # LTS), in global solver element order on any number of ranks
        arrays = solver.state_arrays()
        arrays.update(
            # generation id of every row: the rebuilt setup must match it
            element_order=self.setup.mesh.original_ids,
            cluster_ids=self.clustering.cluster_ids,
            cluster_time_steps=self.clustering.cluster_time_steps,
        )
        if self.receivers is not None:
            for i, receiver in enumerate(self.receivers.receivers):
                times, samples = receiver.seismogram()
                arrays[f"rec{i}_times"] = times
                arrays[f"rec{i}_samples"] = samples
        # write through an explicit handle: savez would otherwise append
        # '.npz' to suffix-less paths, breaking `repro resume <given path>`;
        # write-then-rename keeps the previous checkpoint intact if the run
        # is killed mid-write.  Uncompressed: deflate squeezes f64 wave
        # fields by ~5 % and costs more than every other byte of the write
        tmp_path = f"{path}.tmp"
        with self.telemetry.region("checkpoint.write"):
            os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
            with open(tmp_path, "wb") as handle:
                np.savez(handle, meta=json.dumps(meta), **arrays)
            os.replace(tmp_path, path)
        if self.telemetry.enabled:
            self.telemetry.inc("checkpoint/writes")
            self.telemetry.inc("checkpoint/bytes", os.path.getsize(path))
        self.checkpoint_s += _time.perf_counter() - start

    @classmethod
    def resume(cls, path, **overrides) -> "ScenarioRunner":
        """Rebuild a runner from a checkpoint; continuation is bit-identical
        to the uninterrupted run.

        The stepper follows the checkpointed spec: a spec with
        ``solver.n_ranks > 1`` resumes on a multi-rank engine (and vice
        versa).  ``overrides`` are ``with_overrides`` names, limited to
        :data:`~repro.scenarios.spec.RESUMABLE_OVERRIDES`: the checkpoint
        cadence (recorded in the new checkpoints) and observability (a
        resumed ``events`` ledger appends a new segment header).  The kernel
        backend and precision are part of the checkpointed state and cannot
        change.
        """
        rejected = sorted(set(overrides) - set(RESUMABLE_OVERRIDES))
        if rejected:
            raise TypeError(
                f"resume cannot override {', '.join(rejected)} "
                f"(resumable: {', '.join(RESUMABLE_OVERRIDES)})"
            )
        data, meta = _read_checkpoint(path)
        if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {meta['format_version']}"
            )
        spec = ScenarioSpec.from_dict(meta["spec"]).with_overrides(**overrides)
        restored = Clustering(
            cluster_ids=data["cluster_ids"],
            cluster_time_steps=data["cluster_time_steps"],
            lam=float(meta["clustering"]["lam"]),
            dt_min=float(meta["clustering"]["dt_min"]),
        )
        # the exact checkpointed clustering, so runners built with a
        # non-spec clustering also resume bit-identically
        runner = cls(spec, clustering=restored)
        runner._load_state(data, meta)
        return runner

    def _load_state(self, data, meta: dict) -> None:
        solver = self.solver
        dofs = data["dofs"]
        if dofs.shape != solver.dofs.shape:
            raise ValueError(
                f"checkpoint DOF shape {dofs.shape} does not match the rebuilt "
                f"scenario {solver.dofs.shape}; was the spec edited?"
            )
        if not (
            np.array_equal(self.clustering.cluster_ids, data["cluster_ids"])
            and np.array_equal(
                self.clustering.cluster_time_steps, data["cluster_time_steps"]
            )
        ):
            raise ValueError(
                "checkpoint clustering does not match the rebuilt scenario; "
                "was the spec edited?"
            )
        if not np.array_equal(self.setup.mesh.original_ids, data["element_order"]):
            raise ValueError(
                "checkpoint element order does not match the rebuilt scenario; "
                "was the run built on the setup of another spec?"
            )
        if self.receivers is not None:
            names = [r.name for r in self.receivers.receivers]
            if names != meta["receiver_names"]:
                raise ValueError("checkpoint receivers do not match the scenario")
            for i, receiver in enumerate(self.receivers.receivers):
                times = data[f"rec{i}_times"]
                samples = data[f"rec{i}_samples"]
                receiver.times = [float(t) for t in times]
                receiver.samples = [np.asarray(row) for row in samples]
        # after the recordings: an engine rebinds its rank receivers to them
        solver.restore_state(
            data, time=float(meta["time"]), n_element_updates=int(meta["n_element_updates"])
        )
        self.cycles_done = int(meta["cycles_done"])
        self.wall_s = float(meta.get("wall_s", 0.0))


def _read_checkpoint(path) -> tuple[dict, dict]:
    """``(arrays, meta)`` of a checkpoint file, every array read (and its
    zip CRC checked) up front so damage surfaces here as one named error
    instead of as a traceback from wherever the array is first touched."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, KeyError, TypeError, zipfile.BadZipFile) as error:
        # TypeError: a bare .npy loads as an ndarray, which is no context manager
        raise CorruptCheckpointError(f"corrupt checkpoint: {path}: {error}") from error
    return arrays, meta


#: an alias of :class:`ScenarioRunner`, the runner of every spec on any
#: number of ranks
make_runner = ScenarioRunner


def measure_update_cost(setup: ScenarioSetup, n_cycles: int = 10) -> float:
    """Wall-clock seconds per element update of a single-cluster GTS run.

    The probe behind per-kernel cost comparisons (e.g. the Fig. 9 "cost of
    anelasticity"): every element advances at the mesh's dt_min for
    ``n_cycles`` steps, so the ratio of two probes isolates the kernel cost.
    """
    spec = setup.spec.with_overrides(solver="gts", n_clusters=1, lam=1.0, n_cycles=n_cycles)
    clustering = derive_clustering(setup.time_steps, 1, 1.0)
    runner = ScenarioRunner(spec, setup=setup, clustering=clustering)
    summary = runner.run()
    return summary["wall_s"] / summary["element_updates"]
