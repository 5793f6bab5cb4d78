"""Scenario orchestration: spec -> setup -> solver -> cycle loop.

:func:`build_setup` materialises a :class:`~repro.scenarios.spec.ScenarioSpec`
into the executable objects (mesh, material table, discretization, source,
initial condition) through the paper's preprocessing pipeline (Fig. 8):
meshing, material sampling, CFL steps and the clustering the run steps
(:func:`staged_setup`; GTS: :func:`~repro.core.gts_solver.stepped_clustering`),
then the weighted partitioning and reordering of a partitioned run, the
one place any run is partitioned (:func:`preprocess_setup`), and one operator
assembly in the final, solver element order.  :class:`ScenarioRunner` builds
the stepper of that clustering -- the clustered solver, or a multi-rank engine
on the setup's partitions (:func:`repro.distributed.build_engine`); both
implement the stepper protocol of :mod:`repro.core.stepper`, so the runner
never asks what it steps -- and drives a macro-cycle loop with wall-clock
and element-update accounting.  With a preprocessing cache (an in-process
store) the setup is bit-identical, and its operators are still assembled.

Checkpoint/restart serialises the complete dynamic state of a run -- DOFs,
simulation time, update count and the receiver recordings -- at macro-cycle
boundaries, so a resumed run is bit-identical to an uninterrupted one.  The
LTS buffers and sub-step parities are no state there: every cluster starts
a new interval with each cycle, and its prediction refills its buffer rows
before any neighbour reads them.  The DOFs are stored in solver element
order with each row's generation id, by which a resume maps them onto any
order of the same mesh.  A multi-rank engine gathers its per-rank DOFs into
one global array, so single-rank and distributed checkpoints are
interchangeable: ``resume`` follows the checkpointed spec's ``n_ranks``.
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
from ..core.gts_solver import stepped_clustering
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
    PHASE_REGIONS,
    Heartbeat,
    RunLedger,
    Telemetry,
    merge_snapshots,
    peak_rss_mb,
    provenance_block,
    recv_wait_s,
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
#: ``element_order`` (generation id per row) they were written in;
#: 3: no ``step_index``, ``b1``, ``b2`` or ``b3`` (a format-2 file resumes,
#: and those four arrays are ignored)
CHECKPOINT_FORMAT_VERSION = 3


class CorruptCheckpointError(ValueError):
    """The checkpoint file is truncated, bit-rotted or not a checkpoint."""


def peak_memory() -> dict:
    """Peak resident-set size in MiB (:func:`~repro.observability.peak_rss_mb`)."""
    block = {"peak_rss_mb": peak_rss_mb()}
    children = peak_rss_mb(children=True)
    if children > 0:  # rank or sweep worker processes that have exited
        block["peak_rss_children_mb"] = children
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
    #: the clustering the run steps: the spec policy's, derived once from
    #: ``time_steps``, or its GTS counterpart for a GTS spec
    clustering: Clustering
    source: object | None
    receiver_locations: dict
    initial_condition: object | None
    #: every element's weighted partition (``spec.n_partitions > 1`` only)
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
    operators assembled (``disc`` is ``None``).  The clustering is the one
    the run steps: for GTS, every element in cluster 0 of the policy's ladder.

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

    # the cache holds the policy's clustering, which both kinds share
    clustering = stepped_clustering(
        cache.clustering(spec, _derive_clustering) if cache is not None else _derive_clustering(),
        spec.solver.kind,
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

    With ``spec.n_partitions > 1`` (ranks, or partitions on one) the order
    is the pipeline's (cluster, partition, boundary first, id) one
    (:func:`preprocess_setup`) and the setup carries the partitions; any
    other setup is sorted into (cluster, id) order
    (:func:`~repro.mesh.reorder.reorder_elements`).  Either way every
    cluster is one contiguous slice of every per-element array.  A GTS
    clustering is one cluster, so plain GTS keeps generation order.
    """
    setup = staged_setup(spec, cache=cache, telemetry=telemetry)
    ids = setup.clustering.cluster_ids
    partitions = order = None
    if spec.n_partitions > 1:
        partitions, order = preprocess_setup(spec, setup, cache=cache, telemetry=telemetry)
    elif np.any(np.diff(ids) < 0):
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
    ``(partitions, permutation)``, every element's partition (one of
    ``spec.n_partitions``), weighted by the stepped clustering's update load
    (Sec. V-C), and the generation -> solver order permutation.

    With ``cache`` set, both are loaded from the preprocessing cache when
    present (and stored after deriving otherwise).
    """
    stored = cache.partition(spec) if cache is not None else None
    if stored is not None:
        return stored["partitions"], stored["permutation"]
    pipeline = PreprocessingPipeline(spec, telemetry)
    mesh, clustering = setup.mesh, setup.clustering
    partitions = pipeline.derive_partition(mesh, clustering)
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
        #: the runner's own telemetry lane: the single-rank solver shares it
        #: directly; a multi-rank engine keeps it as the "driver" lane
        #: (engine construction, checkpoint I/O) beside the per-rank lanes
        self.telemetry = Telemetry(
            enabled=spec.output.telemetry, trace=spec.output.trace, rank=0
        )
        self.setup = (
            setup
            if setup is not None
            else build_setup(spec, cache=cache, telemetry=self.telemetry)
        )
        #: the clustering the run steps; an explicit one (or a function of the
        #: setup giving one) in the setup's order becomes the spec kind's too
        if callable(clustering):
            clustering = clustering(self.setup)
        self.clustering = stepped_clustering(
            clustering if clustering is not None else self.setup.clustering, spec.solver.kind
        )

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
        #: the wall seconds of the last stepped cycle
        self.cycle_wall_s = 0.0
        #: the ``startup`` block of the summary: constructor wall, the first
        #: stepped cycle (it pays the lazy workspace warm-up) and the
        #: checkpoint writes -- what a short run spends outside steady cycles
        self.setup_s = _time.perf_counter() - setup_start
        self.first_cycle_s: float | None = None
        self.checkpoint_s = 0.0

    def _build_solver(self, disc: Discretization, sources: list):
        """Construct the stepper of ``self.clustering``: a multi-rank engine
        (also bound as ``self.engine``) when the spec asks for ranks, else
        the clustered solver on the element operators it assembles first
        (each rank assembles its own rows, so the parent of a multi-rank run
        assembles none)."""
        spec = self.spec
        if spec.solver.n_ranks > 1:
            from ..distributed.runner import build_engine

            self.engine = build_engine(self, disc, sources)
            return self.engine
        # the largest setup stage, timed on its own (the solver's own call
        # then finds the operators assembled)
        with self.telemetry.region("preprocess.operators"):
            disc.assemble_element_operators()
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
        """Advance the simulation by one macro cycle, adding its wall time
        to ``wall_s`` (the first cycle's is also ``first_cycle_s``)."""
        start = _time.perf_counter()
        self.solver.step_cycle()
        self.cycle_wall_s = _time.perf_counter() - start
        self.wall_s += self.cycle_wall_s
        if self.first_cycle_s is None:
            self.first_cycle_s = self.cycle_wall_s
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
                # checkpoint and ledger I/O stay outside the timed cycle so
                # wall_s and element_updates_per_s are comparable to
                # uninstrumented runs
                self.step_cycle()
                if ledger is not None or heartbeat is not None:
                    record = self._cycle_record(self.cycle_wall_s)
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
        if not self.telemetry.enabled:
            return {}
        waits = {}
        for snap in self.solver.telemetry_snapshots():
            total = recv_wait_s(snap.get("regions", {}))
            if total > 0.0:
                waits[snap.get("lane")] = total
        return waits

    def _cycle_record(self, cycle_wall_s: float) -> dict:
        """One ledger/heartbeat record of the cycle that just finished.

        The stepper adds its own columns (a multi-rank engine's traffic and
        worker memory); the recv-wait column is per cycle (deltas of the
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
        record.update(self.solver.ledger_columns())
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
        out["memory"] = {**peak_memory(), **self.solver.memory_block()}
        if self.telemetry.enabled:
            out["telemetry"] = self.telemetry_block()
        accuracy = self.accuracy()
        if accuracy is not None:
            out["accuracy"] = accuracy
        comm = self.solver.comm_summary()
        if comm is not None:
            out["n_ranks"] = self.solver.n_ranks
            out["comm"] = comm
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
        recv_wait = recv_wait_s(merged["regions"])
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
            "recv_wait_s": recv_wait,
            "regions": merged["regions"],
            "counters": merged["counters"],
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
        gathers the per-rank state.  Only a source-free ``plane_wave``
        initial condition can have one, so every other run returns before
        the verification package is imported.
        """
        spec = self.setup.spec
        ic = spec.initial_condition
        if ic is None or ic.kind != "plane_wave" or spec.source is not None:
            return None
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
        # the stepper's dynamic state, in global solver element order on
        # any number of ranks
        arrays = dict(
            dofs=solver.dofs,
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
        if meta["format_version"] not in (2, CHECKPOINT_FORMAT_VERSION):
            raise ValueError(
                f"unsupported checkpoint format {meta['format_version']}"
            )
        spec = ScenarioSpec.from_dict(meta["spec"]).with_overrides(**overrides)
        # the exact checkpointed clustering, in the rebuilt order, so runners
        # built with a non-spec clustering also resume bit-identically; the
        # constructor maps it to the spec kind once (older GTS checkpoints
        # stored the policy's LTS clustering)
        runner = cls(spec, clustering=lambda setup: _checkpoint_clustering(data, meta, setup.mesh))
        runner._load_state(data, meta)
        return runner

    def _load_state(self, data, meta: dict) -> None:
        solver = self.solver
        dofs = data["dofs"][_checkpoint_rows(data["element_order"], self.setup.mesh)]
        if dofs.shape != solver.dofs.shape:
            raise ValueError(
                f"checkpoint DOF shape {dofs.shape} does not match the rebuilt "
                f"scenario {solver.dofs.shape}; was the spec edited?"
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
            {"dofs": dofs}, float(meta["time"]), n_element_updates=int(meta["n_element_updates"])
        )
        self.cycles_done = int(meta["cycles_done"])
        self.wall_s = float(meta.get("wall_s", 0.0))


def _checkpoint_rows(element_order: np.ndarray, mesh: TetMesh) -> np.ndarray:
    """The checkpoint row (``element_order``: its generation id) of every element of ``mesh``."""
    if not np.array_equal(np.sort(element_order), np.sort(mesh.original_ids)):
        raise ValueError(
            "checkpoint element order does not match the rebuilt scenario; "
            "was the run built on the setup of another spec?"
        )
    return np.argsort(element_order)[mesh.original_ids]


def _checkpoint_clustering(data: dict, meta: dict, mesh: TetMesh) -> Clustering:
    """The clustering a checkpoint stored, in ``mesh``'s element order."""
    return Clustering(
        cluster_ids=data["cluster_ids"][_checkpoint_rows(data["element_order"], mesh)],
        cluster_time_steps=data["cluster_time_steps"],
        lam=float(meta["clustering"]["lam"]),
        dt_min=float(meta["clustering"]["dt_min"]),
    )


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
