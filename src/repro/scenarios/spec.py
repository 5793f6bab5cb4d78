"""Declarative scenario specifications.

The paper's preprocessing pipeline (Sec. VI, Fig. 8) turns "a velocity model
and a handful of user rules" into a ready-to-run clustered-LTS simulation.
:class:`ScenarioSpec` is exactly that handful of user rules, written down as
a validated, serialisable value object:

* the domain (box extent, optional topography),
* the meshing rule (characteristic edge lengths with per-layer refinement,
  or the elements-per-wavelength rule),
* the velocity model (named kinds with free parameters),
* material options (anelasticity, relaxation mechanisms, constant-Q band),
* the seismic source and its source time function, the receivers, and an
  optional analytic initial condition,
* the LTS clustering policy (number of clusters, lambda or grid search),
* the solver configuration (GTS / clustered LTS, number of fused
  simulations, flux, CFL factor), and
* the run duration and checkpoint cadence.

Specs round-trip losslessly through ``to_dict``/``from_dict`` and JSON,
which is what the registry, the CLI and the checkpoint files rely on.
:data:`OVERRIDE_PATHS` names every overridable knob once, as a short name
and its dotted path; ``with_overrides``, the CLI flags, ``resume``, the
registry and the sweep axes all set knobs through :func:`set_path`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..kernels.backend import KERNEL_KINDS, default_kernels

__all__ = [
    "DomainSpec",
    "RefinementSpec",
    "MeshSpec",
    "VelocityModelSpec",
    "MaterialSpec",
    "TimeFunctionSpec",
    "FusedSourceSpec",
    "SourceSpec",
    "InitialConditionSpec",
    "ClusteringSpec",
    "SolverSpec",
    "PreprocessingSpec",
    "RunSpec",
    "OutputSpec",
    "ScenarioSpec",
    "OVERRIDE_PATHS",
    "NULLABLE_OVERRIDES",
    "RESUMABLE_OVERRIDES",
    "set_path",
    "json_native",
    "SOLVER_KINDS",
    "SOLVER_BACKENDS",
    "SOLVER_KERNELS",
    "SOLVER_PRECISIONS",
    "VELOCITY_MODEL_KINDS",
    "TIME_FUNCTION_KINDS",
    "SOURCE_KINDS",
    "INITIAL_CONDITION_KINDS",
    "MESH_MODES",
    "TOPOGRAPHY_KINDS",
]

SOLVER_KINDS = ("gts", "lts")
SOLVER_BACKENDS = ("serial", "process")
SOLVER_KERNELS = KERNEL_KINDS
SOLVER_PRECISIONS = ("f64", "f32")
VELOCITY_MODEL_KINDS = ("loh3", "la_habra_basin", "homogeneous", "layered")
TIME_FUNCTION_KINDS = ("ricker", "gaussian_derivative", "smoothed_step")
SOURCE_KINDS = ("moment_tensor", "point_force")
INITIAL_CONDITION_KINDS = ("gaussian_pulse", "plane_wave")
MESH_MODES = ("characteristic", "wavelength")
TOPOGRAPHY_KINDS = ("none", "sinusoidal")

#: every override short name and the dotted spec path it sets: the one place
#: a knob is named for ``with_overrides``, the CLI flags, ``resume`` and the
#: registry (``get_scenario`` applies these names after the factory runs)
OVERRIDE_PATHS = {
    "order": "order",
    "seed": "mesh.seed",
    "n_clusters": "clustering.n_clusters",
    "lam": "clustering.lam",
    "solver": "solver.kind",
    "n_fused": "solver.n_fused",
    "flux": "solver.flux",
    "n_ranks": "solver.n_ranks",
    "backend": "solver.backend",
    "comm_timeout": "solver.comm_timeout",
    "kernels": "solver.kernels",
    "precision": "solver.precision",
    "n_partitions": "preprocessing.n_partitions",
    "reorder": "preprocessing.reorder",
    "n_cycles": "run.n_cycles",
    "t_end": "run.t_end",
    "checkpoint_every": "run.checkpoint_every",
    "telemetry": "output.telemetry",
    "trace": "output.trace",
    "events": "output.events",
    "progress": "output.progress",
}

#: the overrides whose ``None`` is a value, not "keep": the lambda grid
#: search, the engine's default receive timeout, no checkpoint cadence
NULLABLE_OVERRIDES = ("lam", "comm_timeout", "checkpoint_every")

#: the overrides a resumed run accepts: the checkpoint cadence and
#: observability, neither of which is part of the numerical state
RESUMABLE_OVERRIDES = ("checkpoint_every", "telemetry", "trace", "events", "progress")

#: a run lasts either n_cycles or until t_end: setting one clears the other
_CLEARS = {"n_cycles": "run.t_end", "t_end": "run.n_cycles"}

#: paths may introduce new keys only under free-form parameter dicts
_FREE_FORM_LEAVES = ("params",)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _json_default(value):
    # numpy scalars and arrays expose tolist(); anything else is a real error
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def json_native(value):
    """``value`` in JSON-native form (tuples become lists, numpy scalars and
    arrays become python), so a free-form parameter dict or a sweep axis
    value compares equal to itself after a JSON round-trip."""
    return json.loads(json.dumps(value, default=_json_default))


def set_path(data: dict, path: str, value) -> None:
    """Set ``path`` (dotted) in the nested spec dict ``data``, in place.

    Every segment must name an existing field of a set block; only the
    free-form ``params`` dicts take new keys.
    """
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"spec path {path!r}: no such spec field {part!r}")
        node = node[part]
    if not isinstance(node, dict):
        raise ValueError(
            f"spec path {path!r}: {parts[-2]!r} is not an overridable block "
            "(is it unset in the base spec?)"
        )
    leaf = parts[-1]
    parent = parts[-2] if len(parts) > 1 else None
    if leaf not in node and parent not in _FREE_FORM_LEAVES:
        raise ValueError(f"spec path {path!r}: no such spec field {leaf!r}")
    node[leaf] = value


@dataclass(frozen=True)
class DomainSpec:
    """The (box) simulation domain ``x0 < x1, y0 < y1, z0 < z1`` (z up).

    ``free_surface`` keeps the usual seismic setup (traction-free top
    z-plane, absorbing sides); ``False`` makes every boundary absorbing --
    the configuration convergence studies against free-space analytic
    solutions need, since a travelling wave violates the traction-free
    condition.
    """

    extent: tuple[float, float, float, float, float, float]
    topography: str = "none"
    topography_amplitude: float = 0.0
    free_surface: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "extent", _floats(self.extent))
        if len(self.extent) != 6:
            raise ValueError("extent must be (x0, x1, y0, y1, z0, z1)")
        x0, x1, y0, y1, z0, z1 = self.extent
        if x1 <= x0 or y1 <= y0 or z1 <= z0:
            raise ValueError("domain extent must have positive volume")
        if self.topography not in TOPOGRAPHY_KINDS:
            raise ValueError(f"topography must be one of {TOPOGRAPHY_KINDS}")


@dataclass(frozen=True)
class RefinementSpec:
    """Refine the vertical edge length by ``divide_by`` for ``z > z_above``."""

    z_above: float
    divide_by: float

    def __post_init__(self) -> None:
        if self.divide_by <= 0:
            raise ValueError("refinement factor must be positive")


@dataclass(frozen=True)
class MeshSpec:
    """Velocity-aware meshing rules (step 1 of the pipeline, Fig. 8).

    ``characteristic`` mode prescribes a base vertical edge length plus
    per-layer refinements; ``wavelength`` mode derives edge lengths from the
    velocity model via the elements-per-wavelength rule.
    """

    mode: str = "characteristic"
    characteristic_length: float = 2000.0
    refinements: tuple[RefinementSpec, ...] = ()
    max_frequency: float = 1.0
    elements_per_wavelength: float = 2.0
    horizontal_factor: float = 1.0
    jitter: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "refinements",
            tuple(
                r if isinstance(r, RefinementSpec) else RefinementSpec(**r)
                for r in self.refinements
            ),
        )
        if self.mode not in MESH_MODES:
            raise ValueError(f"mesh mode must be one of {MESH_MODES}")
        if self.characteristic_length <= 0:
            raise ValueError("characteristic length must be positive")
        if self.max_frequency <= 0:
            raise ValueError("max frequency must be positive")
        if self.elements_per_wavelength <= 0:
            raise ValueError("elements per wavelength must be positive")
        if self.horizontal_factor <= 0:
            raise ValueError("horizontal factor must be positive")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError("jitter must lie in [0, 0.5)")


@dataclass(frozen=True)
class VelocityModelSpec:
    """A named velocity model kind plus its free parameters.

    Kinds: ``loh3`` (the published layer-over-halfspace model),
    ``la_habra_basin`` (synthetic CVM stand-in; params ``min_vs``,
    ``basin_vs``, ``basin_max_depth``, ...), ``homogeneous`` (params ``rho``,
    ``vp``, ``vs`` and optional ``qp``/``qs``), ``layered`` (param
    ``layers``: a list of layer dicts).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in VELOCITY_MODEL_KINDS:
            raise ValueError(f"velocity model kind must be one of {VELOCITY_MODEL_KINDS}")
        object.__setattr__(self, "params", json_native(self.params))
        if self.kind == "homogeneous":
            for key in ("rho", "vp", "vs"):
                if key not in self.params:
                    raise ValueError(f"homogeneous model needs parameter {key!r}")
        if self.kind == "layered" and not self.params.get("layers"):
            raise ValueError("layered model needs a non-empty 'layers' parameter")


@dataclass(frozen=True)
class MaterialSpec:
    """Material options: anelasticity and the constant-Q fit."""

    anelastic: bool = True
    n_mechanisms: int = 3
    frequency_band: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.frequency_band is not None:
            object.__setattr__(self, "frequency_band", _floats(self.frequency_band))
            lo, hi = self.frequency_band
            if lo <= 0 or hi <= lo:
                raise ValueError("frequency band must be 0 < lo < hi")
        if self.n_mechanisms < 0:
            raise ValueError("n_mechanisms must be non-negative")


@dataclass(frozen=True)
class TimeFunctionSpec:
    """A named source time function (``ricker``, ``gaussian_derivative``,
    ``smoothed_step``) with its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TIME_FUNCTION_KINDS:
            raise ValueError(f"time function kind must be one of {TIME_FUNCTION_KINDS}")
        object.__setattr__(self, "params", json_native(self.params))

    def build(self):
        from ..source.time_functions import GaussianDerivative, RickerWavelet, SmoothedStep

        cls = {
            "ricker": RickerWavelet,
            "gaussian_derivative": GaussianDerivative,
            "smoothed_step": SmoothedStep,
        }[self.kind]
        return cls(**self.params)


@dataclass(frozen=True)
class FusedSourceSpec:
    """Per-slot source overrides for one slot of a fused ensemble.

    Every field defaults to "inherit from the base source": ``moment_scale``
    multiplies the base moment tensor (or force), ``time_function`` replaces
    the base source time function (onset delays, centre frequencies, ...),
    and ``moment_tensor``/``force`` replace the base mechanism outright.  The
    slot's *location* is always the base location -- fused simulations share
    one mesh and one source element.
    """

    moment_scale: float = 1.0
    time_function: TimeFunctionSpec | None = None
    moment_tensor: tuple[tuple[float, float, float], ...] | None = None
    force: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        import math

        object.__setattr__(self, "moment_scale", float(self.moment_scale))
        if not math.isfinite(self.moment_scale):
            raise ValueError("fused slot moment_scale must be finite")
        if isinstance(self.time_function, dict):
            object.__setattr__(self, "time_function", TimeFunctionSpec(**self.time_function))
        if self.moment_tensor is not None:
            object.__setattr__(
                self, "moment_tensor", tuple(_floats(row) for row in self.moment_tensor)
            )
            if len(self.moment_tensor) != 3 or any(len(r) != 3 for r in self.moment_tensor):
                raise ValueError("fused slot moment tensor must be 3x3")
        if self.force is not None:
            object.__setattr__(self, "force", _floats(self.force))
            if len(self.force) != 3:
                raise ValueError("fused slot force must be a 3-vector")


@dataclass(frozen=True)
class SourceSpec:
    """A kinematic point source: moment tensor or single force.

    A non-empty ``fused`` block turns the source into a fused ensemble: slot
    ``f`` of the fused run uses the base source with the per-slot overrides
    of ``fused[f]`` applied (see :class:`FusedSourceSpec`).  The block length
    must equal ``solver.n_fused`` (validated at the :class:`ScenarioSpec`
    level).
    """

    kind: str
    location: tuple[float, float, float]
    time_function: TimeFunctionSpec
    moment_tensor: tuple[tuple[float, float, float], ...] | None = None
    force: tuple[float, float, float] | None = None
    fused: tuple[FusedSourceSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _floats(self.location))
        if isinstance(self.time_function, dict):
            object.__setattr__(self, "time_function", TimeFunctionSpec(**self.time_function))
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"source kind must be one of {SOURCE_KINDS}")
        if len(self.location) != 3:
            raise ValueError("source location must be a 3-vector")
        if self.kind == "moment_tensor":
            if self.moment_tensor is None:
                raise ValueError("moment_tensor source needs a moment tensor")
            object.__setattr__(
                self, "moment_tensor", tuple(_floats(row) for row in self.moment_tensor)
            )
            if len(self.moment_tensor) != 3 or any(len(r) != 3 for r in self.moment_tensor):
                raise ValueError("moment tensor must be 3x3")
        if self.kind == "point_force":
            if self.force is None:
                raise ValueError("point_force source needs a force vector")
            object.__setattr__(self, "force", _floats(self.force))
            if len(self.force) != 3:
                raise ValueError("force must be a 3-vector")
        object.__setattr__(
            self,
            "fused",
            tuple(
                s if isinstance(s, FusedSourceSpec) else FusedSourceSpec(**s)
                for s in self.fused
            ),
        )
        for slot in self.fused:
            if self.kind == "moment_tensor" and slot.force is not None:
                raise ValueError("fused slot of a moment_tensor source cannot override force")
            if self.kind == "point_force" and slot.moment_tensor is not None:
                raise ValueError(
                    "fused slot of a point_force source cannot override moment_tensor"
                )

    def slot(self, index: int) -> "SourceSpec":
        """The effective *scalar* source spec of fused slot ``index``.

        This is the spec a standalone run of that slot's source would use;
        slot-wise bit-identity tests compare against exactly this spec.
        """
        entry = self.fused[index]
        time_function = (
            entry.time_function if entry.time_function is not None else self.time_function
        )
        moment_tensor, force = self.moment_tensor, self.force
        if self.kind == "moment_tensor":
            if entry.moment_tensor is not None:
                moment_tensor = entry.moment_tensor
            if entry.moment_scale != 1.0:
                moment_tensor = tuple(
                    tuple(entry.moment_scale * v for v in row) for row in moment_tensor
                )
        else:
            if entry.force is not None:
                force = entry.force
            if entry.moment_scale != 1.0:
                force = tuple(entry.moment_scale * v for v in force)
        return SourceSpec(
            kind=self.kind,
            location=self.location,
            time_function=time_function,
            moment_tensor=moment_tensor,
            force=force,
        )

    def slot_labels(self) -> list[dict]:
        """JSON-ready per-slot descriptors for run summaries and writers."""
        labels = []
        for f in range(len(self.fused)):
            slot = self.slot(f)
            label = {
                "slot": f,
                "kind": slot.kind,
                "moment_scale": self.fused[f].moment_scale,
                "time_function": {
                    "kind": slot.time_function.kind,
                    "params": slot.time_function.params,
                },
            }
            if slot.kind == "moment_tensor":
                label["moment_tensor"] = [list(row) for row in slot.moment_tensor]
            else:
                label["force"] = list(slot.force)
            labels.append(label)
        return labels

    def build(self):
        import numpy as np

        from ..source.moment_tensor import MomentTensorSource, PointForceSource

        if self.fused:
            # a fused ensemble builds one per-slot source list; the solver
            # binds it as a single stacked DiscretePointSource
            return [self.slot(f).build() for f in range(len(self.fused))]
        stf = self.time_function.build()
        if self.kind == "moment_tensor":
            return MomentTensorSource(
                location=np.asarray(self.location),
                moment_tensor=np.asarray(self.moment_tensor),
                time_function=stf,
            )
        return PointForceSource(
            location=np.asarray(self.location),
            force=np.asarray(self.force),
            time_function=stf,
        )


@dataclass(frozen=True)
class InitialConditionSpec:
    """An analytic initial condition projected onto the DG basis.

    ``gaussian_pulse``: params ``component`` (0-8), ``width``, ``amplitude``
    and optional ``center`` (defaults to the domain centre).
    ``plane_wave``: an exact elastic plane P wave along x; params
    ``amplitude``, ``wavelength``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in INITIAL_CONDITION_KINDS:
            raise ValueError(f"initial condition kind must be one of {INITIAL_CONDITION_KINDS}")
        object.__setattr__(self, "params", json_native(self.params))


@dataclass(frozen=True)
class ClusteringSpec:
    """LTS clustering policy: ``lam = None`` runs the lambda grid search."""

    n_clusters: int = 3
    lam: float | None = None
    increment: float = 0.01

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if self.lam is not None and not 0.5 < self.lam <= 1.0:
            raise ValueError("lambda must lie in (0.5, 1]")
        if not 0.0 < self.increment <= 0.5:
            raise ValueError("lambda increment must lie in (0, 0.5]")


def _without_legacy_comm(solver: dict) -> dict:
    """The solver block minus the ``comm`` key of older serialisations.

    Goldens, ledgers and checkpoints written while the multi-rank engine had a
    choice of halo transports carry ``"comm": "queue"``, which is the one
    transport left, so it is dropped; any other value names the removed
    shared-memory ring transport and must not silently run as ``queue``.
    """
    if "comm" not in solver:
        return solver
    solver = dict(solver)
    comm = solver.pop("comm")
    if comm != "queue":
        raise ValueError(
            f"solver comm {comm!r} is no longer supported: the shared-memory "
            "ring transport was removed and the multi-rank engine's one halo "
            "transport is multiprocessing queues; delete the 'comm' key"
        )
    return solver


@dataclass(frozen=True)
class SolverSpec:
    """Solver kind and kernel options.

    ``kind`` is ``"gts"`` (global time stepping: the clustered solver with
    every element in cluster 0) or ``"lts"`` (clustered local time
    stepping).  ``n_ranks > 1``, for either kind, executes the run through the
    distributed multi-rank engine (weighted partitioning plus
    face-local compressed halo exchange, Sec. V-C); the result is
    bit-identical to the single-rank run; the engine forks one worker
    process per rank, which step concurrently with overlapped halo exchange.
    ``backend`` (``"serial"`` or ``"process"``) selects nothing: it stays a
    validated field because goldens, checkpoints, ledgers and the benchmark
    harness's specs carry it.  ``comm_timeout`` bounds a blocked halo
    receive, per message, in seconds (``None``: the engine's 120 s default).
    ``kernels`` selects the kernel-execution backend: ``"ref"`` (the plain
    reference kernels, the oracle) or ``"fast"`` (stacked-operator GEMMs on
    cache-sized element blocks with reusable scratch workspaces,
    *tolerance-equal* under the :mod:`repro.verification` contract).  The
    default is :func:`~repro.kernels.backend.default_kernels` (the
    ``REPRO_KERNELS`` environment variable, falling back to ``"ref"``),
    resolved at construction time, so one CI leg can
    soak every spec-driven test under a non-default kernel backend while
    serialised specs stay explicit.
    ``precision`` runs the solver state and operators in ``"f64"`` or
    ``"f32"`` end to end (halo payloads included).
    """

    kind: str = "lts"
    n_fused: int = 0
    flux: str = "rusanov"
    cfl: float = 0.5
    n_ranks: int = 1
    backend: str = "serial"
    comm_timeout: float | None = None
    kernels: str | None = None
    precision: str = "f64"

    def __post_init__(self) -> None:
        if self.kernels is None:
            object.__setattr__(self, "kernels", default_kernels())
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"solver kind must be one of {SOLVER_KINDS}")
        if self.n_fused < 0:
            raise ValueError("n_fused must be non-negative")
        if self.flux not in ("rusanov", "godunov"):
            raise ValueError("flux must be 'rusanov' or 'godunov'")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        if self.backend not in SOLVER_BACKENDS:
            raise ValueError(f"solver backend must be one of {SOLVER_BACKENDS}")
        if self.backend == "process" and self.n_ranks < 2:
            raise ValueError(
                "the process backend requires solver.n_ranks >= 2 "
                "(a one-rank run has no rank workers to host)"
            )
        if self.comm_timeout is not None:
            object.__setattr__(self, "comm_timeout", float(self.comm_timeout))
            if self.comm_timeout <= 0:
                raise ValueError("comm_timeout must be positive (seconds)")
        if self.kernels not in SOLVER_KERNELS:
            raise ValueError(f"solver kernels must be one of {SOLVER_KERNELS}")
        if self.precision not in SOLVER_PRECISIONS:
            raise ValueError(f"solver precision must be one of {SOLVER_PRECISIONS}")


@dataclass(frozen=True)
class PreprocessingSpec:
    """Optional pipeline postprocessing: weighted partitioning + reordering.

    ``reorder`` selects nothing: more than one partition (or rank,
    :attr:`ScenarioSpec.n_partitions`) orders the elements by (cluster,
    partition, role).  It stays a field, loaded and serialised as before,
    because goldens, checkpoints and the benchmark harness's specs carry it.
    """

    reorder: bool = False
    n_partitions: int = 1

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")


@dataclass(frozen=True)
class RunSpec:
    """Run duration: either ``n_cycles`` macro cycles or a target time.

    ``checkpoint_every = 0`` explicitly disables cadence checkpointing (it
    normalises to ``None``), so a CLI override of ``--checkpoint-every 0``
    can switch a spec's cadence off.
    """

    n_cycles: int | None = 4
    t_end: float | None = None
    checkpoint_every: int | None = None

    def __post_init__(self) -> None:
        if (self.n_cycles is None) == (self.t_end is None):
            raise ValueError("specify exactly one of n_cycles and t_end")
        if self.n_cycles is not None and self.n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        if self.t_end is not None and self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 0:
                raise ValueError("checkpoint_every must be non-negative")
            if self.checkpoint_every == 0:
                object.__setattr__(self, "checkpoint_every", None)


@dataclass(frozen=True)
class OutputSpec:
    """Observability knobs of a run.

    ``telemetry`` turns on the phase timers and counters (the
    run summary gains a ``telemetry`` block); ``trace`` additionally records
    per-region events for the Chrome-trace export and implies ``telemetry``.
    ``events`` names a JSONL run-ledger path (one flushed record per macro
    cycle plus a provenance header); the per-rank recv-wait column needs the
    phase timers, so it implies ``telemetry`` too.  ``progress`` turns on
    the live stderr heartbeat (cycle counter, updates/s, ETA) and needs no
    telemetry.  All default off, so unconfigured runs keep the no-op path.
    """

    telemetry: bool = False
    trace: bool = False
    events: str | None = None
    progress: bool = False

    def __post_init__(self) -> None:
        if (self.trace or self.events) and not self.telemetry:
            object.__setattr__(self, "telemetry", True)
        if self.events is not None:
            object.__setattr__(self, "events", str(self.events))

    @property
    def active(self) -> bool:
        return self.telemetry or self.trace


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, validated description of one runnable scenario."""

    name: str
    description: str
    domain: DomainSpec
    mesh: MeshSpec
    velocity_model: VelocityModelSpec
    material: MaterialSpec = MaterialSpec()
    order: int = 4
    source: SourceSpec | None = None
    receivers: tuple[tuple[str, tuple[float, float, float]], ...] = ()
    initial_condition: InitialConditionSpec | None = None
    clustering: ClusteringSpec = ClusteringSpec()
    solver: SolverSpec = SolverSpec()
    preprocessing: PreprocessingSpec = PreprocessingSpec()
    run: RunSpec = RunSpec()
    output: OutputSpec = OutputSpec()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.order < 2:
            raise ValueError("order must be >= 2")
        object.__setattr__(
            self,
            "receivers",
            tuple((str(name), _floats(loc)) for name, loc in self.receivers),
        )
        for name, loc in self.receivers:
            if len(loc) != 3:
                raise ValueError(f"receiver {name!r} location must be a 3-vector")
        if self.source is None and self.initial_condition is None:
            raise ValueError("scenario needs a source or an initial condition")
        if self.source is not None and self.source.fused:
            if len(self.source.fused) != self.solver.n_fused:
                raise ValueError(
                    f"fused source block has {len(self.source.fused)} slot(s) "
                    f"but solver.n_fused is {self.solver.n_fused}"
                )
        n_ranks, n_partitions = self.solver.n_ranks, self.preprocessing.n_partitions
        if n_partitions not in (1, self.n_partitions):
            raise ValueError(
                f"solver.n_ranks is {n_ranks} but preprocessing.n_partitions is {n_partitions}: "
                "a multi-rank run has one partition per rank, so it must be 1 or n_ranks"
            )

    # -- convenience accessors -----------------------------------------
    @property
    def n_partitions(self) -> int:
        """The run's partition count: ``n_ranks`` on ranks, else ``preprocessing.n_partitions``."""
        return self.solver.n_ranks if self.solver.n_ranks > 1 else self.preprocessing.n_partitions

    @property
    def receiver_locations(self) -> dict:
        import numpy as np

        return {name: np.asarray(loc, dtype=np.float64) for name, loc in self.receivers}

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-native nested-dict form (tuples become lists)."""
        return json.loads(self.to_json())

    def to_json(self, indent: int | None = None) -> str:
        data = asdict(self)
        source = data.get("source")
        if source is not None and not source.get("fused"):
            # scalar specs serialised before fused ensembles carry no
            # 'fused' key; omit the empty block so old and new scalar
            # serialisations stay identical (golden fixtures, ledgers)
            source.pop("fused", None)
        return json.dumps(data, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        data["domain"] = DomainSpec(**data["domain"])
        data["mesh"] = MeshSpec(**data["mesh"])
        data["velocity_model"] = VelocityModelSpec(**data["velocity_model"])
        data["material"] = MaterialSpec(**data["material"])
        if data.get("source") is not None:
            data["source"] = SourceSpec(**data["source"])
        if data.get("initial_condition") is not None:
            data["initial_condition"] = InitialConditionSpec(**data["initial_condition"])
        data["receivers"] = tuple((name, tuple(loc)) for name, loc in data.get("receivers", ()))
        data["clustering"] = ClusteringSpec(**data["clustering"])
        data["solver"] = SolverSpec(**_without_legacy_comm(data["solver"]))
        data["preprocessing"] = PreprocessingSpec(**data.get("preprocessing", {}))
        data["run"] = RunSpec(**data["run"])
        # absent in specs serialised before the observability subsystem
        data["output"] = OutputSpec(**data.get("output", {}))
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- derived specs -------------------------------------------------
    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy of this spec with the knobs named in :data:`OVERRIDE_PATHS`
        changed, revalidated through the spec constructors.

        ``None`` keeps a knob, except for the names in
        :data:`NULLABLE_OVERRIDES`, whose ``None`` is a value.  ``n_cycles``
        and ``t_end`` each clear the other, so passing both is an error.
        """
        unknown = sorted(set(overrides) - set(OVERRIDE_PATHS))
        if unknown:
            raise ValueError(
                f"unknown override(s) {', '.join(unknown)} "
                f"(known: {', '.join(OVERRIDE_PATHS)})"
            )
        given = {
            name: value
            for name, value in overrides.items()
            if value is not None or name in NULLABLE_OVERRIDES
        }
        if "n_cycles" in given and "t_end" in given:
            raise ValueError(
                "n_cycles and t_end both given: a run lasts either n_cycles "
                "macro cycles or until t_end, pass one"
            )
        if not given:
            return self
        data = self.to_dict()
        for name, value in given.items():
            set_path(data, OVERRIDE_PATHS[name], value)
            if name in _CLEARS:
                set_path(data, _CLEARS[name], None)
        return type(self).from_dict(data)

    def smoke(self) -> "ScenarioSpec":
        """A coarsened, two-cycle variant for smoke tests and CI."""
        mesh = self.mesh
        if mesh.mode == "characteristic":
            mesh = replace(mesh, characteristic_length=1.5 * mesh.characteristic_length)
        else:
            mesh = replace(mesh, max_frequency=0.75 * mesh.max_frequency)
        clustering = replace(self.clustering, increment=max(self.clustering.increment, 0.05))
        return replace(
            self,
            order=min(self.order, 3),
            mesh=mesh,
            clustering=clustering,
            run=RunSpec(n_cycles=2, t_end=None, checkpoint_every=None),
        )
