"""Content-addressed, in-process preprocessing store.

Many related runs should share setup cost.  Each stage of the preprocessing
pipeline of :func:`~repro.scenarios.runner.build_setup` -- mesh, materials,
LTS clustering, weighted partition / reordering -- is keyed by a SHA-256
over *only the spec fields that determine its result* (see
:func:`stage_key_fields`), so a source ensemble on a shared mesh pays mesh,
lambda-search and partition cost once and every later member unpacks
bit-identical arrays.  The assembled operators are *not* a stage: they are
~13 kB per element, the bulk of a run's memory, and assembled faster than
they ever loaded from disk.

There is one store per root per process, a module-level dict keyed by the
root path: every :class:`PreprocessingCache` on one root shares its
entries, a new root starts cold, and forked sweep workers inherit what their
parent stored before the fork.  Nothing is written to disk, so nothing
outlives the process (README, "Sweeps & preprocessing cache", measures what
that costs), and nothing is evicted: a process keeps every entry it stored
(under 1 MB for a 7200-element mesh).

Keys hash ``spec.to_dict()`` -- defaults filled, JSON-native -- with
:func:`~repro.observability.events.canonical_sha256`; unlike
:func:`~repro.observability.events.spec_content_hash` they never see the
``output`` block, so ``--events`` never splits the cache.
:func:`result_content_hash` is the ``output``-insensitive whole-spec hash
under which sweep manifests compare members against standalone runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.clustering import Clustering
from ..equations.material import MaterialTable
from ..mesh.tet_mesh import TetMesh
from ..observability.events import canonical_sha256

__all__ = [
    "STAGES",
    "result_content_hash",
    "stage_key_fields",
    "stage_key",
    "needed_stage_keys",
    "PreprocessingCache",
    "diff_stats",
    "warm_preprocessing",
]

#: the cacheable pipeline stages, in dependency order
STAGES = ("mesh", "materials", "clustering", "partition")

#: root path -> that root's entries, ``(stage, key) -> {name: read-only array}``
_STORES: dict[Path, dict] = {}


def result_content_hash(spec) -> str:
    """SHA-256 of the spec minus the ``output`` observability block.

    The observability knobs (telemetry, traces, ledgers, progress) never
    influence the numerical result, so this is the identity under which a
    sweep member and a standalone ``repro run`` of "the same scenario"
    compare equal even though the sweep instruments its members.
    """
    data = spec.to_dict()
    data.pop("output", None)
    return canonical_sha256(data)


def stage_key_fields(spec, stage: str) -> dict:
    """The result-determining spec fields of one pipeline stage.

    * ``mesh``: the domain and mesh blocks; in ``wavelength`` mode also the
      velocity model and the order (the elements-per-wavelength rule reads
      both).  Source, materials options, solver and output knobs are
      excluded -- a source ensemble shares one mesh.
    * ``materials``: the mesh fields plus the velocity model and the
      ``anelastic`` switch (which strips the quality factors).
    * ``clustering``: the materials fields plus order, CFL and the
      clustering policy (the per-element CFL steps feed the lambda search);
      the policy's LTS clustering in original element order, so reordered
      and plain runs, GTS and LTS, share the entry.
    * ``partition``: the clustering fields plus the run's partition count
      (``spec.n_partitions``: 2 ranks share 2 partitions' entry) and the
      solver kind (a GTS run partitions and orders by its own, one-cluster
      clustering) -- not ``preprocessing.reorder``, which selects nothing.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    d = spec.to_dict()
    fields: dict = {"domain": d["domain"], "mesh": d["mesh"]}
    if stage == "mesh":
        if spec.mesh.mode == "wavelength":
            fields["velocity_model"] = d["velocity_model"]
            fields["order"] = d["order"]
        return fields
    fields["velocity_model"] = d["velocity_model"]
    fields["anelastic"] = d["material"]["anelastic"]
    if stage == "materials":
        return fields
    fields["order"] = d["order"]
    fields["cfl"] = d["solver"]["cfl"]
    fields["clustering"] = d["clustering"]
    if stage == "clustering":
        return fields
    fields["n_partitions"] = spec.n_partitions  # stage == "partition"
    fields["solver_kind"] = d["solver"]["kind"]
    return fields


def stage_key(spec, stage: str) -> str:
    """The content-address of one stage: SHA-256 over its key fields."""
    return canonical_sha256({"stage": stage, **stage_key_fields(spec, stage)})


def needed_stage_keys(spec) -> list[tuple[str, str]]:
    """``(stage, key)`` of every artifact a run of ``spec`` loads or stores
    (``partition``, the last stage, only with more than one partition)."""
    stages = STAGES if spec.n_partitions > 1 else STAGES[:-1]
    return [(stage, stage_key(spec, stage)) for stage in stages]


#: the object each loaded stage is built as, and the attributes its entry packs
_PACKED = {
    "mesh": (TetMesh, ("vertices", "elements", "boundary_tags")),
    "materials": (MaterialTable, ("rho", "vp", "vs", "qp", "qs")),
    "clustering": (Clustering, ("cluster_ids", "cluster_time_steps", "lam", "dt_min")),
}


def _copied(value, writeable: bool):
    """A copy of an array (a scalar as it is), read-only unless ``writeable``."""
    if not isinstance(value, np.ndarray):
        return value
    copy = np.array(value)
    copy.flags.writeable = writeable
    return copy


class PreprocessingCache:
    """The preprocessing stage artifacts of one root, kept in this process.

    Every cache on one root shares :attr:`entries` (the root's store).  An
    entry holds read-only copies of the arrays a stage packs, and a hit
    unpacks fresh copies into a new object, so no run can change what the
    next one reads.  Loads are counted per stage in :attr:`stats`; sweep
    workers report the per-member delta (:meth:`snapshot` /
    :func:`diff_stats`) into the sweep manifest, which is how
    "preprocessing was paid exactly once" becomes a checkable claim rather
    than a hope.
    """

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.entries: dict = _STORES.setdefault(self.root, {})
        self.stats = {stage: {"hits": 0, "misses": 0} for stage in STAGES}

    def snapshot(self) -> dict:
        """A deep copy of the counters (for delta accounting)."""
        return {stage: dict(counts) for stage, counts in self.stats.items()}

    def is_warm(self, spec) -> bool:
        """Whether every stage artifact the spec needs is already stored."""
        return all(entry in self.entries for entry in needed_stage_keys(spec))

    def _load(self, stage: str, key: str) -> dict | None:
        """Fresh copies of a stage's stored arrays (``None`` on a miss), counted."""
        stored = self.entries.get((stage, key))
        self.stats[stage]["misses" if stored is None else "hits"] += 1
        if stored is None:
            return None
        return {name: _copied(value, True) for name, value in stored.items()}

    def _store(self, stage: str, key: str, arrays: dict) -> None:
        self.entries[stage, key] = {
            name: _copied(value, False) for name, value in arrays.items()
        }

    def _load_or_build(self, stage: str, spec, build):
        """Unpack a stage's stored arrays into a new object, or ``build()``
        the object and store its packed attributes."""
        kind, fields = _PACKED[stage]
        key = stage_key(spec, stage)
        stored = self._load(stage, key)
        if stored is not None:
            return kind(**stored)
        built = build()
        self._store(stage, key, {name: getattr(built, name) for name in fields})
        return built

    # -- stages ----------------------------------------------------------
    def mesh(self, spec, build) -> TetMesh:
        """Load the mesh stage, or ``build()`` and store it."""
        return self._load_or_build("mesh", spec, build)

    def materials(self, spec, build) -> MaterialTable:
        """Load the materials stage, or ``build()`` and store it."""
        return self._load_or_build("materials", spec, build)

    def discretization(self, mesh, materials, **kwargs):
        """Assemble the :class:`~repro.kernels.discretization.Discretization`
        of a cached run.

        Not a cached stage (see the module docstring): the method stays as
        the named boundary between the cached stages and operator assembly,
        which setup tracers substitute by name.
        """
        from ..kernels.discretization import Discretization

        return Discretization(mesh, materials, **kwargs)

    def clustering(self, spec, derive) -> Clustering:
        """Load the clustering stage, or ``derive()`` and store it."""
        return self._load_or_build("clustering", spec, derive)

    def partition(self, spec) -> dict | None:
        """The cached partition/reordering stage, or ``None`` on a miss.

        Returns ``{"partitions", "permutation"}`` in *original* element
        order; the caller applies the permutation (cheap) before assembly.
        """
        return self._load("partition", stage_key(spec, "partition"))

    def store_partition(self, spec, *, partitions, permutation) -> None:
        """Store the partition/reordering stage."""
        self._store("partition", stage_key(spec, "partition"), {
            "partitions": np.asarray(partitions, dtype=np.int64),
            "permutation": np.asarray(permutation, dtype=np.int64),
        })


def diff_stats(before: dict, after: dict) -> dict:
    """Per-stage counter delta between two :meth:`snapshot` results,
    dropping stages that saw no traffic (keeps manifest rows small)."""
    delta = {}
    for stage, counts in after.items():
        base = before.get(stage, {})
        row = {k: counts[k] - base.get(k, 0) for k in counts}
        if any(row.values()):
            delta[stage] = row
    return delta


def warm_preprocessing(spec, cache: PreprocessingCache) -> dict:
    """Build (or hit) every stage artifact a spec needs; returns the
    per-stage hit/miss delta.

    The sweep orchestrator calls this once per unique preprocessing
    signature *before* forking its workers, so a shared-mesh ensemble pays
    mesh/clustering/partition cost exactly once -- in the parent, whose store
    the workers inherit -- and every member run is a pure cache hit.  Only
    the preprocessing stages run: no operators, no solver.
    """
    from ..scenarios.runner import preprocess_setup, staged_setup

    before = cache.snapshot()
    setup = staged_setup(spec, cache=cache)
    if spec.n_partitions > 1:
        preprocess_setup(spec, setup, cache=cache)
    return diff_stats(before, cache.snapshot())
