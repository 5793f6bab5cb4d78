"""Content-addressed preprocessing cache.

The paper's fused-simulation and clustered-LTS arguments are amortization
arguments: many related runs should share setup cost.  This module makes
that sharing concrete for the preprocessing pipeline of
:func:`~repro.scenarios.runner.build_setup`: each stage -- mesh, materials,
LTS clustering, weighted partition / reordering -- is keyed by a SHA-256
over *only the spec fields that determine its result* and persisted as an
``.npz`` under a cache directory.  A 1000-member source ensemble on a
shared mesh therefore pays mesh, lambda-search and partition cost once: the
source location is not part of any stage key, so every member after the
first loads bit-identical arrays from disk.  The assembled kernel operators
are deliberately *not* a stage: since the batched assembly they are built
faster than their ~13 kB per element load from disk (README, "The
preprocessing cache").

Stage keys deliberately do NOT reuse
:func:`repro.observability.events.spec_content_hash`, which hashes the
whole spec including the ``output`` observability block -- two runs that
differ only in ``--events`` must share every cache entry.  The
``output``-insensitive whole-spec hash is :func:`result_content_hash`, the
identity under which sweep manifests compare members against standalone
runs.

Key derivation starts from ``spec.to_dict()`` -- the defaults-filled,
JSON-native form -- and serialises key-sorted, so field order, tuple/list
representation and defaulted-vs-explicit values cannot split the cache.

All writes are atomic (tmp file + ``os.replace``), so concurrent sweep
workers can share one cache directory: the worst race is building the same
artifact twice, never reading a torn file.  An artifact that does not load
anyway (truncated by a full disk, bit rot) is renamed aside, counted and
rebuilt -- one bad file must not crash every run that hits its key.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import suppress
from pathlib import Path

import numpy as np

from ..core.clustering import Clustering
from ..equations.material import MaterialTable
from ..mesh.tet_mesh import TetMesh

__all__ = [
    "CACHE_FORMAT_VERSION",
    "STAGES",
    "result_content_hash",
    "stage_key_fields",
    "stage_key",
    "needed_stage_keys",
    "PreprocessingCache",
    "diff_stats",
    "warm_preprocessing",
]

#: bumped whenever a stage's serialised layout (or anything influencing its artifact
#: bytes) changes; part of every stage key, so stale cache directories miss instead of
#: poisoning new runs (3: the partition stage's content changed under an unchanged key --
#: recursive bisection replaced the index-range split; 4: the ``operators`` stage is gone;
#: 5: the partition stage holds only the partitions and the -- now cluster-major, (cluster,
#: partition, role, id) -- permutation; 6: it partitions the cluster-ordered graph, puts
#: boundary elements first and serves multi-rank runs)
CACHE_FORMAT_VERSION = 6

#: the cacheable pipeline stages, in dependency order
STAGES = ("mesh", "materials", "clustering", "partition")


def _canonical_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_content_hash(spec) -> str:
    """SHA-256 of the spec minus the ``output`` observability block.

    The observability knobs (telemetry, traces, ledgers, progress) never
    influence the numerical result, so this is the identity under which a
    sweep member and a standalone ``repro run`` of "the same scenario"
    compare equal even though the sweep instruments its members.
    """
    data = spec.to_dict()
    data.pop("output", None)
    return _canonical_hash(data)


# ---------------------------------------------------------------------------
# per-stage key fields
# ---------------------------------------------------------------------------


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
    return _canonical_hash(
        {"stage": stage, "format": CACHE_FORMAT_VERSION, **stage_key_fields(spec, stage)}
    )


def needed_stage_keys(spec) -> list[tuple[str, str]]:
    """``(stage, key)`` of every artifact a run of ``spec`` loads or stores
    (``partition``, the last stage, only with more than one partition)."""
    stages = STAGES if spec.n_partitions > 1 else STAGES[:-1]
    return [(stage, stage_key(spec, stage)) for stage in stages]


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class PreprocessingCache:
    """Content-addressed, on-disk store of preprocessing stage artifacts.

    Layout: ``<root>/<stage>/<key>.npz``, one file per artifact.  Loads and
    stores are counted per stage in :attr:`stats` (``corrupt`` counts the
    artifacts that failed to load and were quarantined as
    ``<key>.corrupt.<pid>``; each is also a miss); sweep workers report the
    per-member delta (:meth:`snapshot` / :func:`diff_stats`) into the sweep
    manifest, which is how "preprocessing was paid exactly once" becomes a
    checkable claim rather than a hope.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.stats: dict[str, dict[str, int]] = {
            stage: {"hits": 0, "misses": 0, "corrupt": 0} for stage in STAGES
        }

    # -- bookkeeping -----------------------------------------------------
    def snapshot(self) -> dict:
        """A deep copy of the counters (for delta accounting)."""
        return {stage: dict(counts) for stage, counts in self.stats.items()}

    def _count(self, stage: str, hit: bool) -> None:
        self.stats[stage]["hits" if hit else "misses"] += 1

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.npz"

    def _store(self, stage: str, key: str, arrays: dict) -> None:
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # atomic publish: concurrent workers may race to build the same
        # artifact, but a reader can never observe a torn file
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)

    def _load(self, stage: str, key: str) -> dict | None:
        path = self._path(stage, key)
        try:
            with np.load(path) as data:
                return {name: data[name] for name in data.files}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            # quarantine and report a miss: the caller rebuilds and
            # re-stores (a concurrent worker may have moved it already)
            with suppress(FileNotFoundError):
                os.replace(path, path.with_suffix(f".corrupt.{os.getpid()}"))
            self.stats[stage]["corrupt"] += 1
            return None

    def is_warm(self, spec) -> bool:
        """Whether every stage artifact the spec needs already exists on disk."""
        return all(self._path(stage, key).exists() for stage, key in needed_stage_keys(spec))

    # -- stages ----------------------------------------------------------
    def _load_or_build(self, stage: str, spec, build, pack, unpack):
        """``unpack`` the stored arrays of a stage, or ``build()`` the object
        and persist what ``pack`` makes of it."""
        key = stage_key(spec, stage)
        stored = self._load(stage, key)
        self._count(stage, hit=stored is not None)
        if stored is not None:
            return unpack(stored)
        built = build()
        self._store(stage, key, pack(built))
        return built

    def mesh(self, spec, build) -> TetMesh:
        """Load the mesh stage, or ``build()`` and persist it."""
        fields = ("vertices", "elements", "boundary_tags")
        return self._load_or_build(
            "mesh", spec, build,
            lambda mesh: {name: getattr(mesh, name) for name in fields},
            lambda stored: TetMesh(**stored),
        )

    def materials(self, spec, build) -> MaterialTable:
        """Load the materials stage, or ``build()`` and persist it."""
        fields = ("rho", "vp", "vs", "qp", "qs")
        return self._load_or_build(
            "materials", spec, build,
            lambda table: {name: getattr(table, name) for name in fields},
            lambda stored: MaterialTable(**stored),
        )

    def discretization(self, mesh, materials, **kwargs):
        """Assemble the :class:`~repro.kernels.discretization.Discretization`
        of a cached run.

        Not a cached stage: the operators are assembled faster than they
        load (see the module docstring).  The method stays as the named
        boundary between the cached stages and operator assembly, which
        setup tracers substitute by name.
        """
        from ..kernels.discretization import Discretization

        return Discretization(mesh, materials, **kwargs)

    def clustering(self, spec, derive) -> Clustering:
        """Load the clustering stage, or ``derive()`` and persist it."""
        return self._load_or_build(
            "clustering", spec, derive, _clustering_arrays, _clustering_from
        )

    def partition(self, spec) -> dict | None:
        """The cached partition/reordering stage, or ``None`` on a miss.

        Returns ``{"partitions", "permutation"}`` in *original* element
        order; the caller applies the permutation (cheap) before assembly.
        """
        stored = self._load("partition", stage_key(spec, "partition"))
        self._count("partition", hit=stored is not None)
        return stored

    def store_partition(self, spec, *, partitions, permutation) -> None:
        """Persist the partition/reordering stage."""
        self._store(
            "partition",
            stage_key(spec, "partition"),
            {
                "partitions": np.asarray(partitions, dtype=np.int64),
                "permutation": np.asarray(permutation, dtype=np.int64),
            },
        )


def _clustering_arrays(clustering: Clustering) -> dict:
    return {
        "cluster_ids": clustering.cluster_ids,
        "cluster_time_steps": clustering.cluster_time_steps,
        "lam": np.float64(clustering.lam),
        "dt_min": np.float64(clustering.dt_min),
    }


def _clustering_from(stored: dict) -> Clustering:
    return Clustering(
        cluster_ids=stored["cluster_ids"],
        cluster_time_steps=stored["cluster_time_steps"],
        lam=float(stored["lam"]),
        dt_min=float(stored["dt_min"]),
    )


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
    """Build (or touch) every stage artifact a spec needs; returns the
    per-stage hit/miss delta.

    The sweep orchestrator calls this once per unique preprocessing
    signature *before* starting its workers, so a shared-mesh ensemble pays
    mesh/clustering/partition cost exactly once -- in the parent -- and every
    member run is a pure cache hit regardless of worker count.  Only the
    preprocessing stages run: no operators are assembled and no solver is
    constructed.
    """
    from ..scenarios.runner import preprocess_setup, staged_setup

    before = cache.snapshot()
    setup = staged_setup(spec, cache=cache)
    if spec.n_partitions > 1:
        preprocess_setup(spec, setup, cache=cache)
    return diff_stats(before, cache.snapshot())
