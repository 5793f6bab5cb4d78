"""Operator-assembly parity between two checkouts of this repository.

The batched setup path must reproduce what the per-face loops assembled:
every array of ``Discretization.operator_arrays()``, the reference-element
operators every set reads (``k_time``, ``k_vol``, ``ftilde``, ``fhat`` in
the set's precision, and the reference element's own ``neighbor_flux`` and
``fsurf`` tables as ``ref.*``), the clustering each case steps (``lam``,
``cluster_time_steps`` and ``cluster_ids``: the lambda search's output) and
the element ``locate_point`` picks for every source and receiver.  Because two versions
of ``repro`` cannot live in one interpreter, the check is two invocations::

    PYTHONPATH=<parent checkout>/src python benchmarks/operator_parity.py --dump parent.npz
    PYTHONPATH=src python benchmarks/operator_parity.py --compare parent.npz

Both walk one operator set at a time: ``--dump`` writes a compressed
``.npz`` entry by entry, and ``--compare`` holds one operator set of each
side in memory at a time.  ``--compare`` requires every
array to be the same bytes (shape, dtype and values, the sign of a zero
included -- ``np.array_equal`` takes ``-0.0 == 0.0``), and reports arrays
whose values are equal but whose zeros differ in sign as their own kind of
problem.  A dump of a checkout that stored the
dense ``star_elastic`` / ``star_anelastic`` / ``coupling`` stacks is
compared in the compact layout (``Discretization.star_stress`` and the
rest), once its dropped blocks proved exact zeros; a dump that listed the
four ``flux_*`` views is joined into the ``(K, 4, 15, 18)`` flux-solver
array they were views of, and such an array is compared as the elastic
``flux_solvers`` (rows 0-8) and the ``flux_anelastic`` velocity columns
(rows 9-14 at columns 6-8 and 15-17), once every other anelastic column
proved an exact zero.

The per-element arrays (one row per element) are written and compared in
generation order (row ``i`` is generated element ``i``, through
``mesh.original_ids``), as ``state_parity.py`` compares DOFs, so a change
of element order alone reads as 0 problems; cluster ids and located
elements are in generation order too.

``--compare`` also checks, for every operator set of every case, that a
rank's assembly (``Discretization.restricted`` on each side of the case's
2-partition setup's partition, built before the whole set exists) equals
the whole set's rows, and reports any mismatch as a problem.

Cases: the benchmark workloads' meshes (``loh3-m-lts``, ``basin-s-lts``, the
small LOH.3 of the sweep/CLI workloads, ``loh3-l-setup`` in original and
reordered element order), the golden-fixture configurations and every
registered scenario at its defaults; each with the spec's own flux and
mechanism count plus the other flux and m = 0 / m = 3, at f64 and at f32.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e: the workload generators)

from repro.kernels import Discretization  # noqa: E402
from repro.kernels.discretization import ELEMENT_OPERATORS  # noqa: E402
from repro.scenarios import ScenarioSpec, get_scenario, scenario_names  # noqa: E402
from repro.scenarios.runner import build_setup, preprocess_setup, staged_setup  # noqa: E402
from repro.source import locate_point  # noqa: E402
from repro.verification.golden import GOLDEN_SCENARIOS, golden_spec  # noqa: E402

#: the dense operator stacks older checkouts stored
DENSE_KEYS = ("star_elastic", "star_anelastic", "coupling")
#: the flux-solver views older checkouts listed, as blocks of their
#: ``(K, 4, 15, 18)`` ``flux_solvers``
FLUX_VIEW_KEYS = (("flux_local_elastic", "flux_neigh_elastic"),
                  ("flux_local_anelastic", "flux_neigh_anelastic"))
#: the ``[local | neighbour]`` velocity columns of that array's anelastic
#: rows: what ``flux_anelastic`` keeps
VELOCITY_COLUMNS = [6, 7, 8, 15, 16, 17]


def _specs() -> dict:
    specs = {}
    for name in ("loh3-m-lts", "basin-s-lts", "cli-s-run", "loh3-l-setup"):
        specs[name] = ScenarioSpec.from_dict(workloads.generate(name, seed=0)["spec"])
    for name in GOLDEN_SCENARIOS:
        specs[f"golden-{name}"] = golden_spec(name)
    for name in scenario_names():
        specs[f"scenario-{name}"] = get_scenario(name)
    return specs


#: the per-element operator arrays: one row per element, in the set's order
PER_ELEMENT = ELEMENT_OPERATORS + ("neighbor_flux_index",)


def generation_ordered(disc) -> dict:
    """``disc.operator_arrays()`` with the per-element arrays in generation
    order (row ``i`` is generated element ``i``)."""
    rows = np.argsort(disc.mesh.original_ids)
    return {
        name: array[rows] if name in PER_ELEMENT else array
        for name, array in disc.operator_arrays().items()
    }


#: the precision-cast reference-element operators of an operator set
REFERENCE_OPERATORS = ("k_time", "k_vol", "ftilde", "fhat")
#: the reference element's own tables, compared as ``ref.<name>``
REFERENCE_TABLES = ("neighbor_flux", "fsurf")


def reference_arrays(disc) -> dict:
    """The reference-element operators ``disc`` reads, by name."""
    arrays = {name: getattr(disc, name) for name in REFERENCE_OPERATORS}
    arrays.update({f"ref.{name}": getattr(disc.ref, name) for name in REFERENCE_TABLES})
    return arrays


def clustering_arrays(setup) -> dict:
    """The clustering ``setup`` steps: its lambda, cluster time steps and
    per-element cluster ids in generation order."""
    clustering = setup.clustering
    return {
        "lam": np.float64(clustering.lam),
        "cluster_time_steps": clustering.cluster_time_steps,
        "cluster_ids": clustering.cluster_ids[np.argsort(setup.mesh.original_ids)],
    }


def two_partitions(spec) -> np.ndarray:
    """The partition of every generated element that the setup of ``spec``
    over two partitions steps."""
    two = spec.with_overrides(n_partitions=2, n_ranks=1)
    return preprocess_setup(two, staged_setup(two))[0]


def restricted_problems(prefix: str, disc, partitions) -> list[str]:
    """Each side of a 2-partition (``partitions``, per generated element)
    of ``disc``'s mesh restricted, then compared with the whole set's rows
    (which the comparison assembles)."""
    parts = partitions[disc.mesh.original_ids]
    sides = [np.flatnonzero(parts == side) for side in (0, 1)]
    ranks = [disc.restricted(rows, np.full((len(rows), 4), -1)) for rows in sides]
    return [
        f"{prefix}/{name}: partition {side}'s restricted rows: {problem}"
        for side, (rows, rank) in enumerate(zip(sides, ranks))
        for name in ELEMENT_OPERATORS
        for problem in [difference(getattr(rank, name), getattr(disc, name)[rows])]
        if problem is not None
    ]


#: what :func:`difference` reports for equal values whose zeros differ in sign
SIGN_OF_ZERO = "zeros differ in sign"


def difference(a, b) -> str | None:
    """``None`` when ``a`` and ``b`` are the same bytes (shape, dtype and
    data), else what differs: ``"N zeros differ in sign"`` when only the
    signs of zeros do, ``"differs"`` otherwise."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape == b.shape and a.dtype == b.dtype:
        if a.tobytes() == b.tobytes():
            return None
        if np.array_equal(a, b):
            return f"{np.count_nonzero(np.signbit(a) != np.signbit(b))} {SIGN_OF_ZERO}"
    return "differs"


def _operator_sets(spec, setup):
    """``(name, disc)`` of every operator set of a case, built one at a
    time: the spec's own (taken from ``setup``, so it is released after its
    turn), then the spec's flux and mechanism count plus the other flux and
    m = 0 / m = 3 at f64 and f32, then the reordered set of a spec that
    reorders."""
    disc, setup.disc = setup.disc, None
    own, order, precisions = (disc.flux, disc.n_mechanisms), disc.order, ("f64", disc.precision)
    yield "spec", disc
    del disc
    for flux in ("rusanov", "godunov"):
        for m in (0, 3):
            for precision in ("f64", "f32"):
                if (flux, m) == own and precision in precisions:
                    continue  # the spec's own set
                # f64 sets keep the names older dumps gave them
                suffix = "" if precision == "f64" else f"-{precision}"
                yield f"{flux}-m{m}{suffix}", Discretization(
                    setup.mesh, setup.materials, order=order, n_mechanisms=m,
                    flux=flux, precision=precision,
                )
    if spec.preprocessing.n_partitions > 1:  # every case runs on one rank
        yield "reordered", build_setup(spec).disc


def operator_sets(problems: list | None = None):
    """Yield ``(group, {"<group>/<array>": array})`` for every operator set
    of every case of this checkout, one set at a time (``group`` is
    ``<case>/<set>``; its arrays and its :func:`reference_arrays`), and
    after a case's sets its ``<case>/clustering`` (:func:`clustering_arrays`)
    and its ``<case>/located`` elements; with ``problems`` given, every
    operator set's :func:`restricted_problems` are appended to it."""
    for case, spec in _specs().items():
        setup = build_setup(spec.with_overrides(n_partitions=1, reorder=False))
        partitions = two_partitions(spec) if problems is not None else None
        n_sets = 0
        for name, disc in _operator_sets(spec, setup):
            group = f"{case}/{name}"
            if problems is not None:
                problems += restricted_problems(group, disc, partitions)
            arrays = {f"{group}/{key}": array
                      for key, array in (generation_ordered(disc) | reference_arrays(disc)).items()}
            del disc
            n_sets += 1
            yield group, arrays
            del arrays
        yield f"{case}/clustering", {
            f"{case}/clustering/{key}": array for key, array in clustering_arrays(setup).items()
        }
        points = dict(setup.receiver_locations)
        if spec.source is not None:
            points["source"] = spec.source.location
        located = setup.mesh.original_ids[[
            locate_point(setup.mesh, np.asarray(p, dtype=np.float64)) for p in points.values()
        ]]
        print(f"{case}: {setup.mesh.n_elements} elements, {n_sets} operator sets, "
              f"{len(points)} points", file=sys.stderr)
        yield f"{case}/located", {f"{case}/located": located}


def write_dump(path) -> None:
    """This checkout's operator sets as a compressed ``.npz`` (what
    ``np.load`` reads), written entry by entry."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        for _, arrays in operator_sets():
            for key, array in arrays.items():
                with archive.open(f"{key}.npy", "w", force_zip64=True) as entry:
                    np.lib.format.write_array(entry, np.asanyarray(array), allow_pickle=False)
            del arrays


def _compact(reference: dict) -> dict:
    """``reference`` with any dense star and coupling stacks repacked as
    the compact operators (the elastic case's all-zero anelastic stack has
    no rows there), any four flux views joined into the 15-row flux
    solvers and those split into ``flux_solvers`` and ``flux_anelastic``; a
    nonzero in a dropped block stays a ``<key>: dropped block`` entry,
    which no checkout has."""
    out = dict(reference)
    for prefix in {k.rpartition("/")[0] for k in reference if k.endswith("/star_elastic")}:
        star_e, star_a, coupling = (out.pop(f"{prefix}/{name}") for name in DENSE_KEYS)
        n, m = coupling.shape[:2]
        if m == 0:
            star_a = star_a[:, :, :0]
        for name, dropped in (("star_elastic", star_e[:, :, :6, :6]),
                              ("star_elastic", star_e[:, :, 6:, 6:]),
                              ("star_anelastic", star_a[..., :6]), ("coupling", coupling[:, :, 6:])):
            if dropped.any():
                out[f"{prefix}/{name}: dropped block"] = dropped
        for name, block in (("star_stress", star_e[:, :, :6, 6:]),
                            ("star_velocity", star_e[:, :, 6:, :6]),
                            ("star_anelastic", star_a[..., 6:])):
            block = block.transpose(0, 2, 3, 1)  # (K, i, j, direction)
            out[f"{prefix}/{name}"] = block.reshape(n, block.shape[1], 3 * block.shape[2])
        out[f"{prefix}/coupling"] = coupling[:, :, :6].transpose(0, 2, 1, 3).reshape(n, 6, 6 * m)
    for prefix in {k.rpartition("/")[0] for k in reference if k.endswith("/flux_local_elastic")}:
        out[f"{prefix}/flux_solvers"] = np.block(
            [[out.pop(f"{prefix}/{name}") for name in row] for row in FLUX_VIEW_KEYS]
        )
    for key in [k for k in out if k.endswith("/flux_solvers") and out[k].shape[2] == 15]:
        prefix, dense = key.rpartition("/")[0], out.pop(key)
        anelastic = dense[:, :, 9:]
        dropped = np.delete(anelastic, VELOCITY_COLUMNS, axis=3)
        if dropped.any():
            out[f"{prefix}/flux_anelastic: dropped block"] = dropped
        out[f"{prefix}/flux_solvers"] = dense[:, :, :9]
        out[f"{prefix}/flux_anelastic"] = anelastic[..., VELOCITY_COLUMNS]
    return out


def compare(ours: dict, reference: dict) -> list[str]:
    reference = _compact(reference)
    problems = [f"missing in one side: {k}" for k in sorted(set(ours) ^ set(reference))]
    return problems + [
        f"{key}: {problem}"
        for key in sorted(set(ours) & set(reference))
        for problem in [difference(ours[key], reference[key])]
        if problem is not None
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="NPZ", help="write this checkout's arrays")
    group.add_argument("--compare", metavar="NPZ", help="compare this checkout against a dump")
    args = parser.parse_args()
    if args.dump:
        write_dump(args.dump)
        return 0
    # one operator set of each side in memory at a time
    problems: list[str] = []
    n_arrays = 0
    with np.load(args.compare) as data:
        unread = set(data.files)
        for group, arrays in operator_sets(problems):
            keys = {k for k in unread if k == group or k.startswith(f"{group}/")}
            unread -= keys
            problems += compare(arrays, {k: data[k] for k in keys})
            n_arrays += len(arrays)
            del arrays
        problems += [f"missing in one side: {k}" for k in sorted(unread)]
    for problem in problems:
        print(problem)
    signs = sum(problem.endswith(SIGN_OF_ZERO) for problem in problems)
    print(f"{n_arrays} arrays compared byte for byte, {len(problems)} problems "
          f"({signs} of them only in the sign of zeros)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
