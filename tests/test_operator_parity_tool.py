"""``benchmarks/operator_parity.py --compare`` against dumps of older
layouts: a ``(K, 4, 15, 18)`` flux-solver array (or its four views) is
compared as the elastic ``flux_solvers`` and the anelastic rows' velocity
columns, and a nonzero in a column that split drops is a problem.  The
per-element arrays compare in generation order, so a reorder alone is no
problem, and the restricted-rank check takes the setup's partition."""

import importlib.util
from pathlib import Path

import numpy as np

from repro.scenarios import get_scenario
from repro.scenarios.runner import build_setup

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "operator_parity.py"
_spec = importlib.util.spec_from_file_location("operator_parity", _SCRIPT)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

VELOCITIES = [6, 7, 8, 15, 16, 17]


def _dense(seed=0):
    """A 15-row flux-solver array whose anelastic rows read only velocities."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((5, 4, 15, 18))
    dense[:, :, :9] = rng.standard_normal((5, 4, 9, 18))
    dense[:, :, 9:, VELOCITIES] = rng.standard_normal((5, 4, 6, 6))
    return dense


def _ours(dense):
    return {
        "case/spec/flux_solvers": dense[:, :, :9].copy(),
        "case/spec/flux_anelastic": dense[:, :, 9:][..., VELOCITIES].copy(),
    }


def test_a_parent_dump_maps_onto_the_split_pair():
    dense = _dense()
    assert parity.compare(_ours(dense), {"case/spec/flux_solvers": dense}) == []
    views = {
        f"case/spec/{name}": dense[:, :, rows][..., columns]
        for (name, rows, columns) in (
            ("flux_local_elastic", slice(0, 9), slice(0, 9)),
            ("flux_neigh_elastic", slice(0, 9), slice(9, 18)),
            ("flux_local_anelastic", slice(9, 15), slice(0, 9)),
            ("flux_neigh_anelastic", slice(9, 15), slice(9, 18)),
        )
    }
    assert parity.compare(_ours(dense), views) == []


def test_a_nonzero_dropped_column_or_a_changed_value_is_a_problem():
    dense = _dense()
    ours = _ours(dense)
    dense[1, 2, 10, 0] = 1e-300  # a stress column of an anelastic row
    assert parity.compare(ours, {"case/spec/flux_solvers": dense}) == [
        "missing in one side: case/spec/flux_anelastic: dropped block"
    ]
    dense = _dense()
    dense[0, 0, 14, 17] += 1.0
    assert parity.compare(ours, {"case/spec/flux_solvers": dense}) == [
        "case/spec/flux_anelastic: differs"
    ]


def test_a_reordered_set_compares_equal_in_generation_order():
    spec = get_scenario(
        "loh3", extent_m=4000.0, characteristic_length=2000.0, order=2, n_clusters=2, lam=1.0
    )
    plain, reordered = (build_setup(spec.with_overrides(n_partitions=n)).disc for n in (1, 2))
    assert not np.array_equal(plain.mesh.original_ids, reordered.mesh.original_ids)
    ours, theirs = (
        {f"case/spec/{key}": array for key, array in parity.generation_ordered(disc).items()}
        for disc in (reordered, plain)
    )
    assert parity.compare(ours, theirs) == []
    in_solver_order = {f"case/spec/{k}": v for k, v in reordered.operator_arrays().items()}
    assert "case/spec/flux_solvers: differs" in parity.compare(ours, in_solver_order)
    partitions = parity.two_partitions(spec)
    assert sorted(np.unique(partitions)) == [0, 1]
    assert parity.restricted_problems("case/reordered", reordered, partitions) == []


def test_the_stepped_clustering_compares_in_generation_order():
    """The lambda search's output is dumped as ``<case>/clustering``: a
    reorder alone is no problem, another lambda or a moved element is."""
    spec = get_scenario("loh3", extent_m=4000.0, characteristic_length=2000.0, order=2)
    assert spec.clustering.lam is None  # the setup runs the search
    plain, reordered = (build_setup(spec.with_overrides(n_partitions=n)) for n in (1, 2))
    assert not np.array_equal(plain.mesh.original_ids, reordered.mesh.original_ids)
    ours, theirs = (
        {f"case/clustering/{key}": array for key, array in parity.clustering_arrays(s).items()}
        for s in (reordered, plain)
    )
    assert parity.compare(ours, theirs) == []
    lam = theirs["case/clustering/lam"]
    assert parity.compare(ours, theirs | {"case/clustering/lam": np.nextafter(lam, 1.0)}) == [
        "case/clustering/lam: differs"
    ]
    moved = theirs["case/clustering/cluster_ids"].copy()
    moved[0] += 1
    assert parity.compare(ours, theirs | {"case/clustering/cluster_ids": moved}) == [
        "case/clustering/cluster_ids: differs"
    ]
    tables = parity.reference_arrays(plain.disc)
    assert set(tables) == {"k_time", "k_vol", "ftilde", "fhat", "ref.neighbor_flux", "ref.fsurf"}
    assert parity.compare(tables, parity.reference_arrays(reordered.disc)) == []
