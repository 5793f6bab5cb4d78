"""The lambda grid search and the normalisation against the loop they replace.

The oracle below is the search as a plain loop: for every candidate lambda,
assign the rate-2 clusters, lower them to the fixpoint of "at most one above
the smallest face neighbour" by repeated passes, and keep the clustering
whose theoretical speedup is strictly larger than the best so far.
:func:`optimize_lambda` and :func:`normalize_clusters` must return exactly
what it returns: the same lambda, ids and cluster steps, bit for bit.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Clustering, normalize_clusters, optimize_lambda
from repro.scenarios import ScenarioSpec, get_scenario, scenario_names
from repro.scenarios.runner import staged_setup

INCREMENTS = (0.5, 0.3, 0.05, 0.01, 0.001)


def oracle_normalize(cluster_ids, neighbors):
    """Lower every element to one above its smallest face neighbour, pass
    after pass, until nothing moves.  A boundary face reads one below the
    largest int64, so an element without any neighbour keeps its id (a
    sentinel of the largest int64 itself wraps around when one is added)."""
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64).copy()
    neighbors = np.asarray(neighbors, dtype=np.int64)
    for _ in range(int(cluster_ids.max()) + 2):
        neighbor_ids = np.where(
            neighbors >= 0, cluster_ids[np.maximum(neighbors, 0)], np.iinfo(np.int64).max - 1
        )
        new_ids = np.minimum(cluster_ids, neighbor_ids.min(axis=1) + 1)
        if np.array_equal(new_ids, cluster_ids):
            return new_ids
        cluster_ids = new_ids
    return cluster_ids


def oracle_clustering(time_steps, n_clusters, lam, neighbors):
    dt_min = float(time_steps.min())
    ratios = time_steps / (lam * dt_min)
    ids = np.floor(np.log2(np.maximum(ratios, 1.0))).astype(np.int64)
    ids = np.clip(ids, 0, n_clusters - 1)
    if neighbors is not None:
        ids = oracle_normalize(ids, neighbors)
    steps = lam * dt_min * 2.0 ** np.arange(n_clusters)
    return Clustering(cluster_ids=ids, cluster_time_steps=steps, lam=lam, dt_min=dt_min)


def oracle_search(time_steps, n_clusters, neighbors=None, increment=0.01):
    best = None
    for lam in np.arange(1.0, 0.5, -increment):
        clustering = oracle_clustering(time_steps, n_clusters, float(lam), neighbors)
        if best is None or clustering.speedup() > best.speedup():
            best = clustering
    return best


def assert_same(ours: Clustering, oracle: Clustering):
    assert type(ours.lam) is float and ours.lam == oracle.lam
    assert ours.dt_min == oracle.dt_min
    for name in ("cluster_ids", "cluster_time_steps"):
        a, b = getattr(ours, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


def random_neighbors(rng, n_elements, boundary_share):
    """A directed ``(K, 4)`` neighbour array: any element on any face,
    ``-1`` on a share of the faces."""
    neighbors = rng.integers(0, n_elements, size=(n_elements, 4))
    neighbors[rng.random((n_elements, 4)) < boundary_share] = -1
    return neighbors


def random_steps(rng, n_elements, n_clusters, kind):
    if kind == "spread":  # over every cluster and past the last one
        return 0.01 * 2.0 ** rng.uniform(0.0, n_clusters + 1.0, n_elements)
    if kind == "ties":  # few distinct steps, many equal
        return rng.choice(np.array([1.0, 1.5, 2.0, 3.0, 3.99, 4.0, 7.5]), n_elements)
    if kind == "edges":  # on a cluster edge of some lambda, or one ulp off it
        lam = rng.choice(np.arange(1.0, 0.5, -0.01), n_elements)
        edges = lam * 2.0 ** rng.integers(0, n_clusters + 1, n_elements)
        return np.append(1.0, np.nextafter(edges, edges * rng.choice([0.5, 1.0, 2.0], n_elements)))
    return rng.uniform(1.0, 1.2, n_elements)  # all in the first cluster or two


class TestOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_elements=st.integers(1, 60),
        n_clusters=st.integers(1, 6),
        increment=st.sampled_from(INCREMENTS),
        kind=st.sampled_from(("spread", "ties", "edges", "narrow")),
        boundary_share=st.sampled_from((0.0, 0.3, 1.0)),
        with_neighbors=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_steps_and_neighbours(
        self, seed, n_elements, n_clusters, increment, kind, boundary_share, with_neighbors
    ):
        rng = np.random.default_rng(seed)
        steps = random_steps(rng, n_elements, n_clusters, kind)
        neighbors = random_neighbors(rng, len(steps), boundary_share) if with_neighbors else None
        assert_same(
            optimize_lambda(steps, n_clusters, neighbors, increment),
            oracle_search(steps, n_clusters, neighbors, increment),
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registered_scenario(self, name):
        spec = get_scenario(name)
        setup = staged_setup(spec)
        n_clusters = spec.clustering.n_clusters
        for increment in (spec.clustering.increment, 0.001):
            assert_same(
                optimize_lambda(setup.time_steps, n_clusters, setup.mesh.neighbors, increment),
                oracle_search(setup.time_steps, n_clusters, setup.mesh.neighbors, increment),
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_elements=st.integers(1, 80),
        top=st.integers(0, 7),
        boundary_share=st.sampled_from((0.0, 0.3, 1.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_normalisation_is_the_fixpoint(self, seed, n_elements, top, boundary_share):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, top + 1, n_elements)
        neighbors = random_neighbors(rng, n_elements, boundary_share)
        ours = normalize_clusters(ids, neighbors)
        assert ours.dtype == np.int64
        assert np.array_equal(ours, oracle_normalize(ids, neighbors))

    def test_a_wrongly_shaped_neighbour_array_raises(self):
        ids, steps = np.array([0, 1, 2]), np.array([1.0, 2.0, 4.0])
        neighbors = np.array([[1, -1, -1, -1], [0, 2, -1, -1], [1, -1, -1, -1]])
        for wrong in (neighbors[:2], neighbors[:, 0], neighbors[None]):
            with pytest.raises(ValueError, match="neighbors must have shape"):
                normalize_clusters(ids, wrong)
            with pytest.raises(ValueError, match="neighbors must have shape"):
                optimize_lambda(steps, 3, wrong)


def _loh3_l_setup_steps():
    e2e = str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
    sys.path.insert(0, e2e)
    try:
        import workloads
    finally:
        sys.path.remove(e2e)
    spec = ScenarioSpec.from_dict(workloads.generate("loh3-l-setup", seed=0)["spec"])
    setup = staged_setup(spec)
    return setup.time_steps, setup.mesh.neighbors, spec.clustering.n_clusters


def test_the_search_memory_is_bounded_by_its_chunks():
    """5000 candidates on 7200 elements: a whole ``(candidates, elements)``
    temporary would be ~290 MB; the chunked search stays under 8 MiB."""
    steps, neighbors, n_clusters = _loh3_l_setup_steps()
    assert len(steps) == 7200
    tracemalloc.start()
    try:
        clustering = optimize_lambda(steps, n_clusters, neighbors, increment=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert 0.5 < clustering.lam <= 1.0
