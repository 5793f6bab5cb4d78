"""Property tests of the LTS buffer layout (``repro.core.buffers.BufferLayout``).

The store holds ``B1`` for every element, ``B2`` and ``B1 - B2`` only for
the elements with a face neighbour in a smaller cluster (their only
readers) and ``B3`` only for the elements with one in a larger cluster --
decided on the whole mesh's neighbours, so a rank keeps every row a remote
reader needs.  Over random normalised clusterings (empty clusters
included), both step parities and 1 or 2 ranks, and on two scenarios split
over 1, 2 and 4 ranks: every row a correction gathers and every row a halo
send projects lies in the block its relation reads and is the neighbour's
(or the sender's) own row, boundary faces read the ghost row, and the
store holds exactly the rows something reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import (
    B1,
    B1_MINUS_B2,
    B2,
    B3,
    BOUNDARY,
    GHOST,
    LARGER,
    SAME,
    SMALLER,
)
from repro.core.clustering import Clustering, normalize_clusters
from repro.core.lts_solver import ClusteredLtsSolver
from repro.distributed import RankSolver, RankSubdomain
from repro.equations.material import ElasticMaterial, MaterialTable
from repro.kernels.discretization import Discretization
from repro.mesh.generation import box_mesh
from repro.mesh.reorder import reorder_elements
from repro.parallel.partition import element_weights, partition_dual_graph
from repro.scenarios import get_scenario
from repro.scenarios.runner import build_setup

from ..lts_setup import locate

_COORDS = np.linspace(0.0, 3000.0, 4)
MESH = box_mesh(_COORDS, _COORDS, _COORDS, jitter=0.2, seed=3)
MATERIALS = MaterialTable.homogeneous(
    ElasticMaterial(rho=2700.0, vp=6000.0, vs=3464.0), MESH.n_elements
)


def _clustered(levels, n_clusters, seed):
    """A cluster-ordered discretization with a random normalised
    clustering of ``n_clusters`` clusters drawing its ids from ``levels``."""
    rng = np.random.default_rng(seed)
    ids = normalize_clusters(rng.choice(levels, size=MESH.n_elements), MESH.neighbors)
    order = reorder_elements(ids)
    disc = Discretization(MESH.permuted(order), MATERIALS.subset(order), order=2)
    dt = float(disc.time_steps.min())
    clustering = Clustering(
        cluster_ids=ids[order],
        cluster_time_steps=dt * 2.0 ** (np.arange(n_clusters) - n_clusters + 1),
        lam=1.0,
        dt_min=dt,
    )
    return disc, clustering


def _expected_block(relations, parity):
    larger = B2 if parity % 2 == 0 else B1_MINUS_B2
    return np.select(
        [relations == SAME, relations == SMALLER, relations == LARGER], [B1, B3, larger], GHOST
    )


def _check_corrections(solver):
    """Every face row a correction gathers (the ref backend's plans are
    the rows ``face_rows`` returned)."""
    layout = solver.buffers.layout
    for cluster in solver.clusters:
        for parity, rows in enumerate(cluster.neighbor_plans):
            block, element = locate(layout, rows)
            assert (rows >= 0).all() and (rows < layout.n_rows).all()
            np.testing.assert_array_equal(block, _expected_block(cluster.relations, parity))
            interior = cluster.relations != BOUNDARY
            np.testing.assert_array_equal(element[interior], cluster.neighbors[interior])
            assert (rows[~interior] == layout.n_rows - 1).all()


def _check_allocation(solver, sub=None):
    """The store holds exactly the rows someone reads: every row a
    correction gathers or (on a rank) a halo send projects is stored, and
    every stored ``B2`` / ``B3`` / ``B1 - B2`` row is one of them."""
    layout = solver.buffers.layout
    read = [plan for cluster in solver.clusters for plan in cluster.neighbor_plans]
    if sub is not None:
        read += [plan.rows for plan in sub.send_plans]
    read = np.unique(np.concatenate([rows.ravel() for rows in read]))
    assert layout.stored[B1].all()
    for b in (B2, B3, B1_MINUS_B2):
        lo, hi = layout.offsets[b], layout.offsets[b + 1]
        np.testing.assert_array_equal(read[(read >= lo) & (read < hi)], np.arange(lo, hi))
    np.testing.assert_array_equal(layout.stored[B2], layout.stored[B1_MINUS_B2])
    assert solver.buffers.store.shape[0] == layout.n_rows


def _check_sends(disc, clustering, sub):
    """Every row a halo send projects: the block the receiver reads at
    that micro step, and the sending element's own row."""
    layout = sub.buffer_layout
    for step, plan in enumerate(sub.send_plans):
        block, element = locate(layout, plan.rows)
        owner = plan.tags // 4
        remote = disc.mesh.neighbors[owner, plan.tags % 4]
        c_own, c_remote = clustering.cluster_ids[owner], clustering.cluster_ids[remote]
        # what the receiver reads of the sender: by its own relation code
        # and, from a larger sender, its own sub-step parity
        relations = np.select([c_own < c_remote, c_own > c_remote], [SMALLER, LARGER], SAME)
        parity = step // 2**c_remote % 2
        expected = np.where(
            relations == LARGER, np.where(parity == 0, B2, B1_MINUS_B2),
            _expected_block(relations, 0),
        )
        np.testing.assert_array_equal(block, expected)
        np.testing.assert_array_equal(element, sub.local_of_global[owner])
        assert (plan.rows < layout.n_rows - 1).all()


@settings(max_examples=30, deadline=None)
@given(
    n_clusters=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**16),
    n_ranks=st.sampled_from([1, 2]),
)
def test_every_gathered_and_sent_row_lies_in_the_block_its_relation_reads(
    n_clusters, data, seed, n_ranks
):
    # any non-empty subset of the clusters: leading and trailing clusters
    # may stay empty, and normalisation fills the gaps between the others
    levels = data.draw(
        st.lists(st.integers(0, n_clusters - 1), min_size=1, max_size=n_clusters, unique=True)
    )
    disc, clustering = _clustered(sorted(levels), n_clusters, seed)
    if n_ranks == 1:
        solver = ClusteredLtsSolver(disc, clustering, kernels="ref")
        _check_corrections(solver)
        _check_allocation(solver)
        return
    rng = np.random.default_rng(seed + 1)
    partitions = rng.integers(0, 2, disc.n_elements)
    partitions[:2] = (0, 1)
    for rank in range(2):
        sub = RankSubdomain(disc, clustering, partitions, rank)
        solver = RankSolver(sub, communicator=None, kernels="ref")
        _check_corrections(solver)
        _check_allocation(solver, sub)
        _check_sends(disc, clustering, sub)


def test_a_rank_keeps_the_rows_a_remote_reader_needs():
    """Cluster 1 of rank 0 has no local cluster-0 neighbour, but rank 1
    holds cluster 0: rank 0 still stores (and sends) the ``B2`` rows of
    its elements with a cluster-0 face neighbour, and only theirs."""
    disc, clustering = _clustered([0, 1], 2, seed=5)
    ids = clustering.cluster_ids
    # every cluster-0 element on rank 1
    partitions = np.where(ids == 0, 1, 0)
    sub = RankSubdomain(disc, clustering, partitions, rank=0)
    local_counts = np.bincount(sub.clustering.cluster_ids, minlength=2)
    assert local_counts[0] == 0 and local_counts[1] > 0
    neighbors = disc.mesh.neighbors[sub.owned]
    remote_reader = ((neighbors >= 0) & (ids[neighbors] == 0)).any(axis=1)
    assert remote_reader.any() and not remote_reader.all()
    np.testing.assert_array_equal(sub.buffer_layout.stored[B2], remote_reader)
    sent = np.concatenate([
        locate(sub.buffer_layout, plan.rows)[0] for plan in sub.send_plans
    ])
    assert {B2, B1_MINUS_B2} <= set(sent.tolist())


def _scenario(name):
    spec = get_scenario(name).smoke()
    return build_setup(spec.with_overrides(n_clusters=3) if name == "la_habra" else spec)


@pytest.mark.parametrize("name", ["loh3", "la_habra"])
def test_scenario_stores_exactly_the_rows_read_on_1_2_and_4_ranks(name):
    """``loh3 --smoke`` and ``la_habra --smoke --clusters 3`` (three
    populated clusters): on one rank and on every rank of a 2- and a
    4-rank split, every row a correction or a halo send reads is stored
    and every stored ``B2`` / ``B3`` / ``B1 - B2`` row has a reader; each
    element stores the same rows however the mesh is split."""
    setup = _scenario(name)
    disc, clustering = setup.disc, setup.clustering
    assert (clustering.counts > 0).sum() == {"loh3": 2, "la_habra": 3}[name]
    solver = ClusteredLtsSolver(disc, clustering, kernels="ref")
    _check_allocation(solver)
    stored = solver.buffers.layout.stored
    assert 0 < stored[B2].sum() < disc.n_elements and 0 < stored[B3].sum() < disc.n_elements
    weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
    for n_ranks in (2, 4):
        partitions = partition_dual_graph(disc.mesh.neighbors, weights, n_ranks).partitions
        for rank in range(n_ranks):
            sub = RankSubdomain(disc, clustering, partitions, rank)
            _check_allocation(RankSolver(sub, communicator=None, kernels="ref"), sub)
            np.testing.assert_array_equal(sub.buffer_layout.stored, stored[:, sub.owned])
