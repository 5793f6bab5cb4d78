"""Unit tests for mesh reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.generation import box_mesh
from repro.mesh.geometry import GeometryCache
from repro.mesh.reorder import ClusterOrderError, cluster_ranges, reorder_elements
from repro.mesh.tet_mesh import TetMesh
from repro.scenarios import get_scenario
from repro.scenarios.runner import staged_setup


class TestReorderElements:
    def test_sorted_by_cluster_then_partition(self):
        partitions = np.array([1, 0, 1, 0, 0])
        clusters = np.array([0, 2, 1, 0, 1])
        permutation = reorder_elements(clusters, partitions)
        new_partitions = partitions[permutation]
        new_clusters = clusters[permutation]
        assert np.all(np.diff(new_clusters) >= 0)
        for c in np.unique(new_clusters):
            mask = new_clusters == c
            assert np.all(np.diff(new_partitions[mask]) >= 0)

    def test_one_partition_is_cluster_then_id_order(self):
        clusters = np.array([2, 0, 1, 0, 2, 1])
        np.testing.assert_array_equal(reorder_elements(clusters), [1, 3, 2, 5, 0, 4])
        np.testing.assert_array_equal(
            reorder_elements(clusters), reorder_elements(clusters, np.zeros(6, dtype=int))
        )

    def test_boundary_elements_lead_their_block(self):
        """The one role rule: within a (cluster, partition) block the
        elements with a face in another partition come first, ties by id."""
        partitions = np.array([0, 0, 0, 1, 1, 0])
        clusters = np.zeros(6, dtype=int)
        boundary = np.array([False, True, False, True, False, True])
        np.testing.assert_array_equal(
            reorder_elements(clusters, partitions, boundary), [1, 5, 0, 2, 3, 4]
        )

    def test_shape_mismatch_raises(self):
        for key in ("partitions", "boundary"):
            with pytest.raises(ValueError, match="shape"):
                reorder_elements(np.zeros(3), **{key: np.zeros(4)})

    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_is_bijection(self, n, seed):
        rng = np.random.default_rng(seed)
        partitions = rng.integers(0, 4, size=n)
        clusters = rng.integers(0, 3, size=n)
        permutation = reorder_elements(clusters, partitions)
        assert sorted(permutation.tolist()) == list(range(n))


class TestPermutedMesh:
    def test_permuted_mesh_preserves_geometry_multiset(self):
        mesh = box_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.n_elements)
        permuted = mesh.permuted(perm)
        np.testing.assert_allclose(
            np.sort(permuted.volumes), np.sort(mesh.volumes), rtol=1e-12
        )
        np.testing.assert_allclose(permuted.volumes, mesh.volumes[perm], rtol=1e-12)

    def test_invalid_permutation_raises(self):
        mesh = box_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        n = mesh.n_elements
        for permutation in (
            np.zeros(n, dtype=int),  # duplicates
            np.arange(n - 1),  # too short
            np.append(np.arange(n - 1), n),  # out of range
            np.append(np.arange(1, n), -1),  # negative
        ):
            with pytest.raises(ValueError, match="bijection"):
                mesh.permuted(permutation)

    @pytest.mark.parametrize("name", ["loh3", "la_habra"])
    @pytest.mark.parametrize("order", ["cluster", "random"])
    def test_carried_geometry_and_connectivity_equal_a_recompute(self, name, order):
        """A permuted mesh gathers the parent's geometry rows and remaps its
        face connectivity instead of recomputing them; both are per
        element, so the result is the recomputation, bit for bit."""
        setup = staged_setup(get_scenario(name))  # computes geometry + connectivity
        mesh = setup.mesh
        if order == "cluster":
            permutation = reorder_elements(setup.clustering.cluster_ids)
        else:
            permutation = np.random.default_rng(3).permutation(mesh.n_elements)
        carried = mesh.permuted(permutation)
        assert carried._geometry is not None and carried._connectivity is not None
        fresh = TetMesh(
            mesh.vertices, mesh.elements[permutation], mesh.boundary_tags[permutation]
        )
        for field in GeometryCache.__dataclass_fields__:
            assert np.array_equal(
                getattr(carried.geometry, field), getattr(fresh.geometry, field)
            ), field
        assert np.array_equal(carried.neighbors, fresh.neighbors)
        assert np.array_equal(carried.neighbor_faces, fresh.neighbor_faces)
        np.testing.assert_array_equal(carried.original_ids, permutation)
        twice = carried.permuted(np.arange(mesh.n_elements)[::-1])
        np.testing.assert_array_equal(twice.original_ids, permutation[::-1])


class TestClusterRanges:
    def test_ranges_cover_all_elements(self):
        clusters = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        ranges = cluster_ranges(clusters, 3)
        assert ranges == [(0, 3), (3, 5), (5, 9)]

    def test_empty_cluster_gets_empty_range(self):
        clusters = np.array([0, 0, 2, 2])
        ranges = cluster_ranges(clusters, 3)
        assert ranges[1] == (2, 2)

    def test_unsorted_raises(self):
        with pytest.raises(ClusterOrderError, match="not contiguous"):
            cluster_ranges(np.array([1, 0, 2]), 3)
