"""Unit tests for face-neighbour connectivity."""

import numpy as np
import pytest

from repro.basis.reference_element import FACE_VERTEX_IDS, ORIENTATION_CODES
from repro.mesh.connectivity import build_face_connectivity, element_face_vertices
from repro.mesh.generation import box_mesh, two_tet_mesh


class TestElementFaceVertices:
    def test_single_element_faces(self):
        elements = np.array([[10, 11, 12, 13]])
        faces = element_face_vertices(elements)
        assert faces.shape == (1, 4, 3)
        for i, local in enumerate(FACE_VERTEX_IDS):
            np.testing.assert_array_equal(faces[0, i], [10 + l for l in local])


class TestBuildFaceConnectivity:
    def test_two_tets_share_exactly_one_face(self):
        mesh = two_tet_mesh()
        neighbors, neighbor_faces = build_face_connectivity(mesh.elements)
        # element 0 and 1 share the face {1, 2, 3}
        assert np.sum(neighbors[0] == 1) == 1
        assert np.sum(neighbors[1] == 0) == 1
        shared_face_0 = int(np.where(neighbors[0] == 1)[0][0])
        shared_face_1 = int(np.where(neighbors[1] == 0)[0][0])
        assert neighbor_faces[0, shared_face_0] == shared_face_1
        assert neighbor_faces[1, shared_face_1] == shared_face_0

    def test_symmetry_on_box_mesh(self):
        mesh = box_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        neighbors = mesh.neighbors
        neighbor_faces = mesh.neighbor_faces
        for k in range(mesh.n_elements):
            for f in range(4):
                n = neighbors[k, f]
                if n < 0:
                    continue
                nf = neighbor_faces[k, f]
                assert neighbors[n, nf] == k
                assert neighbor_faces[n, nf] == f

    def test_shared_faces_have_identical_vertex_sets(self):
        mesh = box_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        faces = element_face_vertices(mesh.elements)
        for k in range(mesh.n_elements):
            for f in range(4):
                n = mesh.neighbors[k, f]
                if n < 0:
                    continue
                nf = mesh.neighbor_faces[k, f]
                assert set(faces[k, f]) == set(faces[n, nf])

    def test_interior_face_count_of_box(self):
        # 2x2x2 cells -> 8 cubes -> 48 tets; total faces 48*4 = 192.
        mesh = box_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        n_boundary = int(np.sum(mesh.neighbors < 0))
        n_interior_pairs = (mesh.n_elements * 4 - n_boundary) // 2
        # Every cube face on the box surface contributes 2 boundary triangles.
        assert n_boundary == 6 * 4 * 2
        assert n_interior_pairs == (192 - 48) // 2

    def test_non_manifold_raises(self):
        # three tets sharing the same face {0,1,2}
        vertices = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [1.0, 1.0, 2.0],
            ]
        )
        elements = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
        with pytest.raises(ValueError, match="non-manifold"):
            build_face_connectivity(elements)


class TestNeighborFaceClasses:
    def test_class_decodes_to_the_shared_vertices(self):
        """The packed digits are the positions of the face's vertices in
        the neighbour's tuple, an orientation code; they imply
        ``neighbor_faces``."""
        coords = np.linspace(0, 1, 4)
        mesh = box_mesh(coords, coords, coords)
        classes = mesh.neighbor_face_classes
        assert classes.shape == (mesh.n_elements, 4)
        assert np.array_equal(classes < 0, mesh.neighbors < 0)
        assert np.isin(classes[classes >= 0], ORIENTATION_CODES).all()
        for k, i in np.argwhere(mesh.neighbors >= 0):
            digits = [(classes[k, i] >> shift) & 3 for shift in (4, 2, 0)]
            neighbor = mesh.elements[mesh.neighbors[k, i]]
            face = mesh.elements[k, list(FACE_VERTEX_IDS[i])]
            np.testing.assert_array_equal(neighbor[digits], face)
            neighbor_face = FACE_VERTEX_IDS[mesh.neighbor_faces[k, i]]
            assert set(digits) == set(neighbor_face)

    def test_invariant_under_vertex_motion_and_element_permutation(self):
        coords = np.linspace(0, 1, 3)
        mesh = box_mesh(coords, coords, coords)
        jittered = box_mesh(coords, coords, coords, jitter=0.2, seed=1)
        assert np.array_equal(mesh.neighbor_face_classes, jittered.neighbor_face_classes)
        permutation = np.random.default_rng(0).permutation(mesh.n_elements)
        assert np.array_equal(
            mesh.permuted(permutation).neighbor_face_classes,
            mesh.neighbor_face_classes[permutation],
        )
