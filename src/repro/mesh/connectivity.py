"""Face-neighbour connectivity of conforming tetrahedral meshes.

The ADER-DG surface kernel (eqs. 10-13 of the paper) couples each element to
its four face neighbours; the local time stepping scheme additionally needs
to know, for every face, how it meets its neighbour's vertices so that the
correct neighbouring flux matrix can be selected.  This module builds
that connectivity from raw element->vertex connectivity.
"""

from __future__ import annotations

import numpy as np

from ..basis.reference_element import FACE_VERTEX_IDS, orientation_code

__all__ = ["build_face_connectivity", "element_face_vertices", "neighbor_face_classes"]


def element_face_vertices(elements: np.ndarray) -> np.ndarray:
    """Vertex ids of all element faces, shape ``(K, 4, 3)``.

    Face ``i`` of element ``k`` uses the local vertex triple
    ``FACE_VERTEX_IDS[i]`` of the reference element, which fixes the
    correspondence between mesh faces and reference-element faces.
    """
    elements = np.asarray(elements, dtype=np.int64)
    face_local = np.array(FACE_VERTEX_IDS, dtype=np.int64)  # (4, 3)
    return elements[:, face_local]


def build_face_connectivity(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute face neighbours for a conforming tetrahedral mesh.

    Parameters
    ----------
    elements:
        ``(K, 4)`` vertex ids per element.

    Returns
    -------
    neighbors:
        ``(K, 4)`` neighbour element id across each local face, ``-1`` for
        boundary faces.
    neighbor_faces:
        ``(K, 4)`` local face id of the neighbour sharing the face, ``-1``
        for boundary faces.

    Raises
    ------
    ValueError
        If more than two elements share a face (non-manifold mesh).
    """
    elements = np.asarray(elements, dtype=np.int64)
    n_elements = elements.shape[0]
    faces = element_face_vertices(elements).reshape(-1, 3)
    keys = np.sort(faces, axis=1)

    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]

    neighbors = np.full((n_elements * 4,), -1, dtype=np.int64)
    neighbor_faces = np.full((n_elements * 4,), -1, dtype=np.int64)

    same_as_next = np.all(sorted_keys[:-1] == sorted_keys[1:], axis=1)
    # Reject non-manifold configurations: three consecutive equal keys.
    triple = same_as_next[:-1] & same_as_next[1:]
    if np.any(triple):
        raise ValueError("non-manifold mesh: a face is shared by more than two elements")

    first = order[:-1][same_as_next]
    second = order[1:][same_as_next]
    elem_first, face_first = first // 4, first % 4
    elem_second, face_second = second // 4, second % 4

    neighbors[first] = elem_second
    neighbor_faces[first] = face_second
    neighbors[second] = elem_first
    neighbor_faces[second] = face_first

    return neighbors.reshape(n_elements, 4), neighbor_faces.reshape(n_elements, 4)


def neighbor_face_classes(elements: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Orientation code of how each interior face meets its neighbour, ``(K, 4)``.

    The code packs the positions ``(p0, p1, p2)`` of the face's three
    vertices (in ``FACE_VERTEX_IDS`` order) within the neighbour's vertex
    tuple -- which also fixes the neighbour's local face -- into
    :func:`~repro.basis.reference_element.orientation_code`.  The
    orientation alone fixes the affine map from the face parametrisation
    into the neighbour's reference element, and with it the neighbouring
    flux matrix.  Boundary faces get ``-1``.
    """
    elements = np.asarray(elements, dtype=np.int64)
    face_vertices = element_face_vertices(elements)  # (K, 4, 3)
    neighbor_vertices = elements[np.maximum(neighbors, 0)]  # (K, 4, 4)
    position = np.argmax(
        face_vertices[..., :, None] == neighbor_vertices[..., None, :], axis=-1
    )  # (K, 4, 3)
    return np.where(neighbors >= 0, orientation_code(*np.moveaxis(position, -1, 0)), -1)
