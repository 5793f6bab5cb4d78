"""Building a directly constructed discretization in cluster order, and
seeding and decoding LTS buffer-store rows.

A clustered LTS solver runs on a mesh whose time clusters are contiguous
runs of element ids (:func:`repro.mesh.reorder.reorder_elements`); scenario
setups are built that way, tests that assemble a discretization by hand
use this helper.
"""

import numpy as np

from repro.core.buffers import GHOST
from repro.kernels.discretization import Discretization
from repro.mesh.reorder import reorder_elements


def cluster_ordered(disc, clustering, **assembly):
    """``(disc, clustering)`` rebuilt on the mesh permuted into cluster
    order; ``assembly`` repeats the discretization's build options."""
    order = reorder_elements(clustering.cluster_ids)
    rebuilt = Discretization(disc.mesh.permuted(order), disc.materials.subset(order), **assembly)
    return rebuilt, clustering.permuted(order)


def locate(layout, rows) -> tuple[np.ndarray, np.ndarray]:
    """``(block, element)`` of each row of a
    :class:`~repro.core.buffers.BufferLayout` store (the ghost row:
    ``GHOST`` and ``-1``)."""
    rows = np.asarray(rows)
    block = np.searchsorted(layout.offsets, rows, side="right") - 1
    element = np.full(rows.shape, -1, dtype=np.int64)
    for b in range(GHOST):
        mine = block == b
        element[mine] = layout.elements(b)[rows[mine] - layout.offsets[b]]
    return block, element


def seed_buffers(buffers, rng) -> None:
    """Random values in every stored buffer row, written as two predictions
    write them: an even step, then an odd one (so ``B3`` holds the sum of
    the two full-step integrals)."""
    shape, dtype = buffers.b1.shape, buffers.store.dtype
    for step_index in (0, 1):
        full, half = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        buffers.fill(slice(None), full, half, step_index)
