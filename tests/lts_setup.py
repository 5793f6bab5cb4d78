"""Building a directly constructed discretization in cluster order.

A clustered LTS solver runs on a mesh whose time clusters are contiguous
runs of element ids (:func:`repro.mesh.reorder.reorder_elements`); scenario
setups are built that way, tests that assemble a discretization by hand
use this helper.
"""

from repro.kernels.discretization import Discretization
from repro.mesh.reorder import reorder_elements


def cluster_ordered(disc, clustering, **assembly):
    """``(disc, clustering)`` rebuilt on the mesh permuted into cluster
    order; ``assembly`` repeats the discretization's build options."""
    order = reorder_elements(clustering.cluster_ids)
    rebuilt = Discretization(disc.mesh.permuted(order), disc.materials.subset(order), **assembly)
    return rebuilt, clustering.permuted(order)
