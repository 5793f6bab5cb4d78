"""Shared fixtures for the core (LTS) tests."""

import numpy as np
import pytest

from repro.equations.material import ElasticMaterial, MaterialTable, ViscoelasticMaterial
from repro.kernels.discretization import Discretization
from repro.mesh.generation import box_mesh, layered_box_mesh

#: the build options of the two fixtures (``cluster_ordered`` repeats them)
ELASTIC_ASSEMBLY = dict(order=3, flux="rusanov")
GRADED_ASSEMBLY = dict(order=3, n_mechanisms=3, frequency_band=(0.05, 5.0), flux="rusanov")


@pytest.fixture(scope="module")
def elastic_disc():
    coords = np.linspace(0.0, 2000.0, 3)
    mesh = box_mesh(coords, coords, coords, jitter=0.1, free_surface_top=False)
    table = MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements)
    return Discretization(mesh, table, **ELASTIC_ASSEMBLY)


@pytest.fixture(scope="module")
def graded_disc():
    """A small graded mesh whose CFL time steps genuinely spread over ~4x,
    with a layered material (slow layer on top), order 3, viscoelastic."""
    mesh = layered_box_mesh(
        extent=(0.0, 4000.0, 0.0, 4000.0, -4000.0, 0.0),
        edge_length_of_depth=lambda z: 500.0 if z > -1000.0 else 2000.0,
        horizontal_edge_length=2000.0,
        jitter=0.15,
        seed=4,
    )
    layer = mesh.centroids[:, 2] > -1000.0
    table = MaterialTable(
        rho=np.where(layer, 2600.0, 2700.0),
        vp=np.where(layer, 4000.0, 6000.0),
        vs=np.where(layer, 2000.0, 3464.0),
        qp=np.where(layer, 120.0, 155.9),
        qs=np.where(layer, 40.0, 69.3),
    )
    return Discretization(mesh, table, **GRADED_ASSEMBLY)
