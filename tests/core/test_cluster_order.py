"""The one element order of a clustered LTS run.

Every LTS setup is built in cluster order -- clustering first, then mesh and
materials permuted into (cluster, id) order, then operator assembly -- so a
cluster is one contiguous run of element ids and the solver addresses every
per-element array through slices.  GTS steps one batch and keeps the order
the mesh was generated in.  The contracts pinned here:

* every LTS runner of every registered scenario steps slice batches that
  tile the mesh in cluster order, and GTS order is the identity;
* a backend's ``local_update`` takes a contiguous run in any spelling and
  refuses a scattered one; the single-rank solvers hand it a sized ``range``;
* a clustering whose clusters are not contiguous is refused by name;
* a point on a face two elements share locates in generation order, so
  sources and receivers do not move with the permutation.
"""

import numpy as np
import pytest

from repro.core.lts_solver import ClusteredLtsSolver
from repro.mesh.reorder import ClusterOrderError
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.runner import make_runner, staged_setup
from repro.source.moment_tensor import locate_point
from repro.verification.golden import golden_spec


@pytest.mark.parametrize("name", scenario_names())
def test_every_lts_runner_steps_contiguous_clusters(name):
    spec = get_scenario(name)
    assert spec.solver.kind == "lts"
    runner = make_runner(spec)
    clusters = runner.solver.clusters
    n_elements = runner.setup.mesh.n_elements
    bounds = [0] + [cluster.batch.stop for cluster in clusters]
    assert all(isinstance(cluster.batch, slice) for cluster in clusters)
    assert [cluster.batch.start for cluster in clusters] == bounds[:-1]
    assert bounds[-1] == n_elements
    for cluster in clusters:
        assert cluster.elements == range(cluster.batch.start, cluster.batch.stop)
        assert np.all(runner.clustering.cluster_ids[cluster.batch] == cluster.cluster_id)
    # the same physical mesh, reordered
    generated = staged_setup(spec).mesh
    ids = runner.setup.mesh.original_ids
    np.testing.assert_array_equal(np.sort(ids), np.arange(n_elements))
    np.testing.assert_array_equal(runner.setup.mesh.elements, generated.elements[ids])


def test_gts_keeps_the_generation_order():
    spec = get_scenario("la_habra")
    gts = make_runner(spec.with_overrides(solver="gts"))
    lts = make_runner(spec)
    n_elements = gts.setup.mesh.n_elements
    np.testing.assert_array_equal(gts.setup.mesh.original_ids, np.arange(n_elements))
    np.testing.assert_array_equal(gts.setup.mesh.elements, staged_setup(spec).mesh.elements)
    # ... while the five-cluster LTS run of the same spec is really permuted
    assert not np.array_equal(lts.setup.mesh.original_ids, np.arange(n_elements))


@pytest.mark.parametrize("solver", ["lts", "gts"])
@pytest.mark.parametrize("kernels", ["ref", "fast"])
def test_single_rank_solvers_hand_local_update_a_sized_run(solver, kernels):
    """What a tracer wrapping ``local_update`` sees: a unit-step ``range``,
    so ``len(elements)`` sizes the call."""
    runner = make_runner(get_scenario("la_habra").with_overrides(solver=solver, kernels=kernels))
    backend = runner.solver.backend
    local_update = backend.local_update
    seen = []

    def spy(disc, dofs, dt, elements, **kwargs):
        seen.append(elements)
        return local_update(disc, dofs, dt, elements, **kwargs)

    backend.local_update = spy
    runner.step_cycle()
    assert seen
    for elements in seen:
        assert isinstance(elements, range) and elements.step == 1 and len(elements) > 0


def test_scattered_clustering_is_refused_by_name():
    runner = make_runner(get_scenario("la_habra"))
    n_elements = runner.setup.mesh.n_elements
    scattered = runner.clustering.permuted(np.arange(n_elements)[::-1])
    with pytest.raises(ClusterOrderError, match="not contiguous"):
        ClusteredLtsSolver(runner.setup.disc, scattered)


def test_shared_face_point_locates_in_generation_order():
    """The La Habra golden source sits on a face two elements share; the
    tie goes to the element generated first, whatever the mesh order."""
    setup = staged_setup(golden_spec("la_habra"))
    mesh, point = setup.mesh, setup.spec.source.location
    offset = point - mesh.vertices[mesh.elements[:, 0]]
    xi = np.linalg.solve(mesh.geometry.jacobians, offset[..., None])[..., 0]
    excess = np.maximum(-xi.min(axis=1), xi.sum(axis=1) - 1.0)
    tied = np.flatnonzero(excess <= 1e-12)
    assert len(tied) == 2
    first = locate_point(mesh, point)
    assert first == tied[0]
    reversed_mesh = mesh.permuted(np.arange(mesh.n_elements)[::-1])
    assert reversed_mesh.original_ids[locate_point(reversed_mesh, point)] == first
