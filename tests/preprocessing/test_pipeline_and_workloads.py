"""Unit/integration tests for velocity models, the spec-driven preprocessing
pipeline and the paper's workloads (Figs. 4 and 5)."""

import numpy as np
import pytest

from repro.core.clustering import derive_clustering, optimize_lambda
from repro.preprocessing.pipeline import PreprocessingPipeline
from repro.preprocessing.velocity_model import LaHabraBasinModel, Layer, LayeredVelocityModel, loh3_model
from repro.scenarios import build_setup, get_scenario
from repro.scenarios.runner import staged_setup
from repro.workloads.la_habra import (
    PAPER_CLUSTER_COUNTS,
    PAPER_LAMBDA,
    PAPER_SPEEDUP,
    la_habra_time_step_distribution,
)


def _loh3(**overrides):
    return build_setup(
        get_scenario("loh3", extent_m=6000.0, characteristic_length=2000.0, order=3, **overrides)
    )


class TestVelocityModels:
    def test_loh3_parameters(self):
        model = loh3_model()
        sample = model.sample(np.array([[0.0, 0.0, -500.0], [0.0, 0.0, -2000.0]]))
        np.testing.assert_allclose(sample["vs"], [2000.0, 3464.0])
        np.testing.assert_allclose(sample["vp"], [4000.0, 6000.0])
        np.testing.assert_allclose(sample["qs"], [40.0, 69.3])
        np.testing.assert_allclose(sample["qp"], [120.0, 155.9])
        np.testing.assert_allclose(sample["rho"], [2600.0, 2700.0])

    def test_layered_model_validation(self):
        with pytest.raises(ValueError):
            LayeredVelocityModel([])

    def test_la_habra_basin_structure(self):
        model = LaHabraBasinModel(extent=(0.0, 10000.0, 0.0, 10000.0), min_vs=250.0)
        surface_center = model.sample(np.array([[5000.0, 5000.0, -10.0]]))
        surface_edge = model.sample(np.array([[100.0, 100.0, -10.0]]))
        deep = model.sample(np.array([[5000.0, 5000.0, -6000.0]]))
        # slow sediments in the basin centre, fast rock at the edge and at depth
        assert surface_center["vs"][0] < 400.0
        assert surface_edge["vs"][0] > 2000.0
        assert deep["vs"][0] > 3000.0
        assert surface_center["qs"][0] < deep["qs"][0]

    def test_min_shear_velocity_profile(self):
        model = LaHabraBasinModel(extent=(0.0, 10000.0, 0.0, 10000.0), min_vs=250.0)
        assert model.min_shear_velocity(0.0) == pytest.approx(250.0)
        assert model.min_shear_velocity(-10000.0) > 3000.0


class TestPreprocessingPipeline:
    @pytest.fixture(scope="class")
    def spec(self):
        return get_scenario(
            "loh3", extent_m=6000.0, characteristic_length=2000.0, order=3, n_clusters=3
        ).with_overrides(n_partitions=4, lam=None)

    @pytest.fixture(scope="class")
    def setup(self, spec):
        return build_setup(spec)

    def test_pipeline_produces_consistent_setup(self, setup):
        n = setup.mesh.n_elements
        assert n > 50
        assert setup.materials.n_elements == n
        assert setup.time_steps.shape == (n,)
        assert setup.clustering.counts.sum() == n
        assert setup.partitions.shape == (n,)
        assert setup.partitions.max() + 1 == 4
        assert setup.clustering.speedup() >= 1.0
        assert setup.disc.n_elements == n

    def test_reordering_sorts_by_cluster_then_partition(self, setup):
        partitions = setup.partitions
        clusters = setup.clustering.cluster_ids
        assert np.all(np.diff(clusters) >= 0)
        for c in np.unique(clusters):
            mask = clusters == c
            assert np.all(np.diff(partitions[mask]) >= 0)

    @pytest.mark.parametrize("lam", [None, 0.8])
    def test_clustering_follows_the_spec_policy(self, spec, lam):
        """No explicit lambda runs the grid search at the spec's increment;
        an explicit one is used as is."""
        spec = spec.with_overrides(lam=lam)
        staged = staged_setup(spec)
        mesh, steps, policy = staged.mesh, staged.time_steps, spec.clustering
        expected = (
            optimize_lambda(steps, policy.n_clusters, mesh.neighbors, policy.increment)
            if lam is None
            else derive_clustering(steps, policy.n_clusters, lam, mesh.neighbors)
        )
        clustering = PreprocessingPipeline(spec).derive_clustering(mesh, steps)
        assert clustering.lam == expected.lam
        assert np.array_equal(clustering.cluster_ids, expected.cluster_ids)
        assert np.array_equal(staged.clustering.cluster_ids, expected.cluster_ids)


class TestLoh3Workload:
    def test_setup_reproduces_paper_material_contrast(self):
        setup = _loh3()
        layer = setup.mesh.centroids[:, 2] > -1000.0
        assert layer.any() and (~layer).any()
        np.testing.assert_allclose(np.unique(setup.materials.vs[layer]), [2000.0])
        np.testing.assert_allclose(np.unique(setup.materials.vs[~layer]), [3464.0])
        # Fig. 4: the layer's smaller time steps populate at least 2 clusters
        # and LTS clearly beats GTS
        clustering = derive_clustering(setup.time_steps, 3, 1.0, setup.mesh.neighbors)
        assert np.count_nonzero(clustering.counts) >= 2
        assert clustering.speedup() > 1.3

    def test_lambda_optimisation_does_not_hurt(self):
        setup = _loh3()
        fixed = derive_clustering(setup.time_steps, 3, 1.0, setup.mesh.neighbors)
        best = optimize_lambda(setup.time_steps, 3, setup.mesh.neighbors)
        assert best.speedup() >= fixed.speedup() - 1e-12

    def test_elastic_variant_has_no_memory_variables(self):
        setup = _loh3(anelastic=False)
        assert setup.disc.n_mechanisms == 0
        assert setup.disc.n_vars == 9


class TestLaHabraWorkload:
    def test_synthetic_distribution_matches_paper_clustering(self):
        """Clustering the synthetic time-step sample with the paper's N_c = 5 and
        lambda = 0.81 must reproduce the published cluster fractions and the
        ~5.4x theoretical speedup."""
        dts = la_habra_time_step_distribution(n_elements=100_000, seed=1)
        clustering = derive_clustering(dts, 5, PAPER_LAMBDA)
        fractions = clustering.counts / clustering.counts.sum()
        paper_fractions = PAPER_CLUSTER_COUNTS / PAPER_CLUSTER_COUNTS.sum()
        np.testing.assert_allclose(fractions, paper_fractions, atol=0.02)
        assert abs(clustering.speedup() - PAPER_SPEEDUP) / PAPER_SPEEDUP < 0.1

    def test_lambda_grid_search_recovers_the_paper_lambda(self):
        """Sec. V-A: the grid search lands near the published lambda = 0.81
        and beats lambda = 1."""
        dts = la_habra_time_step_distribution(n_elements=100_000, seed=7)
        best = optimize_lambda(dts, 5, increment=0.01)
        assert abs(best.lam - PAPER_LAMBDA) <= 0.15
        assert best.speedup() >= derive_clustering(dts, 5, 1.0).speedup()

    def test_speedup_saturates_with_the_cluster_count(self):
        """A single cluster at lambda < 1 advances everything at lambda *
        dt_min; beyond five clusters there is little left to gain."""
        dts = la_habra_time_step_distribution(n_elements=100_000, seed=8)
        speedups = {n: derive_clustering(dts, n, PAPER_LAMBDA).speedup() for n in (1, 2, 5, 8)}
        assert speedups[1] == pytest.approx(PAPER_LAMBDA, rel=1e-6)
        assert speedups[5] > 0.9 * speedups[8]
        assert speedups[5] > 1.5 * speedups[2]

    def test_distribution_properties(self):
        dts = la_habra_time_step_distribution(n_elements=5000, seed=3, dt_min=0.01)
        assert len(dts) == 5000
        assert dts.min() == pytest.approx(0.01)
        assert dts.max() / dts.min() > 8.0
        with pytest.raises(ValueError):
            la_habra_time_step_distribution(n_elements=3)
