"""Integration tests of the GTS and clustered LTS solvers.

The central correctness claims:

* the GTS solver (the LTS solver with every element in cluster 0)
  reproduces the independent one-step update bit-for-bit,
* with several clusters the LTS solution agrees with the GTS solution to
  discretisation accuracy (Fig. 9's message), and
* sources, receivers and fused runs work identically under both drivers.
"""

import numpy as np
import pytest

from repro.core.clustering import derive_clustering, optimize_lambda
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_scheduler import updates_per_cycle
from repro.core.lts_solver import ClusteredLtsSolver
from repro.kernels.backend import make_backend
from repro.kernels.update import gts_step
from repro.source.moment_tensor import MomentTensorSource
from repro.source.receivers import ReceiverSet
from repro.source.time_functions import RickerWavelet

from ..lts_setup import cluster_ordered
from .conftest import ELASTIC_ASSEMBLY, GRADED_ASSEMBLY


def _gaussian_ic(length=2000.0, width=400.0):
    center = np.array([length / 2, length / 2, length / 2])

    def ic(points):
        out = np.zeros((len(points), 9))
        r2 = np.sum((points - center) ** 2, axis=1)
        out[:, 8] = np.exp(-r2 / (2 * width**2))
        return out

    return ic


class TestSingleClusterEquivalence:
    @pytest.mark.parametrize("kind", ["ref", "fast"])
    def test_lts_with_one_cluster_matches_gts_exactly(self, elastic_disc, kind):
        """The GTS solver -- the clustered solver with every element in
        cluster 0, here under an empty second cluster -- is repeated
        :func:`gts_step` calls bit for bit on both kernel kinds: the
        independent one-step update, whose correction reads the own traces
        and the neighbours from the step integral instead of ``B1``."""
        disc = elastic_disc
        dt = float(disc.time_steps.min())
        gts = GlobalTimeSteppingSolver(disc, kernels=kind, steps_per_cycle=2)
        assert gts.clustering.counts.tolist() == [disc.n_elements, 0]
        gts.set_initial_condition(_gaussian_ic())
        dofs = gts.dofs.copy()
        backend = make_backend(kind)
        ws, time = backend.make_workspace(), 0.0
        for _ in range(3):
            gts.step_cycle()
        for _ in range(6):
            gts_step(disc, dofs, dt, backend=backend, ws=ws)
            time += dt
        np.testing.assert_array_equal(gts.dofs, dofs)
        assert gts.time == time and gts.macro_dt == 2 * dt
        assert gts.n_element_updates == 6 * disc.n_elements

    def test_update_counters(self, elastic_disc):
        disc = elastic_disc
        clustering = derive_clustering(disc.time_steps, 1, 1.0)
        lts = ClusteredLtsSolver(disc, clustering)
        lts.set_initial_condition(_gaussian_ic())
        lts.step_cycle()
        assert lts.n_element_updates == disc.n_elements
        assert updates_per_cycle(clustering.counts) == disc.n_elements


class TestMultiClusterAccuracy:
    def test_lts_matches_gts_solution(self, graded_disc):
        """Multi-cluster LTS vs GTS at dt_min: both approximate the same PDE,
        so their difference must be small compared to the signal itself."""
        disc, clustering = cluster_ordered(
            graded_disc,
            derive_clustering(graded_disc.time_steps, 3, 1.0, graded_disc.mesh.neighbors),
            **GRADED_ASSEMBLY,
        )
        assert clustering.n_clusters == 3
        assert clustering.counts.min() >= 0 and clustering.counts.sum() == disc.n_elements
        # the graded mesh must genuinely use more than one cluster
        assert np.count_nonzero(clustering.counts) >= 2

        def ic(points):
            out = np.zeros((len(points), 9))
            center = np.array([2000.0, 2000.0, -500.0])
            r2 = np.sum((points - center) ** 2, axis=1)
            out[:, 6] = np.exp(-r2 / (2 * 600.0**2))
            return out

        gts = GlobalTimeSteppingSolver(disc, dt=clustering.cluster_time_steps[0])
        lts = ClusteredLtsSolver(disc, clustering)
        gts.set_initial_condition(ic)
        lts.set_initial_condition(ic)

        t_end = 4 * clustering.cluster_time_steps[-1]
        gts.run(t_end)
        lts.run(t_end)

        # compare velocities where the signal lives
        signal = np.max(np.abs(gts.dofs[:, 6:9]))
        diff = np.max(np.abs(lts.dofs[:, 6:9] - gts.dofs[:, 6:9]))
        assert diff < 0.05 * signal
        # and LTS must have performed fewer element updates
        assert lts.n_element_updates < gts.n_element_updates

    def test_algorithmic_efficiency_matches_speedup_model(self, graded_disc):
        """The measured ratio of element updates (GTS / LTS) equals the
        theoretical speedup of the clustering when both run the same time."""
        disc, clustering = cluster_ordered(
            graded_disc,
            optimize_lambda(graded_disc.time_steps, 3, graded_disc.mesh.neighbors, increment=0.05),
            **GRADED_ASSEMBLY,
        )
        lts = ClusteredLtsSolver(disc, clustering)
        n_cycles = 2
        macro = lts.macro_dt
        lts.set_initial_condition(_gaussian_ic(4000.0, 800.0))
        for _ in range(n_cycles):
            lts.step_cycle()

        gts_updates = disc.n_elements * (n_cycles * macro / clustering.dt_min)
        measured_speedup = gts_updates / lts.n_element_updates
        # the GTS reference uses dt_min while cluster 0 uses lambda*dt_min;
        # the speedup model accounts for exactly that
        np.testing.assert_allclose(measured_speedup, clustering.speedup(), rtol=1e-9)


class TestSourcesAndReceivers:
    def test_point_source_produces_motion_and_receivers_record(self, elastic_disc):
        disc = elastic_disc
        source = MomentTensorSource(
            location=np.array([1000.0, 1000.0, 1000.0]),
            moment_tensor=1e10 * np.eye(3),
            time_function=RickerWavelet(f0=40.0, t0=0.05),
        )
        receivers = ReceiverSet(disc, {"st1": np.array([1500.0, 1500.0, 1500.0])})
        solver = GlobalTimeSteppingSolver(disc, sources=[source], receivers=receivers)
        solver.run(0.15)
        times, values = receivers["st1"].seismogram()
        assert len(times) > 10
        assert np.max(np.abs(values)) > 0.0

    def test_lts_and_gts_seismograms_agree(self, graded_disc):
        disc, clustering = cluster_ordered(
            graded_disc,
            derive_clustering(graded_disc.time_steps, 3, 1.0, graded_disc.mesh.neighbors),
            **GRADED_ASSEMBLY,
        )
        source = MomentTensorSource(
            location=np.array([2000.0, 2000.0, -1500.0]),
            moment_tensor=1e12 * np.eye(3),
            time_function=RickerWavelet(f0=5.0, t0=0.15),
        )
        station = {"st": np.array([2600.0, 2600.0, -200.0])}

        rec_gts = ReceiverSet(disc, station)
        gts = GlobalTimeSteppingSolver(
            disc, dt=clustering.cluster_time_steps[0], sources=[source], receivers=rec_gts
        )
        rec_lts = ReceiverSet(disc, station)
        lts = ClusteredLtsSolver(disc, clustering, sources=[source], receivers=rec_lts)

        # long enough for the direct wave (travel time ~0.3 s) to reach the station
        t_end = 0.6
        gts.run(t_end)
        lts.run(t_end)

        t_g, v_g = rec_gts["st"].seismogram()
        t_l, v_l = rec_lts["st"].seismogram()
        assert len(t_g) > 0 and len(t_l) > 0
        assert np.max(np.abs(v_g)) > 0.0, "the source signal must reach the station"
        # compare on a common time axis using the misfit measure of the paper
        from repro.source.misfit import seismogram_misfit
        from repro.source.receivers import resample_seismogram

        common = np.linspace(0, min(t_g[-1], t_l[-1]), 200)
        ref = resample_seismogram(t_g, v_g, common)
        sol = resample_seismogram(t_l, v_l, common)
        assert seismogram_misfit(sol, ref) < 0.05


class TestFusedRuns:
    def test_fused_lts_matches_single_runs(self, elastic_disc):
        disc, clustering = cluster_ordered(
            elastic_disc,
            derive_clustering(elastic_disc.time_steps, 2, 1.0, elastic_disc.mesh.neighbors),
            **ELASTIC_ASSEMBLY,
        )
        lts_fused = ClusteredLtsSolver(disc, clustering, n_fused=2)
        lts_single = ClusteredLtsSolver(disc, clustering)
        lts_fused.set_initial_condition(_gaussian_ic())
        lts_single.set_initial_condition(_gaussian_ic())
        lts_fused.step_cycle()
        lts_single.step_cycle()
        for f in range(2):
            if lts_single.backend.name == "ref":
                np.testing.assert_allclose(
                    lts_fused.dofs[..., f], lts_single.dofs, rtol=1e-12, atol=1e-18
                )
            else:
                # fast folds the fused axis into the GEMM columns: tolerance-
                # equal to the scalar run, relative to the peak value
                scale = np.abs(lts_single.dofs).max()
                assert np.abs(lts_fused.dofs[..., f] - lts_single.dofs).max() <= 1e-11 * scale


class TestValidation:
    def test_mismatched_clustering_raises(self, elastic_disc, graded_disc):
        clustering = derive_clustering(graded_disc.time_steps, 2, 1.0)
        with pytest.raises(ValueError):
            ClusteredLtsSolver(elastic_disc, clustering)

    def test_unnormalized_clustering_raises(self, graded_disc):
        from repro.core.clustering import Clustering, assign_clusters

        from repro.kernels.discretization import Discretization
        from repro.mesh.reorder import reorder_elements

        raw = assign_clusters(graded_disc.time_steps, 4, 1.0)
        order = reorder_elements(raw)
        disc = Discretization(
            graded_disc.mesh.permuted(order), graded_disc.materials.subset(order),
            **GRADED_ASSEMBLY,
        )
        raw = raw[order]
        # only fails if the raw assignment actually violates the +-1 rule
        violation = False
        for k in range(disc.n_elements):
            for n in disc.mesh.neighbors[k]:
                if n >= 0 and abs(raw[k] - raw[n]) > 1:
                    violation = True
        clustering = Clustering(
            cluster_ids=raw,
            cluster_time_steps=disc.time_steps.min() * 2.0 ** np.arange(4),
            lam=1.0,
            dt_min=float(disc.time_steps.min()),
        )
        if violation:
            with pytest.raises(ValueError):
                ClusteredLtsSolver(disc, clustering)
        else:
            ClusteredLtsSolver(disc, clustering)

    def test_negative_time_raises(self, elastic_disc):
        solver = GlobalTimeSteppingSolver(elastic_disc)
        with pytest.raises(ValueError):
            solver.run(-1.0)
