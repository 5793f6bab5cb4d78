"""Unit tests for the LTS schedule and the B1/B2/B3 buffer algebra."""

import numpy as np
import pytest

from repro.core.buffers import LARGER, SAME, SMALLER, LtsBuffers
from repro.core.lts_scheduler import (
    clusters_correcting_after,
    clusters_predicting_at,
    micro_steps_per_cycle,
    schedule_cycle,
    updates_per_cycle,
)
from repro.core.legacy_lts import communication_volumes
from repro.kernels.ader import compute_time_derivatives, time_integrate

from ..lts_setup import seed_buffers


class TestScheduler:
    def test_micro_steps(self):
        assert micro_steps_per_cycle(1) == 1
        assert micro_steps_per_cycle(3) == 4
        assert micro_steps_per_cycle(5) == 16
        with pytest.raises(ValueError):
            micro_steps_per_cycle(0)

    def test_three_cluster_schedule_matches_figure_6(self):
        """Two clusters of Fig. 6 (steps dt, 2dt, 4dt): predictions at the
        start, k1 (cluster 0) corrects every micro step, k (cluster 1) every
        second, k4 (cluster 2) at the end of the cycle."""
        schedule = schedule_cycle(3)
        assert [e["predict"] for e in schedule] == [[0, 1, 2], [0], [0, 1], [0]]
        assert [e["correct"] for e in schedule] == [[0], [0, 1], [0], [0, 1, 2]]

    def test_every_cluster_predicts_exactly_as_often_as_it_corrects(self):
        for n_clusters in (1, 2, 4):
            schedule = schedule_cycle(n_clusters)
            for l in range(n_clusters):
                predicts = sum(l in e["predict"] for e in schedule)
                corrects = sum(l in e["correct"] for e in schedule)
                assert predicts == corrects == 2 ** (n_clusters - 1 - l)

    def test_a_step_parity_follows_from_the_micro_step(self):
        """Counting every cluster's steps from the first cycle on, the
        parity of the step a cluster predicts and corrects at ``micro_step``
        is ``(micro_step >> l) & 1`` in every cycle: every cluster but the
        largest (whose parity nothing reads) steps an even number of times
        per cycle."""
        for n_clusters in (1, 2, 3, 5):
            steps = [0] * n_clusters
            for _ in range(3):
                for entry in schedule_cycle(n_clusters):
                    micro_step = entry["micro_step"]
                    for l in entry["predict"] + entry["correct"]:
                        if l < n_clusters - 1:
                            assert steps[l] % 2 == (micro_step >> l) & 1, (n_clusters, l)
                    for l in entry["correct"]:
                        steps[l] += 1
            assert steps == [3 * 2 ** (n_clusters - 1 - l) for l in range(n_clusters)]

    def test_updates_per_cycle(self):
        counts = np.array([100, 50, 10])
        # cluster 0 updates 4x, cluster 1 2x, cluster 2 1x
        assert updates_per_cycle(counts) == 100 * 4 + 50 * 2 + 10

    def test_prediction_and_correction_queries(self):
        assert clusters_predicting_at(0, 4) == [0, 1, 2, 3]
        assert clusters_predicting_at(2, 4) == [0, 1]
        assert clusters_correcting_after(3, 4) == [0, 1, 2]
        assert clusters_correcting_after(7, 4) == [0, 1, 2, 3]


class TestBufferAlgebra:
    def test_buffers_follow_eq_17(self, elastic_disc):
        """B1/B2 are the full/half interval integrals, B3 accumulates pairs."""
        disc = elastic_disc
        rng = np.random.default_rng(0)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        buffers = LtsBuffers(disc)
        elements = slice(0, disc.n_elements)
        dt = 0.01

        derivatives = compute_time_derivatives(disc, dofs, elements)
        elastic = [d[:, :9] for d in derivatives]
        buffers.fill(
            elements, time_integrate(elastic, 0, dt), time_integrate(elastic, 0, dt / 2), 0
        )
        np.testing.assert_allclose(buffers.b1[elements], time_integrate(elastic, 0, dt))
        np.testing.assert_allclose(buffers.b2[elements], time_integrate(elastic, 0, dt / 2))
        np.testing.assert_allclose(buffers.b3[elements], time_integrate(elastic, 0, dt))

        # second (odd) step: B3 accumulates, B1 is overwritten
        dofs2 = rng.normal(size=dofs.shape)
        derivatives2 = compute_time_derivatives(disc, dofs2, elements)
        elastic2 = [d[:, :9] for d in derivatives2]
        buffers.fill(elements, time_integrate(elastic2, 0, dt), None, step_index=1)
        # without a half integral B2 keeps the previous step's value
        np.testing.assert_allclose(buffers.b2[elements], time_integrate(elastic, 0, dt / 2))
        np.testing.assert_allclose(buffers.b1[elements], time_integrate(elastic2, 0, dt))
        np.testing.assert_allclose(
            buffers.b3[elements],
            time_integrate(elastic, 0, dt) + time_integrate(elastic2, 0, dt),
        )

    def test_neighbor_data_selection(self, elastic_disc):
        """The neighbour gather must pick B1 / B3 / B2 / B1-B2 by relation and parity."""
        disc = elastic_disc
        buffers = LtsBuffers(disc)
        seed_buffers(buffers, np.random.default_rng(1))

        neighbors = np.array([[1, 2, 3, -1]])
        relations = np.array([[SAME, SMALLER, LARGER, -2]])

        even = buffers.neighbor_data(neighbors, relations, step_index=0)
        np.testing.assert_array_equal(even[0, 0], buffers.b1[1])
        np.testing.assert_array_equal(even[0, 1], buffers.b3[2])
        np.testing.assert_array_equal(even[0, 2], buffers.b2[3])
        np.testing.assert_array_equal(even[0, 3], 0.0)

        odd = buffers.neighbor_data(neighbors, relations, step_index=1)
        np.testing.assert_array_equal(odd[0, 2], buffers.b1[3] - buffers.b2[3])

    def test_views_are_read_only(self, elastic_disc):
        """In-place writes through the b1/b2/b3 views would silently stale
        the precomputed second-half row; only fill() writes the store."""
        buffers = LtsBuffers(elastic_disc)
        for name in ("b1", "b2", "b3", "b1_minus_b2", "store"):
            with pytest.raises(ValueError):
                getattr(buffers, name)[0] = 1.0

    def test_second_half_row_is_the_read_time_difference(self, elastic_disc):
        """What a halo send of a faster receiver's second sub-step reads:
        the stored row, bitwise ``b1 - b2`` after every fill."""
        disc = elastic_disc
        buffers = LtsBuffers(disc)
        rng = np.random.default_rng(3)
        full = rng.normal(size=buffers.b1.shape)
        half = rng.normal(size=buffers.b2.shape)
        buffers.fill(slice(0, disc.n_elements), full, half.copy(), step_index=0)
        elements = np.array([4, 0, 7, 7])
        np.testing.assert_array_equal(
            buffers.b1_minus_b2[elements], buffers.b1[elements] - buffers.b2[elements]
        )
        seed_buffers(buffers, rng)
        np.testing.assert_array_equal(buffers.b1_minus_b2, buffers.b1 - buffers.b2)

    def test_face_rows_index_the_flat_store(self, elastic_disc):
        """``store[face_rows(...)]`` is the neighbour gather, per parity."""
        buffers = LtsBuffers(elastic_disc)
        seed_buffers(buffers, np.random.default_rng(4))
        neighbors = np.array([[1, 2, 3, -1], [0, 0, 5, 6]])
        relations = np.array([[SAME, SMALLER, LARGER, -2], [LARGER, SAME, SMALLER, LARGER]])
        for step_index in (0, 1, 2, 3):
            rows = buffers.face_rows(neighbors, relations, step_index)
            assert rows.shape == neighbors.shape
            np.testing.assert_array_equal(
                buffers.store[rows], buffers.neighbor_data(neighbors, relations, step_index)
            )

    def test_store_leads_with_b1(self, elastic_disc):
        """A batch's own rows of the flat store are its ``B1`` rows: the
        integral a backend's correction projects the own traces from."""
        buffers = LtsBuffers(elastic_disc)
        seed_buffers(buffers, np.random.default_rng(5))
        n = elastic_disc.n_elements
        np.testing.assert_array_equal(buffers.store[:n], buffers.b1)
        assert np.shares_memory(buffers.store[:n], buffers.b1)


class TestCommunicationVolumes:
    def test_paper_numbers_for_order_five(self):
        """Sec. V: five elastic derivatives need 5*9*35 = 1,575 values; the
        buffer needs 9*35 = 315 and the face-local message 9*15 = 135."""
        volumes = communication_volumes(order=5, n_mechanisms=3)
        assert volumes.derivative_scheme_anelastic == 1575
        assert volumes.buffer_scheme == 315
        assert volumes.face_local_mpi == 135
        # elastic zero-block exploitation: 9 * (35 + 20 + 10 + 4 + 1) = 630
        assert volumes.derivative_scheme_elastic == 630

    def test_reductions(self):
        volumes = communication_volumes(order=5)
        assert volumes.reduction_vs_derivatives() == pytest.approx(5.0)
        assert volumes.reduction_face_local() == pytest.approx(35.0 / 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            communication_volumes(0)
        with pytest.raises(ValueError):
            communication_volumes(4, -1)
