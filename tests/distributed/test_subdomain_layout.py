"""The rank-local element order and what the rank stepper gets from it.

* ``RankSubdomain.owned`` lists a partition's elements by (cluster,
  boundary-before-interior, global id): every cluster is one contiguous run
  of local ids, its boundary rows lead, and gather/restore still round-trip
  through ``owned``,
* a warm ``RankSolver`` predicts a cluster through slices: no fancy-index
  read of its DOFs and no cluster-sized allocation per micro step, and
* the 2-rank LOH.3-M partition is compact enough for the overlap to have
  interior work to hide the halo behind.
"""

import tracemalloc

import numpy as np
import pytest

from repro.scenarios import get_scenario, make_runner

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def loh3_m_2rank():
    """The benchmark's 2-rank LOH.3-M mesh at order 3 on the serial engine."""
    spec = get_scenario(
        "loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0, order=3, n_cycles=1
    )
    runner = make_runner(spec.with_overrides(n_ranks=2, kernels="fast"))
    runner.run()
    return runner


class TestLocalOrder:
    def test_owned_is_a_permutation_of_the_partition(self, loh3_m_2rank):
        engine = loh3_m_2rank.engine
        for sub in engine.subdomains:
            members = np.flatnonzero(engine.partitions == sub.rank)
            np.testing.assert_array_equal(np.sort(sub.owned), members)
            np.testing.assert_array_equal(
                sub.local_of_global[sub.owned], np.arange(sub.n_owned)
            )

    def test_clusters_are_runs_with_boundary_rows_first(self, loh3_m_2rank):
        engine = loh3_m_2rank.engine
        neighbors = loh3_m_2rank.setup.mesh.neighbors
        for sub in engine.subdomains:
            foreign = (neighbors[sub.owned] >= 0) & (
                engine.partitions[np.maximum(neighbors[sub.owned], 0)] != sub.rank
            )
            on_boundary = foreign.any(axis=1)
            assert sub.n_boundary_elements == on_boundary.sum() > 0
            for cluster in range(sub.clustering.n_clusters):
                ids = np.flatnonzero(sub.clustering.cluster_ids == cluster)
                if len(ids) == 0:
                    continue
                np.testing.assert_array_equal(ids, np.arange(ids[0], ids[-1] + 1))
                boundary, interior = sub.boundary_rows[cluster], sub.interior_rows[cluster]
                assert (boundary.start, boundary.stop, interior.stop) == (
                    0, interior.start, len(ids),
                )
                assert on_boundary[ids[boundary]].all()
                assert not on_boundary[ids[interior]].any()
                # ties are broken by global id
                for rows in (boundary, interior):
                    assert np.all(np.diff(sub.owned[ids[rows]]) > 0)

    def test_rank_clusters_carry_slice_batches(self, loh3_m_2rank):
        for rank in loh3_m_2rank.engine.ranks:
            for cluster in rank.clusters:
                if len(cluster.elements):
                    assert isinstance(cluster.batch, slice)
                    assert cluster.batch.stop - cluster.batch.start == len(cluster.elements)

    def test_restore_then_gather_round_trips(self, loh3_m_2rank):
        engine = loh3_m_2rank.engine
        rng = np.random.default_rng(0)
        dofs = rng.standard_normal(engine.dofs.shape)
        buffers = {name: rng.standard_normal(b.shape) for name, b in engine.gather_buffers().items()}
        engine.restore(
            dofs, buffers["b1"], buffers["b2"], buffers["b3"],
            step_index=engine.step_indices(), time=engine.time,
            n_element_updates=engine.n_element_updates,
        )
        np.testing.assert_array_equal(engine.dofs, dofs)
        for name, values in engine.gather_buffers().items():
            np.testing.assert_array_equal(values, buffers[name])


class _CountingDofs(np.ndarray):
    """Counts reads through anything but basic (slice / integer) indices."""

    fancy_reads = 0

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, (np.ndarray, list)) for k in keys):
            type(self).fancy_reads += 1
        return super().__getitem__(key)


class TestSlicePrediction:
    def test_warm_prediction_neither_gathers_nor_allocates(self, loh3_m_2rank):
        rank = loh3_m_2rank.engine.ranks[0]
        cluster = max(rank.clusters, key=lambda c: len(c.elements))
        cluster_dofs_bytes = rank.dofs[cluster.batch].nbytes
        assert cluster_dofs_bytes > 1 << 20
        rank.dofs = rank.dofs.view(_CountingDofs)
        _CountingDofs.fancy_reads = 0
        rank.predict_boundary(cluster)  # warm: the cycle already ran these
        rank.predict_interior(cluster)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rank.predict_boundary(cluster)
            rank.predict_interior(cluster)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _CountingDofs.fancy_reads == 0
        assert peak - before < cluster_dofs_bytes


class _RecordingComm:
    def __init__(self):
        self.sent = {}

    def send(self, payload, src, dst, tag):
        self.sent[tag] = np.array(payload, copy=True)


class TestHaloSends:
    def test_second_half_sends_read_the_stored_row(self, loh3_m_2rank, monkeypatch):
        """A faster receiver's second sub-step gets ``B1 - B2`` from the
        buffers' stored row: bitwise the read-time difference it replaced."""
        n_sent = 0
        for rank in loh3_m_2rank.engine.ranks:
            comm = _RecordingComm()
            monkeypatch.setattr(rank, "comm", comm)
            schedule = rank.subdomain.send_schedule
            for micro_step in range(len(schedule)):
                rank.send_due(micro_step)
                for batch in schedule[micro_step]:
                    if batch.kind != "b1_minus_b2":
                        continue
                    elements = batch.local_elements
                    data = rank.buffers.b1[elements] - rank.buffers.b2[elements]
                    mats = rank.disc.neighbor_flux_matrices[batch.fbar_indices]
                    expected = np.einsum("nvb...,nbf->nvf...", data, mats)
                    for n, tag in enumerate(batch.tags):
                        np.testing.assert_array_equal(comm.sent[int(tag)], expected[n])
                        n_sent += 1
        assert n_sent > 0


class TestCompactness:
    def test_summary_reports_a_thin_halo(self, loh3_m_2rank):
        comm = loh3_m_2rank.summary()["comm"]
        assert comm["boundary_element_fraction"] < 0.15
        assert comm["boundary_element_fraction"] == pytest.approx(
            comm["n_boundary_elements"] / 3456
        )
        assert comm["cut_faces"] == comm["n_halo_faces"] // 2
        assert comm["halo_bytes_per_element_update"] == pytest.approx(
            comm["model"]["total_bytes"] / loh3_m_2rank.solver.n_element_updates
        )
        assert comm["measured_bytes_per_cycle"] == comm["model"]["total_bytes"]
