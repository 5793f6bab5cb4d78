"""Halo-exchange parity: the payloads a partition boundary must carry.

For a 2-cluster mesh cut into 2 partitions, the face-local exchange has to
deliver exactly what the single-rank solver reads straight out of its
neighbours' buffers (Fig. 6): ``B1`` across same-cluster faces, the
accumulated ``B3`` when the sender is in the smaller (faster) cluster, and
``B2`` / ``B1 - B2`` -- by receiver sub-step parity -- when the sender is in
the larger cluster.
"""

import numpy as np
import pytest

from repro.core.buffers import LARGER, SAME, SMALLER
from repro.core.lts_scheduler import schedule_cycle
from repro.parallel.communicator import SimulatedCommunicator
from repro.parallel.exchange import build_halo, exchange_face_data
from repro.scenarios import ScenarioRunner, get_scenario


@pytest.fixture(scope="module")
def solver_setup():
    spec = get_scenario(
        "loh3",
        extent_m=6000.0,
        characteristic_length=1500.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=1,
    )
    runner = ScenarioRunner(spec)
    assert np.all(runner.clustering.counts > 0), "need two populated clusters"
    # non-trivial state so the parity comparison is not 0 == 0
    rng = np.random.default_rng(7)
    runner.solver.dofs = rng.normal(size=runner.solver.dofs.shape)
    return runner


def test_halo_payloads_match_neighbor_buffer_reads(solver_setup):
    runner = solver_setup
    solver = runner.solver
    mesh = runner.setup.disc.mesh
    cluster_ids = runner.clustering.cluster_ids
    assert runner.clustering.n_clusters == 2

    # a 2-partition cut with plenty of halo faces in all cluster relations
    partitions = np.arange(mesh.n_elements, dtype=np.int64) % 2
    halo = build_halo(mesh.neighbors, partitions)
    assert len(halo) > 0

    seen = {"b1": 0, "b3": 0, "b2": 0, "b1_minus_b2": 0}
    for entry in schedule_cycle(2):
        for l in entry["predict"]:
            solver._predict(solver.clusters[l])
        for l in entry["correct"]:
            cluster = solver.clusters[l]
            # the direct neighbour-buffer reads of the single-rank solver
            neighbor_te = solver.buffers.neighbor_data(
                cluster.neighbors, cluster.relations, cluster.step_index
            )
            rows = {int(e): i for i, e in enumerate(cluster.elements)}
            for face in halo:
                if cluster_ids[face.neighbor_element] != l:
                    continue  # the receiving side is not correcting now
                row = rows[face.neighbor_element]
                recv_face = int(
                    np.where(mesh.neighbors[face.neighbor_element] == face.element)[0][0]
                )
                relation = cluster.relations[row, recv_face]
                buffers = solver.buffers
                if relation == SAME:
                    payload, kind = buffers.b1[face.element], "b1"
                elif relation == SMALLER:
                    payload, kind = buffers.b3[face.element], "b3"
                else:
                    assert relation == LARGER
                    if cluster.step_index % 2 == 0:
                        payload, kind = buffers.b2[face.element], "b2"
                    else:
                        payload = buffers.b1[face.element] - buffers.b2[face.element]
                        kind = "b1_minus_b2"
                np.testing.assert_array_equal(payload, neighbor_te[row, recv_face])
                assert np.abs(payload).max() > 0.0
                seen[kind] += 1
            solver._correct(cluster, 0.0)
    # every payload kind of Fig. 6 must have been exercised
    assert all(count > 0 for count in seen.values()), seen


def test_exchange_delivers_parity_payloads(solver_setup):
    """Route the parity payloads through the simulated communicator and
    check they arrive on the matching channel."""
    runner = solver_setup
    solver = runner.solver
    mesh = runner.setup.disc.mesh
    partitions = np.arange(mesh.n_elements, dtype=np.int64) % 2
    halo = build_halo(mesh.neighbors, partitions)

    solver._predict(solver.clusters[0])
    solver._predict(solver.clusters[1])

    comm = SimulatedCommunicator(2)
    face_data = {
        (f.element, f.face): solver.buffers.b1[f.element] for f in halo
    }
    received = exchange_face_data(comm, halo, face_data)
    assert comm.stats.n_messages == 2  # one pack per directed rank pair
    assert len(received) == len(halo)
    assert comm.all_delivered()
    # every receiving element got the payload the owning side put on the wire
    for face in halo:
        payload = received[(face.neighbor_element, face.element)]
        np.testing.assert_array_equal(payload, solver.buffers.b1[face.element])
