"""Halo-exchange parity: the payloads a partition boundary must carry.

For a 2-cluster mesh cut into 2 partitions, the face-local exchange has to
deliver exactly what the single-rank solver reads straight out of its
neighbours' buffers (Fig. 6): ``B1`` across same-cluster faces, the
accumulated ``B3`` when the sender is in the smaller (faster) cluster, and
``B2`` / ``B1 - B2`` -- by receiver sub-step parity -- when the sender is in
the larger cluster.  The rank subdomains' send plans are the one place these
reads are encoded, and a multi-rank run over the same cut must stay bitwise
the single-rank run.
"""

import numpy as np
import pytest

from repro.core.buffers import LARGER, SAME, SMALLER, store_rows
from repro.core.lts_scheduler import schedule_cycle
from repro.distributed import ProcessLtsEngine
from repro.parallel.exchange import HaloIndex
from repro.scenarios import ScenarioRunner, get_scenario

#: the buffer-store block each payload kind is read from (``store_rows`` of
#: a one-element store: a block is two rows long)
STORE_BLOCKS = {
    int(store_rows(1, 0, relation, parity)) // 2: kind
    for kind, relation, parity in (
        ("b1", SAME, 0), ("b3", SMALLER, 0), ("b2", LARGER, 0), ("b1_minus_b2", LARGER, 1),
    )
}


@pytest.fixture(scope="module")
def spec():
    return get_scenario(
        "loh3",
        extent_m=6000.0,
        characteristic_length=1500.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=1,
    )


@pytest.fixture(scope="module")
def solver_setup(spec):
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
    halo = HaloIndex.from_partitions(mesh.neighbors, partitions)
    assert halo.n_faces > 0

    seen = {"b1": 0, "b3": 0, "b2": 0, "b1_minus_b2": 0}
    dt0 = float(runner.clustering.cluster_time_steps[0])
    for entry in schedule_cycle(2):
        solver.predict_step(entry)
        for l in entry["correct"]:
            cluster = solver.clusters[l]
            # the direct neighbour-buffer reads of the single-rank solver
            neighbor_te = solver.buffers.neighbor_data(
                cluster.neighbors, cluster.relations, cluster.step_index
            )
            rows = {int(e): i for i, e in enumerate(cluster.elements)}
            for sender, receiver in zip(halo.elements, halo.neighbor_elements):
                if cluster_ids[receiver] != l:
                    continue  # the receiving side is not correcting now
                row = rows[int(receiver)]
                recv_face = int(np.where(mesh.neighbors[receiver] == sender)[0][0])
                relation = cluster.relations[row, recv_face]
                buffers = solver.buffers
                if relation == SAME:
                    payload, kind = buffers.b1[sender], "b1"
                elif relation == SMALLER:
                    payload, kind = buffers.b3[sender], "b3"
                else:
                    assert relation == LARGER
                    if cluster.step_index % 2 == 0:
                        payload, kind = buffers.b2[sender], "b2"
                    else:
                        payload = buffers.b1[sender] - buffers.b2[sender]
                        kind = "b1_minus_b2"
                np.testing.assert_array_equal(payload, neighbor_te[row, recv_face])
                assert np.abs(payload).max() > 0.0
                seen[kind] += 1
        solver.correct_step(entry, dt0)
    # every payload kind of Fig. 6 must have been exercised
    assert all(count > 0 for count in seen.values()), seen


def test_send_plans_ship_every_payload_kind_and_stay_bitwise(spec):
    """The real exchange path on the same interleaved cut: the ranks' send
    plans read each of ``B1``, ``B2``, ``B3`` and ``B1 - B2`` from the
    buffer store, and a 2-rank run over that cut is bitwise the single-rank
    run."""
    single = ScenarioRunner(spec)
    disc = single.setup.disc
    partitions = np.arange(disc.n_elements, dtype=np.int64) % 2
    engine = ProcessLtsEngine(
        disc,
        single.clustering,
        partitions,
        sources=[single.setup.source],
        kernels=spec.solver.kernels,
    )

    shipped = {kind: 0 for kind in STORE_BLOCKS.values()}
    for sub in engine.subdomains:
        for plan in sub.send_plans:
            blocks, counts = np.unique(plan.rows // (sub.n_owned + 1), return_counts=True)
            for block, count in zip(blocks, counts):
                shipped[STORE_BLOCKS[int(block)]] += int(count)
    assert all(count > 0 for count in shipped.values()), shipped

    # non-trivial state, handed to the engine through the checkpoint layout
    single.solver.dofs = np.random.default_rng(7).normal(size=single.solver.dofs.shape)
    engine.restore_state(single.solver.state_arrays(), single.solver.time, 0)
    for _ in range(2):
        single.solver.step_cycle()
        engine.step_cycle()
    assert np.array_equal(engine.dofs, single.solver.dofs)
    assert engine.stats.n_messages > 0
