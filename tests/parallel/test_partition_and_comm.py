"""Unit tests for partitioning, communication accounting and the scaling model."""

import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import derive_clustering
from repro.mesh.generation import box_mesh
from repro.parallel.communicator import MessageStats, SimulatedCommunicator
from repro.parallel.process_comm import ProcessCommunicator
from repro.parallel.exchange import (
    HaloIndex,
    build_halo,
    exchange_face_data,
    exchange_volumes_per_cycle,
)
from repro.parallel.machine_model import FRONTERA_NODE, strong_scaling_study
from repro.parallel.partition import (
    element_weights,
    face_weights,
    partition_dual_graph,
)
from repro.scenarios import get_scenario, make_runner
from repro.workloads.la_habra import PAPER_LAMBDA, la_habra_time_step_distribution


@pytest.fixture(scope="module")
def mesh():
    coords = np.linspace(0.0, 4000.0, 5)
    return box_mesh(coords, coords, coords, jitter=0.1, free_surface_top=False)


@pytest.fixture(scope="module")
def clustering(mesh):
    rng = np.random.default_rng(0)
    dts = rng.uniform(1.0, 6.0, mesh.n_elements)
    return derive_clustering(dts, 3, 1.0, mesh.neighbors)


class TestWeights:
    def test_element_weights_follow_update_frequency(self):
        ids = np.array([0, 1, 2])
        np.testing.assert_allclose(element_weights(ids, 3), [4.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            element_weights(np.array([3]), 3)

    def test_face_weights_use_faster_side(self, mesh, clustering):
        weights = face_weights(clustering.cluster_ids, mesh.neighbors, 3, values_per_face=135)
        assert weights.shape == mesh.neighbors.shape
        assert np.all(weights[mesh.neighbors < 0] == 0.0)
        interior = mesh.neighbors >= 0
        assert np.all(weights[interior] >= 135)


class TestPartitioning:
    @pytest.mark.parametrize("n_parts", [2, 4, 8])
    def test_weighted_balance(self, mesh, clustering, n_parts):
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        result = partition_dual_graph(mesh.neighbors, weights, n_parts)
        assert result.partitions.min() == 0 and result.partitions.max() == n_parts - 1
        assert result.load_imbalance() < 1.25
        assert result.element_counts.sum() == mesh.n_elements

    def test_unbalanced_element_counts_with_lts_weights(self, mesh):
        """Partitions rich in large-time-step elements hold more elements --
        the effect shown in Fig. 7."""
        # the shallow half of the mesh gets cluster 0, the deep half cluster
        # 2 (by centroid: element ids are not a spatial order)
        depth = mesh.centroids[:, 2]
        ids = np.where(depth > np.median(depth), 0, 2)
        weights = element_weights(ids, 3)
        result = partition_dual_graph(mesh.neighbors, weights, 4)
        assert result.element_count_spread() > 1.5
        assert result.load_imbalance() < 1.3

    def test_element_count_spread_grows_with_partition_count(self):
        """Fig. 7's trend (2.2x at 48 partitions, 4.12x at 2048) on the La
        Habra time-step density, the smallest steps gathered in a surface
        "basin" as on the production mesh."""
        coords = np.linspace(0.0, 1.0, 9)
        mesh = box_mesh(coords, coords, coords, free_surface_top=False)
        dts = la_habra_time_step_distribution(n_elements=mesh.n_elements, seed=2)
        distance = np.linalg.norm(mesh.centroids - np.array([0.5, 0.5, 1.0]), axis=1)
        dts = np.sort(dts)[np.argsort(np.argsort(distance))]
        clustering = derive_clustering(dts, 5, PAPER_LAMBDA, mesh.neighbors)
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        few, many = (partition_dual_graph(mesh.neighbors, weights, n) for n in (4, 16))
        for result in (few, many):
            assert result.load_imbalance() < 1.3
            assert result.element_count_spread() > 1.05
        assert many.element_count_spread() > max(1.3, few.element_count_spread())

    def test_single_partition(self, mesh):
        result = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 1)
        assert np.all(result.partitions == 0)

    def test_validation(self, mesh):
        with pytest.raises(ValueError):
            partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 0)
        with pytest.raises(ValueError):
            partition_dual_graph(mesh.neighbors, -np.ones(mesh.n_elements), 2)

    def test_cut_edges_match_the_face_loop(self, mesh):
        result = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 3)
        expected = 0
        for k, neighbors in enumerate(mesh.neighbors):
            for n in neighbors:
                if n > k and result.partitions[n] != result.partitions[k]:
                    expected += 1
        assert expected > 0
        assert result.cut_edges(mesh.neighbors) == expected
        # ragged adjacency lists (boundary faces dropped) count the same
        ragged = [row[row >= 0] for row in mesh.neighbors]
        assert result.cut_edges(ragged) == expected

    def test_repeated_calls_agree(self, mesh, clustering):
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        first = partition_dual_graph(mesh.neighbors, weights, 4).partitions
        second = partition_dual_graph(mesh.neighbors, weights, 4).partitions
        np.testing.assert_array_equal(first, second)

    def test_bisection_of_a_box_gives_two_connected_parts(self, mesh):
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        for part in (0, 1):
            members = np.flatnonzero(partitions == part)
            reached = {int(members[0])}
            frontier = [int(members[0])]
            while frontier:
                k = frontier.pop()
                for n in mesh.neighbors[k]:
                    if n >= 0 and partitions[n] == part and int(n) not in reached:
                        reached.add(int(n))
                        frontier.append(int(n))
            assert len(reached) == len(members)

    @given(
        cells=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
        n_parts=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_boxes_are_fully_and_evenly_assigned(self, cells, n_parts, seed):
        axes = [np.linspace(0.0, 1.0, n + 1) for n in cells]
        neighbors = box_mesh(*axes, jitter=0.0).neighbors
        weights = 2.0 ** np.random.default_rng(seed).integers(0, 3, len(neighbors))
        result = partition_dual_graph(neighbors, weights, n_parts)
        assert result.partitions.min() >= 0 and result.partitions.max() < n_parts
        assert result.element_counts.min() > 0
        # every bisection lands within one element of its weight target
        assert result.weighted_loads.max() <= weights.sum() / n_parts + 2 * weights.max()


class TestPartitionQuality:
    """The halo is a thin surface: bars on the benchmark's own meshes.

    An index-range split of the tet-type-major box meshes put 6354 directed
    faces (and every element) on the 2-part boundary of the LOH.3-M mesh.
    """

    @pytest.fixture(scope="class")
    def loh3_m(self):
        runner = make_runner(
            get_scenario("loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0)
        )
        clustering = runner.clustering
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        return runner.setup.mesh.neighbors, weights

    @pytest.mark.parametrize("n_parts, max_cut, max_imbalance", [(2, 650, 1.01), (4, 1500, 1.25), (8, None, 1.25)])
    def test_loh3_m_cut_and_balance(self, loh3_m, n_parts, max_cut, max_imbalance):
        neighbors, weights = loh3_m
        assert len(weights) == 3456
        result = partition_dual_graph(neighbors, weights, n_parts)
        assert result.element_counts.min() > 0
        assert result.load_imbalance() <= max_imbalance
        if max_cut is not None:
            assert HaloIndex.from_partitions(neighbors, result.partitions).n_faces <= max_cut

    def test_la_habra_bisection_cut(self):
        runner = make_runner(get_scenario("la_habra"))
        clustering = runner.clustering
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        neighbors = runner.setup.mesh.neighbors
        result = partition_dual_graph(neighbors, weights, 2)
        assert HaloIndex.from_partitions(neighbors, result.partitions).n_faces <= 160
        assert result.load_imbalance() <= 1.01


class TestCommunicator:
    def test_send_recv_and_accounting(self):
        comm = SimulatedCommunicator(3)
        payload = np.arange(10, dtype=np.float32)
        comm.send(payload, src=0, dst=2, tag=7)
        assert comm.pending(0, 2, 7) == 1
        received = comm.recv(src=0, dst=2, tag=7)
        np.testing.assert_array_equal(received, payload)
        assert comm.stats.n_messages == 1
        assert comm.stats.n_bytes == payload.nbytes
        assert comm.all_delivered()

    def test_missing_message_raises(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(RuntimeError):
            comm.recv(src=0, dst=1)

    def test_rank_validation(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(ValueError):
            comm.send(np.zeros(1), src=0, dst=5)
        with pytest.raises(ValueError):
            SimulatedCommunicator(0)

    def test_recv_order_is_fifo_per_channel(self):
        comm = SimulatedCommunicator(2)
        for value in (1.0, 2.0, 3.0):
            comm.send(np.full(2, value), src=0, dst=1, tag=4)
        assert comm.pending(0, 1, 4) == 3
        assert [comm.recv(0, 1, 4)[0] for _ in range(3)] == [1.0, 2.0, 3.0]


class TestMessageStats:
    def test_totals_stay_json_native_with_numpy_sizes(self):
        """Totals must be coerced like the per-pair counters: numpy int
        sizes would otherwise turn ``n_bytes`` into ``np.int64`` and crash
        the ``json.dumps`` of a run summary."""
        stats = MessageStats()
        stats.record(0, 1, np.int64(720))
        stats.record(0, 1, np.int64(80))
        assert type(stats.n_bytes) is int
        assert type(stats.n_messages) is int
        round_tripped = json.loads(json.dumps(stats.as_dict()))
        assert round_tripped["n_bytes"] == 800
        assert round_tripped["per_pair"]["0->1"] == {"messages": 2, "bytes": 800}

    def test_merge_accumulates_objects_and_dicts(self):
        a, b = MessageStats(), MessageStats()
        a.record(0, 1, 10)
        b.record(0, 1, 5)
        b.record(1, 0, 7)
        a.merge(b)
        a.merge(b.as_dict())
        assert a.n_messages == 5
        assert a.n_bytes == 34
        assert a.per_pair["0->1"] == {"messages": 3, "bytes": 20}
        assert a.per_pair["1->0"] == {"messages": 2, "bytes": 14}


def _wire_process_comms(n_ranks: int = 2, timeout: float = 10.0):
    """In-process ProcessCommunicator endpoints sharing real queues."""
    ctx = multiprocessing.get_context()
    inbound = [ctx.Queue() for _ in range(n_ranks)]
    return [
        ProcessCommunicator(
            rank,
            n_ranks,
            inbound[rank],
            {dst: inbound[dst] for dst in range(n_ranks) if dst != rank},
            timeout=timeout,
        )
        for rank in range(n_ranks)
    ]


class TestProcessCommunicator:
    def test_send_recv_roundtrip_and_accounting(self):
        sender, receiver = _wire_process_comms()
        payload = np.arange(10, dtype=np.float64)
        sender.send(payload, src=0, dst=1, tag=3)
        assert not sender.all_delivered()  # staged, not yet flushed
        sender.flush()
        assert sender.all_delivered()
        received = receiver.recv(src=0, dst=1, tag=3)
        np.testing.assert_array_equal(received, payload)
        assert sender.stats.n_messages == 1
        assert sender.stats.n_bytes == payload.nbytes
        assert sender.stats.per_pair["0->1"] == {"messages": 1, "bytes": payload.nbytes}
        assert receiver.all_delivered()

    def test_per_channel_fifo_across_interleaved_tags(self):
        sender, receiver = _wire_process_comms()
        sender.send(np.full(1, 1.0), src=0, dst=1, tag=7)
        sender.send(np.full(1, 9.0), src=0, dst=1, tag=8)
        sender.flush()
        sender.send(np.full(1, 2.0), src=0, dst=1, tag=7)
        sender.flush()
        assert receiver.recv(0, 1, tag=7)[0] == 1.0
        assert receiver.recv(0, 1, tag=8)[0] == 9.0
        assert receiver.recv(0, 1, tag=7)[0] == 2.0
        assert receiver.all_delivered()

    def test_flush_batches_one_item_per_destination(self):
        comms = _wire_process_comms(n_ranks=3)
        sender = comms[0]
        for tag in range(4):
            sender.send(np.full((2, 3), float(tag)), src=0, dst=1, tag=tag)
        sender.send(np.zeros((2, 3)), src=0, dst=2, tag=0)
        sender.flush()
        # one stacked queue item per destination, messages still per face
        src, tags, stacked = comms[1]._inbound.get(timeout=5.0)
        assert src == 0 and stacked.shape == (4, 2, 3)
        np.testing.assert_array_equal(tags, np.arange(4))
        assert sender.stats.n_messages == 5

    def test_recv_times_out_loudly_without_a_sender(self):
        _, receiver = _wire_process_comms(timeout=0.2)
        with pytest.raises(RuntimeError, match="no halo payload"):
            receiver.recv(src=0, dst=1, tag=0)

    def test_timeout_error_reports_unflushed_staged_sends(self):
        # a stage that never flushed is a schedule bug, not a dead peer --
        # the timeout diagnostics must say so (and how much never travelled)
        sender, _ = _wire_process_comms(timeout=0.2)
        sender.send(np.zeros(3), src=0, dst=1, tag=0)
        sender.send(np.zeros(3), src=0, dst=1, tag=1)
        with pytest.raises(RuntimeError, match=r"2 staged payload\(s\).*never\s+flushed"):
            sender.recv(src=1, dst=0, tag=0)

    def test_mixed_shape_payloads_flush_in_fifo_order(self):
        # one destination, one micro step, three payloads of two different
        # shapes (mixed-width fused groups): np.stack over the whole stage
        # used to raise ValueError here
        sender, receiver = _wire_process_comms()
        sender.send(np.full((9, 2), 1.0), src=0, dst=1, tag=0)
        sender.send(np.full((9, 4), 2.0), src=0, dst=1, tag=1)
        sender.send(np.full((9, 2), 3.0), src=0, dst=1, tag=0)
        sender.flush()
        assert receiver.recv(0, 1, tag=0)[0, 0] == 1.0
        wide = receiver.recv(0, 1, tag=1)
        assert wide.shape == (9, 4) and wide[0, 0] == 2.0
        assert receiver.recv(0, 1, tag=0)[0, 0] == 3.0
        assert receiver.all_delivered()

    def test_ingest_copies_release_the_stacked_batch(self):
        # a `stacked[index]` view would pin the whole unpickled batch alive
        # until its last message is consumed; ingest must copy instead
        sender, receiver = _wire_process_comms()
        for tag in range(4):
            sender.send(np.full((2, 3), float(tag)), src=0, dst=1, tag=tag)
        sender.flush()
        first = receiver.recv(0, 1, tag=0)
        assert first.base is None  # an owned copy, not a view of the batch
        for mailbox in receiver._mailboxes.values():
            for message in mailbox:
                assert message.base is None

    def test_endpoint_validation(self):
        sender, receiver = _wire_process_comms()
        with pytest.raises(ValueError, match="cannot send as"):
            sender.send(np.zeros(1), src=1, dst=0)
        with pytest.raises(ValueError, match="cannot receive for"):
            receiver.recv(src=0, dst=0)
        with pytest.raises(ValueError, match="out of range"):
            sender.send(np.zeros(1), src=0, dst=5)


class TestHaloExchange:
    def test_halo_faces_are_symmetric(self, mesh):
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        halo = build_halo(mesh.neighbors, partitions)
        assert len(halo) > 0
        # each cut face appears once from each side
        pairs = {(f.element, f.neighbor_element) for f in halo}
        for f in halo:
            assert (f.neighbor_element, f.element) in pairs

    def test_face_local_compression_reduces_volume(self, mesh, clustering):
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        halo = build_halo(mesh.neighbors, partitions)
        full = exchange_volumes_per_cycle(
            halo, clustering.cluster_ids, 3, order=5, face_local=False
        )
        compressed = exchange_volumes_per_cycle(
            halo, clustering.cluster_ids, 3, order=5, face_local=True
        )
        assert compressed["total_bytes"] < full["total_bytes"]
        np.testing.assert_allclose(
            full["total_bytes"] / compressed["total_bytes"], 35.0 / 15.0
        )

    def test_exchange_face_data_roundtrip(self, mesh):
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        halo = build_halo(mesh.neighbors, partitions)
        comm = SimulatedCommunicator(2)
        face_data = {(f.element, f.face): np.full(135, float(f.element)) for f in halo}
        received = exchange_face_data(comm, halo, face_data)
        assert len(received) > 0
        assert comm.stats.n_messages == len(halo)
        for (neighbor_element, _), payload in received.items():
            assert payload.shape == (135,)


class TestScalingModel:
    def test_efficiency_profile(self, mesh, clustering):
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        points = strong_scaling_study(
            weights,
            mesh.neighbors,
            clustering.cluster_ids,
            clustering.n_clusters,
            node_counts=[1, 2, 4, 8],
            flops_per_element_update=5e5,
            order=4,
        )
        assert len(points) == 4
        assert points[0].parallel_efficiency == pytest.approx(1.0)
        for point in points:
            assert 0.0 < point.parallel_efficiency <= 1.3
            assert point.total_time > 0
        # strong scaling: total time decreases with node count
        assert points[-1].total_time < points[0].total_time

    def test_frontera_node_parameters(self):
        assert FRONTERA_NODE.peak_flops == pytest.approx(4.84e12)
        assert 0 < FRONTERA_NODE.sustained_fraction < 1
