"""Unit tests for partitioning, communication accounting and the scaling model."""

import json
import multiprocessing
import queue

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import derive_clustering
from repro.core.legacy_lts import communication_volumes
from repro.mesh.generation import box_mesh
from repro.parallel.communicator import MessageStats, ProcessCommunicator
from repro.parallel.exchange import HaloIndex, exchange_volumes_per_cycle
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


def _wire_comms(n_ranks: int):
    """An in-process wiring: ``SimpleQueue`` inbounds and ``timeout=0``, so
    a missing message fails at once."""
    inbound = [queue.SimpleQueue() for _ in range(n_ranks)]
    return [
        ProcessCommunicator(
            rank,
            n_ranks,
            inbound[rank],
            {dst: inbound[dst] for dst in range(n_ranks) if dst != rank},
            timeout=0,
        )
        for rank in range(n_ranks)
    ]


class TestCommunicator:
    """The endpoint contract on an in-process wiring."""

    def test_send_recv_and_accounting(self):
        comms = _wire_comms(3)
        payload = np.arange(10, dtype=np.float32)
        comms[0].send(payload, src=0, dst=2, tag=7)
        assert not comms[2].all_delivered()  # arrived, not yet consumed
        received = comms[2].recv(src=0, dst=2, tag=7)
        np.testing.assert_array_equal(received, payload)
        assert received.dtype == payload.dtype
        assert comms[0].stats.n_messages == 1
        assert comms[0].stats.n_bytes == payload.nbytes
        assert all(comm.all_delivered() for comm in comms)

    def test_missing_message_raises(self):
        _, receiver = _wire_comms(2)
        with pytest.raises(RuntimeError, match="no halo pack from rank 0 for micro step 0"):
            receiver.recv(src=0, dst=1)

    def test_rank_validation(self):
        sender, _ = _wire_comms(2)
        with pytest.raises(ValueError):
            sender.send(np.zeros(1), src=0, dst=5)
        with pytest.raises(ValueError):
            ProcessCommunicator(0, 0, queue.SimpleQueue(), {}, timeout=0)

    def test_recv_order_is_fifo_per_channel(self):
        sender, receiver = _wire_comms(2)
        for value in (1.0, 2.0, 3.0):
            sender.send(np.full(2, value), src=0, dst=1, tag=4)
        assert not receiver.all_delivered()
        assert [receiver.recv(0, 1, 4)[0] for _ in range(3)] == [1.0, 2.0, 3.0]
        assert receiver.all_delivered()
        with pytest.raises(RuntimeError):
            receiver.recv(0, 1, 4)  # exactly three arrived


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
        assert sender.all_delivered()  # the pack left with its send
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
        sender.send(np.full(1, 2.0), src=0, dst=1, tag=7)
        assert receiver.recv(0, 1, tag=7)[0] == 1.0
        assert receiver.recv(0, 1, tag=8)[0] == 9.0
        assert receiver.recv(0, 1, tag=7)[0] == 2.0
        assert receiver.all_delivered()

    def test_each_send_is_one_queue_item(self):
        comms = _wire_process_comms(n_ranks=3)
        sender = comms[0]
        for tag in range(4):
            sender.send(np.full((2, 3), float(tag)), src=0, dst=1, tag=tag)
        sender.send(np.zeros((2, 3)), src=0, dst=2, tag=0)
        # one (src, tag, payload) item per send, in send order
        for tag in range(4):
            src, item_tag, payload = comms[1]._inbound.get(timeout=5.0)
            assert (src, item_tag) == (0, tag)
            np.testing.assert_array_equal(payload, np.full((2, 3), float(tag)))
        assert comms[2]._inbound.get(timeout=5.0)[:2] == (0, 0)
        assert sender.stats.n_messages == 5

    def test_recv_times_out_loudly_without_a_sender(self):
        _, receiver = _wire_process_comms(timeout=0.2)
        with pytest.raises(RuntimeError, match="no halo pack from rank 0 for micro step 0"):
            receiver.recv(src=0, dst=1, tag=0)

    def test_endpoint_validation(self):
        sender, receiver = _wire_process_comms()
        with pytest.raises(ValueError, match="cannot send as"):
            sender.send(np.zeros(1), src=1, dst=0)
        with pytest.raises(ValueError, match="cannot receive for"):
            receiver.recv(src=0, dst=0)
        with pytest.raises(ValueError, match="out of range"):
            sender.send(np.zeros(1), src=0, dst=5)
        with pytest.raises(ValueError, match="out of range"):
            ProcessCommunicator(0, 0, queue.SimpleQueue(), {})


class TestHaloExchange:
    def test_halo_faces_are_symmetric(self, mesh):
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        halo = HaloIndex.from_partitions(mesh.neighbors, partitions)
        assert halo.n_faces > 0
        # each cut face appears once from each side
        pairs = set(zip(halo.elements.tolist(), halo.neighbor_elements.tolist()))
        for element, neighbor in pairs:
            assert (neighbor, element) in pairs
        np.testing.assert_array_equal(halo.owner_ranks, partitions[halo.elements])
        np.testing.assert_array_equal(halo.neighbor_ranks, partitions[halo.neighbor_elements])

    def test_model_ships_the_face_local_representation(self, mesh, clustering):
        """The model charges ``9 x F`` values per face payload; the full
        ``9 x B`` buffer it replaces is the legacy comparison's."""
        partitions = partition_dual_graph(mesh.neighbors, np.ones(mesh.n_elements), 2).partitions
        halo = HaloIndex.from_partitions(mesh.neighbors, partitions)
        model = exchange_volumes_per_cycle(halo, clustering.cluster_ids, 3, order=5)
        volumes = communication_volumes(order=5)
        assert model["values_per_face"] == volumes.face_local_mpi == 135
        full_buffers = model["n_payloads"] * volumes.buffer_scheme * 4
        np.testing.assert_allclose(
            full_buffers / model["total_bytes"], volumes.reduction_face_local()
        )
        np.testing.assert_allclose(volumes.reduction_face_local(), 35.0 / 15.0)

    def test_message_model_counts_one_pack_per_pair_and_step(self):
        """Faces travel every ``2**min(c_own, c_neighbor)`` micro steps; a
        rank pair sends one pack per step at its fastest face's frequency."""
        halo = HaloIndex(
            elements=np.array([0, 1, 2, 3, 4]),
            faces=np.zeros(5, dtype=np.int64),
            neighbor_elements=np.array([2, 3, 0, 1, 5]),
            owner_ranks=np.array([0, 0, 1, 1, 1]),
            neighbor_ranks=np.array([1, 1, 0, 0, 2]),
            tags=np.array([0, 4, 8, 12, 16]),
        )
        cluster_ids = np.array([0, 2, 1, 2, 2, 1])
        model = exchange_volumes_per_cycle(halo, cluster_ids, 3, order=2, bytes_per_value=8)
        # per face: 4, 1, 4, 1, 2 payloads per cycle (cluster minima 0, 2, 0, 2, 1)
        assert model["n_payloads"] == 12
        # packs: 0->1 and 1->0 every step (4 each), 1->2 every other step (2)
        assert model["n_messages"] == 10
        assert model["n_halo_faces"] == 5
        values = 9 * 3  # 9 x F at order 2
        assert model["per_pair"] == {
            "0->1": 5.0 * values * 8, "1->0": 5.0 * values * 8, "1->2": 2.0 * values * 8,
        }
        assert model["total_bytes"] == 12.0 * values * 8


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

    def test_latency_is_charged_per_message_not_per_halo_face(self, mesh, clustering):
        """A message is one pack per (src, dst, micro step): the model pays
        one network latency per pack, however many faces the pack holds."""
        weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
        kwargs = dict(flops_per_element_update=5e5, order=4)
        _, point = strong_scaling_study(
            weights, mesh.neighbors, clustering.cluster_ids, clustering.n_clusters,
            node_counts=[1, 2], **kwargs,
        )
        partitions = partition_dual_graph(mesh.neighbors, weights, 2).partitions
        volumes = exchange_volumes_per_cycle(
            HaloIndex.from_partitions(mesh.neighbors, partitions),
            clustering.cluster_ids,
            clustering.n_clusters,
            order=4,
        )
        assert volumes["n_halo_faces"] > volumes["n_messages"]
        expected = volumes["max_pair_bytes"] / FRONTERA_NODE.network_bandwidth + (
            FRONTERA_NODE.network_latency * max(1.0, volumes["n_messages"] / 2)
        )
        assert point.n_nodes == 2
        assert point.communication_time == pytest.approx(expected, rel=1e-12)

    def test_frontera_node_parameters(self):
        assert FRONTERA_NODE.peak_flops == pytest.approx(4.84e12)
        assert 0 < FRONTERA_NODE.sustained_fraction < 1
