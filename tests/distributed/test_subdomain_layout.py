"""The rank-local element order and what the rank stepper gets from it.

* ``RankSubdomain.owned`` lists a partition's elements by (cluster,
  boundary-before-interior, global id): every cluster is one contiguous run
  of local ids, its boundary rows lead, and gather/restore still round-trip
  through ``owned``,
* a warm ``RankSolver`` predicts a cluster through slices: no fancy-index
  read of its DOFs and no cluster-sized allocation per micro step,
* the halo plans ship one pack per (src, dst, micro step) that both sides
  lay out alike, at the faster side's frequency, and every halo-store row
  is received before a correction reads it, and
* the 2-rank LOH.3-M partition is compact enough for the overlap to have
  interior work to hide the halo behind.
"""

import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.distributed import RankSolver, RankSubdomain
from repro.distributed.runner import _partitions
from repro.parallel.exchange import HaloIndex, exchange_volumes_per_cycle
from repro.scenarios import get_scenario, make_runner
from repro.scenarios.runner import build_setup

from ..rank_setup import rank_solvers

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def loh3_m_2rank():
    """The benchmark's 2-rank LOH.3-M mesh at order 3, stepped one cycle."""
    spec = get_scenario(
        "loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0, order=3, n_cycles=1
    )
    runner = make_runner(spec.with_overrides(n_ranks=2, kernels="fast"))
    runner.step_cycle()  # not run(): that would close the engine, stopping the rank workers
    return runner


class TestOneFluxSolverCopy:
    def test_rank_flux_solvers_are_one_gather_the_views_and_kernels_read(self, loh3_m_2rank):
        """Each rank holds one ``[owned]`` gather of the flux solvers: its
        four per-kind names and the fast correction's operand are views of
        it, not copies."""
        disc = loh3_m_2rank.setup.disc
        engine = loh3_m_2rank.engine
        for sub, solver in zip(engine.subdomains, rank_solvers(engine)):
            local = sub.view
            assert solver.disc is local
            np.testing.assert_array_equal(local.flux_solvers, disc.flux_solvers[sub.owned])
            for name in ("flux_local_elastic", "flux_neigh_elastic",
                         "flux_local_anelastic", "flux_neigh_anelastic"):
                assert getattr(local, name).base is local.flux_solvers, name
            operand = solver.backend._disc_data(local).flux
            assert np.shares_memory(operand, local.flux_solvers)
            assert operand.shape[2] == disc.flux_solvers.shape[2]  # anelastic: all 15 rows


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
        for rank in rank_solvers(loh3_m_2rank.engine):
            for cluster in rank.clusters:
                if len(cluster.elements):
                    assert isinstance(cluster.batch, slice)
                    assert cluster.batch.stop - cluster.batch.start == len(cluster.elements)

    def test_restore_then_gather_round_trips(self, loh3_m_2rank):
        engine = loh3_m_2rank.engine
        rng = np.random.default_rng(0)
        state = engine.state_arrays()
        arrays = {
            name: rng.standard_normal(values.shape) if name != "step_index" else values
            for name, values in state.items()
        }
        engine.restore_state(arrays, engine.time, engine.n_element_updates)
        np.testing.assert_array_equal(engine.dofs, arrays["dofs"])
        for name, values in engine.state_arrays().items():
            np.testing.assert_array_equal(values, arrays[name])


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
        rank = rank_solvers(loh3_m_2rank.engine, restore=True)[0]
        cluster = max(rank.clusters, key=lambda c: len(c.elements))
        cluster_dofs_bytes = rank.dofs[cluster.batch].nbytes
        assert cluster_dofs_bytes > 1 << 20
        phases = [("boundary", [cluster.cluster_id]), ("interior", [cluster.cluster_id])]
        for phase in phases:  # build the items, as a stepped cycle has
            rank._dispatch(*phase)
        rank.dofs = rank.dofs.view(_CountingDofs)
        _CountingDofs.fancy_reads = 0
        for phase in phases:  # warm
            rank._dispatch(*phase)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for phase in phases:
                rank._dispatch(*phase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _CountingDofs.fancy_reads == 0
        assert peak - before < cluster_dofs_bytes


class _RecordingComm:
    def __init__(self):
        self.sent = {}

    def send(self, payload, src, dst, tag):
        self.sent[dst, tag] = np.array(payload, copy=True)


class TestHaloSends:
    def test_second_half_sends_read_the_stored_row(self, loh3_m_2rank, monkeypatch):
        """A faster receiver's second sub-step gets ``B1 - B2`` from the
        buffers' stored row: the read-time difference it replaced, projected
        with the receiver's ``F_bar``."""
        n_sent = 0
        for rank in rank_solvers(loh3_m_2rank.engine, restore=True):
            comm = _RecordingComm()
            monkeypatch.setattr(rank, "comm", comm)
            n_rows = rank.subdomain.n_owned + 1
            for micro_step, plan in enumerate(rank.subdomain.send_plans):
                rank.send_due(micro_step)
                for dst, run in plan.packs:
                    rows, classes = plan.rows[run], plan.classes[run]
                    second_half = rows // n_rows == 3  # the B1 - B2 store block
                    if not second_half.any():
                        continue
                    elements = rows[second_half] % n_rows
                    data = rank.buffers.b1[elements] - rank.buffers.b2[elements]
                    np.testing.assert_array_equal(rank.buffers.store[rows[second_half]], data)
                    mats = rank.disc.neighbor_flux_matrices[classes[second_half]]
                    expected = np.einsum("nvb...,nbf->nvf...", data, mats)
                    sent = comm.sent[dst, micro_step][second_half]
                    np.testing.assert_allclose(sent, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
                    n_sent += int(second_half.sum())
        assert n_sent > 0


def _plan_spec(name: str):
    if name == "loh3":  # the benchmark's 3-cluster LOH.3-M spec
        return get_scenario(
            "loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0, order=3, n_cycles=1
        )
    return get_scenario("la_habra", n_cycles=1)  # 5 clusters, both LARGER parities


@pytest.fixture(
    scope="module", params=[("loh3", 2), ("loh3", 4), ("la_habra", 2), ("la_habra", 4)],
    ids=lambda case: f"{case[0]}-{case[1]}rank",
)
def plan_case(request):
    name, n_ranks = request.param
    return _plan_spec(name).with_overrides(n_ranks=n_ranks, kernels="fast")


@pytest.fixture(scope="module")
def plan_engine(plan_case):
    """The static halo plans of the case, as the engine partitions them: its
    subdomains, halo and clustering, and the model's message count (no rank
    worker is started)."""
    setup = build_setup(plan_case)
    disc, clustering = setup.disc, setup.clustering
    partitions = _partitions(
        SimpleNamespace(setup=setup, clustering=clustering), disc, plan_case.solver.n_ranks
    )
    halo = HaloIndex.from_partitions(disc.mesh.neighbors, partitions)
    model = exchange_volumes_per_cycle(
        halo, clustering.cluster_ids, clustering.n_clusters, order=disc.order,
        bytes_per_value=np.dtype(disc.dtype).itemsize,
    )
    return SimpleNamespace(
        subdomains=[
            RankSubdomain(disc, clustering, partitions, r)
            for r in range(plan_case.solver.n_ranks)
        ],
        halo=halo,
        clustering=clustering,
        n_messages=model["n_messages"],
    )


class TestHaloPlans:
    """One message per (src, dst, micro step), both sides planned statically."""

    def test_sender_and_receiver_agree_on_every_pack(self, plan_engine):
        subdomains = plan_engine.subdomains
        sent = {
            (sub.rank, dst, step): plan.tags[run]
            for sub in subdomains
            for step, plan in enumerate(sub.send_plans)
            for dst, run in plan.packs
        }
        received = {
            (pack.src, sub.rank, step): pack.tags
            for sub in subdomains
            for step, packs in enumerate(sub.recv_packs)
            for pack in packs
        }
        assert sent.keys() == received.keys()
        for key, tags in sent.items():
            assert len(tags) > 0 and np.all(np.diff(tags) > 0), key
            np.testing.assert_array_equal(received[key], tags, err_msg=str(key))
        assert len(sent) == plan_engine.n_messages

    def test_faces_travel_at_the_faster_side_frequency(self, plan_engine):
        """Every directed halo face is sent, and lands in its halo-store row,
        exactly every ``2**min(c_own, c_neighbor)`` micro steps."""
        halo, cluster_ids = plan_engine.halo, plan_engine.clustering.cluster_ids
        n_steps = len(plan_engine.subdomains[0].send_plans)
        assert n_steps == 2 ** (plan_engine.clustering.n_clusters - 1)
        period = 2 ** np.minimum(cluster_ids[halo.elements], cluster_ids[halo.neighbor_elements])
        expected = {int(tag): list(range(0, n_steps, int(p))) for tag, p in zip(halo.tags, period)}
        sent = defaultdict(list)
        for sub in plan_engine.subdomains:
            for step, plan in enumerate(sub.send_plans):
                for tag in plan.tags:
                    sent[int(tag)].append(step)
            written = defaultdict(list)
            for step, packs in enumerate(sub.recv_packs):
                for pack in packs:
                    for row, tag in zip(pack.rows, pack.tags):
                        written[int(row)].append((step, int(tag)))
            assert sorted(written) == list(range(sub.n_halo_faces))
            for row, hits in written.items():
                (tag,) = {tag for _, tag in hits}
                assert [step for step, _ in hits] == expected[tag], (sub.rank, row)
        assert sent == expected

    def test_sends_read_every_buffer_kind(self, plan_engine):
        """``B1``, ``B2``, ``B3`` and ``B1 - B2`` (both LARGER parities)."""
        blocks = set()
        for sub in plan_engine.subdomains:
            for plan in sub.send_plans:
                blocks.update((plan.rows // (sub.n_owned + 1)).tolist())
        assert blocks == {0, 1, 2, 3}

    def test_every_store_row_is_received_before_it_is_read(self, plan_case, monkeypatch):
        """A halo store that starts as NaN changes nothing: every row a
        correction reads was written by a pack of the same cycle.  The
        poison is patched into the class before the spawn, so the forked
        ranks inherit it."""
        build = RankSolver.__init__

        def poisoned(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self.halo_store[...] = np.nan

        runs = []
        for poison in (False, True):
            if poison:
                monkeypatch.setattr(RankSolver, "__init__", poisoned)
            runner = make_runner(plan_case)
            runner.step_cycle()
            runs.append(runner.solver.dofs)
            runner.solver.close()
        assert np.isfinite(runs[1]).all()
        np.testing.assert_array_equal(runs[1], runs[0])


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
