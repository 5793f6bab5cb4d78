"""Integration tests of the distributed execution subsystem.

The central correctness claims:

* a 2- and a 4-rank LOH.3 run produces DOFs, receiver seismograms and
  element-update counts bit-identical to the single-rank runner,
* the run summary reports *measured* per-pair message counts/bytes that are
  exactly consistent with ``exchange_volumes_per_cycle``, embeddable in JSON
  without a custom encoder,
* distributed checkpoints use the single-rank format (interchangeable) and
  resume bit-identically through the spec's ``n_ranks`` dispatch, and
* the CLI drives distributed runs end-to-end via ``--ranks``.
"""

import json

import numpy as np
import pytest

from repro.distributed import ProcessLtsEngine
from repro.parallel.communicator import ProcessCommunicator
from repro.source.moment_tensor import DiscretePointSource
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    make_runner,
)
from repro.scenarios.cli import main as cli_main

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def tiny_loh3():
    """A small 2-cluster LOH.3 variant exercising all buffer relations."""
    return get_scenario(
        "loh3",
        extent_m=4000.0,
        characteristic_length=2000.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=3,
    )


@pytest.fixture(scope="module")
def three_cluster():
    """A genuinely three-cluster scenario: a homogeneous box whose two-stage
    vertical refinement spreads the CFL steps over a factor > 4, so the halo
    carries every buffer relation (``B1``, ``B3``, ``B2``/``B1 - B2``)."""
    from repro.scenarios import (
        ClusteringSpec,
        DomainSpec,
        MaterialSpec,
        MeshSpec,
        RefinementSpec,
        RunSpec,
        SolverSpec,
        SourceSpec,
        TimeFunctionSpec,
        VelocityModelSpec,
    )

    spec = ScenarioSpec(
        name="three_scale_box",
        description="Two-stage refined homogeneous box (3 populated clusters)",
        domain=DomainSpec(extent=(0.0, 4000.0, 0.0, 4000.0, -4000.0, 0.0)),
        mesh=MeshSpec(
            mode="characteristic",
            characteristic_length=2000.0,
            refinements=(
                RefinementSpec(z_above=-2000.0, divide_by=2.5),
                RefinementSpec(z_above=-1000.0, divide_by=7.0),
            ),
            jitter=0.15,
            seed=0,
        ),
        velocity_model=VelocityModelSpec(
            kind="homogeneous", params={"rho": 2700.0, "vp": 6000.0, "vs": 3464.0}
        ),
        material=MaterialSpec(anelastic=False, n_mechanisms=0),
        order=2,
        source=SourceSpec(
            kind="moment_tensor",
            location=(2000.0, 2000.0, -2000.0),
            moment_tensor=((0.0, 1e15, 0.0), (1e15, 0.0, 0.0), (0.0, 0.0, 0.0)),
            time_function=TimeFunctionSpec(kind="ricker", params={"f0": 1.0, "t0": 1.2}),
        ),
        receivers=(("top", (2000.0, 2000.0, -1.0)),),
        clustering=ClusteringSpec(n_clusters=3, lam=1.0),
        solver=SolverSpec(kind="lts"),
        run=RunSpec(n_cycles=2),
    )
    return spec


@pytest.fixture(scope="module")
def single_run(tiny_loh3):
    runner = ScenarioRunner(tiny_loh3)
    runner.run()
    return runner


class TestBitIdentity:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_dofs_seismograms_and_updates_match_single_rank(
        self, tiny_loh3, single_run, n_ranks
    ):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=n_ranks))
        assert runner.solver is runner.engine
        assert runner.engine.n_ranks == n_ranks
        summary = runner.run()

        np.testing.assert_array_equal(runner.solver.dofs, single_run.solver.dofs)
        assert np.abs(runner.solver.dofs).max() > 0.0, "the run must move"
        assert summary["element_updates"] == single_run.solver.n_element_updates
        assert runner.solver.time == single_run.solver.time
        for name in ("receiver_9", "epicentre"):
            t_single, v_single = single_run.receivers[name].seismogram()
            t_dist, v_dist = runner.receivers[name].seismogram()
            np.testing.assert_array_equal(t_dist, t_single)
            np.testing.assert_array_equal(v_dist, v_single)

    def test_three_clusters_four_ranks(self, three_cluster):
        single = ScenarioRunner(three_cluster)
        single.run()
        dist = make_runner(three_cluster.with_overrides(n_ranks=4))
        dist.run()
        np.testing.assert_array_equal(dist.solver.dofs, single.solver.dofs)

    def test_fused_ensemble(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_fused=2, n_cycles=2)
        single = ScenarioRunner(spec)
        single.run()
        dist = make_runner(spec.with_overrides(n_ranks=2))
        dist.run()
        np.testing.assert_array_equal(dist.solver.dofs, single.solver.dofs)

    def test_preprocessed_partitions_are_reused(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_partitions=2, reorder=True, n_ranks=2)
        dist = make_runner(spec)
        np.testing.assert_array_equal(
            dist.engine.partitions, dist.setup.partitions
        )
        single = ScenarioRunner(spec.with_overrides(n_ranks=1))
        dist.run()
        single.run()
        np.testing.assert_array_equal(dist.solver.dofs, single.solver.dofs)


class TestCommunicationAccounting:
    def test_measured_traffic_matches_exchange_model(self, three_cluster):
        runner = make_runner(three_cluster.with_overrides(n_ranks=2))
        summary = runner.run()
        comm = summary["comm"]
        model = comm["model"]

        assert comm["n_messages"] > 0
        assert comm["measured_bytes_per_cycle"] == model["total_bytes"]
        assert comm["measured_messages_per_cycle"] == model["n_messages"]
        assert set(comm["per_pair"]) == set(model["per_pair"])
        for pair, entry in comm["per_pair"].items():
            assert entry["bytes"] / summary["cycles"] == model["per_pair"][pair]

    def test_summary_is_json_serializable_without_custom_encoder(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, n_cycles=1))
        summary = runner.run()
        text = json.dumps(summary)  # would raise on tuple keys / numpy types
        assert "per_pair" in text

    def test_all_messages_delivered_every_cycle(self, tiny_loh3, monkeypatch):
        """Each rank checks after every ``cycles`` command that it consumed
        every pack that reached it; a rank left holding one fails the cycle
        by name (the check is patched in before the respawn, so the forked
        ranks inherit it)."""
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, n_cycles=1))
        runner.step_cycle()
        assert runner.engine.comm_summary()["transport"] == "queue"
        runner.engine.close()
        monkeypatch.setattr(ProcessCommunicator, "all_delivered", lambda self: False)
        with pytest.raises(RuntimeError, match="undelivered halo payloads after a macro cycle"):
            runner.step_cycle()


class TestSubdomains:
    def test_global_to_local_maps_partition_the_mesh(self, tiny_loh3):
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        engine = runner.engine
        n_global = runner.setup.mesh.n_elements
        owned_union = np.concatenate([sub.owned for sub in engine.subdomains])
        assert sorted(owned_union.tolist()) == list(range(n_global))
        for sub in engine.subdomains:
            back = sub.local_of_global[sub.owned]
            np.testing.assert_array_equal(back, np.arange(sub.n_owned))
            # local operator arrays are gathered in owned order
            np.testing.assert_array_equal(
                sub.view.star_elastic, runner.setup.disc.star_elastic[sub.owned]
            )

    def test_each_source_lands_once_on_its_owning_rank(self):
        """Every point source is injected by exactly one rank, at the local
        id of its global element."""
        runner = make_runner(get_scenario("la_habra").smoke().with_overrides(n_ranks=2))
        engine = runner.engine
        placed = [  # the recipes the forked rank workers build their solvers from
            (setup.subdomain.rank, int(setup.subdomain.owned[source.element]))
            for setup in engine._setups
            for source in setup.sources
        ]
        element = DiscretePointSource(runner.setup.disc, runner.setup.source).element
        assert placed == [(int(engine.partitions[element]), int(element))]

    def test_send_packs_cover_the_model_message_count(self, tiny_loh3):
        """One message per (src, dst, micro step); the packs carry every
        modelled face payload."""
        runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        engine = runner.engine
        model = engine.modelled_exchange_per_cycle()
        plans = [plan for sub in engine.subdomains for plan in sub.send_plans]
        assert sum(len(plan.packs) for plan in plans) == model["n_messages"]
        assert sum(len(plan.rows) for plan in plans) == model["n_payloads"]
        assert model["n_messages"] < model["n_payloads"]


class TestCheckpointRestart:
    def test_distributed_resume_is_bit_identical(self, tiny_loh3, tmp_path):
        spec = tiny_loh3.with_overrides(n_ranks=2)
        path = tmp_path / "dist.ckpt.npz"

        full = make_runner(spec)
        full.run()

        interrupted = make_runner(spec)
        while interrupted.cycles_done < 2:
            interrupted.step_cycle()
        interrupted.save_checkpoint(path)
        del interrupted

        resumed = ScenarioRunner.resume(path)
        assert resumed.engine.n_ranks == 2
        assert resumed.cycles_done == 2
        resumed.run()

        np.testing.assert_array_equal(resumed.solver.dofs, full.solver.dofs)
        assert resumed.solver.n_element_updates == full.solver.n_element_updates
        for name in ("receiver_9", "epicentre"):
            t_full, v_full = full.receivers[name].seismogram()
            t_res, v_res = resumed.receivers[name].seismogram()
            np.testing.assert_array_equal(t_res, t_full)
            np.testing.assert_array_equal(v_res, v_full)

    def test_checkpoint_format_is_single_rank_compatible(self, tiny_loh3, tmp_path):
        """A distributed checkpoint edited down to one rank resumes as a
        plain single-rank run with the same state -- the formats match."""
        path = tmp_path / "cross.ckpt.npz"
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        dist.step_cycle()
        dist.save_checkpoint(path)

        data = dict(np.load(path))
        meta = json.loads(str(data["meta"]))
        assert meta["spec"]["solver"]["n_ranks"] == 2
        meta["spec"]["solver"]["n_ranks"] = 1
        data["meta"] = json.dumps(meta)
        np.savez_compressed(path, **data)

        resumed = ScenarioRunner.resume(path)
        assert not hasattr(resumed, "engine")
        np.testing.assert_array_equal(resumed.solver.dofs, dist.solver.dofs)
        resumed.run()

        single_full = ScenarioRunner(tiny_loh3)
        single_full.run()
        np.testing.assert_array_equal(resumed.solver.dofs, single_full.solver.dofs)


class TestSpecAndDispatch:
    def test_n_ranks_round_trips_through_json(self, tiny_loh3):
        spec = tiny_loh3.with_overrides(n_ranks=4)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.solver.n_ranks == 4

    def test_engine_exactly_on_multi_rank_runners(self, tiny_loh3):
        assert not hasattr(ScenarioRunner(tiny_loh3), "engine")
        runner = ScenarioRunner(tiny_loh3.with_overrides(n_ranks=2))
        assert runner.solver is runner.engine
        assert runner.engine.n_ranks == 2

    def test_scenario_runner_honours_n_ranks(self, tiny_loh3):
        """The plain constructor, not only ``make_runner``, runs on ranks."""
        summary = ScenarioRunner(tiny_loh3.with_overrides(n_ranks=2, n_cycles=1)).run()
        assert summary["n_ranks"] == 2
        assert summary["comm"]["n_messages"] > 0

    def test_gts_with_ranks_rejected(self, tiny_loh3):
        with pytest.raises(ValueError, match="clustered"):
            tiny_loh3.with_overrides(solver="gts", n_ranks=2)

    def test_engine_rejects_mismatched_partitions(self, tiny_loh3):
        runner = ScenarioRunner(tiny_loh3)
        with pytest.raises(ValueError, match="partitions"):
            ProcessLtsEngine(
                runner.setup.disc,
                runner.clustering,
                np.zeros(3, dtype=np.int64),
            )


class TestCli:
    def test_run_with_ranks_writes_outputs(self, tmp_path):
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "run",
                "loh3",
                "--set", "extent_m=4000.0",
                "--set", "characteristic_length=2000.0",
                "--set", "n_mechanisms=1",
                "--order", "2",
                "--clusters", "2",
                "--lambda", "1.0",
                "--cycles", "1",
                "--ranks", "2",
                "--output-dir", str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["n_ranks"] == 2
        assert summary["comm"]["n_messages"] > 0
        assert (out_dir / "seismogram_epicentre.csv").exists()
