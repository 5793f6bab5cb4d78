"""Spec validation, serialisation round-trips and the scenario registry."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    ClusteringSpec,
    DomainSpec,
    MeshSpec,
    RunSpec,
    ScenarioSpec,
    SolverSpec,
    SourceSpec,
    TimeFunctionSpec,
    VelocityModelSpec,
    describe_scenario,
    get_scenario,
    scenario_names,
)
from repro.scenarios.spec import NULLABLE_OVERRIDES, OVERRIDE_PATHS, set_path


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in (
            "loh3",
            "la_habra",
            "homogeneous_halfspace",
            "bimaterial_slab",
            "graded_basin",
            "plane_wave",
        ):
            assert expected in names

    def test_every_factory_builds_a_valid_spec(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert isinstance(spec, ScenarioSpec)
            assert spec.name == name

    def test_factory_overrides(self):
        spec = get_scenario("bimaterial_slab", contrast=3.0, n_clusters=2)
        assert spec.clustering.n_clusters == 2
        assert "3" in spec.description

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="loh3"):
            get_scenario("does_not_exist")

    def test_describe(self):
        text = describe_scenario("loh3")
        assert "loh3" in text
        assert "LOH.3" in text


class TestRoundTrip:
    @pytest.mark.parametrize("name", [n for n in scenario_names()])
    def test_dict_round_trip(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", [n for n in scenario_names()])
    def test_json_round_trip(self, name):
        spec = get_scenario(name)
        text = spec.to_json(indent=2)
        json.loads(text)  # valid JSON
        assert ScenarioSpec.from_json(text) == spec


class TestValidation:
    def _minimal(self, **kwargs):
        base = dict(
            name="t",
            description="",
            domain=DomainSpec(extent=(0.0, 1.0, 0.0, 1.0, -1.0, 0.0)),
            mesh=MeshSpec(characteristic_length=0.5),
            velocity_model=VelocityModelSpec(
                kind="homogeneous", params={"rho": 1.0, "vp": 2.0, "vs": 1.0}
            ),
            source=SourceSpec(
                kind="point_force",
                location=(0.5, 0.5, -0.5),
                force=(0.0, 0.0, 1.0),
                time_function=TimeFunctionSpec(kind="ricker", params={"f0": 1.0, "t0": 1.0}),
            ),
        )
        base.update(kwargs)
        return ScenarioSpec(**base)

    def test_minimal_spec_is_valid(self):
        self._minimal()

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec(extent=(0.0, 0.0, 0.0, 1.0, -1.0, 0.0))

    def test_bad_solver_kind_rejected(self):
        with pytest.raises(ValueError, match="solver kind"):
            SolverSpec(kind="implicit")

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            ClusteringSpec(lam=0.4)

    def test_run_needs_exactly_one_duration(self):
        with pytest.raises(ValueError):
            RunSpec(n_cycles=2, t_end=1.0)
        with pytest.raises(ValueError):
            RunSpec(n_cycles=None, t_end=None)

    def test_checkpoint_every_zero_normalises_to_disabled(self):
        assert RunSpec(n_cycles=1, checkpoint_every=0).checkpoint_every is None
        assert RunSpec(n_cycles=1, checkpoint_every=2).checkpoint_every == 2
        with pytest.raises(ValueError, match="non-negative"):
            RunSpec(n_cycles=1, checkpoint_every=-1)

    def test_solver_backend_validation(self):
        assert SolverSpec(n_ranks=2, backend="process").backend == "process"
        with pytest.raises(ValueError, match="backend"):
            SolverSpec(backend="threads")
        with pytest.raises(ValueError, match="n_ranks >= 2"):
            SolverSpec(n_ranks=1, backend="process")

    def test_one_partition_count_per_run(self, capsys):
        """A multi-rank run steps one partition per rank: its partition
        count is ``n_ranks``, and ``n_partitions`` may only repeat it (or
        stay 1); any other pairing names both fields, in the spec and on
        the command line."""
        from repro.scenarios.cli import main as cli_main

        spec = get_scenario("loh3")
        assert spec.n_partitions == 1
        assert spec.with_overrides(n_partitions=3).n_partitions == 3
        for n_partitions in (1, 2):
            assert spec.with_overrides(n_ranks=2, n_partitions=n_partitions).n_partitions == 2
        rule = r"solver.n_ranks is 2 but preprocessing.n_partitions is 3"
        with pytest.raises(ValueError, match=rule):
            spec.with_overrides(n_ranks=2, n_partitions=3)
        assert cli_main(["run", "loh3", "--ranks", "2", "--partitions", "3"]) == 2
        err = capsys.readouterr().err
        assert "solver.n_ranks" in err and "preprocessing.n_partitions" in err

    def test_numpy_params_are_normalised(self):
        import numpy as np

        spec = VelocityModelSpec(
            kind="homogeneous",
            params={"rho": np.int64(2700), "vp": np.float32(6000.0), "vs": 3464.0},
        )
        assert spec.params == {"rho": 2700, "vp": 6000.0, "vs": 3464.0}

    def test_homogeneous_model_needs_velocities(self):
        with pytest.raises(ValueError, match="vs"):
            VelocityModelSpec(kind="homogeneous", params={"rho": 1.0, "vp": 2.0})

    def test_scenario_needs_source_or_initial_condition(self):
        with pytest.raises(ValueError, match="source or an initial condition"):
            self._minimal(source=None)

    def test_moment_tensor_shape_enforced(self):
        with pytest.raises(ValueError):
            SourceSpec(
                kind="moment_tensor",
                location=(0.0, 0.0, 0.0),
                moment_tensor=((1.0, 0.0), (0.0, 1.0)),
                time_function=TimeFunctionSpec(kind="ricker", params={"f0": 1.0, "t0": 1.0}),
            )


class TestDerivedSpecs:
    def test_with_overrides(self):
        spec = get_scenario("loh3")
        out = spec.with_overrides(
            order=2, n_clusters=2, lam=0.9, solver="gts", n_fused=2, t_end=1.5
        )
        assert out.order == 2
        assert out.clustering.n_clusters == 2
        assert out.clustering.lam == 0.9
        assert out.solver.kind == "gts"
        assert out.solver.n_fused == 2
        assert out.run.t_end == 1.5 and out.run.n_cycles is None
        # the original is untouched
        assert spec.order == 4 and spec.solver.kind == "lts"

    def test_smoke_coarsens_and_shortens(self):
        spec = get_scenario("loh3")
        smoke = spec.smoke()
        assert smoke.run.n_cycles == 2
        assert smoke.order <= 3
        assert smoke.mesh.characteristic_length > spec.mesh.characteristic_length

    def test_smoke_wavelength_mode(self):
        smoke = get_scenario("la_habra").smoke()
        assert smoke.mesh.max_frequency < get_scenario("la_habra").mesh.max_frequency


#: per override name: the keywords that exercise it and the same change
#: spelt out by hand with ``dataclasses.replace`` (``backend="process"``
#: needs a second rank, so that case sets both)
EXPLICIT_OVERRIDES = {
    "order": ({"order": 2}, lambda s: replace(s, order=2)),
    "seed": ({"seed": 5}, lambda s: replace(s, mesh=replace(s.mesh, seed=5))),
    "n_clusters": (
        {"n_clusters": 2}, lambda s: replace(s, clustering=replace(s.clustering, n_clusters=2))
    ),
    "lam": ({"lam": 0.8}, lambda s: replace(s, clustering=replace(s.clustering, lam=0.8))),
    "solver": ({"solver": "gts"}, lambda s: replace(s, solver=replace(s.solver, kind="gts"))),
    "n_fused": ({"n_fused": 2}, lambda s: replace(s, solver=replace(s.solver, n_fused=2))),
    "flux": (
        {"flux": "godunov"}, lambda s: replace(s, solver=replace(s.solver, flux="godunov"))
    ),
    "n_ranks": ({"n_ranks": 2}, lambda s: replace(s, solver=replace(s.solver, n_ranks=2))),
    "backend": (
        {"n_ranks": 2, "backend": "process"},
        lambda s: replace(s, solver=replace(s.solver, n_ranks=2, backend="process")),
    ),
    "comm_timeout": (
        {"comm_timeout": 30.0},
        lambda s: replace(s, solver=replace(s.solver, comm_timeout=30.0)),
    ),
    "kernels": ({"kernels": "fast"}, lambda s: replace(s, solver=replace(s.solver, kernels="fast"))),
    "precision": (
        {"precision": "f32"}, lambda s: replace(s, solver=replace(s.solver, precision="f32"))
    ),
    "n_partitions": (
        {"n_partitions": 2},
        lambda s: replace(s, preprocessing=replace(s.preprocessing, n_partitions=2)),
    ),
    "reorder": (
        {"reorder": True}, lambda s: replace(s, preprocessing=replace(s.preprocessing, reorder=True))
    ),
    "n_cycles": (
        {"n_cycles": 7}, lambda s: replace(s, run=replace(s.run, n_cycles=7, t_end=None))
    ),
    "t_end": ({"t_end": 0.5}, lambda s: replace(s, run=replace(s.run, n_cycles=None, t_end=0.5))),
    "checkpoint_every": (
        {"checkpoint_every": 2}, lambda s: replace(s, run=replace(s.run, checkpoint_every=2))
    ),
    "telemetry": (
        {"telemetry": True}, lambda s: replace(s, output=replace(s.output, telemetry=True))
    ),
    "trace": ({"trace": True}, lambda s: replace(s, output=replace(s.output, trace=True))),
    "events": (
        {"events": "run.jsonl"}, lambda s: replace(s, output=replace(s.output, events="run.jsonl"))
    ),
    "progress": ({"progress": True}, lambda s: replace(s, output=replace(s.output, progress=True))),
}

#: the shared knobs every factory used to re-accept
SHARED = dict(order=2, seed=3, n_clusters=2, lam=0.9, solver="gts", n_fused=1, n_cycles=3)


class TestOverrideTable:
    """The override table is the one place a spec knob is named: every
    caller (``with_overrides``, the CLI, ``resume``, ``get_scenario``)
    resolves its short names through it."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_path_exists_in_every_scenario(self, name):
        data = get_scenario(name).to_dict()
        for path in OVERRIDE_PATHS.values():
            set_path(json.loads(json.dumps(data)), path, None)  # raises if absent

    def test_explicit_table_covers_every_name(self):
        assert set(EXPLICIT_OVERRIDES) == set(OVERRIDE_PATHS)

    @pytest.mark.parametrize("name", sorted(OVERRIDE_PATHS))
    def test_short_name_matches_explicit_replace(self, name):
        base = get_scenario("loh3")
        overrides, expected = EXPLICIT_OVERRIDES[name]
        assert base.with_overrides(**overrides).to_dict() == expected(base).to_dict()

    @pytest.mark.parametrize("name", scenario_names())
    def test_get_scenario_applies_shared_names_after_the_factory(self, name):
        assert get_scenario(name, **SHARED) == get_scenario(name).with_overrides(**SHARED)

    def test_unknown_name_raises_naming_it(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            get_scenario("loh3").with_overrides(no_such_knob=1)

    def test_none_keeps_except_for_nullable_names(self):
        base = get_scenario("loh3").with_overrides(lam=0.8, comm_timeout=5.0, checkpoint_every=2)
        kept = base.with_overrides(**{name: None for name in OVERRIDE_PATHS
                                      if name not in NULLABLE_OVERRIDES})
        assert kept == base
        cleared = base.with_overrides(**{name: None for name in NULLABLE_OVERRIDES})
        assert cleared.clustering.lam is None
        assert cleared.solver.comm_timeout is None
        assert cleared.run.checkpoint_every is None

    def test_cycles_and_t_end_are_exclusive(self):
        spec = get_scenario("plane_wave")
        with pytest.raises(ValueError, match="n_cycles.*t_end"):
            spec.with_overrides(n_cycles=3, t_end=0.5)
        # each alone clears the other
        assert spec.with_overrides(t_end=0.5).with_overrides(n_cycles=3).run.t_end is None
