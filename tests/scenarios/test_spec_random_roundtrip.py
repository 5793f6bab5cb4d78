"""Randomized JSON round-trip tests for ScenarioSpec / SolverSpec.

Seeded parameter sampling over the full solver option lattice (kernels x
precision x backend x ranks x fused width and the run/clustering knobs):
every *valid* sampled spec must survive ``to_json -> from_json`` losslessly
(dataclass equality), and every *invalid* combination must be rejected at
construction -- never silently normalised into something runnable.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.scenarios.registry import scenario_names, get_scenario
from repro.scenarios.spec import (
    SOLVER_BACKENDS,
    SOLVER_KERNELS,
    SOLVER_KINDS,
    SOLVER_PRECISIONS,
    ClusteringSpec,
    RunSpec,
    ScenarioSpec,
    SolverSpec,
)


def _sample_solver_kwargs(rng):
    """One random draw from the solver option lattice (valid or not)."""
    kind = rng.choice(SOLVER_KINDS)
    n_ranks = int(rng.choice([1, 1, 2, 3, 4]))
    return dict(
        kind=str(kind),
        n_fused=int(rng.choice([0, 1, 2, 4])),
        flux=str(rng.choice(["rusanov", "godunov"])),
        cfl=float(rng.uniform(0.05, 1.0)),
        n_ranks=n_ranks,
        backend=str(rng.choice(SOLVER_BACKENDS)),
        comm_timeout=(
            None if rng.random() < 0.5 else float(rng.uniform(0.1, 600.0))
        ),
        kernels=str(rng.choice(SOLVER_KERNELS)),
        precision=str(rng.choice(SOLVER_PRECISIONS)),
    )


def _is_valid_solver(kwargs) -> bool:
    if kwargs["backend"] == "process" and kwargs["n_ranks"] < 2:
        return False
    return True


class TestRandomSolverSpecs:
    def test_sampled_lattice_round_trips_or_rejects(self):
        rng = np.random.default_rng(20260730)
        n_valid = n_invalid = 0
        for _ in range(400):
            kwargs = _sample_solver_kwargs(rng)
            if _is_valid_solver(kwargs):
                solver = SolverSpec(**kwargs)
                n_valid += 1
                payload = json.loads(json.dumps(dataclasses.asdict(solver)))
                assert SolverSpec(**payload) == solver
            else:
                n_invalid += 1
                with pytest.raises(ValueError):
                    SolverSpec(**kwargs)
        # the seed must actually exercise both sides of the lattice
        assert n_valid > 100 and n_invalid > 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="process", n_ranks=1),
            dict(comm_timeout=-1.0),
            dict(kernels="native"),
            dict(precision="f16"),
            dict(n_fused=-1),
            dict(cfl=0.0),
            dict(n_ranks=0),
        ],
        ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.values()))),
    )
    def test_known_invalid_combinations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverSpec(**kwargs)

    @pytest.mark.parametrize("comm", ["shm", "mpi", "Queue"])
    def test_legacy_comm_other_than_queue_rejected(self, comm):
        # serialisations from before the single process transport
        payload = get_scenario("plane_wave").to_dict()
        payload["solver"]["comm"] = comm
        with pytest.raises(ValueError, match=f"solver comm {comm!r} is no longer supported"):
            ScenarioSpec.from_dict(payload)


class TestRandomScenarioSpecs:
    def test_registry_scenarios_with_random_solver_options_round_trip(self):
        """Full ScenarioSpec round-trips with random (valid) solver/run/
        clustering overrides layered onto every registered scenario."""
        rng = np.random.default_rng(7)
        checked = 0
        for name in scenario_names():
            base = get_scenario(name)
            for _ in range(16):
                kwargs = _sample_solver_kwargs(rng)
                if not _is_valid_solver(kwargs):
                    continue
                spec = dataclasses.replace(
                    base,
                    solver=SolverSpec(**kwargs),
                    clustering=ClusteringSpec(
                        n_clusters=int(rng.integers(1, 5)),
                        lam=float(rng.uniform(0.51, 1.0)) if rng.random() < 0.5 else None,
                    ),
                    run=(
                        RunSpec(n_cycles=int(rng.integers(1, 9)))
                        if rng.random() < 0.5
                        else RunSpec(n_cycles=None, t_end=float(rng.uniform(0.01, 2.0)))
                    ),
                )
                again = ScenarioSpec.from_json(spec.to_json())
                assert again == spec
                # a legacy "comm": "queue" key reads back as the same spec
                legacy = spec.to_dict()
                legacy["solver"]["comm"] = "queue"
                assert ScenarioSpec.from_dict(legacy) == spec
                # and a second round trip is a fixed point
                assert ScenarioSpec.from_json(again.to_json()) == again
                checked += 1
        assert checked >= 30

    def test_solver_overrides_survive_dict_round_trip(self):
        spec = get_scenario("plane_wave").with_overrides(
            kernels="fast", precision="f32", n_ranks=3, backend="process"
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.solver.kernels == "fast"
        assert again.solver.precision == "f32"
        assert again.solver.n_ranks == 3
        assert again.solver.backend == "process"
        assert again == spec
        # free_surface (new DomainSpec field) round-trips too
        assert again.domain.free_surface is False
