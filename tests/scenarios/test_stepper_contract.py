"""The stepper protocol every runner stepper implements (``repro.core.stepper``).

One contract, three steppers: the GTS and clustered-LTS solvers and the
multi-rank engine (on 2 and 4 ranks).  Each must advance ``time`` by
``macro_dt`` and its update count by the clustering's model per cycle,
continue bitwise from its own ``state_arrays`` on a fresh instance, close
idempotently, and report halo traffic exactly when it runs on ranks.
"""

import numpy as np
import pytest

from repro.core.lts_scheduler import updates_per_cycle
from repro.scenarios import ScenarioRunner, get_scenario

STEPPERS = {
    "gts": {"solver": "gts"},
    "lts": {},
    "2rank": {"n_ranks": 2},
    "4rank": {"n_ranks": 4},
}


@pytest.fixture(scope="module")
def tiny_loh3():
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


@pytest.fixture(
    params=[
        pytest.param(name, marks=[pytest.mark.distributed] if "rank" in name else [])
        for name in STEPPERS
    ]
)
def spec(request, tiny_loh3):
    return tiny_loh3.with_overrides(**STEPPERS[request.param])


def _expected_updates(runner) -> int:
    clustering = runner.clustering
    if runner.spec.solver.kind == "gts":
        return runner.setup.mesh.n_elements * 2 ** (clustering.n_clusters - 1)
    return updates_per_cycle(clustering.counts)


def test_step_cycle_advances_time_and_updates(spec):
    runner = ScenarioRunner(spec)
    stepper = runner.solver
    try:
        for cycle in range(1, 3):
            stepper.step_cycle()
            assert stepper.time == pytest.approx(cycle * stepper.macro_dt, rel=1e-12)
            assert stepper.n_element_updates == cycle * _expected_updates(runner)
    finally:
        stepper.close()


def test_restore_on_a_fresh_stepper_continues_bitwise(spec):
    original = ScenarioRunner(spec).solver
    fresh = ScenarioRunner(spec).solver
    try:
        original.step_cycle()
        state = {name: np.array(values) for name, values in original.state_arrays().items()}
        fresh.restore_state(state, original.time, original.n_element_updates)
        original.step_cycle()
        fresh.step_cycle()
        np.testing.assert_array_equal(fresh.dofs, original.dofs)
        assert fresh.time == original.time
        assert fresh.n_element_updates == original.n_element_updates
    finally:
        original.close()
        fresh.close()


def test_close_is_idempotent(spec):
    stepper = ScenarioRunner(spec).solver
    stepper.step_cycle()
    dofs = np.array(stepper.dofs)
    stepper.close()
    stepper.close()
    np.testing.assert_array_equal(stepper.dofs, dofs)


def test_comm_summary_exactly_on_ranks(spec):
    stepper = ScenarioRunner(spec).solver
    try:
        stepper.step_cycle()
        comm = stepper.comm_summary()
        if spec.solver.n_ranks == 1:
            assert comm is None
        else:
            assert comm["measured_bytes_per_cycle"] == comm["model"]["total_bytes"]
    finally:
        stepper.close()


@pytest.mark.parametrize("kernels", ["ref", "fast"])
@pytest.mark.parametrize(
    "kind", ["gts", "lts", pytest.param("2rank", marks=pytest.mark.distributed)]
)
def test_a_restored_snapshot_stays_the_callers(tiny_loh3, kind, kernels):
    """``restore_state`` copies the DOFs into the solver's own array (the
    engine scatters them to its ranks): stepping on never writes the
    snapshot, so restoring it twice steps the same cycle twice."""
    solver = ScenarioRunner(tiny_loh3.with_overrides(**STEPPERS[kind], kernels=kernels)).solver
    try:
        solver.step_cycle()
        snapshot = {name: np.array(values) for name, values in solver.state_arrays().items()}
        pristine = {name: values.copy() for name, values in snapshot.items()}
        time, updates = solver.time, solver.n_element_updates
        cycles = []
        for _ in range(2):
            solver.restore_state(snapshot, time, updates)
            assert not np.shares_memory(solver.dofs, snapshot["dofs"])
            solver.step_cycle()
            cycles.append(solver.dofs.copy())
    finally:
        solver.close()
    assert np.abs(cycles[0]).max() > 0.0  # the source has started
    np.testing.assert_array_equal(cycles[1], cycles[0])
    for name, values in pristine.items():
        np.testing.assert_array_equal(snapshot[name], values, err_msg=name)


@pytest.mark.parametrize("kind", ["gts", "lts"])
def test_restore_refuses_dofs_of_another_layout(tiny_loh3, kind):
    solver = ScenarioRunner(tiny_loh3.with_overrides(**STEPPERS[kind])).solver
    state = dict(solver.state_arrays())
    for dofs in (solver.dofs[:-1], solver.dofs.astype(np.float32)):
        state["dofs"] = dofs
        with pytest.raises(ValueError, match=r"restored dofs are .*, the solver's are "):
            solver.restore_state(state, 0.0, 0)
