"""The stepper protocol every runner stepper implements (``repro.core.stepper``).

One contract, three steppers: the GTS and clustered-LTS solvers and the
multi-rank engine (on 2 and 4 ranks).  Each must advance ``time`` by
``macro_dt`` and its update count by the clustering's model per cycle,
continue bitwise from its own DOFs on a fresh instance, close idempotently,
and report halo traffic exactly when it runs on ranks.  The DOFs, the time
and the update count are the whole dynamic state: the LTS buffers (and a
rank's halo store) hold nothing a later cycle reads.
"""

import numpy as np
import pytest

from repro.core.lts_scheduler import updates_per_cycle
from repro.distributed import RankSolver
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
        state = {"dofs": np.array(original.dofs)}
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
        snapshot = {"dofs": np.array(solver.dofs)}
        pristine = snapshot["dofs"].copy()
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
    np.testing.assert_array_equal(snapshot["dofs"], pristine)


@pytest.mark.parametrize(
    "kind", ["gts", "lts", pytest.param("2rank", marks=pytest.mark.distributed)]
)
def test_restore_refuses_dofs_of_another_layout(tiny_loh3, kind):
    """The engine checks the global arrays before any rank sees them, and
    refuses them with the single-rank message."""
    solver = ScenarioRunner(tiny_loh3.with_overrides(**STEPPERS[kind])).solver
    try:
        for dofs in (solver.dofs[:-1], solver.dofs.astype(np.float32)):
            with pytest.raises(ValueError, match=r"restored dofs are .*, the solver's are "):
                solver.restore_state({"dofs": dofs}, 0.0, 0)
    finally:
        solver.close()


@pytest.fixture(scope="module")
def three_clusters():
    """The La Habra smoke mesh on three clusters, every one populated (so
    ``B2``, ``B3`` and ``B1 - B2`` rows all have readers)."""
    spec = get_scenario("la_habra").smoke().with_overrides(n_clusters=3, n_cycles=4)
    assert (ScenarioRunner(spec).clustering.counts > 0).all()
    return spec


def _poison(solver) -> None:
    """NaN into every buffer row but the ghost row, and into a rank's halo
    store."""
    solver.buffers._flat[:-1] = np.nan
    if isinstance(solver, RankSolver):
        solver.halo_store[...] = np.nan


@pytest.mark.parametrize("kernels", ["ref", "fast"])
@pytest.mark.parametrize(
    "kind", ["lts", *(pytest.param(k, marks=pytest.mark.distributed) for k in ("2rank", "4rank"))]
)
def test_the_buffers_hold_no_state_across_cycles(three_clusters, monkeypatch, kind, kernels):
    """Before every cycle after the first, every buffer row but the ghost
    row (and, on ranks, every halo-store row) is NaN: each cluster's
    prediction refills its rows before any reader, so the DOFs and
    seismograms stay bitwise a clean run's.  The ranks poison themselves
    (patched into the class before they fork)."""
    spec = three_clusters.with_overrides(**STEPPERS[kind], kernels=kernels)
    clean = ScenarioRunner(spec)
    if kind != "lts":
        step = RankSolver.step_cycle

        def poisoned(self):
            if self.time > 0:
                _poison(self)
            step(self)

        monkeypatch.setattr(RankSolver, "step_cycle", poisoned)
    runner = ScenarioRunner(spec)
    try:
        for cycle in range(spec.run.n_cycles):
            if kind == "lts" and cycle:
                _poison(runner.solver)
            runner.step_cycle()
            clean.step_cycle()
        assert np.isfinite(runner.solver.dofs).all()
        np.testing.assert_array_equal(runner.solver.dofs, clean.solver.dofs)
        for receiver in clean.receivers.receivers:
            times, samples = runner.receivers[receiver.name].seismogram()
            np.testing.assert_array_equal(times, receiver.seismogram()[0])
            np.testing.assert_array_equal(samples, receiver.seismogram()[1])
    finally:
        runner.solver.close()
        clean.solver.close()
