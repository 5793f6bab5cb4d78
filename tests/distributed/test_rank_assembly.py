"""Who assembles the element operators of a run.

* A multi-rank parent assembles none of them: each forked rank worker
  calls ``Discretization.element_operators`` once, with its ``owned``
  rows, and the whole-mesh set of the parent stays unbuilt.
* A rank reports when it is built, so ``make_runner`` (and a respawn)
  returns with every rank's operators assembled, and a rank whose build
  raises fails the start by name, leaving no worker alive.
* A single-rank solver is built with the whole set, as before.
* The assembly is timed as a ``preprocess.operators`` region: on the
  runner's lane on one rank, on each rank's lane otherwise.
"""

import gc
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.kernels.discretization import ELEMENT_OPERATORS, FLUX_VIEWS, Discretization
from repro.observability import resident_nbytes
from repro.scenarios import get_scenario, make_runner

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def tiny_loh3():
    """A small 2-cluster LOH.3 variant with one mechanism."""
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


def _logged_calls(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []


def _live_workers() -> set:
    """The child processes alive in this process."""
    return set(multiprocessing.active_children())


def test_the_parent_assembles_nothing_and_each_rank_its_own_rows(tiny_loh3, tmp_path, monkeypatch):
    """A spy installed before the fork logs every assembly with its
    process: the forked ranks inherit it, and each logs one call with its
    own rows before ``make_runner`` returns."""
    log = tmp_path / "assemblies.jsonl"
    assemble = Discretization.element_operators

    def spy(self, ids):
        with open(log, "a") as out:
            out.write(json.dumps({"pid": os.getpid(), "ids": np.asarray(ids).tolist()}) + "\n")
        return assemble(self, ids)

    monkeypatch.setattr(Discretization, "element_operators", spy)
    runner = make_runner(tiny_loh3.with_overrides(n_ranks=2))
    engine = runner.engine
    pids = [process.pid for process in engine._pool.procs]
    ready = _logged_calls(log)  # the ranks were built before make_runner returned
    runner.step_cycle()
    engine.close()
    calls = _logged_calls(log)
    assert calls == ready
    assert os.getpid() not in {call["pid"] for call in calls}
    assert sorted(call["pid"] for call in calls) == sorted(pids)
    for call in calls:
        np.testing.assert_array_equal(call["ids"], engine.subdomains[pids.index(call["pid"])].owned)
    assert not set(ELEMENT_OPERATORS + FLUX_VIEWS) & set(vars(runner.setup.disc))


def test_each_rank_times_its_assembly_on_its_own_lane(tiny_loh3):
    """``preprocess.operators`` is a rank lane's region, once per rank; the
    driver lane, whose process assembles nothing, has none."""
    runner = make_runner(tiny_loh3.with_overrides(n_ranks=2, telemetry=True))
    runner.step_cycle()
    lanes = {snap["lane"]: snap["regions"] for snap in runner.solver.telemetry_snapshots()}
    runner.engine.close()
    assert set(lanes) == {"rank 0", "rank 1", "driver"}
    for rank in ("rank 0", "rank 1"):
        assert lanes[rank]["preprocess.operators"]["count"] == 1
        assert lanes[rank]["preprocess.operators"]["total_s"] > 0.0
    assert "preprocess.operators" not in lanes["driver"]


@pytest.mark.parametrize("spawn", ["first", "respawn"])
def test_a_rank_whose_build_raises_fails_the_start(tiny_loh3, monkeypatch, spawn):
    """The assembly raises in every forked rank: the start fails at once,
    naming a rank and the cause, and stops every worker."""
    before = _live_workers()
    spec = tiny_loh3.with_overrides(n_ranks=2)

    def failing(self, ids):
        raise RuntimeError("injected assembly failure")

    match = r"rank \d worker failed:(.|\n)*injected assembly failure"
    if spawn == "first":
        monkeypatch.setattr(Discretization, "element_operators", failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=match):
            make_runner(spec)
    else:
        runner = make_runner(spec)
        runner.step_cycle()
        runner.engine.close()
        monkeypatch.setattr(Discretization, "element_operators", failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=match):
            runner.step_cycle()
    assert time.monotonic() - start < 30.0
    gc.collect()
    assert _live_workers() - before == set()


@pytest.mark.parametrize("kind", ["lts", "gts"])
def test_a_single_rank_solver_is_built_with_the_whole_set(tiny_loh3, kind):
    runner = make_runner(tiny_loh3.with_overrides(solver=kind))
    disc = runner.setup.disc
    for name in ELEMENT_OPERATORS + FLUX_VIEWS:
        assert name in vars(disc), name
    operators = runner.solver.memory_owners()["operators"]
    assert operators == resident_nbytes(vars(disc)) / 2**20
    assert operators >= sum(vars(disc)[name].nbytes for name in ELEMENT_OPERATORS) / 2**20
