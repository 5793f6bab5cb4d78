"""Thread-parallel element blocks: the derived budget, the per-process pool,
and bit-identity of threaded ``fast`` runs.

The thread count is never configured: these tests drive it the way a host
does, through the CPU affinity the budget reads (``os.sched_getaffinity``,
monkeypatched to ``n`` CPUs per BLAS thread and rank; forked rank workers
inherit the patch), so threaded and one-thread runs go through the same
derivation.  Every element block still runs the same arithmetic on
whichever thread owns its chunk, so a threaded run must equal the
one-thread run bit for bit.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.lts_scheduler import schedule_cycle
from repro.core.lts_solver import HalfAppliedStepError
from repro.distributed import RankSolver
from repro.kernels import backend as backend_module
from repro.kernels import threads
from repro.kernels.backend import FastBackend
from repro.kernels.threads import BlockPool, share_cpus, thread_budget
from repro.observability import validate_chrome_trace
from repro.scenarios import get_scenario, make_runner
from repro.scenarios.cli import main as cli_main
from repro.sweep import SweepAxis, SweepSpec, run_sweep
from repro.verification.golden import golden_spec

from ..rank_setup import rank_solvers

#: a few order-3 elements per block, so smoke meshes cut into many blocks
SMALL_BLOCKS = 1 << 16


def use_threads(monkeypatch, n: int, ranks: int = 1) -> None:
    """Give this process an affinity of ``n`` CPUs per BLAS thread and
    rank: each of ``ranks`` forked rank workers, sharing the CPUs
    (``share_cpus(ranks)``), then has a budget of ``n`` kernel threads."""
    cpus = set(range(n * ranks * threads.blas_threads()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert thread_budget() == n * ranks
    with monkeypatch.context() as patch:
        patch.setattr(threads, "_share", ranks)
        assert thread_budget() == n


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(backend_module, "_BLOCK_STACK_BYTES", SMALL_BLOCKS)


@pytest.fixture
def budget_log(monkeypatch, tmp_path):
    """Record, per process, the budget its pool was built at (forked
    workers inherit the recorder and write their own file)."""
    real = threads.thread_budget

    def recording():
        n = real()
        (tmp_path / f"budget-{os.getpid()}").write_text(str(n))
        return n

    monkeypatch.setattr(threads, "thread_budget", recording)
    monkeypatch.setattr(threads, "_blas", 1)  # forked children inherit it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def read():
        return {
            int(path.name.split("-")[1]): int(path.read_text())
            for path in tmp_path.glob("budget-*")
        }

    return read


class TestBudget:
    @pytest.mark.parametrize(
        "cpus, share, blas, expected",
        [(2, 1, 1, 2), (2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 1), (8, 2, 2, 2), (3, 1, 1, 3)],
    )
    def test_cpus_over_processes_over_blas_threads(self, monkeypatch, cpus, share, blas, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(threads, "_share", 1)
        monkeypatch.setattr(threads, "_blas", blas)
        share_cpus(share)
        assert thread_budget() == expected

    def test_single_rank_takes_every_cpu(self, budget_log, small_blocks):
        runner = make_runner(get_scenario("loh3").smoke().with_overrides(kernels="fast"))
        runner.step_cycle()
        assert budget_log() == {os.getpid(): 2}

    def test_process_ranks_take_one_thread_each(self, budget_log, small_blocks):
        spec = get_scenario("loh3").smoke().with_overrides(kernels="fast", n_ranks=2)
        runner = make_runner(spec)
        try:
            runner.step_cycle()
        finally:
            runner.engine.close()
        budgets = budget_log()
        assert os.getpid() not in budgets  # the parent steps no kernels
        assert sorted(budgets.values()) == [1, 1]

    @pytest.mark.parametrize(
        "cpus, n_ranks, per_rank", [(4, 2, 2), (4, 4, 1), (2, 4, 1)]
    )
    def test_forked_ranks_split_the_cpus(self, budget_log, small_blocks, monkeypatch,
                                         cpus, n_ranks, per_rank):
        """Each forked rank declares its share: its pool gets the CPUs over
        the rank count (at least one thread)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = get_scenario("loh3").smoke().with_overrides(kernels="fast", n_ranks=n_ranks)
        runner = make_runner(spec)
        try:
            runner.step_cycle()
        finally:
            runner.engine.close()
        budgets = budget_log()
        assert os.getpid() not in budgets
        assert sorted(budgets.values()) == [per_rank] * n_ranks

    @pytest.mark.parametrize("workers, expected", [(0, [2]), (2, [1, 1])], ids=["inline", "pool"])
    def test_sweep_workers_split_the_cpus(self, budget_log, small_blocks, tmp_path, workers, expected):
        base = get_scenario("loh3").smoke().with_overrides(kernels="fast", n_cycles=1)
        sweep = SweepSpec(
            base=base,
            axes=[SweepAxis(path="source.location",
                            values=[[0.0, 0.0, -1000.0], [500.0, 0.0, -1000.0]])],
            name="threads",
        )
        tally = run_sweep(sweep, tmp_path / "sweep", workers=workers, events=False)
        assert tally["done"] == 2
        budgets = budget_log()
        assert sorted(budgets.values()) == expected
        assert (os.getpid() in budgets) == (workers == 0)


class TestPool:
    def test_every_item_runs_once_on_any_thread(self):
        import threading

        pool = BlockPool(3)
        seen = {}
        pool.run(list(range(60)), lambda item, slot: seen.setdefault(
            item, (slot, threading.get_ident())
        ))
        assert sorted(seen) == list(range(60))
        assert {slot for slot, _ in seen.values()} <= {0, 1, 2}
        # slot 0 is the caller's
        assert all(ident == threading.get_ident() for slot, ident in seen.values() if slot == 0)
        pool.close()

    def test_a_slow_item_leaves_the_rest_to_the_other_threads(self):
        """Dynamic claiming: while the caller sits on one slow item, the
        worker claims every other one (a static half split would not)."""
        import time

        pool = BlockPool(2)
        slots = {}

        def work(item, slot):
            slots[item] = slot
            if item == 0:
                time.sleep(0.3)

        pool.run(list(range(20)), work)
        assert all(slots[i] != slots[0] for i in range(1, 20)), slots
        pool.close()

    def test_a_raising_item_stops_the_claiming_and_reaches_the_caller(self):
        """Item 1 raises while another thread sits on slow item 0: no item
        starts after the error is seen, none runs twice, ``run`` returns
        only once item 0 is done, and the pool serves the next batch."""
        import time

        pool = BlockPool(3)
        started, finished = [], []

        def work(item, slot):
            started.append(item)
            if item == 0:
                time.sleep(0.2)
            elif item == 1:
                raise ZeroDivisionError("item 1")
            finished.append(item)

        error = _bounded(lambda: pool.run(list(range(200)), work))
        assert isinstance(error, ZeroDivisionError) and str(error) == "item 1"
        assert len(started) == len(set(started)) < 200
        assert set(started) - set(finished) == {1}  # item 0 finished first
        seen = []
        assert _bounded(lambda: pool.run(list(range(50)), lambda item, slot: seen.append(item))) is None
        assert sorted(seen) == list(range(50))
        pool.close()

    def test_a_forked_child_builds_its_own_pool(self, monkeypatch, small_blocks):
        """The parent steps threaded cycles; a fork-context child of it
        steps the same solver on a pool of its own and exits."""
        use_threads(monkeypatch, 2)
        runner = make_runner(get_scenario("loh3").smoke().with_overrides(kernels="fast"))
        runner.step_cycle()
        parent_pool = threads._pool
        assert parent_pool is not None and parent_pool.n_threads == 2

        def child():
            assert threads._pool is None  # nothing crossed the fork
            runner.step_cycle()
            assert threads._pool is not None and threads._pool is not parent_pool
            assert threads._pool.n_threads == 2

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        assert process.exitcode == 0
        runner.step_cycle()  # the parent's pool still serves the parent
        assert threads._pool is parent_pool


def _bounded(call, timeout=30.0):
    """Run ``call()`` on a thread that must finish within ``timeout``
    seconds; its exception (or ``None``)."""
    import threading

    outcome = []

    def target():
        try:
            call()
        except BaseException as error:
            outcome.append(error)
        else:
            outcome.append(None)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return outcome[0]


def _lts(name, **factory):
    return get_scenario(name, **factory).smoke().with_overrides(kernels="fast")


#: case -> (spec, bytes of a ``local_update`` block's derivative stack)
LATTICE = {
    "loh3": (lambda: _lts("loh3"), SMALL_BLOCKS),
    "la_habra": (lambda: _lts("la_habra"), SMALL_BLOCKS),
    # five clusters at order 4: every merged micro-step dispatch mixes the
    # blocks of several clusters, on a non-trivial state
    "la_habra4": (lambda: _lts("la_habra").with_overrides(order=4, n_cycles=4), SMALL_BLOCKS),
    "gts": (lambda: _lts("loh3").with_overrides(solver="gts"), SMALL_BLOCKS),
    "fused2": (
        lambda: golden_spec("loh3_fused2").with_overrides(kernels="fast", n_cycles=2),
        SMALL_BLOCKS,
    ),
    # a small box whose halo rows fill a whole 2-element cluster, cut into
    # one-element blocks: the halo payloads land in more than one chunk
    "2rank": (
        lambda: _lts("loh3", extent_m=4000.0, characteristic_length=1500.0).with_overrides(
            n_ranks=2
        ),
        1,
    ),
}


def _run(spec):
    runner = make_runner(spec)
    runner.run()
    seismograms = {r.name: r.seismogram() for r in runner.receivers.receivers}
    return runner, np.array(runner.solver.dofs), seismograms


def _halo_blocks(rank):
    """The most correction blocks of one cluster of a rank solver that hold
    halo faces."""
    most = 0
    for cluster in rank.clusters:
        halo_rows = rank._halo_faces[cluster.cluster_id] // 4
        most = max(most, sum(
            bool(np.any((halo_rows >= rows.start) & (halo_rows < rows.stop)))
            for rows, *_ in cluster.neighbor_plans[0]
        ))
    return most


@pytest.mark.parametrize("case", sorted(LATTICE))
def test_threaded_fast_is_bitwise_the_one_thread_run(monkeypatch, case):
    spec, block_bytes = LATTICE[case]
    monkeypatch.setattr(backend_module, "_BLOCK_STACK_BYTES", block_bytes)
    if case == "2rank":  # the same rank solvers as the forked ones, in-process
        runner = make_runner(spec())
        assert max(_halo_blocks(rank) for rank in rank_solvers(runner.engine)) > 1
        runner.solver.close()
    runs = {}
    for n in (1, 2, 3):
        use_threads(monkeypatch, n, spec().solver.n_ranks)
        runs[n] = _run(spec())
    _, dofs, seismograms = runs[1]
    for n in (2, 3):
        _, threaded, threaded_seismograms = runs[n]
        assert np.array_equal(threaded, dofs), (case, n)
        for name, (times, values) in seismograms.items():
            t, v = threaded_seismograms[name]
            assert np.array_equal(t, times) and np.array_equal(v, values), (case, n, name)


def test_threaded_telemetry_counts_every_region_once(monkeypatch, small_blocks, tmp_path):
    """Worker threads record on branches of the lane, absorbed after each
    batch: the trace validates and the region counts are the one-thread
    run's, under the same paths.  ``predict`` and ``correct`` count one
    merged dispatch per micro step, their kernel regions one per block."""
    regions = {}
    for n in (1, 2):
        use_threads(monkeypatch, n)
        out, trace = tmp_path / f"out{n}", tmp_path / f"trace{n}.json"
        assert cli_main([
            "run", "loh3", "--smoke", "--kernels", "fast", "--metrics", "--trace", str(trace),
            "--quiet", "--output-dir", str(out),
        ]) == 0
        validate_chrome_trace(json.loads(trace.read_text()), expect_lanes=1)
        summary = json.loads((out / "run_summary.json").read_text())
        regions[n] = {path: entry["count"] for path, entry in summary["telemetry"]["regions"].items()}
    assert regions[2] == regions[1]
    assert any(path.endswith("/kernel.ck") for path in regions[2])
    spec = get_scenario("loh3").smoke().with_overrides(kernels="fast")
    solver = make_runner(spec).solver
    n_cycles, schedule = spec.run.n_cycles, schedule_cycle(solver.clustering.n_clusters)
    blocks = [
        len(FastBackend._block_plan(solver.disc, solver.dofs, c.elements)) for c in solver.clusters
    ]
    for phase, leaf in (("predict", "kernel.ck"), ("correct", "kernel.surface_neighbor")):
        assert regions[2][phase] == n_cycles * len(schedule)
        assert regions[2][f"{phase}/{leaf}"] == n_cycles * sum(
            blocks[l] for entry in schedule for l in entry[phase]
        )


@pytest.mark.parametrize("case", ["lts", "2rank"])
def test_more_threads_than_cores_under_fast_switching(monkeypatch, small_blocks, case):
    """Stress: 4 kernel threads (per rank) with a 10 us switch interval,
    telemetry on.  A lost update to shared state -- a block run twice or
    skipped, a scratch buffer shared by two threads, a region count merged
    wrongly -- breaks bitwise equality or the counts."""
    import sys

    spec = _lts("la_habra").with_overrides(telemetry=True)
    if case == "2rank":
        spec = spec.with_overrides(n_ranks=2)
    runs = {}
    for n in (1, 4):
        use_threads(monkeypatch, n, spec.solver.n_ranks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner, dofs, _ = _run(spec)
        finally:
            sys.setswitchinterval(interval)
        regions = runner.summary()["telemetry"]["regions"]
        runs[n] = dofs, {path: entry["count"] for path, entry in regions.items()}
    assert np.array_equal(runs[4][0], runs[1][0])
    assert runs[4][1] == runs[1][1]


class TestFailedDispatch:
    """A block that raises inside a merged micro-step dispatch: the error
    reaches the caller in bounded time, and the solver, left with some
    clusters advanced and some not, refuses to step on until a state is
    restored (a multi-rank engine, whose failing rank stopped every worker,
    refuses by name too)."""

    @staticmethod
    def _boom(slot, telemetry, dofs):
        raise ZeroDivisionError("injected block failure")

    @classmethod
    def _fail_rank_0(cls, monkeypatch, phase: str, last: bool) -> None:
        """Put the failing block first (or last) into the ``phase`` items of
        rank 0's cluster 0, both step parities.  The items are built by the
        rank on first use, so the patch goes into the class: the ranks
        forked next inherit it."""
        build = RankSolver._cluster_items

        def failing(self, cluster, parity):
            items = build(self, cluster, parity)
            if self.rank == 0 and cluster.cluster_id == 0:
                assert items[phase], "the failing block must follow blocks that write DOF rows"
                items[phase].insert(len(items[phase]) if last else 0, cls._boom)
            return items

        monkeypatch.setattr(RankSolver, "_cluster_items", failing)

    @pytest.mark.parametrize("case", ["lts", "2rank"])
    def test_the_next_cycle_is_refused_by_name(self, monkeypatch, small_blocks, case):
        spec = _lts("la_habra")
        if case == "2rank":
            spec = spec.with_overrides(n_ranks=2)
        use_threads(monkeypatch, 2, spec.solver.n_ranks)
        runner = make_runner(spec)
        runner.step_cycle()
        if case == "lts":
            for items in runner.solver.clusters[0].items:  # both step parities
                items["correct"].insert(0, self._boom)
        else:
            runner.engine.close()  # the next cycle respawns the ranks
            self._fail_rank_0(monkeypatch, "correct", last=False)
        error = _bounded(runner.step_cycle)
        if case == "lts":
            assert isinstance(error, ZeroDivisionError), error
            error = _bounded(runner.step_cycle)
            assert isinstance(error, HalfAppliedStepError), error
            assert "correct dispatch" in str(error)
        else:
            # the rank's traceback reaches the engine
            assert isinstance(error, RuntimeError), error
            assert "ZeroDivisionError: injected block failure" in str(error)
            error = _bounded(runner.step_cycle)
            assert isinstance(error, RuntimeError), error
            assert "lost its workers" in str(error)

    @pytest.mark.parametrize("case", ["lts", "gts", "2rank"])
    def test_a_failed_prediction_is_refused_then_restored(self, monkeypatch, small_blocks, case):
        """A prediction block that raises after earlier blocks of the same
        dispatch added their volume increments to their DOF rows: the next
        cycle is refused by name, and ``restore_state`` resumes bitwise."""
        spec = _lts("la_habra")
        if case == "gts":
            spec = spec.with_overrides(solver="gts")
        if case == "2rank":
            spec = spec.with_overrides(n_ranks=2)
        use_threads(monkeypatch, 2, spec.solver.n_ranks)
        clean, runner = make_runner(spec), make_runner(spec)
        for _ in range(2):
            clean.step_cycle()
        runner.step_cycle()
        saved = {name: np.array(array) for name, array in runner.solver.state_arrays().items()}
        time, updates = runner.solver.time, runner.solver.n_element_updates
        if case == "gts":
            backend, dispatch = runner.solver.backend, runner.solver.backend._dispatch

            def failing(items, dofs):
                predicts = items[0].batch[0] == "local_update"
                assert not predicts or len(items) > 1, "the failing block must follow others"
                dispatch(items + [self._boom] if predicts else items, dofs)

            backend._dispatch = failing
            error = _bounded(runner.step_cycle)
            assert isinstance(error, ZeroDivisionError), error
            assert not np.array_equal(runner.solver.dofs, saved["dofs"])
            error = _bounded(runner.step_cycle)
            assert isinstance(error, HalfAppliedStepError), error
            assert "the step raised ZeroDivisionError" in str(error)
            del backend._dispatch
            runner.solver.restore_state(saved, time, updates)
            assert _bounded(runner.step_cycle) is None
            np.testing.assert_array_equal(runner.solver.dofs, clean.solver.dofs)
            return
        if case == "lts":
            solver = runner.solver
            for items in solver.clusters[0].items:  # both step parities
                assert items["predict"], "the failing block must follow blocks that write DOF rows"
                items["predict"].append(self._boom)
            error = _bounded(runner.step_cycle)
            assert isinstance(error, ZeroDivisionError), error
            error = _bounded(runner.step_cycle)
            assert isinstance(error, HalfAppliedStepError), error
            assert "predict dispatch" in str(error)
            for items in solver.clusters[0].items:
                items["predict"].remove(self._boom)
        else:
            runner.engine.close()
            with monkeypatch.context() as patch:
                # the rank solver predicts its boundary rows first
                self._fail_rank_0(patch, "boundary", last=True)
                error = _bounded(runner.step_cycle)
            assert isinstance(error, RuntimeError), error
            assert "ZeroDivisionError: injected block failure" in str(error)
            assert "lost its workers" in str(_bounded(runner.step_cycle))
        runner.solver.restore_state(saved, time, updates)
        assert _bounded(runner.step_cycle) is None
        np.testing.assert_array_equal(runner.solver.dofs, clean.solver.dofs)
        runner.solver.close()
        clean.solver.close()

    def test_a_restored_state_steps_cleanly(self, monkeypatch, small_blocks):
        use_threads(monkeypatch, 2)
        spec = _lts("la_habra")
        clean = make_runner(spec)
        clean.step_cycle()
        clean.step_cycle()
        runner = make_runner(spec)
        runner.step_cycle()
        solver = runner.solver
        saved = {name: np.array(array) for name, array in solver.state_arrays().items()}
        time, updates = solver.time, solver.n_element_updates
        for items in solver.clusters[0].items:
            items["correct"].insert(0, self._boom)
        assert isinstance(_bounded(runner.step_cycle), ZeroDivisionError)
        for items in solver.clusters[0].items:
            items["correct"].remove(self._boom)
        solver.restore_state(saved, time, updates)
        assert _bounded(runner.step_cycle) is None
        assert np.array_equal(solver.dofs, clean.solver.dofs)
