"""In-process rank solvers of a multi-rank engine, for tests that look inside
a rank.

Every multi-rank run forks its rank workers, so a test cannot reach a live
rank.  :func:`rank_solvers` builds the same :class:`RankSolver` objects in
this process from the engine's subdomains; checks that need a stepped state
restore the engine's gathered DOFs into them, and checks that read the
buffers step them a cycle (:func:`step_ranks`) first.

A multi-rank run orders its elements by (cluster, partition, boundary
first), a one-rank run by cluster alone, so their DOFs compare in
generation order (:func:`generation_dofs`).
"""

import queue
import threading

import numpy as np

from repro.distributed import RankSolver
from repro.parallel.communicator import ProcessCommunicator


def generation_dofs(runner):
    """The runner's DOFs in generation order (row ``i`` is generated
    element ``i``), whatever its element order."""
    return runner.solver.dofs[np.argsort(runner.setup.mesh.original_ids)]


def rank_solvers(engine, *, restore: bool = False) -> list:
    """One in-process :class:`RankSolver` per subdomain of ``engine``, wired
    to each other over in-process queues; ``restore`` copies the engine's
    current DOFs (gathered from its workers) into them."""
    inbound = [queue.SimpleQueue() for _ in engine.subdomains]
    solvers = [
        RankSolver(
            sub,
            ProcessCommunicator(
                sub.rank, engine.n_ranks, inbound[sub.rank],
                {d: q for d, q in enumerate(inbound) if d != sub.rank},
                timeout=30.0,
            ),
            n_fused=engine.n_fused,
            kernels=engine.kernels,
        )
        for sub in engine.subdomains
    ]
    assert len(solvers) == engine.n_ranks > 1
    if restore:
        dofs = engine.dofs
        for sub, solver in zip(engine.subdomains, solvers):
            solver.restore_state({"dofs": dofs[sub.owned]}, engine.time, 0)
    return solvers


def step_ranks(solvers) -> None:
    """Step every rank of :func:`rank_solvers` one macro cycle, each on its
    own thread: a rank blocks on its peers' packs, as a forked worker does."""
    errors = []

    def step(solver):
        try:
            solver.step_cycle()
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=step, args=(solver,)) for solver in solvers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive(), "a rank did not finish its cycle"
    if errors:
        raise errors[0]
