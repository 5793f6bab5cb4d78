"""In-process rank solvers of a multi-rank engine, for tests that look inside
a rank.

Every multi-rank run forks its rank workers, so a test cannot reach a live
rank.  :func:`rank_solvers` builds the same :class:`RankSolver` objects in
this process from the engine's subdomains; checks that need a stepped state
restore the engine's gathered state into them.
"""

import queue

from repro.distributed import RankSolver
from repro.parallel.communicator import ProcessCommunicator

_RANK_ARRAYS = ("dofs", "b1", "b2", "b3")


def rank_solvers(engine, *, restore: bool = False) -> list:
    """One in-process :class:`RankSolver` per subdomain of ``engine``, wired
    to each other over in-process queues; ``restore`` copies the engine's
    current state (gathered from its workers) into them."""
    inbound = [queue.SimpleQueue() for _ in engine.subdomains]
    solvers = [
        RankSolver(
            sub,
            ProcessCommunicator(
                sub.rank, engine.n_ranks, inbound[sub.rank],
                {d: q for d, q in enumerate(inbound) if d != sub.rank},
            ),
            n_fused=engine.n_fused,
            kernels=engine.kernels,
        )
        for sub in engine.subdomains
    ]
    assert len(solvers) == engine.n_ranks > 1
    if restore:
        state = engine.state_arrays()
        for sub, solver in zip(engine.subdomains, solvers):
            local = {name: state[name][sub.owned] for name in _RANK_ARRAYS}
            solver.restore_state(
                dict(local, step_index=state["step_index"]), engine.time, 0
            )
    return solvers
