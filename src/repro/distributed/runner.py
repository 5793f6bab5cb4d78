"""The engine factory of multi-rank scenario runs.

:class:`~repro.scenarios.runner.ScenarioRunner` calls :func:`build_engine`
when a spec asks for ``solver.n_ranks > 1``.  The setup already holds the
run's one partition -- one part per rank, weighted by the update frequencies
of the stepped clustering (Sec. V-C), and cached like every other
preprocessing stage (:func:`~repro.scenarios.runner.preprocess_setup`) --
in an element order whose restriction to a rank is that rank's local order.
The one engine, :class:`~repro.distributed.process_engine.ProcessLtsEngine`,
forks one rank worker per partition.  The workers exchange halo packs
through :class:`~repro.parallel.communicator.ProcessCommunicator`, and
``solver.comm_timeout`` bounds a blocked receive.  DOFs, seismograms and
element-update counts are bit-identical to the single-rank solver.
(``solver.backend`` selects nothing: every multi-rank run forks.)
"""

from __future__ import annotations

# unused here: the setup tracer (benchmarks/e2e/layers.py) wraps it by name
from ..parallel.partition import partition_dual_graph  # noqa: F401
from .process_engine import ProcessLtsEngine

__all__ = ["build_engine"]


def build_engine(runner, disc, sources: list):
    """The multi-rank engine of ``runner``'s spec over its setup: one rank
    per partition of ``runner.setup.partitions``, stepping the runner's
    clustering (a GTS run's is every element in cluster 0).

    The runner's own telemetry lane becomes the engine's "driver" lane
    (engine construction, checkpoint I/O, the cycle spans) next to the
    per-rank lanes, on one trace timeline.
    """
    solver = runner.spec.solver
    partitions = runner.setup.partitions
    if partitions is None or partitions.max() + 1 != solver.n_ranks:
        raise ValueError(f"the setup holds no {solver.n_ranks}-rank partition; rebuild it")
    runner.telemetry.lane = "driver"
    return ProcessLtsEngine(
        disc,
        runner.clustering,
        partitions,
        sources=sources,
        receivers=runner.receivers,
        n_fused=solver.n_fused,
        kernels=solver.kernels,
        telemetry=runner.telemetry,
        comm_timeout=solver.comm_timeout,
    )
