"""The engine factory of multi-rank scenario runs.

:class:`~repro.scenarios.runner.ScenarioRunner` calls :func:`build_engine`
when a spec asks for ``solver.n_ranks > 1``: the mesh is split with the
weighted dual-graph partitioner (the update-frequency element weights of
the runner's clustering, Sec. V-C) unless preprocessing already produced
that many partitions, and the one
engine, :class:`~repro.distributed.process_engine.ProcessLtsEngine`, forks
one rank worker per partition.  The workers exchange halo packs through
:class:`~repro.parallel.communicator.ProcessCommunicator`, and
``solver.comm_timeout`` bounds a blocked receive.  DOFs, seismograms and
element-update counts are bit-identical to the single-rank solver.
(``solver.backend`` selects nothing: every multi-rank run forks.)
"""

from __future__ import annotations

import numpy as np

from ..parallel.partition import element_weights, partition_dual_graph
from .process_engine import ProcessLtsEngine

__all__ = ["build_engine"]


def build_engine(runner, disc, sources: list):
    """The multi-rank engine of ``runner``'s spec over its setup, stepping
    the runner's clustering (a GTS run's is every element in cluster 0).

    The runner's own telemetry lane becomes the engine's "driver" lane
    (engine construction, checkpoint I/O, the cycle spans) next to the
    per-rank lanes, on one trace timeline.
    """
    solver = runner.spec.solver
    runner.telemetry.lane = "driver"
    return ProcessLtsEngine(
        disc,
        runner.clustering,
        _partitions(runner, disc, solver.n_ranks),
        sources=sources,
        receivers=runner.receivers,
        n_fused=solver.n_fused,
        kernels=solver.kernels,
        telemetry=runner.telemetry,
        comm_timeout=solver.comm_timeout,
    )


def _partitions(runner, disc, n_ranks: int) -> np.ndarray:
    """One partition per rank, balanced by the update-frequency weights of
    the runner's clustering (uniform for GTS).

    The setup's preprocessing partitions -- weighted alike -- are reused
    when their count matches (its reordering made them contiguous);
    otherwise the weighted partitioner runs on the final mesh.
    """
    if runner.setup.partitions is not None:
        partitions = np.asarray(runner.setup.partitions, dtype=np.int64)
        if int(partitions.max()) + 1 == n_ranks:
            return partitions
    clustering = runner.clustering
    weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
    return partition_dual_graph(disc.mesh.neighbors, weights, n_ranks).partitions
