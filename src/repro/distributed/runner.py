"""The engine factory of multi-rank scenario runs.

:class:`~repro.scenarios.runner.ScenarioRunner` calls :func:`build_engine`
when a spec asks for ``solver.n_ranks > 1``: the mesh is split with the
weighted dual-graph partitioner (update-frequency element weights, Sec. V-C)
unless preprocessing already produced that many partitions, and the spec's
``solver.backend`` picks where the one engine,
:class:`~repro.distributed.process_engine.ProcessLtsEngine`, runs its rank
workers: ``"serial"`` on threads of this process, ``"process"`` in one
worker process per rank.  Both exchange halo packs through the same
:class:`~repro.parallel.communicator.ProcessCommunicator`, and
``solver.comm_timeout`` bounds a blocked receive on both.  DOFs,
seismograms and element-update counts are bit-identical to the
single-rank solver under either backend.
"""

from __future__ import annotations

import numpy as np

from ..parallel.partition import element_weights, partition_dual_graph
from .process_engine import ProcessLtsEngine

__all__ = ["build_engine"]


def build_engine(runner, disc, sources: list):
    """The multi-rank engine of ``runner``'s spec over its setup.

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
        backend=solver.backend,
    )


def _partitions(runner, disc, n_ranks: int) -> np.ndarray:
    """One partition per rank, balanced by LTS update-frequency weights.

    The setup's preprocessing partitions are reused when their count
    matches (its reordering made them contiguous); otherwise the weighted
    partitioner runs on the final mesh.
    """
    if runner.setup.partitions is not None:
        partitions = np.asarray(runner.setup.partitions, dtype=np.int64)
        if int(partitions.max()) + 1 == n_ranks:
            return partitions
    clustering = runner.clustering
    weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
    return partition_dual_graph(disc.mesh.neighbors, weights, n_ranks).partitions
