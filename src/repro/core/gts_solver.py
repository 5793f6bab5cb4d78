"""Global time stepping (GTS) -- the baseline configuration.

GTS advances every element with the smallest cluster step: the paper's
baseline for the algorithmic-efficiency comparisons (Tab. I, Fig. 9/10).
It is a clustered LTS run over a clustering with every element in cluster
0 (:func:`gts_clustering`), so one solver, one clock and one rank stepper
serve both kinds; the one-step update of :func:`~repro.kernels.update.gts_step`
is the independent implementation the tests hold it to.  A scenario's setup
decides once what it steps (:func:`stepped_clustering`).
"""

from __future__ import annotations

import numpy as np

from ..kernels.discretization import Discretization
from ..source.receivers import ReceiverSet
from .clustering import Clustering
from .lts_solver import ClusteredLtsSolver

__all__ = ["GlobalTimeSteppingSolver", "gts_clustering", "stepped_clustering"]


def gts_clustering(n_elements: int, dt: float, steps_per_cycle: int = 1) -> Clustering:
    """Every element in cluster 0 of the rate-2 ladder ``dt * 2^l``, with
    as many clusters as one macro cycle of ``steps_per_cycle`` micro steps
    needs (a power of two); the larger clusters stay empty."""
    n_clusters = int(steps_per_cycle).bit_length()
    if steps_per_cycle < 1 or steps_per_cycle != 1 << (n_clusters - 1):
        raise ValueError("steps_per_cycle must be a power of two")
    if dt <= 0:
        raise ValueError("time step must be positive")
    return Clustering(
        cluster_ids=np.zeros(n_elements, dtype=np.int64),
        cluster_time_steps=dt * 2.0 ** np.arange(n_clusters),
        lam=1.0,
        dt_min=dt,
    )


def stepped_clustering(clustering: Clustering, kind: str) -> Clustering:
    """The clustering a ``kind`` run steps: ``clustering`` itself for LTS;
    for GTS every element in cluster 0 of its ladder, so one macro cycle is
    ``2^(N_c - 1)`` steps at its cluster-0 step.  Idempotent: a GTS
    clustering maps to itself."""
    if kind != "gts":
        return clustering
    return gts_clustering(
        len(clustering.cluster_ids),
        float(clustering.cluster_time_steps[0]),
        2 ** (clustering.n_clusters - 1),
    )


class GlobalTimeSteppingSolver(ClusteredLtsSolver):
    """ADER-DG solver advancing every element at one global time step
    ``dt`` (default: the mesh's minimum CFL step).

    A macro cycle is ``steps_per_cycle`` steps; ``2^(N_c - 1)`` makes one
    GTS cycle span the largest cluster step of the LTS clustering it is
    compared with, as a scenario's GTS run does
    (:func:`stepped_clustering`).
    """

    def __init__(
        self,
        disc: Discretization,
        dt: float | None = None,
        sources: list | None = None,
        receivers: ReceiverSet | None = None,
        n_fused: int = 0,
        kernels=None,
        telemetry=None,
        steps_per_cycle: int = 1,
    ):
        dt = float(dt) if dt is not None else float(disc.time_steps.min())
        super().__init__(
            disc,
            gts_clustering(disc.n_elements, dt, steps_per_cycle),
            sources=sources,
            receivers=receivers,
            n_fused=n_fused,
            kernels=kernels,
            telemetry=telemetry,
        )
