"""The paper's core contribution: next-generation clustered local time stepping."""

from .buffers import LtsBuffers
from .clustering import (
    Clustering,
    assign_clusters,
    derive_clustering,
    normalize_clusters,
    optimize_lambda,
)
from .gts_solver import GlobalTimeSteppingSolver
from .legacy_lts import CommunicationVolume, communication_volumes
from .lts_scheduler import (
    clusters_correcting_after,
    clusters_predicting_at,
    micro_steps_per_cycle,
    schedule_cycle,
    updates_per_cycle,
)
from .lts_solver import ClusteredLtsSolver, HalfAppliedStepError
from .speedup import (
    ideal_speedup,
    load_fractions,
    normalization_loss,
    theoretical_speedup,
    update_cost_per_unit_time,
)

__all__ = [
    "Clustering",
    "assign_clusters",
    "normalize_clusters",
    "derive_clustering",
    "optimize_lambda",
    "theoretical_speedup",
    "ideal_speedup",
    "load_fractions",
    "normalization_loss",
    "update_cost_per_unit_time",
    "LtsBuffers",
    "HalfAppliedStepError",
    "micro_steps_per_cycle",
    "clusters_predicting_at",
    "clusters_correcting_after",
    "schedule_cycle",
    "updates_per_cycle",
    "GlobalTimeSteppingSolver",
    "ClusteredLtsSolver",
    "CommunicationVolume",
    "communication_volumes",
]
