"""Paper workload calibration: the La Habra Fig. 5 time-step distribution.

The executable LOH.3 and La Habra setups are scenarios of
:mod:`repro.scenarios.registry`.
"""

from .la_habra import (
    PAPER_CLUSTER_COUNTS,
    PAPER_LAMBDA,
    PAPER_SPEEDUP,
    la_habra_time_step_distribution,
)

__all__ = [
    "la_habra_time_step_distribution",
    "PAPER_CLUSTER_COUNTS",
    "PAPER_LAMBDA",
    "PAPER_SPEEDUP",
]
