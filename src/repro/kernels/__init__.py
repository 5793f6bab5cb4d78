"""ADER-DG kernels: discretization setup, time/volume/surface kernels, updates."""

from .ader import (
    compute_time_derivatives,
    taylor_evaluate,
    time_integrate,
    time_integrated_dofs,
)
from .backend import (
    KERNEL_KINDS,
    KernelWorkspace,
    ReferenceBackend,
    make_backend,
)
from .discretization import Discretization, N_ELASTIC, PRECISIONS
from .flops import FlopCount, count_flops_per_element_update, sparsity_report
from .surface import (
    neighbor_face_coefficients,
    project_local_traces,
    surface_kernel_local,
    surface_kernel_neighbor,
)
from .update import gts_step, local_update, neighbor_update
from .volume import volume_kernel

__all__ = [
    "Discretization",
    "N_ELASTIC",
    "PRECISIONS",
    "KERNEL_KINDS",
    "KernelWorkspace",
    "ReferenceBackend",
    "make_backend",
    "compute_time_derivatives",
    "time_integrate",
    "time_integrated_dofs",
    "taylor_evaluate",
    "volume_kernel",
    "project_local_traces",
    "surface_kernel_local",
    "surface_kernel_neighbor",
    "neighbor_face_coefficients",
    "local_update",
    "neighbor_update",
    "gts_step",
    "FlopCount",
    "count_flops_per_element_update",
    "sparsity_report",
]
