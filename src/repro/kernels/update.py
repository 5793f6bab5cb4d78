"""Element update scheme (eq. 14) and the reference one-step GTS update.

The update of an element is split into a *local* step (time kernel and
volume kernel -- requires only the element's own data) and a *correction*
(the local and the neighbouring surface kernel -- the latter requires the
face-neighbours' time-integrated data).  The split is what allows EDGE to
hide communication behind computation and is preserved here because the
split is also the backbone of the LTS scheme: the local surface kernel runs
with the neighbouring one, so both share one flux solve and one
back-projection on the fast backend.
"""

from __future__ import annotations

import numpy as np

from .backend import ReferenceBackend
from .discretization import Discretization, N_ELASTIC

__all__ = ["local_update", "neighbor_update", "gts_step"]

#: default execution strategy of the module-level functions: the reference
#: kernels, exactly as before the backend layer existed
_REFERENCE = ReferenceBackend()


def local_update(
    disc: Discretization,
    dofs: np.ndarray,
    dt: float,
    elements: np.ndarray | slice = slice(None),
    backend=None,
    ws=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local part of an element update over ``[t, t + dt]``.

    Returns ``(delta, elastic_time_integral, local_traces)``: the volume
    increment, the elastic ``(E, 9, B)`` rows of the time-integrated DOFs
    (what face neighbours read) and their projected face traces (what both
    surface kernels read).  ``backend`` selects the kernel-execution
    strategy (reference kernels by default); with a workspace-backed
    backend the returned arrays are scratch views valid until the backend's
    next call on the same workspace.
    """
    delta, elastic_integral, _, local_traces = (backend or _REFERENCE).local_update(
        disc, dofs, dt, elements, ws=ws
    )
    return delta, elastic_integral, local_traces


def neighbor_update(
    disc: Discretization,
    neighbor_time_integrated_elastic: np.ndarray,
    own_time_integrated: np.ndarray,
    elements: np.ndarray,
    backend=None,
    ws=None,
    own_traces: np.ndarray | None = None,
) -> np.ndarray:
    """Surface part of an element update: the local plus the neighbouring
    surface kernel, composed from the backend's stage methods.

    ``neighbor_time_integrated_elastic`` has shape ``(E, 4, 9, B[, n_fused])``
    and contains, per face, the neighbour's elastic time-integrated DOFs over
    the element's time interval.  ``own_traces`` optionally reuses the local
    step's projected traces (recomputing them from the elastic rows of
    ``own_time_integrated`` yields identical values).  ``local_update``'s
    delta plus this increment is one element update.
    """
    backend = backend or _REFERENCE
    if own_traces is None:
        own_traces = backend.project_local_traces(
            disc, own_time_integrated[:, :N_ELASTIC], elements, ws=ws
        )
    surface = backend.surface_kernel_local(
        disc, own_time_integrated, elements, own_traces, ws=ws
    )
    coeffs = backend.neighbor_face_coefficients(
        disc, neighbor_time_integrated_elastic, own_traces, elements, ws=ws
    )
    return surface + backend.surface_kernel_neighbor(disc, coeffs, elements, ws=ws)


def gts_step(
    disc: Discretization, dofs: np.ndarray, dt: float, backend=None, ws=None
) -> np.ndarray:
    """One global time step over all elements (the classic ADER-DG update).

    This is the reference implementation used by the GTS solver and by the
    LTS correctness tests; it returns the new DOF array.  The correction
    gathers the neighbours straight from the step's time integral; a
    workspace-backed backend keeps the gather plan in ``ws``.
    """
    backend = backend or _REFERENCE
    elements = range(disc.n_elements)
    delta, te, _, local_traces = backend.local_update(disc, dofs, dt, elements, ws=ws)
    neighbors = disc.mesh.neighbors
    build = lambda: backend.neighbor_plan(
        disc, dofs, elements, np.where(neighbors >= 0, neighbors, 0)
    )
    plan = build() if ws is None else ws.cached("gts_plan", dofs.shape, build)
    stepped = dofs.copy()
    backend.correct(disc, stepped, elements, delta, local_traces, te, plan, ws=ws)
    return stepped
