"""Element update scheme (eq. 14) and the reference one-step GTS update.

The update of an element is split into a *local* step (time kernel, volume
kernel, local surface kernel -- requires only the element's own data) and a
*neighbouring* step (neighbouring surface kernel -- requires the
face-neighbours' time-integrated data).  The split is what allows EDGE to
hide communication behind computation and is preserved here because the
local/neighbouring split is also the backbone of the LTS scheme.
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

    Returns ``(delta, elastic_time_integral, local_traces)``: the local
    update increment (volume + local surface), the elastic ``(E, 9, B)``
    rows of the time-integrated DOFs (what face neighbours read) and their
    projected face traces.  ``backend`` selects the kernel-execution
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
    """Neighbouring part of an element update.

    ``neighbor_time_integrated_elastic`` has shape ``(E, 4, 9, B[, n_fused])``
    and contains, per face, the neighbour's elastic time-integrated DOFs over
    the element's time interval.  ``own_traces`` optionally reuses the local
    step's projected traces (recomputing them from the elastic rows of
    ``own_time_integrated`` yields identical values).
    """
    backend = backend or _REFERENCE
    if own_traces is None:
        own_traces = backend.project_local_traces(
            disc, own_time_integrated[:, :N_ELASTIC], elements, ws=ws
        )
    coeffs = backend.neighbor_face_coefficients(
        disc, neighbor_time_integrated_elastic, own_traces, elements, ws=ws
    )
    return backend.surface_kernel_neighbor(disc, coeffs, elements, ws=ws)


def gts_step(
    disc: Discretization, dofs: np.ndarray, dt: float, backend=None, ws=None
) -> np.ndarray:
    """One global time step over all elements (the classic ADER-DG update).

    This is the reference implementation used by the GTS solver and by the
    LTS correctness tests; it returns the new DOF array.
    """
    backend = backend or _REFERENCE
    all_elements = slice(0, disc.n_elements)
    delta, te, _, local_traces = backend.local_update(
        disc, dofs, dt, range(disc.n_elements), ws=ws
    )

    # gather the neighbours' time-integrated elastic DOFs per face
    neighbors = disc.mesh.neighbors
    safe_neighbors = np.where(neighbors >= 0, neighbors, 0)
    neighbor_te = te[safe_neighbors]  # (K, 4, 9, B[, n_fused])

    # the local step's traces are reused for the ghost faces of the
    # neighbouring update (recomputing them yields identical values)
    delta += neighbor_update(
        disc, neighbor_te, te, all_elements, backend, ws,
        own_traces=local_traces,
    )
    return dofs + delta
