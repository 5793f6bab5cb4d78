"""Element update scheme (eq. 14) and the independent one-step GTS update.

The update of an element is split into a *local* step (time kernel and
volume kernel -- requires only the element's own data) and a *correction*
(the local and the neighbouring surface kernel -- the latter requires the
face-neighbours' time-integrated data).  The split is what allows EDGE to
hide communication behind computation and is preserved here because the
split is also the backbone of the LTS scheme: the local surface kernel runs
with the neighbouring one, so both share one flux solve and one
back-projection on the fast backend, and both read the traces the
correction projects from the element's own time integral.  A backend's
prediction leaves the volume increment on its way into the DOFs and its
correction completes the update in place, so :func:`gts_step` steps the
array it is handed.  No solver calls these functions (GTS too fills the
LTS buffers): they are the tests' second implementation of the update.
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
) -> tuple[np.ndarray, np.ndarray]:
    """Local part of an element update over ``[t, t + dt]``, composed from
    the backend's stage methods (``dofs`` is only read).

    Returns ``(delta, elastic_time_integral)``: the volume increment and
    the elastic ``(E, 9, B)`` rows of the time-integrated DOFs (what face
    neighbours and the element's own traces read).  ``backend`` selects
    the kernel-execution strategy (reference kernels by default); with a
    workspace-backed backend the returned arrays are scratch views valid
    until the backend's next call on the same workspace.
    """
    backend = backend or _REFERENCE
    derivatives = backend.compute_time_derivatives(disc, dofs, elements, ws=ws)
    time_integrated = backend.time_integrate(derivatives, 0.0, dt, ws=ws)
    delta = backend.volume_kernel(disc, time_integrated, elements, ws=ws)
    return delta, time_integrated[:, :N_ELASTIC]


def neighbor_update(
    disc: Discretization,
    neighbor_time_integrated_elastic: np.ndarray,
    own_time_integrated: np.ndarray,
    elements: np.ndarray,
    backend=None,
    ws=None,
) -> np.ndarray:
    """Surface part of an element update: the local plus the neighbouring
    surface kernel, composed from the backend's stage methods.

    ``neighbor_time_integrated_elastic`` has shape ``(E, 4, 9, B[, n_fused])``
    and contains, per face, the neighbour's elastic time-integrated DOFs over
    the element's time interval; the own traces are projected from the
    elastic rows of ``own_time_integrated``.  ``local_update``'s delta plus
    this increment is one element update.
    """
    backend = backend or _REFERENCE
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

    The test reference the GTS solver is held to bitwise: no buffer store,
    no schedule.  It steps ``dofs`` in place and returns it.  The
    correction gathers the neighbours and the own traces straight from the
    step's time integral; a workspace-backed backend keeps the gather plan
    in ``ws``.
    """
    backend = backend or _REFERENCE
    elements = range(disc.n_elements)
    te, _ = backend.local_update(disc, dofs, dt, elements, ws=ws)
    neighbors = disc.mesh.neighbors
    build = lambda: backend.neighbor_plan(
        disc, dofs, elements, np.where(neighbors >= 0, neighbors, 0)
    )
    plan = build() if ws is None else ws.cached("gts_plan", dofs.shape, build)
    backend.correct(disc, dofs, elements, te, plan, ws=ws)
    return dofs
