"""Surface kernel of the ADER-DG update (eqs. 10-13).

The kernel is split exactly as the paper splits it:

* the *local* part ``S^L`` uses only the element's own time-integrated
  elastic DOFs and can be evaluated together with the time and volume
  kernels, and
* the *neighbouring* part ``S^N`` uses the face-neighbours' elastic
  time-integrated data -- in the LTS scheme this data comes from the
  buffers ``B1/B2/B3`` and, across partition boundaries, from the
  face-local compressed MPI messages.

The two-step structure (project the trace onto the ``F``-dimensional face
basis with ``F~_i`` / ``F_bar``, apply the flux solver, test with ``F^_i``)
is implemented literally; the projected local traces are computed once per
face and reused between the elastic and anelastic contributions.  The
anelastic flux solvers are stored on the velocity columns alone, so their
contraction reads the traces' velocity rows.
"""

from __future__ import annotations

import numpy as np

from .discretization import VELOCITIES, Discretization, N_ELASTIC

__all__ = [
    "surface_kernel_local",
    "surface_kernel_neighbor",
    "project_local_traces",
    "neighbor_face_coefficients",
]


def project_local_traces(
    disc: Discretization,
    time_integrated_elastic: np.ndarray,
    elements: np.ndarray | slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Project the elements' own elastic traces onto the face basis.

    Returns ``(E, 4, 9, F[, n_fused])`` -- the quantity ``T_e F~_i`` of
    eqs. (10)/(12) -- written into ``out`` when given.
    """
    del elements  # the projection uses reference-element data only
    ftilde = disc.ftilde  # (4, B, F), cast to the run precision
    return np.einsum("evb...,ibf->eivf...", time_integrated_elastic, ftilde, out=out)


def surface_kernel_local(
    disc: Discretization,
    time_integrated: np.ndarray,
    elements: np.ndarray | slice = slice(None),
    local_traces: np.ndarray | None = None,
) -> np.ndarray:
    """Local part of the surface kernel, ``S^{eL}`` and ``S^{aL}``.

    Parameters
    ----------
    time_integrated:
        ``(E, N_q, B[, n_fused])`` time-integrated DOFs of the batch.
    local_traces:
        Optional precomputed result of :func:`project_local_traces` (reused
        by the buffer computation of the LTS scheme).
    """
    if local_traces is None:
        local_traces = project_local_traces(disc, time_integrated[:, :N_ELASTIC], elements)
    fhat = disc.fhat  # (4, F, B)
    flux_e = disc.flux_local_elastic[elements]  # (E, 4, 9, 9)
    flux_a = disc.flux_local_anelastic[elements]  # (E, 4, 6, 3)
    omegas = disc.omegas

    out = np.zeros_like(time_integrated)
    for i in range(4):
        # (A~- (T_e F~_i)) F^_i
        solved = np.einsum("evw,ewf...->evf...", flux_e[:, i], local_traces[:, i])
        out[:, :N_ELASTIC] += np.einsum("evf...,fb->evb...", solved, fhat[i])
        if disc.n_mechanisms:
            solved_a = np.einsum(
                "evw,ewf...->evf...", flux_a[:, i], local_traces[:, i, VELOCITIES]
            )
            contrib_a = np.einsum("evf...,fb->evb...", solved_a, fhat[i])
            for l in range(disc.n_mechanisms):
                out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)] += omegas[l] * contrib_a
    return out


def neighbor_face_coefficients(
    disc: Discretization,
    neighbor_time_integrated_elastic: np.ndarray,
    own_local_traces: np.ndarray,
    elements: np.ndarray,
) -> np.ndarray:
    """Face-basis coefficients of the neighbours' elastic traces.

    Parameters
    ----------
    neighbor_time_integrated_elastic:
        ``(E, 4, 9, B[, n_fused])`` -- for every face of every batch element
        the elastic time-integrated DOFs of the face neighbour, integrated
        over the correct interval (GTS: the global step; LTS: read from the
        neighbour's buffers).  Entries of boundary faces are ignored.
    own_local_traces:
        Result of :func:`project_local_traces` for the same batch; used for
        boundary faces, whose ghost state is built from the element's own
        trace (the ghost operator is folded into the flux solver).
    elements:
        Element ids of the batch.

    Returns
    -------
    numpy.ndarray
        ``(E, 4, 9, F[, n_fused])``.
    """
    fbar = disc.neighbor_flux_matrices  # (U, B, F)
    fbar_index = disc.neighbor_flux_index[elements]  # (E, 4)
    out = np.empty_like(own_local_traces)
    for i in range(4):
        idx = fbar_index[:, i]
        interior = idx >= 0
        if np.any(interior):
            mats = fbar[idx[interior]]  # (E_int, B, F)
            out[interior, i] = np.einsum(
                "evb...,ebf->evf...", neighbor_time_integrated_elastic[interior, i], mats
            )
        if np.any(~interior):
            out[~interior, i] = own_local_traces[~interior, i]
    return out


def surface_kernel_neighbor(
    disc: Discretization,
    neighbor_face_coeffs: np.ndarray,
    elements: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """Neighbouring part of the surface kernel, ``S^{eN}`` and ``S^{aN}``.

    ``neighbor_face_coeffs`` is the result of
    :func:`neighbor_face_coefficients` (or, in the distributed-memory case,
    the face-local data received through the communication layer).
    """
    fhat = disc.fhat
    flux_e = disc.flux_neigh_elastic[elements]
    flux_a = disc.flux_neigh_anelastic[elements]
    omegas = disc.omegas

    n_batch = neighbor_face_coeffs.shape[0]
    fused_shape = neighbor_face_coeffs.shape[4:]
    out = np.zeros(
        (n_batch, disc.n_vars, disc.n_basis) + fused_shape, dtype=neighbor_face_coeffs.dtype
    )
    for i in range(4):
        solved = np.einsum("evw,ewf...->evf...", flux_e[:, i], neighbor_face_coeffs[:, i])
        out[:, :N_ELASTIC] += np.einsum("evf...,fb->evb...", solved, fhat[i])
        if disc.n_mechanisms:
            solved_a = np.einsum(
                "evw,ewf...->evf...", flux_a[:, i], neighbor_face_coeffs[:, i, VELOCITIES]
            )
            contrib_a = np.einsum("evf...,fb->evb...", solved_a, fhat[i])
            for l in range(disc.n_mechanisms):
                out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)] += omegas[l] * contrib_a
    return out
