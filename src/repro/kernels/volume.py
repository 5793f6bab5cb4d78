"""Volume kernel of the ADER-DG update (eqs. 8-9).

Operates on the time-integrated DOFs ``T_k`` of a batch of elements.  The
intermediate result ``(T_e) K_c`` of the elastic part is reused for the
anelastic part, and the mechanism-independent anelastic spatial term is
computed once and scaled by ``omega_l`` per mechanism -- exactly the data
reuse described in the paper.  The star and coupling operators are
contracted block by block, without their structural zeros.
"""

from __future__ import annotations

import numpy as np

from .ader import _element_blocks
from .discretization import N_ELASTIC, N_STRESS, Discretization

__all__ = ["volume_kernel"]


def volume_kernel(
    disc: Discretization,
    time_integrated: np.ndarray,
    elements: np.ndarray | slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Element-local volume contribution for a batch of elements.

    Parameters
    ----------
    time_integrated:
        ``(E, N_q, B[, n_fused])`` time-integrated DOFs of the batch.
    elements:
        The element ids the batch corresponds to (used to select the
        element-local operators).

    out:
        Optional array the update is accumulated into (zeroed first).

    Returns
    -------
    numpy.ndarray
        Volume update of the same shape as ``time_integrated``.
    """
    star_s, star_v, star_a, coupling = _element_blocks(disc, elements)
    omegas = disc.omegas
    k_vol = disc.k_vol

    te = time_integrated[:, :N_ELASTIC]
    if out is None:
        out = np.zeros_like(time_integrated)
    else:
        out[...] = 0

    anelastic_common = None
    for c in range(3):
        tmp = np.einsum("evb...,bd->evd...", te, k_vol[c])
        out[:, :N_STRESS] += np.einsum("eij,ejb...->eib...", star_s[..., c], tmp[:, N_STRESS:])
        out[:, N_STRESS:N_ELASTIC] += np.einsum(
            "eij,ejb...->eib...", star_v[..., c], tmp[:, :N_STRESS]
        )
        if disc.n_mechanisms:
            contrib = np.einsum("eij,ejb...->eib...", star_a[..., c], tmp[:, N_STRESS:])
            anelastic_common = contrib if anelastic_common is None else anelastic_common + contrib

    for l in range(disc.n_mechanisms):
        ta_l = time_integrated[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)]
        out[:, :N_STRESS] += np.einsum("eij,ejb...->eib...", coupling[:, :, l], ta_l)
        # the spatial (stiffness) term enters with a positive sign after
        # integration by parts, the relaxation source with -omega_l
        out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)] = omegas[l] * (
            anelastic_common - ta_l
        )
    return out
