"""Per-field error norms of a DG state against a reference solution.

Errors are integrated with the discretization's own volume quadrature:

.. math::

    \\|e_v\\|_{L^2}^2 = \\sum_k \\det J_k \\sum_q w_q
        \\big(u_h(x_{kq}) - u(x_{kq})\\big)^2

(the quadrature weights sum to the reference-tet measure, so the physical
integral carries ``det J = 6 V``).  Relative norms are normalised per field
by the reference solution's own L2 norm; identically-zero fields report an
absolute norm only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FIELD_NAMES", "state_error_norms"]

#: the 9 elastic fields, in state-vector order
FIELD_NAMES = ("sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz")


def state_error_norms(
    disc, dofs: np.ndarray, t: float, solution, interior_margin: float = 0.0
) -> dict:
    """Per-field and aggregate error norms of ``dofs`` vs ``solution`` at ``t``.

    ``solution(points, t)`` must return the 9 elastic fields at physical
    ``points``; anelastic memory variables are not scored.  Fused ensembles
    replicate one physical run, so simulation 0 is scored.  Returns a
    JSON-ready dict (the runner's summary ``accuracy`` block).

    ``interior_margin`` excludes elements whose centroid lies within that
    distance of the mesh bounding box.  The first-order absorbing boundary
    treatment carries an error feedback of its own order at inflow faces;
    convergence studies exclude a *fixed* physical margin (identical across
    ladder levels) so the fit sees the scheme's interior order.
    """
    quad = disc.ref.volume_quadrature
    psi = disc.ref.basis.evaluate(quad.points)  # (nq, B)
    mesh = disc.mesh
    # summed in generation order: the norms do not depend on the element order
    keep = np.argsort(mesh.original_ids)
    if interior_margin > 0.0:
        lo = mesh.vertices.min(axis=0) + interior_margin
        hi = mesh.vertices.max(axis=0) - interior_margin
        keep = keep[np.all((mesh.centroids[keep] > lo) & (mesh.centroids[keep] < hi), axis=1)]
        if not len(keep):
            raise ValueError("interior_margin excludes every element")
    phys = disc.physical_quadrature_points()[keep]  # (K, nq, 3)

    dofs = np.asarray(dofs, dtype=np.float64)
    if dofs.ndim == 4:
        dofs = dofs[..., 0]
    numeric = np.einsum("kvb,qb->kqv", dofs[keep, : len(FIELD_NAMES)], psi)
    exact = np.asarray(solution(phys.reshape(-1, 3), t), dtype=np.float64)
    exact = exact.reshape(numeric.shape)

    det = mesh.geometry.determinants[keep]
    weights = quad.weights
    diff = numeric - exact
    l2 = np.sqrt(np.einsum("k,q,kqv->v", det, weights, diff**2))
    ref_l2 = np.sqrt(np.einsum("k,q,kqv->v", det, weights, exact**2))
    linf = np.abs(diff).max(axis=(0, 1))

    fields = {}
    for i, name in enumerate(FIELD_NAMES):
        entry = {"l2": float(l2[i]), "linf": float(linf[i])}
        if ref_l2[i] > 0.0:
            entry["rel_l2"] = float(l2[i] / ref_l2[i])
        fields[name] = entry
    total = float(np.sqrt(np.sum(l2**2)))
    total_ref = float(np.sqrt(np.sum(ref_l2**2)))
    return {
        "t": float(t),
        "fields": fields,
        "l2": total,
        "rel_l2": total / total_ref if total_ref > 0.0 else None,
        "linf": float(linf.max()),
    }
