"""Floating-point operation counting for the ADER-DG kernels.

The paper reports 529,110 flops per element update for single forward
simulations (exploiting only block-sparsity) and 212,688 flops per simulation
and element update when fusing sixteen simulations and exploiting *all*
sparsity, i.e. 59.8 % of the single-simulation operations are zero-operations
(Sec. VII-B).  This module derives the analogous counts for this
implementation's operator set, both for dense (block-sparse) and fully sparse
execution, so the sparsity benchmark can reproduce the ratio.

The dense count is this operator set's *work unit*, not what a backend
executes: ``kernels.flop_per_update`` of the end-to-end benchmark (290 100 at
order 4 with three mechanisms) is one of the exact counts two result sets
must agree on, so it stays the count of the reference formulation.  The
``fast`` backend executes fewer FLOPs per update -- its stacked stiffness
operands only span the ``n_basis(O - 1)`` columns a degree-lowering product
populates (time kernel) or reads (volume kernel), and both backends
multiply the compact star and coupling operators the discretization stores
without their zero blocks -- so GFLOP/s figures derived from this count
overstate the arithmetic rate by that margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import Discretization, N_ELASTIC

__all__ = ["FlopCount", "count_flops_per_element_update", "sparsity_report"]


def _matmul_flops(m: int, n: int, k: int) -> int:
    """Flops of a dense (m x k) @ (k x n) product (multiply + add)."""
    return 2 * m * n * k


def _sparse_matmul_flops(nnz: int, n: int) -> int:
    """Flops of a sparse (m x k, nnz non-zeros) times dense (k x n) product."""
    return 2 * nnz * n


def _nnz(matrix: np.ndarray, tol: float = 0.0) -> int:
    return int(np.count_nonzero(np.abs(matrix) > tol))


@dataclass(frozen=True)
class FlopCount:
    """Per-element-update flop counts of the individual kernels."""

    time_kernel: int
    volume_kernel: int
    surface_local: int
    surface_neighbor: int

    @property
    def total(self) -> int:
        return self.time_kernel + self.volume_kernel + self.surface_local + self.surface_neighbor


def count_flops_per_element_update(disc: Discretization, sparse: bool = False) -> FlopCount:
    """Count flops of one element update (time + volume + surface kernels).

    ``sparse=False`` counts dense small-matrix products for the element-local
    operators (the single-forward-simulation mode, which exploits only the
    block structure of the anelastic system).  ``sparse=True`` counts only
    the non-zero entries of every operator (the fused-simulation mode, where
    the ensemble axis allows perfect vectorisation of sparse operators).
    """
    b = disc.n_basis
    f = disc.n_face_basis
    order = disc.order
    m = disc.n_mechanisms

    ref = disc.ref
    k_time_nnz = [_nnz(ref.k_time[c], 1e-12) for c in range(3)]
    k_vol_nnz = [_nnz(ref.k_vol[c], 1e-12) for c in range(3)]
    ftilde_nnz = [_nnz(ref.ftilde[i], 1e-12) for i in range(4)]
    fhat_nnz = [_nnz(ref.fhat[i], 1e-12) for i in range(4)]
    # the compact operators hold every nonzero of the dense star and
    # coupling matrices: per direction for the stars, mechanism 0's block
    # of the coupling stress rows.  Element 0's are assembled alone, so a
    # discretization whose whole set nothing has read stays without it.
    first = disc.element_operators(np.arange(min(disc.n_elements, 1)))
    star_e_nnz = (
        (_nnz(first["star_stress"][0]) + _nnz(first["star_velocity"][0])) // 3
        if disc.n_elements else 0
    )
    star_a_nnz = _nnz(first["star_anelastic"][0]) // 3 if disc.n_elements else 0
    coupling_nnz = _nnz(first["coupling"][0][:, :6]) if m else 0
    flux_e_nnz = _nnz(first["flux_local_elastic"][0, 0]) if disc.n_elements else 0
    flux_a_nnz = _nnz(first["flux_local_anelastic"][0, 0]) if disc.n_elements else 0
    if disc.n_unique_neighbor_matrices:
        fbar_nnz = int(np.mean([_nnz(mat, 1e-12) for mat in disc.neighbor_flux_matrices]))
    else:
        fbar_nnz = b * f

    def mm(rows: int, cols: int, inner: int, nnz: int | None = None) -> int:
        if sparse and nnz is not None:
            return _sparse_matmul_flops(nnz, cols)
        return _matmul_flops(rows, cols, inner)

    # ------------------------------------------------------------------
    # time kernel: (order - 1) CK iterations
    # ------------------------------------------------------------------
    time_flops = 0
    for _ in range(order - 1):
        for c in range(3):
            time_flops += mm(N_ELASTIC, b, b, 9 * k_time_nnz[c] // b if sparse else None)
            time_flops += mm(N_ELASTIC, b, N_ELASTIC, star_e_nnz * b // 9 if sparse else None)
            time_flops += mm(6, b, N_ELASTIC, star_a_nnz * b // 9 if sparse else None) if m else 0
        for _l in range(m):
            time_flops += mm(N_ELASTIC, b, 6, coupling_nnz * b // 6 if sparse else None)
            time_flops += 2 * 6 * b  # relaxation scaling and addition
    # Taylor integration of all derivatives
    time_flops += 2 * order * disc.n_vars * b

    # ------------------------------------------------------------------
    # volume kernel
    # ------------------------------------------------------------------
    volume_flops = 0
    for c in range(3):
        volume_flops += mm(N_ELASTIC, b, b, 9 * k_vol_nnz[c] // b if sparse else None)
        volume_flops += mm(N_ELASTIC, b, N_ELASTIC, star_e_nnz * b // 9 if sparse else None)
        volume_flops += mm(6, b, N_ELASTIC, star_a_nnz * b // 9 if sparse else None) if m else 0
    for _l in range(m):
        volume_flops += mm(N_ELASTIC, b, 6, coupling_nnz * b // 6 if sparse else None)
        volume_flops += 2 * 6 * b

    # ------------------------------------------------------------------
    # surface kernels (4 faces each)
    # ------------------------------------------------------------------
    surface_local = 0
    surface_neighbor = 0
    for i in range(4):
        # trace projection T_e F~_i
        proj = mm(N_ELASTIC, f, b, 9 * ftilde_nnz[i] // b if sparse else None)
        test = mm(N_ELASTIC, b, f, 9 * fhat_nnz[i] // f if sparse else None)
        flux_apply_e = mm(N_ELASTIC, f, N_ELASTIC, flux_e_nnz * f // 9 if sparse else None)
        surface_local += proj + flux_apply_e + test
        # neighbouring side: project the neighbour's DOFs with F_bar
        proj_n = mm(N_ELASTIC, f, b, 9 * fbar_nnz // b if sparse else None)
        surface_neighbor += proj_n + flux_apply_e + test
        if m:
            flux_apply_a = mm(6, f, N_ELASTIC, flux_a_nnz * f // 9 if sparse else None)
            test_a = mm(6, b, f, 6 * fhat_nnz[i] // f if sparse else None)
            scale_a = 2 * 6 * b * m
            surface_local += flux_apply_a + test_a + scale_a
            surface_neighbor += flux_apply_a + test_a + scale_a

    # final update additions (eq. 14)
    update_flops = 3 * disc.n_vars * b
    return FlopCount(
        time_kernel=time_flops,
        volume_kernel=volume_flops + update_flops,
        surface_local=surface_local,
        surface_neighbor=surface_neighbor,
    )


def sparsity_report(disc: Discretization) -> dict[str, float]:
    """Summary of the operator sparsity and the zero-operation fraction.

    Mirrors the paper's Sec. VII-B analysis: the fraction of the dense
    (block-sparse) operations that are zero-operations and therefore skipped
    by the fused sparse kernels.
    """
    dense = count_flops_per_element_update(disc, sparse=False)
    sparse = count_flops_per_element_update(disc, sparse=True)
    return {
        "flops_dense": float(dense.total),
        "flops_sparse": float(sparse.total),
        "zero_operation_fraction": 1.0 - sparse.total / dense.total,
    }
