"""Kinematic moment-tensor point sources.

The La Habra and LOH.3 setups use kinematic descriptions of the earthquake
rupture: point sources with a moment tensor and a source time function.  A
point source located at ``x_s`` adds

``d sigma / dt += -M_ij * s(t) * delta(x - x_s) / |J_k|``

to the stress equations of the element containing it; in modal DG form the
delta function turns into the basis functions evaluated at the source's
reference coordinates.  The solver applies the time-integrated source at the
end of each local time step of the source element, which keeps the injection
exact for arbitrary local time steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.discretization import Discretization
from ..mesh.geometry import map_physical_to_reference

__all__ = ["MomentTensorSource", "PointForceSource", "DiscretePointSource", "locate_point"]


def locate_point(mesh, point: np.ndarray) -> int:
    """Find the element containing ``point``: the first one whose barycentric
    excess is within round-off of zero, else the first of smallest excess.

    "First" is in generation order (:attr:`TetMesh.original_ids`), so a
    point on a face shared by two elements lands in the same element
    whichever order the mesh was permuted into.
    """
    offset = np.asarray(point, dtype=np.float64) - mesh.vertices[mesh.elements[:, 0]]
    xi = np.linalg.solve(mesh.geometry.jacobians, offset[..., None])[..., 0]  # (K, 3)
    excess = np.maximum(-xi.min(axis=1), xi.sum(axis=1) - 1.0)
    candidates = np.flatnonzero(excess <= 1e-12)
    if len(candidates) == 0:
        candidates = np.flatnonzero(excess == excess.min())
    return int(candidates[np.argmin(mesh.original_ids[candidates])])


@dataclass(frozen=True)
class MomentTensorSource:
    """A moment-tensor point source with a source time function.

    ``moment_tensor`` is the symmetric 3x3 seismic moment tensor [N m]; the
    source time function describes the moment *rate* normalised to unit
    moment (i.e. the solver injects ``M_ij * stf(t)``).
    """

    location: np.ndarray
    moment_tensor: np.ndarray
    time_function: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", np.asarray(self.location, dtype=np.float64))
        object.__setattr__(self, "moment_tensor", np.asarray(self.moment_tensor, dtype=np.float64))
        if self.moment_tensor.shape != (3, 3):
            raise ValueError("moment tensor must be a 3x3 matrix")
        if not np.allclose(self.moment_tensor, self.moment_tensor.T):
            raise ValueError("moment tensor must be symmetric")

    def variable_vector(self) -> np.ndarray:
        """The 9-component right-hand-side direction (stress rows only)."""
        m = self.moment_tensor
        out = np.zeros(9)
        out[0], out[1], out[2] = -m[0, 0], -m[1, 1], -m[2, 2]
        out[3], out[4], out[5] = -m[0, 1], -m[1, 2], -m[0, 2]
        return out


@dataclass(frozen=True)
class PointForceSource:
    """A single-force point source acting on the momentum equations."""

    location: np.ndarray
    force: np.ndarray
    time_function: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", np.asarray(self.location, dtype=np.float64))
        object.__setattr__(self, "force", np.asarray(self.force, dtype=np.float64))
        if self.force.shape != (3,):
            raise ValueError("force must be a 3-vector")

    def variable_vector(self) -> np.ndarray:
        out = np.zeros(9)
        out[6:9] = self.force
        return out


class DiscretePointSource:
    """A point source bound to a discretization (located inside one element).

    The density scaling of force sources (``1/rho``) and the delta-function
    scaling (``1/|J_k|`` and the basis evaluation at the source position) are
    precomputed; :meth:`inject` then only needs the time interval.

    Passing a *sequence* of F sources sharing one location builds a fused
    ensemble source: the per-slot spatial terms are precomputed as a single
    ``(n_vars, B, F)`` injection stack, and :meth:`inject` applies the F
    per-slot time-integral weights as one vectorized multiply-add (no Python
    loop over fused slots).  Each slot's product uses exactly the operands of
    the scalar path, so slot ``f`` of a fused run stays bit-identical to the
    scalar run of source ``f``.
    """

    def __init__(
        self,
        disc: Discretization,
        source: MomentTensorSource | PointForceSource | list | tuple,
    ):
        sources = list(source) if isinstance(source, (list, tuple)) else [source]
        if not sources:
            raise ValueError("fused source list must not be empty")
        self.fused = isinstance(source, (list, tuple))
        self.sources = tuple(sources)
        self.source = sources[0]
        mesh = disc.mesh
        location = sources[0].location
        for other in sources[1:]:
            if not np.array_equal(other.location, location):
                raise ValueError("fused sources must share one location")
        self.element = locate_point(mesh, location)
        if self.element < 0:
            raise ValueError("source location is outside the mesh")
        xi = map_physical_to_reference(
            mesh.vertices, mesh.elements, self.element, location
        )[0]
        if xi.min() < -1e-6 or xi.sum() > 1.0 + 1e-6:
            raise ValueError("source location is outside the mesh")
        psi = disc.ref.basis.evaluate(xi[None, :])[0]  # (B,)
        # delta-function test integral: psi_b(xi_s) / |J_k|, times M^{-1} (identity)
        jac_det = mesh.geometry.determinants[self.element]
        slots = []
        for s in sources:
            variable_vector = s.variable_vector().copy()
            if isinstance(s, PointForceSource):
                variable_vector[6:9] /= disc.materials.rho[self.element]
            spatial = np.outer(variable_vector, psi) / jac_det  # (9, B)
            full = np.zeros((disc.n_vars, disc.n_basis))
            full[:9] = spatial
            slots.append(full)
        if self.fused:
            self._injection = np.stack(slots, axis=-1)  # (n_vars, B, F)
        else:
            self._injection = slots[0]  # (n_vars, B)
        self.time_functions = tuple(s.time_function for s in sources)
        self.time_function = self.time_functions[0]

    @property
    def n_fused(self) -> int:
        """Fused ensemble width (0 for a plain scalar source)."""
        return len(self.sources) if self.fused else 0

    def inject(self, dofs: np.ndarray, t_start: float, t_end: float) -> None:
        """Add the source contribution over ``[t_start, t_end]`` to the DOFs.

        Scalar sources work for single and fused DOF arrays: a ``(..., F)``
        DOF array receives the *same* contribution broadcast into every fused
        slot (a replicated ensemble).  A fused source (built from a sequence
        of per-slot sources) instead applies its ``(n_vars, B, F)`` injection
        stack weighted by the per-slot time integrals, so each fused slot
        receives its own distinct source.
        """
        if self.fused:
            if dofs.ndim != 4 or dofs.shape[-1] != len(self.sources):
                raise ValueError(
                    f"fused source of width {len(self.sources)} needs fused DOFs "
                    f"with a matching trailing axis, got shape {dofs.shape}"
                )
            weights = np.array(
                [tf.integral(t_start, t_end) for tf in self.time_functions]
            )
            dofs[self.element] += self._injection * weights
            return
        weight = self.time_function.integral(t_start, t_end)
        contribution = weight * self._injection
        if dofs.ndim == 4:
            dofs[self.element] += contribution[..., None]
        else:
            dofs[self.element] += contribution
