"""Per-mesh discretization data for the ADER-DG kernels.

A :class:`Discretization` bundles everything the kernels need and that is
precomputed once per (mesh, material, order) combination -- the equivalent of
EDGE's per-partition annotation data written by the preprocessing pipeline:

* the reference element operators (mass/stiffness/flux matrices),
* element-local star matrices of the elastic and anelastic Jacobians and
  the per-element/mechanism coupling matrices ``E_l``, stored once without
  their structural zero blocks in the layout the fast kernels multiply --
  the ref kernels contract the same blocks,
* the relaxation spectrum,
* element-local flux solver matrices ``A~+-_{k,i}`` with the geometry factor
  ``2 |S_i| / |J_k|`` folded in (boundary faces additionally fold in their
  ghost-state operator), stored once without their zero columns in the
  layout the fast correction multiplies: the elastic rows as
  :attr:`Discretization.flux_solvers`, the anelastic rows, which read only
  the particle velocities, as :attr:`Discretization.flux_anelastic` -- the
  ref kernels read the same values through views,
* the neighbouring flux matrices ``F_bar`` the mesh uses: the reference
  element's matrices of the face orientations that occur -- the small
  unique set the paper exploits (Sec. III, ref. [31]) -- and every interior
  face's index into them, and
* per-element CFL time steps.

The per-element operators (the star, coupling and flux-solver arrays) are
assembled by one routine, :meth:`Discretization.element_operators`, for
any array of element ids: a whole-mesh discretization fills its set
through it the first time anything reads one of them, and a rank's
:meth:`Discretization.restricted` assembles its own rows through it, so the
parent of a multi-rank run never holds the whole set unless something
reads it.  Assembly is batched over elements (quail's ``ElemOperators``
idiom), a chunk of ids (all four faces) at a time, and writes the final
arrays in place from their nonzeros: every kept star, coupling and
Rusanov flux entry is one product of a normal or inverse-Jacobian
component with a material value.  A chunk's products -- one column per
entry of the nonzero tables
(:data:`~repro.equations.elastic.JACOBIAN_NONZEROS`,
:data:`~repro.equations.anelastic.ANELASTIC_NONZEROS`,
:data:`~repro.equations.anelastic.COUPLING_NONZEROS`), the tables the
public builders fill their dense matrices from, with the builders' exact
arithmetic -- go into a small value table, and each operator takes every
entry of its blocks from there (the structural zeros from one zero slot)
in one sequential pass over its final rows, so the values are bitwise the
builders', signed zeros included.  Godunov solvers and free-surface ghost
products come from the batched Riemann builders, called on those faces
only.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..basis.reference_element import ORIENTATION_CODES, ReferenceElement, reference_element
from ..equations.anelastic import (
    ANELASTIC_NONZEROS,
    COUPLING_NONZEROS,
    RelaxationSpectrum,
    anelastic_lame_parameters,
    coupling_values,
    fit_constant_q,
)
from ..equations.elastic import JACOBIAN_NONZEROS, jacobian_values
from ..equations.material import MaterialTable
from ..equations.riemann import (
    FLUX_KINDS,
    anelastic_normal_jacobian,
    free_surface_ghost_operator,
    godunov_flux_matrices,
    rusanov_flux_matrices,
)
from ..mesh.geometry import cfl_time_steps
from ..mesh.tet_mesh import BOUNDARY_FREE_SURFACE, TetMesh

__all__ = [
    "Discretization",
    "ELEMENT_OPERATORS",
    "FLUX_VIEWS",
    "N_ELASTIC",
    "N_STRESS",
    "PRECISIONS",
    "SHARED_OPERATORS",
    "VELOCITIES",
    "flux_solver_views",
]

N_ELASTIC = 9

#: the stress rows of the elastic state; rows ``N_STRESS:N_ELASTIC`` are the
#: particle velocities
N_STRESS = 6

#: supported state/operator precisions: float64 (the verification default)
#: and float32 (EDGE's production single-precision mode)
PRECISIONS = ("f64", "f32")

_PRECISION_DTYPES = {"f64": np.float64, "f32": np.float32}

#: elements per assembly pass: bounds the assembly temporaries (a few kB
#: per element, about 25 kB where the Godunov builders run) well below the
#: run-phase memory high-water mark
_ASSEMBLY_CHUNK = 512

#: the per-element operators (leading axis the element), in the run
#: precision: :meth:`Discretization.element_operators` assembles them for
#: any ids, a whole-mesh discretization on first read and
#: :meth:`Discretization.restricted` for its rows.  The flux solvers are
#: two of them: ``flux_solvers`` ``(K, 4, 9, 18)``, the elastic rows, and
#: ``flux_anelastic`` ``(K, 4, 6, 6)``, the anelastic rows all mechanisms
#: share on their velocity columns; both ``[local | neighbour]``
ELEMENT_OPERATORS = (
    "star_stress", "star_velocity", "star_anelastic", "coupling", "flux_solvers", "flux_anelastic",
)

#: the four flux-solver kinds, views of ``flux_solvers`` (elastic, all nine
#: trace columns) and ``flux_anelastic`` (the three velocity columns)
#: (:func:`flux_solver_views`)
FLUX_VIEWS = ("flux_local_elastic", "flux_neigh_elastic",
              "flux_local_anelastic", "flux_neigh_anelastic")

#: the trace rows the anelastic flux solvers read: the particle velocities
VELOCITIES = slice(N_STRESS, N_ELASTIC)

#: the operators all elements share, cast to the run precision; a restricted
#: discretization keeps them by reference
SHARED_OPERATORS = ("omegas", "neighbor_flux_matrices")

#: what else a restricted discretization keeps by reference: the run
#: parameters and the precision-cast reference-element operators
_SHARED_ATTRIBUTES = (
    "order", "n_mechanisms", "flux", "cfl", "precision", "dtype", "spectrum", "ref",
    "n_basis", "n_face_basis", "n_vars", "k_time", "k_vol", "ftilde", "fhat",
)


def _nonzero_columns() -> dict:
    """The nonzero tables the element operators are filled from, by the
    dense operator they describe: each as its index columns (arrays) and
    the list of its value names (values for the anelastic blocks).

    The compact layout keeps the elastic stress rows on the velocity
    columns and the velocity rows on the stress columns, the anelastic
    rows on the velocity columns and the stress rows of ``E_l``: a table
    entry elsewhere raises ``ValueError`` naming the operator.
    """
    tables = {
        "elastic_jacobians": (JACOBIAN_NONZEROS,
                              lambda d, row, column, _: (row < N_STRESS) != (column < N_STRESS)),
        "anelastic_jacobians": (ANELASTIC_NONZEROS, lambda d, row, column, _: column >= N_STRESS),
        "coupling": (COUPLING_NONZEROS, lambda row, column, _: row < N_STRESS),
    }
    out = {}
    for name, (table, kept) in tables.items():
        if not all(kept(*entry) for entry in table):
            raise ValueError(
                f"{name} has nonzero entries in a structural zero block: the compact "
                "element operators cannot represent it"
            )
        *indices, values = zip(*table)
        out[name] = (*(np.array(index) for index in indices), list(values))
    return out


def _slot_maps(columns: dict, n_mechanisms: int) -> dict:
    """For each element operator, the slot of every entry of its
    per-element (per-face for the flux solvers) block, C order, in the
    value table its fill computes -- the table's entries in order, then
    one zero slot, which every entry off the tables reads:

    * ``star_stress`` / ``star_velocity``: the elastic star products
      ``[entry, c]`` of the ``JACOBIAN_NONZEROS`` entries and directions,
      at ``[row, 3 j + c]`` (``j`` the column within the kept block);
    * ``star_anelastic``: the same of ``ANELASTIC_NONZEROS``;
    * ``coupling``: ``[l, entry]`` of ``COUPLING_NONZEROS``, at
      ``[row, 6 l + column]``;
    * ``flux_solvers``: the local then the neighbour Rusanov products of
      ``JACOBIAN_NONZEROS``, then the local and the neighbour diagonal;
    * ``flux_anelastic``: the ``ANELASTIC_NONZEROS`` products, on both
      sides.
    """
    directions = np.arange(3)
    d, row, column, _ = columns["elastic_jacobians"]
    n = len(d)
    entry = np.arange(n)
    stress = row < N_STRESS
    star_stress = np.full((N_STRESS, 3, 3), 3 * n)
    star_stress[row[stress], column[stress] - N_STRESS] = 3 * entry[stress, None] + directions
    star_velocity = np.full((3, N_STRESS, 3), 3 * n)
    star_velocity[row[~stress] - N_STRESS, column[~stress]] = 3 * entry[~stress, None] + directions
    flux = np.full((N_ELASTIC, 2 * N_ELASTIC), 2 * n + 2)
    flux[row, column], flux[row, N_ELASTIC + column] = entry, n + entry
    diagonal = np.arange(N_ELASTIC)
    flux[diagonal, diagonal], flux[diagonal, N_ELASTIC + diagonal] = 2 * n, 2 * n + 1

    d, row, column, _ = columns["anelastic_jacobians"]
    entry = np.arange(len(d))
    star_anelastic = np.full((N_STRESS, 3, 3), 3 * len(d))
    star_anelastic[row, column - N_STRESS] = 3 * entry[:, None] + directions
    flux_anelastic = np.full((N_STRESS, 2, 3), len(d))
    flux_anelastic[row, :, column - N_STRESS] = entry[:, None]

    row, column, _ = columns["coupling"]
    coupling = np.full((N_STRESS, n_mechanisms, N_STRESS), len(row) * n_mechanisms)
    coupling[row, :, column] = np.arange(len(row))[:, None] + len(row) * np.arange(n_mechanisms)
    maps = {
        "star_stress": star_stress, "star_velocity": star_velocity,
        "star_anelastic": star_anelastic, "coupling": coupling,
        "flux_solvers": flux, "flux_anelastic": flux_anelastic,
    }
    return {name: slots.ravel() for name, slots in maps.items()}


def _by_entry(values: dict, names: list) -> np.ndarray:
    """The named values, one per table entry, stacked on a last axis."""
    return np.stack([values[name] for name in names], axis=-1)


def _value_table(shape: tuple, n_values: int, zero=0.0) -> np.ndarray:
    """An empty float64 value table of ``n_values`` slots per leading index
    (:func:`_slot_maps`), its zero slot after them set to ``zero``."""
    table = np.empty(shape + (n_values + 1,))
    table[..., n_values] = zero
    return table


def _place(table: np.ndarray, slots: np.ndarray, out: np.ndarray) -> None:
    """Write every entry of the blocks of ``out`` (leading axes those of
    ``table``) from its slot in ``table``: cast once, in one sequential
    pass over ``out``."""
    np.take(table.astype(out.dtype, copy=False), slots, axis=-1, mode="clip",
            out=out.reshape(table.shape[:-1] + (-1,), copy=False))


def flux_solver_views(flux_solvers: np.ndarray, flux_anelastic: np.ndarray) -> dict:
    """The four flux-solver kinds as views of the ``(K, 4, 9, 18)`` elastic
    and the ``(K, 4, 6, 6)`` anelastic solvers, columns ``[local |
    neighbour]``: the elastic kinds read all nine trace rows, the
    anelastic ones the three velocity rows (:data:`VELOCITIES`)."""
    e, v = N_ELASTIC, VELOCITIES.stop - VELOCITIES.start
    return {
        "flux_local_elastic": flux_solvers[..., :e],
        "flux_neigh_elastic": flux_solvers[..., e:],
        "flux_local_anelastic": flux_anelastic[..., :v],
        "flux_neigh_anelastic": flux_anelastic[..., v:],
    }


class Discretization:
    """Precomputed ADER-DG discretization of a mesh with a material table.

    Parameters
    ----------
    mesh:
        The conforming tetrahedral mesh.
    materials:
        Per-element material table.
    order:
        Order of convergence ``O`` (space-time order of the ADER-DG scheme).
    n_mechanisms:
        Number of anelastic relaxation mechanisms ``m``; ``0`` selects the
        purely elastic wave equations.
    frequency_band:
        Band over which the constant-Q fit of the relaxation spectrum is
        performed (only used when ``n_mechanisms > 0``).
    flux:
        ``"rusanov"`` or ``"godunov"`` (see :mod:`repro.equations.riemann`).
    cfl:
        CFL safety factor of the per-element time-step estimate.
    precision:
        ``"f64"`` or ``"f32"``.  Selects the dtype of every operator the
        kernels contract with (star/coupling/flux matrices, the reference
        operators and the relaxation frequencies) and the default dtype of
        DOF/buffer allocations, so a single-precision run stays single
        precision end to end.  Setup (geometry, quadrature, operator
        assembly, clustering) always computes in float64 and casts once.

    The per-element operators (:data:`ELEMENT_OPERATORS` and the
    :data:`FLUX_VIEWS`) are assembled the first time anything in the
    process reads one of them (:meth:`assemble_element_operators`); a
    single-rank solver does while it is built.  A rank of a distributed
    run steps :meth:`restricted`: the same class on its own element rows,
    which assembles the operators of those rows alone and shares this
    one's other operators.
    """

    def __init__(
        self,
        mesh: TetMesh,
        materials: MaterialTable,
        order: int = 4,
        n_mechanisms: int = 0,
        frequency_band: tuple[float, float] = (0.1, 10.0),
        flux: str = "rusanov",
        cfl: float = 0.5,
        precision: str = "f64",
    ):
        if materials.n_elements != mesh.n_elements:
            raise ValueError("material table size does not match the mesh")
        if flux not in FLUX_KINDS:
            raise ValueError(f"flux must be one of {FLUX_KINDS}, got {flux!r}")
        if n_mechanisms < 0:
            raise ValueError("n_mechanisms must be non-negative")
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")

        self.mesh = mesh
        self.materials = materials
        self.order = order
        self.n_mechanisms = n_mechanisms
        self.flux = flux
        self.cfl = cfl
        self.precision = precision
        self.dtype = _PRECISION_DTYPES[precision]

        self.ref: ReferenceElement = reference_element(order)
        self.n_basis = self.ref.n_basis
        self.n_face_basis = self.ref.n_face_basis
        self.n_vars = N_ELASTIC + 6 * n_mechanisms

        geometry = mesh.geometry
        self.time_steps = cfl_time_steps(
            geometry.insphere_radii, materials.max_wave_speed, order, cfl
        )

        self.spectrum: RelaxationSpectrum | None = (
            fit_constant_q(frequency_band, n_mechanisms) if n_mechanisms > 0 else None
        )

        # -- shared operators (the element operators come on first read) ----
        self.omegas = self.spectrum.omegas if n_mechanisms > 0 else np.zeros(0)
        self._assemble_neighbor_flux_matrices()
        self._cast_operators()

    def __getattr__(self, name: str):
        # reached only when normal lookup fails: an element operator of a
        # whole-mesh discretization that nothing in this process has read yet
        if name in ELEMENT_OPERATORS + FLUX_VIEWS and "materials" in vars(self):
            self.assemble_element_operators()
            return vars(self)[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def assemble_element_operators(self) -> None:
        """Assemble every element's operators now, unless this
        discretization holds them already (a restricted one always does).
        The first read of one of them calls it."""
        if "flux_solvers" not in vars(self):
            for name, array in self.element_operators(np.arange(self.n_elements)).items():
                vars(self).setdefault(name, array)  # an assigned name stays

    def operator_arrays(self) -> dict:
        """The assembled operator arrays by name, in the run precision (what
        assembly-parity checks compare between two builds)."""
        names = ELEMENT_OPERATORS + SHARED_OPERATORS + ("neighbor_flux_index",)
        return {name: getattr(self, name) for name in names}

    def restricted(self, rows: np.ndarray, local_neighbors: np.ndarray) -> "Discretization":
        """This discretization on the elements ``rows`` (an index array)
        alone, in that order -- one rank's subdomain (Sec. V-C).

        ``local_neighbors`` ``(len(rows), 4)`` numbers each face's
        neighbour by its position in ``rows``, ``-1`` on a boundary face
        or where the neighbour is not among ``rows``.  The
        :data:`ELEMENT_OPERATORS` and flux views are assembled for ``rows``
        alone (:meth:`element_operators`: no whole-mesh operator array is
        read or built), ``neighbor_flux_index`` (which keeps indexing the
        shared ``F_bar`` set) and ``time_steps`` are gathered, and the
        :data:`SHARED_OPERATORS` and reference operators stay shared.  The
        mesh is a facade of the local neighbours and the element count:
        nothing else of the whole mesh comes along -- no ``materials``, no
        geometry and no cached kernel data (a backend derives its own).
        Every assembly builder and kernel contraction is per element or per
        face, so the restricted operators and kernels are bitwise the
        rows' ones.
        """
        local = object.__new__(Discretization)
        for name in _SHARED_ATTRIBUTES + SHARED_OPERATORS:
            setattr(local, name, getattr(self, name))
        for name in ("neighbor_flux_index", "time_steps"):
            setattr(local, name, getattr(self, name)[rows])
        vars(local).update(self.element_operators(rows))
        local.mesh = SimpleNamespace(neighbors=local_neighbors, n_elements=len(rows))
        return local

    def _cast_operators(self) -> None:
        """Cast the shared kernel operands to the run precision (no-op at
        f64).

        The reference-element operators the kernels contract with are
        re-exposed as ``k_time``/``k_vol``/``ftilde``/``fhat`` attributes so
        the cast never mutates the (cached, shared) :class:`ReferenceElement`.
        """
        dtype = self.dtype
        for name in SHARED_OPERATORS:
            setattr(self, name, getattr(self, name).astype(dtype, copy=False))
        self.k_time = self.ref.k_time.astype(dtype, copy=False)
        self.k_vol = self.ref.k_vol.astype(dtype, copy=False)
        self.ftilde = self.ref.ftilde.astype(dtype, copy=False)
        self.fhat = self.ref.fhat.astype(dtype, copy=False)

    # ------------------------------------------------------------------
    # element operators
    # ------------------------------------------------------------------
    def element_operators(self, ids: np.ndarray) -> dict:
        """The per-element operators of the elements ``ids`` (an index
        array), in that order and in the run precision: every name of
        :data:`ELEMENT_OPERATORS`, and the :data:`FLUX_VIEWS` of the
        returned ``flux_solvers`` and ``flux_anelastic``.

        The one routine that assembles them, from the mesh geometry, the
        materials of the elements and of their face neighbours and the
        relaxation spectrum: computed in float64 a chunk of
        ``_ASSEMBLY_CHUNK`` ids at a time and written, cast once, straight
        into the returned arrays.  Every value is per element or per face,
        so an element's operators are bitwise the same whichever ids it is
        assembled with.  Without mechanisms ``star_anelastic`` is
        ``(K, 0, 9)`` and ``coupling`` ``(K, 6, 0)``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n, m, dtype = len(ids), self.n_mechanisms, self.dtype
        n_velocities = VELOCITIES.stop - VELOCITIES.start
        out = {
            "star_stress": np.empty((n, N_STRESS, 3 * n_velocities), dtype),
            "star_velocity": np.empty((n, n_velocities, 3 * N_STRESS), dtype),
            "star_anelastic": np.empty((n, N_STRESS if m else 0, 3 * n_velocities), dtype),
            "coupling": np.empty((n, N_STRESS, N_STRESS * m), dtype),
            "flux_solvers": np.empty((n, 4, N_ELASTIC, 2 * N_ELASTIC), dtype),
            "flux_anelastic": np.empty((n, 4, N_STRESS, 2 * n_velocities), dtype),
        }
        columns = _nonzero_columns()
        slots = _slot_maps(columns, m)
        for start in range(0, n, _ASSEMBLY_CHUNK):
            rows = slice(start, start + _ASSEMBLY_CHUNK)
            chunk = {name: array[rows] for name, array in out.items()}
            self._fill_star_and_coupling(ids[rows], columns, slots, chunk)
            self._fill_flux_solvers(ids[rows], columns, slots, chunk)
        out.update(flux_solver_views(out["flux_solvers"], out["flux_anelastic"]))
        return out

    def _fill_star_and_coupling(self, chunk, columns: dict, slots: dict, out: dict) -> None:
        """Write the star and coupling operators of the elements ``chunk``
        into their ``out`` rows:

        * ``star_stress`` / ``star_velocity`` and ``star_anelastic``
          (mechanisms only): ``Abar_{k,c} = sum_d (dxi_c / dx_d) A_d``
          (eq. 6/8), one product per nonzero of ``A_d`` and direction
          ``c``;
        * ``coupling``: the nonzeros of ``E_l``;

        ``+0.0`` elsewhere (:func:`_slot_maps`).  ``+ 0.0`` gives a product
        that is zero (a zero inverse-Jacobian entry) the sign the sum over
        ``d`` of the dense stacks gives it
        (:func:`~repro.equations.elastic.elastic_star_matrices`,
        :func:`~repro.equations.anelastic.anelastic_star_matrices`), which
        starts from ``+0.0``.
        """
        materials, n, m = self.materials, len(chunk), self.n_mechanisms
        lam, mu = materials.lam[chunk], materials.mu[chunk]
        # [k, d, c] = dxi_c / dx_d of element k
        inverse = self.mesh.geometry.inverse_jacobians[chunk].transpose(0, 2, 1)

        def star_table(d, values):  # [k, entry, c] products, then the zero slot
            table = _value_table((n,), 3 * len(d))
            np.add(np.take(inverse, d, axis=1) * values[..., None], 0.0,
                   out=table[:, :-1].reshape((n, len(d), 3), copy=False))
            return table

        d, _, _, names = columns["elastic_jacobians"]
        table = star_table(d, _by_entry(jacobian_values(lam, mu, materials.rho[chunk]), names))
        for name in ("star_stress", "star_velocity"):
            _place(table, slots[name], out[name])
        if not m:
            return
        d, _, _, jacobian = columns["anelastic_jacobians"]
        _place(star_table(d, np.array(jacobian)), slots["star_anelastic"], out["star_anelastic"])
        _, _, names = columns["coupling"]
        values = coupling_values(*anelastic_lame_parameters(
            lam, mu, materials.qp[chunk], materials.qs[chunk], self.spectrum
        ))
        table = _value_table((n,), len(names) * m)
        table[:, :-1].reshape((n, m, len(names)), copy=False)[...] = _by_entry(values, names)
        _place(table, slots["coupling"], out["coupling"])

    def _fill_flux_solvers(self, chunk, columns: dict, slots: dict, out: dict) -> None:
        """Write the flux solvers of the elements ``chunk``, all four faces
        at once, into their ``out`` rows: ``flux_solvers`` ``(len(chunk),
        4, 9, 18)`` and ``flux_anelastic`` ``(len(chunk), 4, 6, 6)``,
        ``-2 |S_i| / |J_k|`` (weak-form sign and geometry scaling) times
        the Riemann solvers ``G``.

        Each array holds the local solver's columns left of the
        neighbour's -- the operands the fast correction multiplies against
        ``[own trace | neighbour coefficients]`` and against their velocity
        rows.  The anelastic solvers (``A~`` of the memory variables,
        ``0.5 A_n`` of the anelastic blocks on both sides) and the Rusanov
        ones (``0.5 (A_n(k) + s I)`` and ``0.5 (A_n(kn) - s I)``) are
        written from their table entries, ``scale * 0.0`` elsewhere
        (:func:`_slot_maps`); the Godunov solvers come from
        :func:`~repro.equations.riemann.godunov_flux_matrices`.  A
        free-surface face's neighbour solvers act on its ghost state: the
        builders' solvers for those faces alone, times
        :func:`~repro.equations.riemann.free_surface_ghost_operator`.  The
        ghost state keeps the velocities, so the anelastic solvers still
        read only them: a nonzero stress column raises ``ValueError``.
        The per-kind names are views of the two
        (:func:`flux_solver_views`).
        """
        mesh, geometry, materials = self.mesh, self.mesh.geometry, self.materials
        lam, mu, rho = materials.lam, materials.mu, materials.rho
        elastic, anelastic = out["flux_solvers"], out["flux_anelastic"]
        neighbors = mesh.neighbors[chunk]
        boundary = neighbors < 0
        # a boundary face sees the element's own material on the ghost side
        other = np.where(boundary, chunk[:, None], neighbors)
        sides = ((lam[chunk, None], mu[chunk, None], rho[chunk, None]),
                 (lam[other], mu[other], rho[other]))
        # absorbing and analytic faces keep the unmodified flux solver: their
        # ghost state equals the interior trace, or is injected by the solver
        # at run time
        free_surface = boundary & (mesh.boundary_tags[chunk] == BOUNDARY_FREE_SURFACE)
        scale = -2.0 * geometry.face_areas[chunk] / geometry.determinants[chunk][:, None]
        normals = geometry.face_normals[chunk]
        zero = scale * 0.0

        # 0.5 A_n = 0.5 sum_d n_d A_d: one product per nonzero, whose + 0.0
        # is that of the sums over d (riemann's normal Jacobians)
        d, _, _, jacobian = columns["anelastic_jacobians"]
        a_n = np.take(normals, d, axis=-1) * np.array(jacobian) + 0.0
        table = _value_table(scale.shape, len(d), zero)
        np.multiply(scale[..., None], 0.5 * a_n, out=table[..., :-1])
        _place(table, slots["flux_anelastic"], anelastic)
        if self.flux == "godunov":
            g_local, g_neigh = godunov_flux_matrices(*sides[0], *sides[1], normals)
            elastic[..., :N_ELASTIC] = scale[..., None, None] * g_local
            elastic[..., N_ELASTIC:] = scale[..., None, None] * g_neigh
        else:
            # G = 0.5 (A_n + s I) locally, 0.5 (A_n - s I) for the
            # neighbour; s the larger P-wave speed across the face
            d, _, _, names = columns["elastic_jacobians"]
            n = len(d)
            normal = np.take(normals, d, axis=-1)
            s = np.maximum(*(np.sqrt((lam_ + 2.0 * mu_) / rho_) for lam_, mu_, rho_ in sides))
            table = _value_table(scale.shape, 2 * n + 2, zero)
            for i, side in enumerate(sides):
                a_n = normal * _by_entry(jacobian_values(*side), names) + 0.0
                np.multiply(scale[..., None], 0.5 * a_n, out=table[..., i * n:(i + 1) * n])
            table[..., 2 * n] = scale * (0.5 * (0.0 + s))
            table[..., 2 * n + 1] = scale * (0.5 * (0.0 - s))
            _place(table, slots["flux_solvers"], elastic)

        if free_surface.any():
            owner = np.broadcast_to(chunk[:, None], free_surface.shape)[free_surface]
            face_normals = normals[free_surface]
            ghost = free_surface_ghost_operator(face_normals)
            builder = rusanov_flux_matrices if self.flux == "rusanov" else godunov_flux_matrices
            materials_of_owner = (lam[owner], mu[owner], rho[owner])
            _, g_neigh = builder(*materials_of_owner, *materials_of_owner, face_normals)
            ga_neigh = 0.5 * anelastic_normal_jacobian(face_normals) @ ghost
            if np.any(ga_neigh[..., :N_STRESS] != 0.0):
                raise ValueError(
                    "the anelastic flux solvers have nonzero stress columns: flux_anelastic "
                    "cannot represent them"
                )
            face_scale = scale[free_surface][:, None, None]
            n_velocities = VELOCITIES.stop - VELOCITIES.start
            elastic[free_surface, :, N_ELASTIC:] = face_scale * (g_neigh @ ghost)
            anelastic[free_surface, :, n_velocities:] = face_scale * ga_neigh[..., VELOCITIES]

    # ------------------------------------------------------------------
    # neighbouring flux matrices
    # ------------------------------------------------------------------
    def _assemble_neighbor_flux_matrices(self) -> None:
        """Take the matrices projecting a neighbour's modal trace onto the
        local face basis from the reference element's table
        (:attr:`ReferenceElement.neighbor_flux`), one per face orientation
        the mesh uses (:attr:`TetMesh.neighbor_face_classes`), numbered by
        orientation code; every interior face indexes its orientation's.
        Nothing of the mesh geometry or element order enters: a permuted
        mesh stores the same matrices and the permuted index.
        """
        orientation = self.mesh.neighbor_face_classes
        interior = orientation >= 0
        used, index = np.unique(orientation[interior], return_inverse=True)
        self.neighbor_flux_matrices = self.ref.neighbor_flux[
            np.searchsorted(ORIENTATION_CODES, used)
        ]
        self.neighbor_flux_index = np.full(orientation.shape, -1, dtype=np.int64)
        self.neighbor_flux_index[interior] = index

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    @property
    def n_unique_neighbor_matrices(self) -> int:
        return self.neighbor_flux_matrices.shape[0]

    def allocate_dofs(self, n_fused: int = 0, dtype=None) -> np.ndarray:
        """Allocate a zero DOF array ``(K, N_q, B)`` (plus a fused axis if requested).

        ``dtype`` defaults to the discretization's run precision.
        """
        shape: tuple[int, ...] = (self.n_elements, self.n_vars, self.n_basis)
        if n_fused > 0:
            shape = shape + (n_fused,)
        return np.zeros(shape, dtype=self.dtype if dtype is None else dtype)

    def elastic_view(self, dofs: np.ndarray) -> np.ndarray:
        """View of the elastic variables of a DOF array."""
        return dofs[:, :N_ELASTIC]

    def anelastic_view(self, dofs: np.ndarray, mechanism: int) -> np.ndarray:
        """View of mechanism ``l``'s memory variables of a DOF array."""
        start = N_ELASTIC + 6 * mechanism
        return dofs[:, start : start + 6]

    def physical_quadrature_points(self) -> np.ndarray:
        """Volume-quadrature points of every element, physical coordinates.

        ``(K, n_quad, 3)`` via the affine map ``x = v0 + J xi`` -- the one
        shared definition behind initial-condition projection and the
        verification error norms, so the two can never desynchronize.
        """
        quad = self.ref.volume_quadrature
        v0 = self.mesh.vertices[self.mesh.elements][:, 0]
        jac = self.mesh.geometry.jacobians
        return v0[:, None, :] + np.einsum("kdr,qr->kqd", jac, quad.points)

    def project_initial_condition(self, func, n_fused: int = 0) -> np.ndarray:
        """L2-project an initial condition ``func(points) -> (n_points, n_vars)``.

        ``func`` receives physical coordinates with shape ``(n_points, 3)``
        and must return the variable vector at those points.  For fused runs
        the same initial condition is replicated across the ensemble.
        """
        quad = self.ref.volume_quadrature
        psi = self.ref.basis.evaluate(quad.points)  # (nq, B)
        phys = self.physical_quadrature_points()
        values = np.asarray(func(phys.reshape(-1, 3)), dtype=np.float64)
        values = values.reshape(self.n_elements, quad.n_points, -1)
        if values.shape[2] != self.n_vars:
            if values.shape[2] == N_ELASTIC:
                padded = np.zeros((self.n_elements, quad.n_points, self.n_vars))
                padded[:, :, :N_ELASTIC] = values
                values = padded
            else:
                raise ValueError(
                    f"initial condition returned {values.shape[2]} variables, "
                    f"expected {self.n_vars} (or 9 elastic)"
                )
        coeffs = np.einsum("q,kqv,qb->kvb", quad.weights, values, psi)
        coeffs = np.einsum("kvb,bc->kvc", coeffs, self.ref.inv_mass)
        # the projection itself is evaluated in float64 for accuracy; the
        # result is cast once so an f32 run's state is not silently upcast
        coeffs = coeffs.astype(self.dtype, copy=False)
        if n_fused > 0:
            coeffs = np.repeat(coeffs[..., None], n_fused, axis=-1)
        return coeffs

    def evaluate_at_points(
        self, dofs: np.ndarray, element_ids: np.ndarray, reference_points: np.ndarray
    ) -> np.ndarray:
        """Evaluate the DG solution of selected elements at reference points.

        Returns ``(len(element_ids), n_points, n_vars[, n_fused])``.
        """
        psi = self.ref.basis.evaluate(reference_points)  # (n_points, B)
        # sample in the state's own precision (an f32 run must not upcast)
        psi = psi.astype(dofs.dtype, copy=False)
        return np.einsum("kvb...,pb->kpv...", dofs[element_ids], psi)
