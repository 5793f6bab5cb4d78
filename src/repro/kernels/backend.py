"""Pluggable kernel-execution backends for the ADER-DG solver stack.

The paper's performance numbers come from EDGE's tuned fused element kernels;
the solvers in :mod:`repro.core` and :mod:`repro.distributed` were written
against the straightforward reference kernels of :mod:`repro.kernels.ader`,
:mod:`~repro.kernels.volume` and :mod:`~repro.kernels.surface`.  This module
makes the execution strategy a pluggable object so that every solver (GTS,
clustered LTS, distributed rank steppers) runs through one of:

* :class:`ReferenceBackend` -- delegates to the reference kernel functions
  and preserves their bit-exact behaviour (and their per-call temporaries),
* :class:`FastBackend` -- stacked operators on cache-sized element blocks,
  *tolerance-equal* to the reference.

``FastBackend`` drops the reference operation order.  Its element kernels
are a handful of batched ``np.matmul`` GEMMs over *stacked* operators: the
three directional stiffness matrices side by side, the (variable, direction)
pair of the star matrices merged into one contraction axis, the mechanisms'
coupling blocks side by side.  The *exact-zero* block structure of the
element operators is exploited -- the elastic star matrices are
block-off-diagonal, the anelastic star and flux matrices only read the
velocity columns, the coupling matrices only write stress rows -- verified
once per discretization, with a dense fallback if it does not hold.  With
three mechanisms the reactive terms keep every CK derivative at full degree,
so there is no shrinking block to exploit; what is static is that a
stiffness product only populates (time) or reads (volume) the leading
``n_basis(O - 1)`` columns.  Every kernel writes into a reused
:class:`KernelWorkspace`, and ``local_update`` runs the whole local pipeline
one L2-sized element block at a time and returns only what callers read.
"Close enough" is not left to ad-hoc ``allclose``
calls: :mod:`repro.verification` pins the contract with convergence-order
checks against analytic solutions and committed golden-trace regressions
under an explicit per-scenario tolerance ladder.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..observability import NULL_TELEMETRY
from .ader import compute_time_derivatives, time_integrate
from .discretization import N_ELASTIC
from .surface import (
    neighbor_face_coefficients,
    project_local_traces,
    surface_kernel_local,
    surface_kernel_neighbor,
)
from .volume import volume_kernel

__all__ = [
    "KERNEL_KINDS",
    "KernelWorkspace",
    "ReferenceBackend",
    "FastBackend",
    "make_backend",
]

KERNEL_KINDS = ("ref", "fast")

#: environment override for the default backend of directly constructed
#: solvers (scenario specs name their backend explicitly and win) -- this is
#: what lets CI soak the whole tier-1 suite under the fast kernels
_ENV_VAR = "REPRO_KERNELS"


def make_backend(kind=None):
    """Resolve a backend name (or pass an instance through).

    ``None`` falls back to the ``REPRO_KERNELS`` environment variable and
    then to ``"ref"``.
    """
    if isinstance(kind, ReferenceBackend):  # FastBackend subclasses it
        return kind
    if kind is None:
        kind = os.environ.get(_ENV_VAR) or "ref"
    backends = {"ref": ReferenceBackend, "fast": FastBackend}
    if kind not in backends:
        raise ValueError(f"kernel backend must be one of {KERNEL_KINDS}, got {kind!r}")
    return backends[kind]()


class KernelWorkspace:
    """Preallocated scratch (and cached static data) of one batch producer
    (one per LTS cluster, one per GTS solver).

    Scratch is pooled per *name*: every shape requested under a name is a
    leading view of that name's one buffer, so the last partial element
    block, a one-element batch and the distributed steppers'
    boundary/interior alternation share the pages the largest request
    faulted in (a name is therefore live for one array at a time).
    :meth:`cached` memoizes batch-static data (operator gathers, block
    plans) under an explicit token.
    """

    __slots__ = ("_pools", "_views", "_cache", "_tokens")

    def __init__(self):
        #: (name, dtype) -> flat buffer, grown to the largest request
        self._pools: dict = {}
        #: (name, shape, dtype) -> leading view of the pool buffer
        self._views: dict = {}
        self._cache: dict = {}
        #: id(elements) -> (elements, token): memoized batch identities; the
        #: stored reference keeps the array alive so the id stays valid
        self._tokens: dict = {}

    def scratch(self, name, shape: tuple, dtype) -> np.ndarray:
        """A scratch array of the requested shape/dtype with undefined
        contents -- except that a buffer is zero-filled when (re)allocated,
        so under a name that pins one trailing layout, entries no caller
        ever writes stay zero."""
        dtype = np.dtype(dtype)
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            size = math.prod(shape)
            pool = self._pools.get((name, dtype))
            if pool is None or pool.size < size:
                pool = self._pools[name, dtype] = np.zeros(size, dtype=dtype)
                # views of the outgrown buffer would pin it: drop them
                for stale in [k for k in self._views if k[0] == name and k[2] == dtype]:
                    del self._views[stale]
            view = self._views[key] = pool[:size].reshape(shape)
        return view

    def cached(self, name: str, token, builder):
        """Memoize ``builder()`` under ``(name, token)``."""
        key = (name, token)
        value = self._cache.get(key)
        if value is None:
            value = builder()
            self._cache[key] = value
        return value


class ReferenceBackend:
    """Executes the reference kernel functions exactly as written."""

    name = "ref"

    #: per-solver telemetry lane; the owning solver overwrites this with its
    #: own instance, so kernel-kind timings land in the right rank's lane
    #: (the class default is the shared no-op: direct use stays unmeasured)
    telemetry = NULL_TELEMETRY

    def make_workspace(self) -> KernelWorkspace | None:
        """Reference kernels allocate per call; no workspace is kept."""
        return None

    # -- time kernel ----------------------------------------------------
    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        return compute_time_derivatives(disc, dofs, elements)

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        return time_integrate(derivatives, t_start, t_end)

    # -- space kernels --------------------------------------------------
    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None):
        return project_local_traces(disc, time_integrated_elastic, elements)

    def volume_kernel(self, disc, time_integrated, elements, ws=None):
        return volume_kernel(disc, time_integrated, elements)

    def surface_kernel_local(self, disc, time_integrated, elements, local_traces, ws=None):
        return surface_kernel_local(disc, time_integrated, elements, local_traces=local_traces)

    def neighbor_face_coefficients(self, disc, neighbor_te, own_traces, elements, ws=None):
        return neighbor_face_coefficients(disc, neighbor_te, own_traces, elements)

    def surface_kernel_neighbor(self, disc, coeffs, elements, ws=None):
        return surface_kernel_neighbor(disc, coeffs, elements)

    # -- fused local update (time + volume + local surface) -------------
    @staticmethod
    def _elastic_rows(derivatives):
        return [d[:, :N_ELASTIC] for d in derivatives]

    def local_update(self, disc, dofs, dt, elements, ws=None, needs_half=False):
        """``(delta, elastic_integral, elastic_half_integral, local_traces)``.

        The one canonical local-step pipeline: the GTS step, the clustered
        LTS prediction and the distributed rank steppers all run through
        this method (on every backend), so the bit-exactness-critical
        kernel sequence exists exactly once.  Callers only ever need the
        elastic ``[:, :9]`` rows of the full-interval time integral (``B1``,
        the neighbours' traces) and, with ``needs_half``, of the
        ``[0, dt/2]`` integral (``B2``; ``None`` otherwise) -- the derivative
        stack and the 27-variable integral stay internal.
        """
        telemetry = self.telemetry
        with telemetry.region("kernel.ck"):
            derivatives = self.compute_time_derivatives(disc, dofs, elements, ws=ws)
        with telemetry.region("kernel.integrate"):
            time_integrated = self.time_integrate(derivatives, 0.0, dt, ws=ws, key="local_ti")
            elastic = time_integrated[:, :N_ELASTIC]
            half = None
            if needs_half:
                half = self.time_integrate(
                    self._elastic_rows(derivatives), 0.0, 0.5 * dt, ws=ws, key="local_half"
                )
        with telemetry.region("kernel.trace"):
            local_traces = self.project_local_traces(disc, elastic, elements, ws=ws)
        with telemetry.region("kernel.volume"):
            delta = self.volume_kernel(disc, time_integrated, elements, ws=ws)
        with telemetry.region("kernel.surface_local"):
            delta += self.surface_kernel_local(
                disc, time_integrated, elements, local_traces, ws=ws
            )
        return delta, elastic, half, local_traces


class _DiscData:
    """Per-discretization derived data of the fast backend.

    The boolean flags record the exact-zero structure of the element
    operators (verified once -- the arrays are assembled analytically, so
    the zeros are exact by construction for the elastic/anelastic wave
    equations; a variant that breaks an assumption falls back to the dense
    contraction).  ``ftilde_flat`` groups the four face projections into one
    ``(B, 4 F)`` operator so the trace projection is a single contraction.
    """

    __slots__ = ("star_e_blocks", "star_a_velocity", "coupling_stress",
                 "flux_a_velocity", "ftilde_flat", "kcat_time", "kcat_vol",
                 "fhat_flat", "_relaxation")

    def __init__(self, disc):
        star_e = disc.star_elastic
        self.star_e_blocks = bool(
            np.all(star_e[:, :, :6, :6] == 0.0) and np.all(star_e[:, :, 6:, 6:] == 0.0)
        )
        self.star_a_velocity = bool(np.all(disc.star_anelastic[:, :, :, :6] == 0.0))
        self.coupling_stress = bool(
            disc.coupling.shape[1] == 0 or np.all(disc.coupling[:, :, 6:, :] == 0.0)
        )
        self.flux_a_velocity = bool(
            np.all(disc.flux_local_anelastic[..., :6] == 0.0)
            and np.all(disc.flux_neigh_anelastic[..., :6] == 0.0)
        )
        self.ftilde_flat = np.ascontiguousarray(disc.ftilde.transpose(1, 0, 2)).reshape(
            disc.ftilde.shape[1], -1
        )
        # side-by-side stiffness operators, cut to the
        # columns ``x @ k_time[c]`` populates / the rows ``k_vol[c]`` reads
        # (assembly leaves O(1e-15) roundoff in those structural zeros, which
        # only the tolerance tier drops).  ``kcat_time`` carries the CK minus
        # sign, so a derivative and a volume call differ by this operand only
        n_out = _leading_extent(disc.k_time, axis=2)
        n_in = _leading_extent(disc.k_vol, axis=1)
        self.kcat_time = -np.concatenate([k[:, :n_out] for k in disc.k_time], axis=1)
        self.kcat_vol = np.concatenate([k[:n_in] for k in disc.k_vol], axis=1)
        # (4 F, B) flattened back-projection of the surface kernels
        self.fhat_flat = np.ascontiguousarray(
            disc.fhat.reshape(-1, disc.fhat.shape[2])
        )
        #: per-row factors of the reactive self-term: zero on the elastic
        #: rows, ``-omega_l`` on mechanism ``l``'s six rows
        factors = np.concatenate([np.zeros(N_ELASTIC), np.repeat(-disc.omegas, 6)])
        self._relaxation = {1: factors.astype(disc.omegas.dtype)[:, None]}

    def relaxation(self, width):
        """The reactive row factors as a full ``(N_q, width)`` table, so the
        multiply runs over whole contiguous slabs (cached per width)."""
        table = self._relaxation.get(width)
        if table is None:
            table = self._relaxation[width] = np.repeat(self._relaxation[1], width, axis=1)
        return table


def _leading_extent(matrices, axis):
    """How far along ``axis`` the ``(3, B, B)`` operators exceed roundoff."""
    magnitude = np.abs(matrices).max(axis=tuple(a for a in range(3) if a != axis))
    significant = np.flatnonzero(magnitude > 1e-12 * magnitude.max())
    return int(significant[-1]) + 1 if len(significant) else 1


def _elements_token(elements, ws=None):
    """A hashable identity for an element batch (operator-gather cache key).

    Serialising the id array is O(E); batches are long-lived (per-cluster
    element lists, per-solver GTS ranges), so the token is memoized on the
    workspace by object identity and computed once per distinct array.
    """
    if isinstance(elements, slice):
        return (elements.start, elements.stop, elements.step)
    if ws is not None:
        entry = ws._tokens.get(id(elements))
        if entry is not None and entry[0] is elements:
            return entry[1]
        token = elements.tobytes()
        ws._tokens[id(elements)] = (elements, token)
        return token
    return elements.tobytes()


#: bytes of CK derivative stack per ``FastBackend.local_update`` element
#: block: three quarters of this host class's 2 MiB per-core L2, leaving the
#: rest to the block's operators.  Measured, not a setting -- at order 4 a
#: macro cycle is flat from 0.5 to 2 MiB (30-120 elements) and a third
#: slower unblocked
_BLOCK_STACK_BYTES = 3 << 19


class FastBackend(ReferenceBackend):
    """Tolerance-equal execution: stacked operators on cache-sized blocks.

    Keeps the reference's composite ``local_update`` pipeline (run once per
    element block) but drops its operation order: the time and volume
    kernels are one :meth:`_space_operator` (five batched GEMMs and
    two slab passes on the half of the columns the degree-lowering
    stiffness matrices populate or read), the Taylor integral is a GEMV per
    element, a surface kernel is one flux-solve GEMM plus one ``fhat`` GEMM,
    any fused axis rides as GEMM columns so scalar and fused batches run the
    same lines, and :meth:`local_update` walks a batch in L2-sized element
    blocks.  Every contraction stays per element, so an element's result
    does not depend on the batch (or block) around it.

    Results are NOT bit-identical to the reference at any precision (and
    the O(1e-15) assembly roundoff in the stiffness matrices' structural
    zeros is dropped); the accuracy contract (convergence order,
    golden-trace tolerances) is owned by :mod:`repro.verification`.
    """

    name = "fast"

    def make_workspace(self) -> KernelWorkspace:
        return KernelWorkspace()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _disc_data(self, disc) -> _DiscData:
        cached = getattr(disc, "_fast_kernel_data", None)
        if cached is None:
            cached = _DiscData(disc)
            try:
                disc._fast_kernel_data = cached
            except AttributeError:  # pragma: no cover - exotic disc objects
                pass
        return cached

    @staticmethod
    def _scratch(ws, name, shape, dtype):
        if ws is None:
            return np.zeros(shape, dtype=dtype)
        return ws.scratch(name, shape, dtype)

    @staticmethod
    def _cached(ws, name, elements, builder):
        """Memoize a batch-static build on the workspace (build-through when
        no workspace is kept -- the batch token is only computed when it is
        actually used as a cache key)."""
        if ws is None:
            return builder()
        return ws.cached(name, _elements_token(elements, ws), builder)

    @staticmethod
    def _bmm(matrices, operand, out):
        """Batched ``matrices @ operand`` with trailing fused axes folded
        into the GEMM columns: ``(..., i, j) @ (..., j, B[, f])``.  The fold
        merges the two innermost axes, contiguous at every call site, so
        ``out`` stays a view and ``np.matmul`` writes in place."""
        batch = matrices.ndim - 1
        if operand.ndim > matrices.ndim:
            operand = operand.reshape(operand.shape[:batch] + (-1,))
            out = out.reshape(out.shape[:batch] + (-1,))
        np.matmul(matrices, operand, out=out)

    def _basis_apply(self, x, matrix, out=None):
        """Right-multiply by an operator with the fused axis as GEMM columns.

        Scalar batches run ``x @ matrix`` (a ``(V, B) @ (B, D)`` GEMM per
        element); fused ones ``matrix.T @ x``, which broadcasts to
        ``(D, B) @ (E, V, B, F) -> (E, V, D, F)``.
        """
        if x.ndim == 3:
            return np.matmul(x, matrix, out=out)
        return np.matmul(matrix.T, x, out=out)

    def _surface_ops(self, disc, elements, ws, neighbor: bool):
        """Gathered flux-solver operators of a batch (cached)."""
        data = self._disc_data(disc)
        name = "surf_neigh_ops" if neighbor else "surf_local_ops"

        def build():
            if neighbor:
                flux_e = disc.flux_neigh_elastic[elements]
                flux_a = disc.flux_neigh_anelastic[elements]
            else:
                flux_e = disc.flux_local_elastic[elements]
                flux_a = disc.flux_local_anelastic[elements]
            ops = {"flux_e": flux_e}
            if disc.n_mechanisms:
                ops["flux_a"] = (
                    np.ascontiguousarray(flux_a[..., 6:N_ELASTIC])
                    if data.flux_a_velocity
                    else flux_a
                )
            return ops

        return data, self._cached(ws, name, elements, build)

    # ------------------------------------------------------------------
    # time + volume kernels: one stacked space operator
    # ------------------------------------------------------------------
    def _stacked_ops(self, disc, elements, ws):
        """Stacked star/coupling operators of a batch (cached per batch).

        ``stages`` lists ``(matrix, variables, rows)`` GEMMs: ``matrix``
        contracts the stiffness products ``tmp[e, variable, direction]`` of
        ``variables`` -- (variable, direction) merged into one contraction
        axis -- into output ``rows``.  With the zero blocks verified those
        are the stress rows of ``star_elastic`` and the per-mechanism
        ``omega_l * star_anelastic`` rows, both reading the velocities, and
        the velocity rows reading the stresses; otherwise it is one dense
        ``(N_q, 27)`` operator through the same lines.  ``ccat`` holds the
        mechanisms' coupling blocks side by side.
        """
        data = self._disc_data(disc)
        stress, veloc, elastic = slice(0, 6), slice(6, N_ELASTIC), slice(0, N_ELASTIC)

        def merged(star, rows, columns):
            block = star[:, :, rows, columns].transpose(0, 2, 3, 1)  # (E, i, j, direction)
            return np.ascontiguousarray(block).reshape(block.shape[:2] + (-1,))

        def build():
            star_e = disc.star_elastic[elements]
            # the anelastic star rows once per mechanism, scaled by omega_l
            star_a = (
                disc.star_anelastic[elements][:, :, None] * disc.omegas[:, None, None]
            ).reshape(len(star_e), 3, 6 * disc.n_mechanisms, N_ELASTIC)
            if data.star_e_blocks and data.star_a_velocity:
                stages = [
                    (merged(star_e, stress, veloc), veloc, stress),
                    (merged(star_e, veloc, stress), stress, veloc),
                ]
                if disc.n_mechanisms:
                    memory = slice(N_ELASTIC, disc.n_vars)
                    stages.append((merged(star_a, slice(None), veloc), veloc, memory))
            else:  # dense fallback
                dense = np.concatenate([star_e, star_a], axis=2)
                stages = [(merged(dense, slice(None), elastic), elastic, slice(None))]
            ops = {"stages": stages}
            if disc.n_mechanisms:
                coupling = disc.coupling[elements]  # (E, m, 9, 6)
                if data.coupling_stress:
                    coupling = coupling[:, :, :6]
                ops["ccat"] = np.ascontiguousarray(coupling.transpose(0, 2, 1, 3)).reshape(
                    coupling.shape[0], coupling.shape[2], -1
                )
            return ops

        return data, self._cached(ws, "stacked_ops", elements, build)

    def _space_operator(self, disc, kcat, x, y, elements, ws):
        """``y = L(x)``: the spatial operator behind both element kernels.

        With ``tmp_c = x_e @ K_c`` for the three blocks of ``kcat``::

            y_e = sum_c star_e[c] @ tmp_c + sum_l coupling_l @ x_l
            y_l = omega_l * (sum_c star_a[c] @ tmp_c - x_l)

        which is the volume kernel for ``K = k_vol`` and one CK derivative
        for ``K = -k_time``.  ``kcat`` is ``(n_in, 3 n_out)``: only the
        leading ``n_in`` basis columns of ``x_e`` are read and only the
        leading ``n_out`` columns of the star products are populated.
        ``x``/``y`` are ``(E, N_q, B[, f])``; everything after the stiffness
        GEMM runs on the folded ``(E, N_q, B f)`` layout.  Elementwise work
        is two passes over whole contiguous slabs: short strided row runs
        measured several times a GEMM's share of the stage.
        """
        data, ops = self._stacked_ops(disc, elements, ws)
        E, n_vars, n_basis = x.shape[:3]
        n_in, n_out = kcat.shape[0], kcat.shape[1] // 3
        width = math.prod(x.shape[2:])
        ncols = width // n_basis * n_out
        dtype = x.dtype

        tmp = self._scratch(ws, "op_tmp", (E, N_ELASTIC, 3 * n_out) + x.shape[3:], dtype)
        self._basis_apply(x[:, :N_ELASTIC, :n_in], kcat, out=tmp)
        tmp = tmp.reshape(E, N_ELASTIC, 3, ncols)
        # the star products land in the leading columns of a slab laid out
        # like ``y`` whose tail columns are never written, i.e. stay zero
        # from allocation (the scratch name pins the layout)
        star = self._scratch(ws, ("op_star", n_vars, width, ncols), (E, n_vars, width), dtype)
        for matrix, variables, rows in ops["stages"]:
            self._bmm(matrix, tmp[:, variables].reshape(E, -1, ncols), star[:, rows, :ncols])

        x = x.reshape(E, n_vars, width)
        y = y.reshape(E, n_vars, width)
        # reactive part: -omega_l * x_l on the memory rows (zero on the
        # elastic ones), then the coupling GEMM over the rows it feeds
        np.multiply(x, data.relaxation(width), out=y)
        if n_vars > N_ELASTIC:
            ccat = ops["ccat"]
            self._bmm(ccat, x[:, N_ELASTIC:], y[:, : ccat.shape[1]])
        y += star

    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        """CK derivatives as one contiguous ``(O, E, N_q, B[, f])`` stack
        (indexable per derivative like the reference's list)."""
        if isinstance(elements, slice):
            batch = dofs[elements]
            stack = self._scratch(ws, "ck_stack", (disc.order,) + batch.shape, dofs.dtype)
            stack[0] = batch
        else:
            shape = (disc.order, len(elements)) + dofs.shape[1:]
            stack = self._scratch(ws, "ck_stack", shape, dofs.dtype)
            np.take(dofs, elements, axis=0, out=stack[0], mode="clip")
        kcat = self._disc_data(disc).kcat_time
        for d in range(1, disc.order):
            self._space_operator(disc, kcat, stack[d - 1], stack[d], elements, ws)
        return stack

    @staticmethod
    def _elastic_rows(derivatives):
        return derivatives[:, :, :N_ELASTIC]

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        """Taylor integration over ``[t_start, t_end]``: one ``weights @
        derivatives`` product per element, so row-sliced stacks need no copy."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        stack = derivatives if isinstance(derivatives, np.ndarray) else np.stack(derivatives)
        order, E = stack.shape[:2]
        weights = np.array(
            [(t_end ** (d + 1) - t_start ** (d + 1)) / math.factorial(d + 1) for d in range(order)],
            dtype=stack.dtype,
        )
        result = self._scratch(ws, key, stack.shape[1:], stack.dtype)
        np.matmul(weights, stack.swapaxes(0, 1).reshape(E, order, -1), out=result.reshape(E, -1))
        return result

    def volume_kernel(self, disc, time_integrated, elements, ws=None):
        out = self._scratch(ws, "vol_out", time_integrated.shape, time_integrated.dtype)
        kcat = self._disc_data(disc).kcat_vol
        self._space_operator(disc, kcat, time_integrated, out, elements, ws)
        return out

    # ------------------------------------------------------------------
    # cache-blocked local update
    # ------------------------------------------------------------------
    def _block_plan(self, disc, dofs, elements, ws):
        """``(n, [(rows, block_elements), ...])``: the batch cut into
        contiguous blocks whose derivative stack fits ``_BLOCK_STACK_BYTES``
        (cached per batch, so every block keeps one array identity and with
        it its operator-gather cache entries)."""
        per_element = disc.order * math.prod(dofs.shape[1:]) * dofs.itemsize
        size = max(1, _BLOCK_STACK_BYTES // per_element)

        def build():
            batch = range(len(dofs))[elements] if isinstance(elements, slice) else elements
            bounds = [(i, min(i + size, len(batch))) for i in range(0, len(batch), size)]
            if isinstance(batch, range) and batch.step == 1:
                # a contiguous run blocks into slices: views, not gathers
                first = batch.start
                return len(batch), [(slice(i, j), slice(first + i, first + j)) for i, j in bounds]
            batch = np.asarray(batch)
            return len(batch), [(slice(i, j), batch[i:j]) for i, j in bounds]

        return self._cached(ws, f"block_plan{size}", elements, build)

    def local_update(self, disc, dofs, dt, elements, ws=None, needs_half=False):
        """The shared pipeline, one L2-sized element block at a time: each
        block runs the public stage methods on block-sized scratch (no
        cluster-sized derivative stack or 27-variable integral exists) and
        only the four arrays callers read land in cluster-sized scratch."""
        n, blocks = self._block_plan(disc, dofs, elements, ws)
        dtype = dofs.dtype
        elastic_shape = (n, N_ELASTIC) + dofs.shape[2:]
        delta = self._scratch(ws, "lu_delta", (n,) + dofs.shape[1:], dtype)
        integral = self._scratch(ws, "lu_integral", elastic_shape, dtype)
        half = self._scratch(ws, "lu_half", elastic_shape, dtype) if needs_half else None
        traces_shape = (n, 4, N_ELASTIC, disc.n_face_basis) + dofs.shape[3:]
        traces = self._scratch(ws, "lu_traces", traces_shape, dtype)
        for rows, block in blocks:
            delta[rows], integral[rows], block_half, traces[rows] = super().local_update(
                disc, dofs, dt, block, ws=ws, needs_half=needs_half
            )
            if needs_half:
                half[rows] = block_half
        return delta, integral, half, traces

    # ------------------------------------------------------------------
    # surface kernels
    # ------------------------------------------------------------------
    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None):
        """Trace projection as one grouped ``(B, 4 F)`` contraction."""
        data = self._disc_data(disc)
        te = time_integrated_elastic
        E = te.shape[0]
        n_face_basis = disc.n_face_basis
        fused = te.shape[3:]
        grouped = self._scratch(
            ws, "traces_grouped", (E, N_ELASTIC, 4 * n_face_basis) + fused, te.dtype
        )
        self._basis_apply(te, data.ftilde_flat, out=grouped)
        out = self._scratch(
            ws, "traces", (E, 4, N_ELASTIC, n_face_basis) + fused, te.dtype
        )
        # regroup (E, 9, (i, F)) -> (E, 4, 9, F): one contiguous copy so the
        # surface kernels (and the halo payload path) see the public layout
        split = grouped.reshape((E, N_ELASTIC, 4, n_face_basis) + fused)
        np.copyto(out, np.moveaxis(split, 2, 1))
        return out

    def surface_kernel_local(self, disc, time_integrated, elements, local_traces, ws=None):
        if local_traces is None:
            local_traces = self.project_local_traces(
                disc, time_integrated[:, :N_ELASTIC], elements, ws=ws
            )
        data, ops = self._surface_ops(disc, elements, ws, neighbor=False)
        return self._surface_kernel(disc, data, ops, local_traces, ws, "surf_local")

    def neighbor_face_coefficients(self, disc, neighbor_te, own_traces, elements, ws=None):
        """Neighbour trace coefficients, grouped by unique ``F_bar`` matrix.

        The mesh only has a handful of distinct neighbouring flux matrices
        (Sec. III), so instead of gathering one ``B x F`` matrix per face the
        faces are grouped per unique matrix and contracted against it
        directly.  The per-face grouping is static and cached per batch.
        """
        fbar = disc.neighbor_flux_matrices

        def build():
            index = disc.neighbor_flux_index[elements]  # (E, 4)
            plan = []
            for i in range(4):
                column = index[:, i]
                boundary = np.where(column < 0)[0]
                groups = [
                    (int(u), np.where(column == u)[0])
                    for u in np.unique(column[column >= 0])
                ]
                plan.append((boundary, groups))
            return plan

        plan = self._cached(ws, "nfc_plan", elements, build)
        out = self._scratch(ws, "nfc_out", own_traces.shape, own_traces.dtype)
        for i, (boundary, groups) in enumerate(plan):
            for u, rows in groups:
                out[rows, i] = self._basis_apply(neighbor_te[rows, i], fbar[u])
            if len(boundary):
                out[boundary, i] = own_traces[boundary, i]
        return out

    def surface_kernel_neighbor(self, disc, coeffs, elements, ws=None):
        data, ops = self._surface_ops(disc, elements, ws, neighbor=True)
        return self._surface_kernel(disc, data, ops, coeffs, ws, "surf_neigh")

    def _surface_kernel(self, disc, data, ops, face_coeffs, ws, prefix):
        """Surface kernels with fused per-face accumulation: the anelastic
        mechanisms share one face-summed contribution scaled per ``omega_l``."""
        E = face_coeffs.shape[0]
        fused = face_coeffs.shape[4:]
        dtype = face_coeffs.dtype
        out = self._scratch(ws, prefix + "_out", (E, disc.n_vars, disc.n_basis) + fused, dtype)
        self._flux_project(
            data, ops["flux_e"], face_coeffs, out[:, :N_ELASTIC], ws, prefix + "_fsolved"
        )
        if disc.n_mechanisms:
            coeffs_a = face_coeffs[:, :, 6:N_ELASTIC] if data.flux_a_velocity else face_coeffs
            common = self._scratch(ws, prefix + "_fcommon", (E, 6, disc.n_basis) + fused, dtype)
            self._flux_project(data, ops["flux_a"], coeffs_a, common, ws, prefix + "_fsolved_a")
            for l, omega in enumerate(disc.omegas):
                target = out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)]
                np.multiply(common, omega, out=target)
        return out

    def _flux_project(self, data, flux, face_coeffs, out, ws, name):
        """``out[e, v] = sum_i (flux[e, i] @ face_coeffs[e, i])[v] @ fhat[i]``.

        The four flux solves are one ``(E, 4)``-batched GEMM written through
        a transposed view into ``(E, V, 4, F[, f])``-ordered scratch, so the
        contraction axes ``(face, face_basis)`` are adjacent and the four
        back-projections are one ``(4 F, B)`` operator application.
        """
        E, _, n_rows = flux.shape[:3]
        tail = face_coeffs.shape[3:]  # (F[, f])
        solved = self._scratch(ws, name, (E, n_rows, 4) + tail, face_coeffs.dtype)
        self._bmm(flux, face_coeffs, solved.swapaxes(1, 2))
        self._basis_apply(
            solved.reshape((E, n_rows, 4 * tail[0]) + tail[1:]), data.fhat_flat, out=out
        )
