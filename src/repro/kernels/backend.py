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

Both split an element update alike: ``local_update`` is the prediction (time
+ integrate + volume), ``correct`` the correction (own traces + gather + both
surface halves + the DOF advance), with no batch state between the two: the
own traces come from the batch's ``B1`` rows of the store the correction
gathers from.  ``FastBackend`` drops the reference
operation order: its element kernels are a handful of batched GEMMs over
*stacked* operators (stiffness matrices side by side, star matrices with the
(variable, direction) pair merged into one contraction axis, coupling blocks
side by side) that exploit the exact-zero block structure of the element
operators, verified once per discretization with a dense fallback; its
correction is one pass per element block -- one GEMM per ``F_bar`` face
class straight from the neighbour rows, one flux solve of the local and
neighbouring flux solvers side by side, one back-projection.  Both halves
walk a batch in the same L2-sized blocks on a reused :class:`KernelWorkspace`,
and share each batch's blocks among the threads of the process's
:mod:`~repro.kernels.threads` pool.
"Close enough" is not left to ad-hoc ``allclose`` calls:
:mod:`repro.verification` pins the contract with convergence-order checks
against analytic solutions and committed golden-trace regressions under an
explicit per-scenario tolerance ladder.
"""

from __future__ import annotations

import math
import os
import weakref
from functools import partial

import numpy as np

from ..observability import NULL_TELEMETRY
from .ader import compute_time_derivatives, time_integrate
from .discretization import N_ELASTIC, N_FLUX_ROWS
from .surface import (
    neighbor_face_coefficients,
    project_local_traces,
    surface_kernel_local,
    surface_kernel_neighbor,
)
from .threads import block_pool
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
    :meth:`cached` memoizes batch-static data (stacked operators, gather
    plans) under an explicit token, :meth:`latest` the one current value of
    a name; :meth:`on` pairs that data with another workspace's scratch (a
    pool thread's).  ``programs`` holds the block programs compiled on
    these pools: a (re)allocation drops them all, so none pins an outgrown
    buffer, and :attr:`generation` counts the (re)allocations.
    """

    __slots__ = ("_pools", "_views", "_cache", "_grown", "programs")

    def __init__(self):
        #: (name, dtype) -> flat buffer, grown to the largest request
        self._pools: dict = {}
        #: (name, shape, dtype) -> leading view of the pool buffer
        self._views: dict = {}
        self._cache: dict = {}
        #: one-element counter of pool allocations, shared with every lane
        #: :meth:`on` pairs with these pools
        self._grown = [0]
        #: block -> its program on these pools (see :class:`_Block`)
        self.programs = weakref.WeakKeyDictionary()

    @property
    def generation(self) -> int:
        return self._grown[0]

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
            view = self._views[key] = self.reserve(name, size, dtype)[:size].reshape(shape)
        return view

    def reserve(self, name, size: int, dtype: np.dtype) -> np.ndarray:
        """The pool buffer of ``name``, (re)allocated zero-filled if it
        cannot hold ``size`` items -- which drops its views and every
        compiled program."""
        pool = self._pools.get((name, dtype))
        if pool is None or pool.size < size:
            pool = self._pools[name, dtype] = np.zeros(size, dtype=dtype)
            self._grown[0] += 1
            self.programs.clear()
            # views of the outgrown buffer would pin it: drop them
            for stale in [k for k in self._views if k[0] == name and k[2] == dtype]:
                del self._views[stale]
        return pool

    def cached(self, name: str, token, builder):
        """Memoize ``builder()`` under ``(name, token)``."""
        key = (name, token)
        value = self._cache.get(key)
        if value is None:
            value = builder()
            self._cache[key] = value
        return value

    def latest(self, name, key: tuple, builder):
        """``builder()``, rebuilt whenever ``key`` differs from the last
        call's under ``name`` (one entry per name).  ``key`` may hold
        ``id()`` s of objects the built value keeps alive: while it does,
        no other object can carry the same id."""
        entry = self._cache.get(("latest", name))
        if entry is None or entry[0] != key:
            entry = self._cache["latest", name] = (key, builder())
        return entry[1]

    def held(self) -> tuple:
        """What this workspace holds: its pools and its cached data."""
        return self._pools, self._cache

    def on(self, scratch: KernelWorkspace) -> KernelWorkspace:
        """A workspace with this one's cached data and ``scratch``'s pools."""
        lane = KernelWorkspace.__new__(KernelWorkspace)
        lane._pools, lane._views, lane._grown = scratch._pools, scratch._views, scratch._grown
        lane.programs, lane._cache = scratch.programs, self._cache
        return lane


class ReferenceBackend:
    """Executes the reference kernel functions exactly as written."""

    name = "ref"

    #: per-solver telemetry lane; the owning solver overwrites this with its
    #: own instance, so kernel-kind timings land in the right rank's lane
    #: (the class default is the shared no-op: direct use stays unmeasured)
    telemetry = NULL_TELEMETRY

    def __init__(self):
        #: (DOF shape, dtype) -> the predictions' volume increments
        self._increments: dict = {}

    def make_workspace(self) -> KernelWorkspace | None:
        """Reference kernels allocate per call; no workspace is kept."""
        return None

    # -- time kernel ----------------------------------------------------
    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        return compute_time_derivatives(disc, dofs, elements)

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        return time_integrate(derivatives, t_start, t_end)

    # -- space kernels (``out``: the array the result is written into) ---
    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None, out=None):
        return project_local_traces(disc, time_integrated_elastic, elements, out=out)

    def volume_kernel(self, disc, time_integrated, elements, ws=None, out=None):
        return volume_kernel(disc, time_integrated, elements, out=out)

    def surface_kernel_local(self, disc, time_integrated, elements, local_traces, ws=None):
        return surface_kernel_local(disc, time_integrated, elements, local_traces=local_traces)

    def neighbor_face_coefficients(self, disc, neighbor_te, own_traces, elements, ws=None):
        return neighbor_face_coefficients(disc, neighbor_te, own_traces, elements)

    def surface_kernel_neighbor(self, disc, coeffs, elements, ws=None):
        return surface_kernel_neighbor(disc, coeffs, elements)

    # -- prediction (time + integrate + volume) -------------------------
    @staticmethod
    def _elastic_rows(derivatives):
        return [d[:, :N_ELASTIC] for d in derivatives]

    def local_update(self, disc, dofs, dt, elements, ws=None, needs_half=False, fill=None):
        """``(elastic_integral, elastic_half_integral)``: the one prediction
        pipeline every solver runs.  The volume increment goes toward the
        DOF rows (:meth:`_apply_volume`; they are defined again once
        :meth:`correct` has run), and the elastic rows of the full-step
        integral (``B1``) and, with ``needs_half``, of the ``[0, dt/2]`` one
        (``B2``; ``None`` otherwise) are returned.  With ``fill`` (a
        :class:`~repro.core.buffers.BufferFill`) each element block's
        integrals go to ``fill(block, integral, half)`` while in cache --
        the LTS buffer fill; a block program compiles ``fill.calls(...)``
        -- and ``None`` is returned."""
        return self._predict(self.telemetry, disc, dofs, dt, elements, ws, needs_half, fill)

    def _predict(self, telemetry, disc, dofs, dt, elements, ws, needs_half, fill):
        """:meth:`local_update` with its stage regions on ``telemetry``."""
        batch = _contiguous_run(elements, len(dofs))
        rows = slice(batch.start, batch.stop)
        with telemetry.region("kernel.ck"):
            derivatives = self.compute_time_derivatives(disc, dofs, elements, ws=ws)
        with telemetry.region("kernel.integrate"):
            time_integrated = self.time_integrate(derivatives, 0.0, dt, ws=ws, key="local_ti")
            elastic, half = time_integrated[:, :N_ELASTIC], None
            if needs_half:
                half = self.time_integrate(
                    self._elastic_rows(derivatives), 0.0, 0.5 * dt, ws=ws, key="local_half"
                )
        with telemetry.region("kernel.volume"):
            self._apply_volume(disc, dofs, time_integrated, elements, rows, ws)
        if fill is not None:
            fill(rows, elastic, half)
            elastic = half = None
        return elastic, half

    def _apply_volume(self, disc, dofs, time_integrated, elements, rows: slice, ws) -> None:
        """The volume increment, kept in this backend's own rows until
        :meth:`correct` adds it to the DOFs (the reference order)."""
        self.volume_kernel(disc, time_integrated, elements, out=self._increment(dofs)[rows])

    def _increment(self, dofs) -> np.ndarray:
        """The increment rows of the ``dofs`` layout (allocated once)."""
        key = (dofs.shape, dofs.dtype)
        if key not in self._increments:
            self._increments[key] = np.empty_like(dofs)
        return self._increments[key]

    def scratch_arrays(self) -> list:
        """The arrays the memory ledger counts as ``kernel_scratch``."""
        return list(self._increments.values())

    # -- correction (own traces + both surface halves + DOF advance) ----
    def neighbor_plan(self, disc, dofs, elements, rows):
        """The static gather plan of a batch's corrections (built once per
        batch and source layout): ``rows[e, i]`` is the ``source`` row of
        face ``(e, i)``'s neighbour (boundary faces: any row, never read)."""
        return rows

    def face_plan(self, rows, classes):
        """The static plan of :meth:`project_faces` (built once per plan):
        face ``n`` reads ``source`` row ``rows[n]`` and projects it with
        ``F_bar[classes[n]]``."""
        return rows, classes

    def project_faces(self, disc, source, plan, ws=None):
        """``(n, 9, F[, f])`` face-local payloads ``source[rows[n]] @
        F_bar[classes[n]]`` in plan order: the neighbour coefficients the
        receiving element would compute from the same rows (the halo
        sender's compression, Sec. V-C)."""
        rows, classes = plan
        mats = disc.neighbor_flux_matrices[classes]
        return np.einsum("nvb...,nbf->nvf...", source[rows], mats)

    def correct(self, disc, dofs, elements, source, plan, ws=None, halo=None):
        """Complete a predicted batch: the kept increment gains the local,
        then the neighbouring surface kernel, then ``dofs[elements] +=
        increment``.  ``source`` is the flat ``(R, 9, B[, f])`` integral
        store ``plan`` indexes (the LTS buffer store, the GTS step
        integral), whose rows ``elements`` must hold the batch's own
        integral: the own traces (``LtsBuffers.store`` leads with ``B1``).
        ``halo`` is ``None`` or ``(faces, payloads)``: ascending face ids
        ``4 e + i`` whose neighbour coefficients are received payloads."""
        batch = _contiguous_run(elements, len(dofs))
        rows = slice(batch.start, batch.stop)
        with self.telemetry.region("kernel.trace"):
            traces = self.project_local_traces(disc, source[rows], rows, ws=ws)
        delta = self._increment(dofs)[rows]
        with self.telemetry.region("kernel.surface_local"):
            # given traces, the kernel only reads its time integral's shape
            delta += self.surface_kernel_local(disc, delta, batch, traces, ws=ws)
        with self.telemetry.region("kernel.surface_neighbor"):
            coeffs = self.neighbor_face_coefficients(disc, source[plan], traces, rows, ws=ws)
            if halo is not None:
                faces, payloads = halo
                coeffs[faces // 4, faces % 4] = payloads
            delta += self.surface_kernel_neighbor(disc, coeffs, rows, ws=ws)
        dofs[rows] += delta

    # -- dispatch: the items a solver merges across its clusters --------
    def prediction(self, disc, dofs, dt, elements, fill, ws=None, needs_half=False):
        """:meth:`local_update` of a non-empty batch as items for :meth:`run`,
        filling through ``fill``.  ``dofs`` gives the layout; the items read
        the array :meth:`run` hands them."""
        return [lambda slot, telemetry, dofs: self.local_update(
            disc, dofs, dt, elements, ws=ws, needs_half=needs_half, fill=fill
        )]

    def correction(self, disc, dofs, elements, source, plan, ws=None, halo=None):
        """:meth:`correct` of a non-empty batch as items for :meth:`run`
        (``halo`` payloads are read when the items run)."""
        return [lambda slot, telemetry, dofs: self.correct(
            disc, dofs, elements, source, plan, ws=ws, halo=halo
        )]

    def run(self, items: list, dofs) -> None:
        """Run the items of any number of :meth:`prediction` or
        :meth:`correction` calls, in order, on ``dofs``."""
        for item in items:
            item(0, self.telemetry, dofs)


class _DiscData:
    """Per-discretization derived data of the fast backend.

    The boolean flags record the exact-zero structure of the element
    operators (verified once -- the arrays are assembled analytically, so
    the zeros are exact by construction for the elastic/anelastic wave
    equations; a variant that breaks an assumption falls back to the dense
    contraction).  ``ftilde_flat`` groups the four face projections into one
    ``(B, 4 F)`` operator so the trace projection is a single contraction.
    ``flux`` is a view of the discretization's own flux solvers, never a
    copy: the discretization assembles them in the correction's layout.
    """

    __slots__ = ("star_e_blocks", "star_a_velocity", "coupling_stress",
                 "flux", "ftilde_flat", "kcat_time", "kcat_vol",
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
        # (K, 4, Q, 18) flux solvers [local | neigh] side by side: the
        # elastic rows plus (Q = 15) the anelastic rows all mechanisms share
        self.flux = disc.flux_solvers[:, :, :N_FLUX_ROWS if disc.n_mechanisms else N_ELASTIC]
        ftilde = np.ascontiguousarray(disc.ftilde.transpose(1, 0, 2))
        self.ftilde_flat = ftilde.reshape(ftilde.shape[0], -1)
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
        self.fhat_flat = np.ascontiguousarray(disc.fhat.reshape(-1, disc.fhat.shape[2]))
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


def _contiguous_run(elements, n_elements: int) -> range:
    """An element batch as the unit-step ``range`` of ids it covers.

    Every batch a solver hands a backend is one run of the cluster-ordered
    mesh: a ``slice`` or ``range`` of step 1, or an id array that counts up
    by one (such as ``np.array([0])``).  Anything else raises ``ValueError``.
    """
    if isinstance(elements, slice):
        elements = range(n_elements)[elements]
    elif not isinstance(elements, range):
        ids = np.asarray(elements)
        n = ids.size
        start = int(ids.flat[0]) if n else 0
        # the last id, then (from three ids on) every step
        if ids.ndim == 1 and (n < 2 or (
            int(ids[-1]) == start + n - 1 and (n < 3 or bool(np.all(np.diff(ids) == 1)))
        )):
            elements = range(start, start + n)
    if not (isinstance(elements, range) and elements.step == 1):
        raise ValueError("an element batch must be one contiguous run of element ids")
    return elements


def _class_segments(sorted_classes: np.ndarray) -> list[tuple[int, int, int]]:
    """The ``(class, start, stop)`` runs of an ascending class array."""
    u, first, count = np.unique(sorted_classes, return_index=True, return_counts=True)
    return [(int(c), int(a), int(a + n)) for c, a, n in zip(u, first, count)]


#: bytes of CK derivative stack per ``FastBackend.local_update`` element
#: block: three quarters of this host class's 2 MiB per-core L2, leaving the
#: rest to the block's operators.  Measured, not a setting -- at order 4 a
#: macro cycle is flat from 0.5 to 2 MiB (30-120 elements) and a third
#: slower unblocked
_BLOCK_STACK_BYTES = 3 << 19


#: the public stage methods a block program inlines; an instance that
#: substitutes one (a tracer timing it, a test spy) runs its prediction
#: blocks and its corrections' own traces through them instead
_STAGES = frozenset(
    ("compute_time_derivatives", "time_integrate", "project_local_traces", "volume_kernel")
)
#: what a solver's merged dispatch reaches per batch once one is substituted
_SUBSTITUTABLE = _STAGES | {"local_update", "correct"}


def _view(array: np.ndarray, shape: tuple) -> np.ndarray:
    """``array`` reshaped without a copy: a program keeps the result, and a
    copy would go stale (raises ``ValueError`` if the layout needs one)."""
    return array.reshape(shape, copy=False)


def _run(calls: list) -> None:
    for call, args in calls:
        call(*args)


class _Program:
    """One element block's kernels as straight-line NumPy calls on one
    thread's scratch: every view, stacked operator, Taylor weight and
    output row resolved once.

    ``stages`` are ``(telemetry region or None, calls)``; the DOFs are the
    one operand bound per run -- a prediction copies its block's rows into
    ``load`` (the derivative stack's first entry) before the calls, and
    every program adds ``store`` (a prediction's volume increment, a
    correction's surface terms) to them after.
    """

    __slots__ = ("block", "load", "store", "stages", "calls")

    def __init__(self, block: slice, load, store, stages: list):
        self.block, self.load, self.store, self.stages = block, load, store, stages
        self.calls = [call for _, calls in stages for call in calls]

    def run(self, dofs, telemetry) -> None:
        rows = dofs[self.block]
        if self.load is not None:
            np.copyto(self.load, rows)
        if telemetry.enabled:
            for name, calls in self.stages:
                if name is None:
                    _run(calls)
                else:
                    with telemetry.region(name):
                        _run(calls)
        else:
            for call, args in self.calls:
                call(*args)
        np.add(rows, self.store, out=rows)


class _Keep:
    """The ``fill`` of a fill-less :meth:`FastBackend.local_update`: block
    integrals copied into the batch-sized arrays its caller reads."""

    def __init__(self, start: int, integral, half):
        self.start, self.integral, self.half = start, integral, half

    def calls(self, elements: slice, elastic_integral, elastic_half) -> list:
        rows = slice(elements.start - self.start, elements.stop - self.start)
        pairs = ((self.integral, elastic_integral), (self.half, elastic_half))
        return [(np.copyto, (kept[rows], value)) for kept, value in pairs if value is not None]

    def __call__(self, *args) -> None:
        _run(self.calls(*args))


class _Block:
    """One element block of a dispatch (an item of :meth:`FastBackend.run`):
    its :class:`_Program` on each pool thread's scratch, compiled on the
    thread's first claim and again once that thread's pools have grown.
    ``staged`` runs the block through the public stage methods instead,
    and ``batch`` is ``(method, disc, args, kwargs)``: the ``local_update``
    or ``correct`` call of the block's whole batch, less its DOFs."""

    __slots__ = ("backend", "compile", "staged", "batch", "__weakref__")

    def __init__(self, backend, compile, staged=None, batch=None):
        self.backend, self.compile, self.staged, self.batch = backend, compile, staged, batch

    def __call__(self, slot: int, telemetry, dofs) -> None:
        backend = self.backend
        scratch = backend._thread_scratch[slot]
        if self.staged is not None and backend._staged:
            self.staged(scratch, telemetry, dofs)
            return
        program = scratch.programs.get(self)
        if program is None:
            grown = scratch.generation
            program = self.compile(scratch)
            if scratch.generation != grown:  # its own requests grew a pool
                program = self.compile(scratch)
            scratch.programs[self] = program
        program.run(dofs, telemetry)


class FastBackend(ReferenceBackend):
    """Tolerance-equal execution: stacked operators on cache-sized blocks.

    Keeps the reference's composite ``local_update`` pipeline (run once per
    element block) but drops its operation order: the time and volume
    kernels are one stacked space operator (five batched GEMMs and two
    slab passes on the half of the columns the degree-lowering stiffness
    matrices populate or read), the Taylor integral is a GEMV per element,
    the correction is :meth:`correct`'s fused pass, and any fused axis rides
    as GEMM columns so scalar and fused batches run the same lines.  A
    prediction adds its volume increment to the DOF rows and the correction
    its surface terms: ``(dofs + volume) + surface``, where the reference
    adds ``dofs + ((volume + local) + neighbouring)``.

    Both halves walk a batch in L2-sized element blocks.  A block is
    compiled once per pool thread into a :class:`_Program` (the stage
    methods' NumPy calls with every operand resolved), and :meth:`run`
    hands the blocks of any number of batches -- every cluster due at an
    LTS micro step -- to the pool in one dispatch, each claimed by the next
    free thread.  Every contraction is per element or per face (never a
    GEMM whose row count grows with the block: BLAS picks its kernel by
    it), so an element's update depends neither on the batch or block
    around it, nor on the thread that ran it, nor on the thread count.

    Results are NOT bit-identical to the reference at any precision (and
    the O(1e-15) assembly roundoff in the stiffness matrices' structural
    zeros is dropped); the accuracy contract (convergence order,
    golden-trace tolerances) is owned by :mod:`repro.verification`.
    """

    name = "fast"

    def __init__(self):
        super().__init__()
        #: transient block scratch: one workspace per pool thread, shared by
        #: every batch this backend runs (a batch's cached data and kept
        #: integrals stay in its own workspace)
        self._thread_scratch: list[KernelWorkspace] = [KernelWorkspace()]
        #: the threads' scratch generations when :meth:`_even_out` last ran
        self._evened: tuple = ()
        #: the current dispatch runs its predictions and own traces through
        #: the stage methods (an instance substitutes one of them)
        self._staged = False

    def make_workspace(self) -> KernelWorkspace:
        return KernelWorkspace()

    def scratch_arrays(self) -> list:
        return [pool for ws in self._thread_scratch for pool in ws._pools.values()]

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

    def run(self, items: list, dofs) -> None:
        """One pool dispatch of the items of any number of
        :meth:`prediction` / :meth:`correction` calls on ``dofs``
        (:meth:`_dispatch`).

        An instance that substitutes ``local_update``, ``correct`` or a
        prediction stage method (a tracer timing it by name) sees every
        batch through ``local_update`` / ``correct``, one batch after the
        other, and every prediction block through the stage methods: the
        same arithmetic, unmerged.
        """
        if _SUBSTITUTABLE.isdisjoint(vars(self)):
            self._dispatch(items, dofs)
            return
        for name, disc, args, kwargs in {id(item.batch): item.batch for item in items}.values():
            getattr(self, name)(disc, dofs, *args, **kwargs)

    def _dispatch(self, items: list, dofs) -> None:
        """Each thread of :func:`~repro.kernels.threads.block_pool` (this
        one included) claims the next unclaimed item until none is left; a
        single item runs inline.  An item runs on its thread's scratch and
        records its regions on a branch of this backend's telemetry lane
        (seeded with the open region path), absorbed once every thread is
        done.  The first error stops the claiming and is re-raised after
        every thread has returned; a dispatch that completes leaves every
        thread's scratch as large as the largest (:meth:`_even_out`).
        """
        if not items:
            return
        pool = block_pool() if len(items) > 1 else None
        n_threads = min(len(items), pool.n_threads) if pool is not None else 1
        while len(self._thread_scratch) < n_threads:
            self._thread_scratch.append(KernelWorkspace())
        self._staged = not _STAGES.isdisjoint(vars(self))
        telemetry = self.telemetry
        if n_threads == 1:
            for item in items:
                item(0, telemetry, dofs)
        else:
            branches = [telemetry] + [telemetry.branch() for _ in range(n_threads - 1)]
            try:
                pool.run(items, lambda item, slot: item(slot, branches[slot], dofs))
            finally:
                for branch in branches[1:]:
                    telemetry.absorb(branch)
        self._even_out()

    def _even_out(self) -> None:
        """Grow every pool thread's scratch to the largest pool any thread
        holds under each name.  Which thread claims which block is a race:
        without this, a thread could first draw a run's largest block
        cycles later, and grow its pools (and recompile its programs)
        then."""
        generations = tuple(ws.generation for ws in self._thread_scratch)
        if len(generations) < 2 or generations == self._evened:
            return
        sizes: dict = {}
        for ws in self._thread_scratch:
            for key, pool in ws._pools.items():
                sizes[key] = max(sizes.get(key, 0), pool.size)
        for ws in self._thread_scratch:
            for (name, dtype), size in sizes.items():
                ws.reserve(name, size, dtype)
        self._evened = tuple(ws.generation for ws in self._thread_scratch)

    @staticmethod
    def _bmm_call(matrices, operand, out):
        """Batched ``matrices @ operand`` with trailing fused axes folded
        into the GEMM columns: ``(..., i, j) @ (..., j, B[, f])``.  The fold
        merges the two innermost axes, contiguous at every call site, so
        ``out`` stays a view and ``np.matmul`` writes in place."""
        batch = matrices.ndim - 1
        if operand.ndim > matrices.ndim:
            operand = _view(operand, operand.shape[:batch] + (-1,))
            out = _view(out, out.shape[:batch] + (-1,))
        return np.matmul, (matrices, operand, out)

    @staticmethod
    def _basis_call(x, matrix, out):
        """Right-multiply by an operator with the fused axis as GEMM columns.

        Scalar batches run ``x @ matrix`` (a ``(V, B) @ (B, D)`` GEMM per
        element); fused ones ``matrix.T @ x``, which broadcasts to
        ``(D, B) @ (E, V, B, F) -> (E, V, D, F)``.
        """
        if x.ndim == 3:
            return np.matmul, (x, matrix, out)
        return np.matmul, (matrix.T, x, out)

    # ------------------------------------------------------------------
    # time + volume kernels: one stacked space operator
    # ------------------------------------------------------------------
    def _stacked_ops(self, disc, elements, ws):
        """Stacked star/coupling operators of a batch (cached per batch run).

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

        if ws is None:  # build-through when no workspace is kept
            return data, build()
        return data, ws.cached("stacked_ops", (elements.start, elements.stop), build)

    def _space_operator_calls(self, disc, kcat, x, y, elements, ws) -> list:
        """``y = L(x)``, the spatial operator behind both element kernels,
        as calls.  With ``tmp_c = x_e @ K_c`` for the three blocks of
        ``kcat``::

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
        calls = [self._basis_call(x[:, :N_ELASTIC, :n_in], kcat, tmp)]
        tmp = _view(tmp, (E, N_ELASTIC, 3, ncols))
        # the star products land in the leading columns of a slab laid out
        # like ``y`` whose tail columns are never written, i.e. stay zero
        # from allocation (the scratch name pins the layout)
        star = self._scratch(ws, ("op_star", n_vars, width, ncols), (E, n_vars, width), dtype)
        for matrix, variables, rows in ops["stages"]:
            calls.append(self._bmm_call(
                matrix, _view(tmp[:, variables], (E, -1, ncols)), star[:, rows, :ncols]
            ))

        x = _view(x, (E, n_vars, width))
        y = _view(y, (E, n_vars, width))
        # reactive part: -omega_l * x_l on the memory rows (zero on the
        # elastic ones), then the coupling GEMM over the rows it feeds
        calls.append((np.multiply, (x, data.relaxation(width), y)))
        if n_vars > N_ELASTIC:
            ccat = ops["ccat"]
            calls.append(self._bmm_call(ccat, x[:, N_ELASTIC:], y[:, : ccat.shape[1]]))
        calls.append((np.add, (y, star, y)))
        return calls

    def _derivative_calls(self, disc, stack, elements, ws) -> list:
        """The CK recursion ``stack[d] = L(stack[d - 1])`` as calls."""
        kcat = self._disc_data(disc).kcat_time
        return [
            call for d in range(1, disc.order)
            for call in self._space_operator_calls(disc, kcat, stack[d - 1], stack[d], elements, ws)
        ]

    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        """CK derivatives as one contiguous ``(O, E, N_q, B[, f])`` stack
        (indexable per derivative like the reference's list)."""
        batch = dofs[elements]
        stack = self._scratch(ws, "ck_stack", (disc.order,) + batch.shape, dofs.dtype)
        stack[0] = batch
        _run(self._derivative_calls(disc, stack, elements, ws))
        return stack

    @staticmethod
    def _elastic_rows(derivatives):
        return derivatives[:, :, :N_ELASTIC]

    def _integral_calls(self, stack, t_start, t_end, ws, key):
        """``(calls, result)`` of a Taylor integration over ``[t_start,
        t_end]``: one ``weights @ derivatives`` product per element, so
        row-sliced stacks need no copy."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        order, E = stack.shape[:2]
        weights = np.array(
            [(t_end ** (d + 1) - t_start ** (d + 1)) / math.factorial(d + 1) for d in range(order)],
            dtype=stack.dtype,
        )
        result = self._scratch(ws, key, stack.shape[1:], stack.dtype)
        operand = _view(stack.swapaxes(0, 1), (E, order, -1))
        return [(np.matmul, (weights, operand, _view(result, (E, -1))))], result

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        """Taylor integration over ``[t_start, t_end]`` (one GEMV per element)."""
        stack = derivatives if isinstance(derivatives, np.ndarray) else np.stack(derivatives)
        calls, result = self._integral_calls(stack, t_start, t_end, ws, key)
        _run(calls)
        return result

    def _volume_calls(self, disc, time_integrated, elements, ws, out):
        """``(calls, out)`` of the volume kernel into ``out`` (C-contiguous:
        the operator reshapes it; scratch when ``None``)."""
        if out is None:
            out = self._scratch(ws, "vol_out", time_integrated.shape, time_integrated.dtype)
        kcat = self._disc_data(disc).kcat_vol
        return self._space_operator_calls(disc, kcat, time_integrated, out, elements, ws), out

    def volume_kernel(self, disc, time_integrated, elements, ws=None, out=None):
        calls, out = self._volume_calls(disc, time_integrated, elements, ws, out)
        _run(calls)
        return out

    def _apply_volume(self, disc, dofs, time_integrated, elements, rows: slice, ws) -> None:
        """The volume increment, added to the DOF rows right away."""
        increment = self.volume_kernel(disc, time_integrated, elements, ws=ws)
        dofs[rows] += increment

    # ------------------------------------------------------------------
    # cache-blocked local update
    # ------------------------------------------------------------------
    @staticmethod
    def _block_plan(disc, dofs, batch: range) -> list[tuple[slice, slice]]:
        """``[(rows, block_elements), ...]``: the run cut into slices whose
        derivative stack fits ``_BLOCK_STACK_BYTES``."""
        per_element = disc.order * math.prod(dofs.shape[1:]) * dofs.itemsize
        size = max(1, _BLOCK_STACK_BYTES // per_element)
        first, n = batch.start, len(batch)
        return [
            (slice(i, min(i + size, n)), slice(first + i, first + min(i + size, n)))
            for i in range(0, n, size)
        ]

    def local_update(self, disc, dofs, dt, elements, ws=None, needs_half=False, fill=None):
        """The shared pipeline, one L2-sized element block at a time
        (:meth:`prediction`, then :meth:`run`): each block adds its volume
        increment to its DOF rows from block scratch, and only the
        integrals a fill-less caller reads land in batch-sized storage.
        With ``ws`` the blocks are kept for the next call with the same
        outputs (a GTS step, a one-element batch compile once).  ``fill``
        may run on several pool threads at once, on disjoint blocks."""
        batch = _contiguous_run(elements, len(dofs))
        integral = half = None
        if fill is None:  # the caller reads the integrals: keep them batch-sized
            shape = (len(batch), N_ELASTIC) + dofs.shape[2:]
            integral = self._scratch(ws, "lu_integral", shape, dofs.dtype)
            half = self._scratch(ws, "lu_half", shape, dofs.dtype) if needs_half else None

        def build():
            keep = _Keep(batch.start, integral, half) if fill is None else fill
            return self.prediction(disc, dofs, dt, batch, keep, ws, needs_half)

        key = (batch.start, batch.stop, dofs.shape[1:], dofs.dtype, dt, needs_half,
               *map(id, (disc, fill, integral, half)))
        self._dispatch(build() if ws is None else ws.latest("prediction", key, build), dofs)
        return integral, half

    def prediction(self, disc, dofs, dt, elements, fill, ws=None, needs_half=False):
        """One :class:`_Block` item per element block of a batch's
        :meth:`local_update`, filling through ``fill``.  ``dofs`` gives the
        layout (the items read the array :meth:`run` hands them)."""
        batch = _contiguous_run(elements, len(dofs))
        # what every block only reads, built here rather than on a pool thread
        self._disc_data(disc).relaxation(math.prod(dofs.shape[2:]))
        whole = ("local_update", disc, (dt, batch), dict(ws=ws, needs_half=needs_half, fill=fill))
        items = []
        for _, block in self._block_plan(disc, dofs, batch):
            if ws is not None:
                self._stacked_ops(disc, block, ws)
            args = (disc, dt, block, ws, needs_half, fill)
            compiler = partial(self._compile_prediction, dofs.shape, dofs.dtype, *args)
            items.append(_Block(self, compiler, partial(self._staged_prediction, *args), whole))
        return items

    def _compile_prediction(self, shape, dtype, disc, dt, block, ws, needs_half, fill, scratch):
        """A block's :meth:`_predict` pipeline as a program on ``scratch``."""
        ws = None if ws is None else ws.on(scratch)
        stack = self._scratch(ws, "ck_stack", (disc.order, block.stop - block.start) + shape[1:],
                              dtype)
        derivatives = self._derivative_calls(disc, stack, block, ws)
        integrate, integral = self._integral_calls(stack, 0.0, dt, ws, "local_ti")
        half = None
        if needs_half:
            calls, half = self._integral_calls(
                self._elastic_rows(stack), 0.0, 0.5 * dt, ws, "local_half"
            )
            integrate += calls
        volume, increment = self._volume_calls(disc, integral, block, ws, None)
        return _Program(block, stack[0], increment, [
            ("kernel.ck", derivatives), ("kernel.integrate", integrate),
            ("kernel.volume", volume), (None, fill.calls(block, integral[:, :N_ELASTIC], half)),
        ])

    def _staged_prediction(self, disc, dt, block, ws, needs_half, fill, scratch, telemetry, dofs):
        """A block through the public stage methods (:meth:`_predict`)."""
        ws = None if ws is None else ws.on(scratch)
        self._predict(telemetry, disc, dofs, dt, block, ws, needs_half, fill)

    # ------------------------------------------------------------------
    # surface half: the fused correction, own traces first
    # ------------------------------------------------------------------
    def _trace_calls(self, disc, time_integrated_elastic, ws, out):
        """``(calls, out)`` of the trace projection: one grouped ``(B, 4 F)``
        contraction, then one regrouping copy into ``out``."""
        te, F = time_integrated_elastic, disc.n_face_basis
        E, fused = te.shape[0], te.shape[3:]
        grouped = self._scratch(ws, "traces_grouped", (E, N_ELASTIC, 4 * F) + fused, te.dtype)
        if out is None:
            out = self._scratch(ws, "traces", (E, 4, N_ELASTIC, F) + fused, te.dtype)
        # regroup (E, 9, (i, F)) -> (E, 4, 9, F): one contiguous copy into
        # the public layout (the correction's per-face operand rows)
        split = _view(grouped, (E, N_ELASTIC, 4, F) + fused)
        return [
            self._basis_call(te, self._disc_data(disc).ftilde_flat, grouped),
            (np.copyto, (out, np.moveaxis(split, 2, 1))),
        ], out

    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None, out=None):
        """Trace projection as one grouped ``(B, 4 F)`` contraction."""
        calls, out = self._trace_calls(disc, time_integrated_elastic, ws, out)
        _run(calls)
        return out

    def _own_traces(self, calls, disc, te, block, ws, out) -> None:
        """A correction block's own traces: its compiled ``calls``, or the
        public stage method while an instance substitutes one."""
        if self._staged:
            self.project_local_traces(disc, te, block, ws=ws, out=out)
        else:
            _run(calls)

    def neighbor_plan(self, disc, dofs, elements, rows):
        """``[(rows, block, source_rows, segments, operand_rows), ...]`` per
        ``_block_plan`` block: the interior faces' source rows grouped by
        ``F_bar`` class, the ``(class, start, stop)`` runs of that grouping,
        and each face's two rows of the merged operand (own trace, neighbour
        coefficients) in ``[grouped projections | own traces]`` -- a boundary
        face's neighbour half is its own trace (the ghost state is folded into
        the flux solver)."""
        batch = _contiguous_run(elements, len(dofs))
        classes = disc.neighbor_flux_index[batch.start : batch.stop]
        plan = []
        for block_rows, block in self._block_plan(disc, dofs, batch):
            face_class = classes[block_rows].ravel()
            interior = np.flatnonzero(face_class >= 0)
            interior = interior[np.argsort(face_class[interior], kind="stable")]
            operand_rows = np.repeat(len(interior) + np.arange(len(face_class)), 2).reshape(-1, 2)
            operand_rows[interior, 1] = np.arange(len(interior))
            plan.append((
                block_rows, block, np.ascontiguousarray(rows[block_rows].ravel()[interior]),
                _class_segments(face_class[interior]), operand_rows.ravel(),
            ))
        return plan

    def face_plan(self, rows, classes):
        """``(rows, segments, inverse)``: the rows grouped by ``F_bar``
        class, the ``(class, start, stop)`` runs of that grouping, and where
        each face of the requested order sits in it."""
        order = np.argsort(classes, kind="stable")
        return (
            np.ascontiguousarray(rows[order]), _class_segments(classes[order]),
            np.argsort(order),
        )

    def project_faces(self, disc, source, plan, ws=None):
        """One GEMM per face, grouped by class, then one reordering copy."""
        rows, segments, inverse = plan
        shape = (len(rows), N_ELASTIC, disc.n_face_basis) + source.shape[3:]
        grouped = self._scratch(ws, "face_grouped", shape, source.dtype)
        _run(self._class_calls(disc, source, rows, segments, grouped, ws, "face_gather"))
        out = self._scratch(ws, "face_payloads", shape, source.dtype)
        np.take(grouped, inverse, axis=0, out=out, mode="clip")
        return out

    def _class_calls(self, disc, source, rows, segments, out, ws, name) -> list:
        """``out[a:b] = source[rows[a:b]] @ F_bar[u]`` for every class run
        ``(u, a, b)``: a gather into ``name`` scratch, then one ``(9, B) @
        (B, F)`` GEMM per face (the fused axis as GEMM columns).  Never one
        ``(n_u 9, B)`` GEMM per class: BLAS picks its kernel by the row
        count, so a face's bits would depend on how many faces share its
        block."""
        fbar = disc.neighbor_flux_matrices
        gathered = self._scratch(ws, name, (len(rows),) + source.shape[1:], source.dtype)
        # ``take`` in clip mode: the rows are valid by construction, and
        # "raise" mode buffers the output
        calls = [(source.take, (rows, 0, gathered, "clip"))]
        return calls + [self._basis_call(gathered[a:b], fbar[u], out[a:b]) for u, a, b in segments]

    def correct(self, disc, dofs, elements, source, plan, ws=None, halo=None):
        """The fused correction (:meth:`correction`, then :meth:`run`); with
        ``ws`` the blocks are kept for the next call on the same arrays."""
        def build():
            return self.correction(disc, dofs, elements, source, plan, ws, halo)

        key = (dofs.shape[1:], dofs.dtype) + tuple(map(id, (disc, source, plan) + (halo or ())))
        self._dispatch(build() if ws is None else ws.latest("correction", key, build), dofs)

    def correction(self, disc, dofs, elements, source, plan, ws=None, halo=None):
        """One :class:`_Block` item per block of ``plan``: the fused
        correction on block-sized scratch -- the own traces from the block's
        ``source`` rows, one GEMM per face from the neighbours' rows grouped
        by ``F_bar`` class (halo payloads overlaid, read when the items
        run), one flux solve of ``[flux_local | flux_neigh]`` against ``[own
        traces | neighbour coefficients]``, one back-projection and omega
        scaling, added to the DOFs."""
        data = self._disc_data(disc)
        whole = ("correct", disc, (elements, source, plan), dict(ws=ws, halo=halo))
        return [
            _Block(self, partial(
                self._compile_correction, disc, data, dofs.dtype, dofs.shape[3:], entry,
                source, ws, halo,
            ), batch=whole)
            for entry in plan
        ]

    def _compile_correction(
        self, disc, data, dtype, fused, entry, source, ws, halo, scratch
    ) -> _Program:
        ws = None if ws is None else ws.on(scratch)
        rows, block, source_rows, segments, operand_rows = entry
        n_basis, n_face_basis = disc.n_basis, disc.n_face_basis
        n_rows, face = data.flux.shape[2], (N_ELASTIC, n_face_basis) + fused
        E, n_int = rows.stop - rows.start, len(source_rows)

        def scratch_of(name, shape):
            return self._scratch(ws, name, shape + fused, dtype)

        proj = scratch_of("corr_proj", (n_int + 4 * E,) + face[:2])
        # the own traces, projected from the block's own source rows (B1)
        own = _view(proj[n_int:], (E, 4) + face)
        te = source[block]
        traces = [(self._own_traces, (self._trace_calls(disc, te, ws, own)[0],
                                      disc, te, block, ws, own))]
        calls = self._class_calls(disc, source, source_rows, segments, proj, ws, "corr_gather")
        operand = scratch_of("corr_operand", (E, 4, 2 * N_ELASTIC, n_face_basis))
        calls.append((proj.take, (operand_rows, 0, _view(operand, (8 * E,) + face), "clip")))
        if halo is not None:  # the block's run of the ascending face ids
            faces, payloads = halo
            lo, hi = np.searchsorted(faces, (4 * rows.start, 4 * rows.stop))
            if hi > lo:
                target = _view(operand, (4 * E, 2 * N_ELASTIC) + face[1:])[:, N_ELASTIC:]
                calls.append((target.__setitem__, (faces[lo:hi] - 4 * rows.start, payloads[lo:hi])))
        surface = scratch_of("corr_surface", (E, disc.n_vars, n_basis))
        calls += self._flux_calls(
            data, data.flux[block], operand, surface[:, :n_rows], ws, "corr_solved"
        )
        # mechanism l's rows: omega_l times the shared anelastic rows,
        # which sit in mechanism 0's (scaled last, in place)
        common = surface[:, N_ELASTIC:n_rows]
        for l in range(disc.n_mechanisms - 1, -1, -1):
            calls.append((np.multiply, (common, disc.omegas[l], surface[:, N_ELASTIC + 6 * l :][:, :6])))
        return _Program(block, None, surface, [
            ("kernel.trace", traces), ("kernel.surface_neighbor", calls),
        ])

    def _flux_calls(self, data, flux, face_coeffs, out, ws, name) -> list:
        """``out[e, v] = sum_i (flux[e, i] @ face_coeffs[e, i])[v] @
        fhat[i]`` as calls: the four flux solves are one ``(E, 4)``-batched
        GEMM written
        through a transposed view into ``(E, V, 4, F[, f])``-ordered
        scratch, so the contraction axes ``(face, face_basis)`` are adjacent
        and the four back-projections are one ``(4 F, B)`` operator
        application."""
        E, _, n_rows = flux.shape[:3]
        tail = face_coeffs.shape[3:]  # (F[, f])
        solved = self._scratch(ws, name, (E, n_rows, 4) + tail, face_coeffs.dtype)
        return [
            self._bmm_call(flux, face_coeffs, solved.swapaxes(1, 2)),
            self._basis_call(
                _view(solved, (E, n_rows, 4 * tail[0]) + tail[1:]), data.fhat_flat, out
            ),
        ]
