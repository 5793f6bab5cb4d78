"""The three time buffers of the next-generation LTS scheme (Sec. V-B).

For every element ``k`` three additional ``9 x B`` data structures hold the
elastic time-integrated information face-neighbouring elements need:

* ``B1_k`` -- integral over the element's full current time step, used by
  neighbours with the *same* time step and by the element's own correction,
  which projects its own face traces from it (nothing overwrites ``B1_k``
  between the element's prediction and its correction);
* ``B2_k`` -- integral over the first half of the step, used by neighbours
  with a *smaller* (half) time step;
* ``B3_k`` -- the pairwise accumulated integral (eq. 17's even/odd rule),
  used by neighbours with a *larger* (double) time step.

Unlike the buffer/derivative scheme of Breuer et al. 2016 (ref. [15]) no time
derivatives are ever communicated, which is what makes the scheme efficient
for the anelastic wave equations where the derivatives carry no exploitable
zero blocks.

Storage layout: the buffers live in one flat ``(R, 9, B[, f])`` row store,
``[B1 | B2 | B3 | B1 - B2 | ghost]``, holding only rows someone reads
(:class:`BufferLayout`): ``B1`` a row per element, ``B2`` and the
precomputed second-half integral ``B1 - B2`` rows only for the elements
with a face neighbour in the next-smaller cluster (their only readers),
``B3`` rows only for the elements with one in the next-larger cluster.
Each block holds its elements' rows in element order, so the stored rows
of any run of elements are one run of store rows.  The trailing all-zero
ghost row is what boundary faces gather.  Relation code and neighbour id
combine into one flat row index per face, so a correction reads its
neighbours straight from the flat store: the rows are static per cluster
and step parity (:meth:`LtsBuffers.face_rows`), and a kernel backend
gathers them per element block.  The second-half buffer is filled from the
same ``full``/``half`` integrals a reader would subtract, so the gathered
values are bit-identical to the three-buffer formulation.
"""

from __future__ import annotations

import numpy as np

from ..kernels.discretization import Discretization, N_ELASTIC

__all__ = ["B1", "B2", "B3", "B1_MINUS_B2", "GHOST", "BufferFill", "BufferLayout", "LtsBuffers"]

#: relation codes of a face neighbour's cluster w.r.t. the element's cluster
SAME, SMALLER, LARGER, BOUNDARY = 0, -1, 1, -2

#: the store's blocks: B1, B2, B3, the precomputed second-half integral
#: B1 - B2, then the one ghost row.  B1 leads with a row per element, so
#: the store's rows of a batch are its own full-step integral -- what a
#: backend's correction projects the own traces from
B1, B2, B3, B1_MINUS_B2, GHOST = 0, 1, 2, 3, 4


class BufferLayout:
    """Where each element's buffer rows sit in the flat store.

    ``stored[b, k]`` says whether block ``b`` (``B1`` .. ``B1_MINUS_B2``)
    holds a row for element ``k`` (``B1`` holds one for every element).
    Each block holds its elements' rows in element order, from
    ``offsets[b]`` on, and ``offsets[GHOST]`` is the ghost row, so the
    stored rows of a run of elements are one run of store rows
    (:meth:`run_rows`).
    """

    def __init__(self, stored):
        stored = np.array(stored, dtype=bool)
        if not stored[B1].all():
            raise ValueError("B1 holds a row per element: a correction reads its own traces there")
        self.stored = stored
        #: ``before[b, k]``: the rows block ``b`` stores for elements ``< k``
        self._before = np.zeros((4, stored.shape[1] + 1), dtype=np.int64)
        np.cumsum(stored, axis=1, out=self._before[:, 1:])
        self.offsets = np.concatenate([[0], np.cumsum(self._before[:, -1])])
        #: row of element ``k`` in block ``b``, ``-1`` where it has none
        self._row = np.where(stored, self.offsets[:4, None] + self._before[:, :-1], -1)

    @classmethod
    def for_neighbors(cls, cluster_ids, neighbor_clusters) -> "BufferLayout":
        """The per-element rule: ``B2`` and ``B1 - B2`` rows where a face
        neighbour is in a smaller cluster, ``B3`` rows where one is in a
        larger cluster.  ``neighbor_clusters`` ``(K, 4)`` holds each face
        neighbour's cluster, ``-1`` on a boundary face; a rank's subdomain
        passes its remote neighbours' clusters too, so it keeps every row a
        remote reader needs."""
        own = np.asarray(cluster_ids)[:, None]
        neighbor_clusters = np.asarray(neighbor_clusters)
        half = ((neighbor_clusters >= 0) & (neighbor_clusters < own)).any(axis=1)
        accumulated = (neighbor_clusters > own).any(axis=1)
        return cls([np.ones_like(half), half, accumulated, half])

    @classmethod
    def dense(cls, n_elements: int) -> "BufferLayout":
        """Every buffer row of every element (one cluster read all ways)."""
        return cls(np.ones((4, n_elements), dtype=bool))

    @property
    def n_elements(self) -> int:
        return self.stored.shape[1]

    @property
    def n_rows(self) -> int:
        """Rows of the store, the ghost row included."""
        return int(self.offsets[GHOST]) + 1

    def rows(self, neighbors, relations, step_index) -> np.ndarray:
        """Store rows holding each face neighbour's elastic time-integrated
        DOFs over the reading element's time interval (see
        :meth:`LtsBuffers.face_rows`); ``step_index`` is the reading
        element's local step counter, a scalar or an array broadcasting
        against ``relations``.  Raises ``ValueError`` if a face would read
        a row this layout does not store."""
        # relation -> block: SAME reads B1, SMALLER reads B3 (the two
        # accumulated sub-steps), LARGER reads B2 on an even local step and
        # the precomputed B1 - B2 on an odd one; boundary faces read the
        # ghost row
        relations = np.asarray(relations)
        larger = np.where(np.asarray(step_index) % 2 == 0, B2, B1_MINUS_B2)
        block = np.where(relations == SMALLER, B3, B1)
        block = np.where(relations == LARGER, larger, block)
        boundary = relations == BOUNDARY
        rows = self._row[block, np.where(boundary, 0, neighbors)]
        if np.any((rows < 0) & ~boundary):
            raise ValueError("a face reads a buffer row its neighbour does not store")
        return np.where(boundary, self.offsets[GHOST], rows)

    def elements(self, block: int) -> np.ndarray:
        """The elements block ``block`` stores rows for, in row order."""
        return np.flatnonzero(self.stored[block])

    def run_rows(self, block: int, elements: slice) -> tuple[slice, np.ndarray | None]:
        """``(rows, index)`` of a run of elements in block ``block``: the
        run of store rows holding the stored ones, and their positions in
        the run (``None`` when every element of the run is stored)."""
        run = range(self.n_elements)[elements]
        before = self._before[block]
        base = int(self.offsets[block])
        rows = slice(base + int(before[run.start]), base + int(before[run.stop]))
        if rows.stop - rows.start == len(run):
            return rows, None
        return rows, np.flatnonzero(self.stored[block, run.start : run.stop])


class LtsBuffers:
    """Buffer storage and the buffer update/read rules of the LTS scheme.

    ``layout`` decides which rows are stored (the default: every row of
    every buffer); :attr:`b2`, :attr:`b3` and :attr:`b1_minus_b2` read as
    zero on rows it leaves out.  The buffers are no state of a run: every
    cluster's prediction refills its rows before any reader, so a macro
    cycle reads only what the same cycle wrote.
    """

    def __init__(self, disc: Discretization, n_fused: int = 0, dtype=None, layout=None):
        if dtype is None:
            dtype = getattr(disc, "dtype", np.float64)
        if layout is None:
            layout = BufferLayout.dense(disc.n_elements)
        if layout.n_elements != disc.n_elements:
            raise ValueError("buffer layout does not match the discretization")
        shape: tuple[int, ...] = (N_ELASTIC, disc.n_basis)
        if n_fused > 0:
            shape = shape + (n_fused,)
        self.layout = layout
        self._n_elements = disc.n_elements
        #: the last row is the all-zero ghost row boundary faces gather
        #: from; fill() never writes it
        self._flat = np.zeros((layout.n_rows,) + shape, dtype=dtype)

    # ------------------------------------------------------------------
    # the read-only three-buffer view: only ``fill`` writes the store, so
    # the precomputed ``B1 - B2`` rows never go stale
    # ------------------------------------------------------------------
    def _read(self, block: int) -> np.ndarray:
        """Block ``block`` as ``(n_elements, 9, B[, f])``: a view for
        ``B1``, else a copy that is zero on the rows the layout leaves out."""
        if block == B1:
            view = self._flat[: self._n_elements]
        else:
            view = np.zeros((self._n_elements,) + self._flat.shape[1:], dtype=self._flat.dtype)
            offsets = self.layout.offsets
            view[self.layout.elements(block)] = self._flat[offsets[block] : offsets[block + 1]]
        view.flags.writeable = False
        return view

    @property
    def b1(self) -> np.ndarray:
        return self._read(B1)

    @property
    def b2(self) -> np.ndarray:
        return self._read(B2)

    @property
    def b3(self) -> np.ndarray:
        return self._read(B3)

    @property
    def b1_minus_b2(self) -> np.ndarray:
        """The stored second-half integral, bitwise ``b1 - b2`` where stored."""
        return self._read(B1_MINUS_B2)

    @property
    def store(self) -> np.ndarray:
        """The flat ``(R, 9, B[, f])`` row store that :meth:`face_rows`
        indexes (read-only); its rows ``[0, n_elements)`` are ``B1``, which
        a backend's ``correct`` reads the own traces from."""
        view = self._flat.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    def fill(
        self,
        elements: slice,
        elastic_integral: np.ndarray,
        elastic_half: np.ndarray | None,
        step_index: int,
    ) -> None:
        """Fill the buffers of ``elements`` after their time prediction (eq. 17).

        Parameters
        ----------
        elements:
            The run of element ids that predicted (a cluster, or a row range
            of one): each buffer's rows of it are one run of store rows.
        elastic_integral:
            The elastic ``(E, 9, B[, f])`` rows of the prediction's
            time-integrated DOFs over the elements' full step -- what a
            backend's ``local_update`` hands its ``fill`` per element block.
        elastic_half:
            The same over the first half of the step (with ``needs_half``),
            or ``None`` to leave ``B2`` untouched (only a smaller-step
            neighbour reads it, and it is not stored where there is none).
        step_index:
            The elements' local step counter ``n_k`` (before the step), which
            controls the even/odd accumulation of ``B3`` (skipped where no
            larger-step neighbour reads it).
        """
        for call, args in self.fill_calls(elements, elastic_integral, elastic_half, step_index):
            call(*args)

    def fill_calls(self, elements: slice, elastic_integral, elastic_half, step_index: int) -> list:
        """:meth:`fill` as ``(ufunc, operands)`` calls on views of the store,
        to run in order: what a kernel backend compiles into a block's
        program.  A block whose elements all store a buffer's rows writes
        them through a slice; otherwise its stored subset is gathered with
        a static index (``B3`` and ``B1 - B2`` from the just written,
        contiguous ``B1`` rows)."""
        flat, layout = self._flat, self.layout
        own, _ = layout.run_rows(B1, elements)
        calls = [(np.copyto, (flat[own], elastic_integral))]
        full = flat[own]
        half, index = layout.run_rows(B2, elements)
        if elastic_half is not None and half.stop > half.start:
            # the second-half integral a smaller-step neighbour's odd
            # sub-step reads; ``full - half`` here equals the read-time
            # ``b1 - b2`` bitwise (same stored operands, same subtraction)
            second = flat[layout.run_rows(B1_MINUS_B2, elements)[0]]
            if index is None:
                calls.append((np.copyto, (flat[half], elastic_half)))
                calls.append((np.subtract, (full, elastic_half, second)))
            else:
                calls.append((elastic_half.take, (index, 0, flat[half], "clip")))
                calls.append((full.take, (index, 0, second, "clip")))
                calls.append((np.subtract, (second, flat[half], second)))
        accumulated, index = layout.run_rows(B3, elements)
        if accumulated.stop > accumulated.start:
            b3, even = flat[accumulated], step_index % 2 == 0
            if index is None:
                calls.append((np.copyto, (b3, full)) if even else (np.add, (b3, full, b3)))
            elif even:
                calls.append((full.take, (index, 0, b3, "clip")))
            else:
                gathered = np.empty_like(b3)
                calls += [(full.take, (index, 0, gathered, "clip")), (np.add, (b3, gathered, b3))]
        return calls

    def face_rows(
        self,
        neighbors: np.ndarray,
        relations: np.ndarray,
        step_index: int,
    ) -> np.ndarray:
        """``(E, 4)`` rows of :attr:`store` holding each face neighbour's
        elastic time-integrated DOFs over the batch's time interval.

        Parameters
        ----------
        neighbors:
            ``(E, 4)`` face-neighbour ids of the batch (cluster ``l``) that
            completes a step.
        relations:
            ``(E, 4)`` cluster relation per face: ``SAME``, ``SMALLER``
            (neighbour advances with half the step), ``LARGER`` (double the
            step) or ``BOUNDARY``.
        step_index:
            The batch's local step counter ``n_k`` (before the step); for a
            ``LARGER`` neighbour only its parity matters: it decides whether
            the element's interval is the first (even) or second (odd) half
            of the neighbour's step.
        """
        return self.layout.rows(neighbors, relations, step_index)

    def neighbor_data(
        self,
        neighbors: np.ndarray,
        relations: np.ndarray,
        step_index: int,
    ) -> np.ndarray:
        """Gather the neighbour time-integrated data for a batch's correction
        (arguments as for :meth:`face_rows`).

        Returns
        -------
        numpy.ndarray
            ``(E, 4, 9, B[, n_fused])`` neighbour elastic time-integrated DOFs
            over the batch's time interval; boundary faces are zero-filled
            (they are replaced by ghost data downstream).
        """
        return self._flat[self.face_rows(neighbors, relations, step_index)]


class BufferFill:
    """The ``fill`` a prediction of one step parity hands its backend:
    called per element block (``fill(block, integral, half)``) it runs
    :meth:`LtsBuffers.fill`, and :meth:`calls` gives the same writes for a
    block program."""

    __slots__ = ("buffers", "parity")

    def __init__(self, buffers: LtsBuffers, parity: int):
        self.buffers, self.parity = buffers, parity

    def __call__(self, elements: slice, elastic_integral, elastic_half) -> None:
        self.buffers.fill(elements, elastic_integral, elastic_half, self.parity)

    def calls(self, elements: slice, elastic_integral, elastic_half) -> list:
        return self.buffers.fill_calls(elements, elastic_integral, elastic_half, self.parity)
