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
precomputed second-half integral ``B1 - B2`` rows only for the clusters
whose next-smaller cluster is non-empty (their only readers), ``B3`` rows
only for the clusters whose next-larger cluster is non-empty.  The trailing
all-zero ghost row is what boundary faces gather.  Relation code and
neighbour id combine into one flat row index per face, so a correction
reads its neighbours straight from the flat store: the rows are static per
cluster and step parity (:meth:`LtsBuffers.face_rows`), and a kernel
backend gathers them per element block.  The second-half buffer is filled
from the same ``full``/``half`` integrals a reader would subtract, so the
gathered values are bit-identical to the three-buffer formulation.
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
    """Where the buffer rows of the elements of a cluster-ordered mesh sit
    in the flat store.

    ``stored[b, l]`` says whether block ``b`` (``B1`` .. ``B1_MINUS_B2``)
    holds rows for cluster ``l``; each block holds its clusters' elements in
    element order, from ``offsets[b]`` on, and ``offsets[GHOST]`` is the
    ghost row.  ``cluster_ids`` must be ascending (every cluster one run of
    element ids).
    """

    def __init__(self, cluster_ids, stored):
        cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
        stored = np.array(stored, dtype=bool)
        if len(cluster_ids) and (
            np.any(np.diff(cluster_ids) < 0) or cluster_ids[-1] >= stored.shape[1]
        ):
            raise ValueError("buffer layout needs ascending cluster ids below the cluster count")
        if not stored[B1].all():
            raise ValueError("B1 holds a row per element: a correction reads its own traces there")
        self.cluster_ids, self.stored = cluster_ids, stored
        sizes = stored * np.bincount(cluster_ids, minlength=stored.shape[1])  # (4, n_clusters)
        first = np.cumsum(sizes[B1]) - sizes[B1]  # each cluster's first element id
        self.offsets = np.concatenate([[0], np.cumsum(sizes.sum(axis=1))])
        #: row of element ``k`` of cluster ``l`` in block ``b``: ``base[b, l] + k``
        self._base = self.offsets[:4, None] + np.cumsum(sizes, axis=1) - sizes - first

    @classmethod
    def for_clusters(cls, cluster_ids, counts) -> "BufferLayout":
        """The per-cluster rule: ``B2`` and ``B1 - B2`` rows where the
        next-smaller cluster has elements, ``B3`` rows where the next-larger
        one has.  ``counts`` are the per-cluster element counts of the whole
        mesh (a rank's subdomain passes the global ones, so it keeps every
        row a remote reader needs)."""
        present = np.asarray(counts) > 0
        stored = np.ones((4, len(present)), dtype=bool)
        stored[[B2, B1_MINUS_B2], 0] = False
        stored[[B2, B1_MINUS_B2], 1:] = present[:-1]
        stored[B3, -1] = False
        stored[B3, :-1] = present[1:]
        return cls(cluster_ids, stored)

    @classmethod
    def dense(cls, n_elements: int) -> "BufferLayout":
        """Every buffer row of every element (one cluster read all ways)."""
        return cls(np.zeros(n_elements, dtype=np.int64), np.ones((4, 1), dtype=bool))

    @property
    def n_elements(self) -> int:
        return len(self.cluster_ids)

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
        ids = np.where(boundary, 0, neighbors)
        clusters = self.cluster_ids[ids]
        if not np.all(self.stored[block, clusters] | boundary):
            raise ValueError("a face reads buffer rows its neighbour's cluster does not store")
        return np.where(boundary, self.offsets[GHOST], self._base[block, clusters] + ids)

    def block_rows(self, block: int, elements: slice) -> slice | None:
        """The store rows of block ``block`` for a run of elements of one
        cluster, or ``None`` if that cluster's rows are not stored."""
        run = range(self.n_elements)[elements]
        if not run:
            return slice(0, 0)
        cluster = self.cluster_ids[run.start]
        if self.cluster_ids[run.stop - 1] != cluster:
            raise ValueError("a buffer row run must lie in one cluster")
        if not self.stored[block, cluster]:
            return None
        base = int(self._base[block, cluster])
        return slice(base + run.start, base + run.stop)

    def runs(self, block: int) -> list[tuple[slice, slice]]:
        """``[(elements, store rows), ...]``: the element runs block
        ``block`` stores, one per non-empty stored cluster."""
        bounds = np.searchsorted(self.cluster_ids, np.arange(self.stored.shape[1] + 1))
        return [
            (slice(int(a), int(b)), self.block_rows(block, slice(int(a), int(b))))
            for l, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
            if b > a and self.stored[block, l]
        ]


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
            for elements, rows in self.layout.runs(block):
                view[elements] = self._flat[rows]
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
            of one): the buffer rows are written through slice views.
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
        program."""
        flat, layout, calls = self._flat, self.layout, []
        half = layout.block_rows(B2, elements)
        if elastic_half is not None and half is not None:
            calls.append((np.copyto, (flat[half], elastic_half)))
            # the second-half integral a smaller-step neighbour's odd
            # sub-step reads; ``full - half`` here equals the read-time
            # ``b1 - b2`` bitwise (same stored operands, same subtraction)
            second = flat[layout.block_rows(B1_MINUS_B2, elements)]
            calls.append((np.subtract, (elastic_integral, elastic_half, second)))
        calls.append((np.copyto, (flat[layout.block_rows(B1, elements)], elastic_integral)))
        accumulated = layout.block_rows(B3, elements)
        if accumulated is not None:
            b3 = flat[accumulated]
            if step_index % 2 == 0:
                calls.append((np.copyto, (b3, elastic_integral)))
            else:
                calls.append((np.add, (b3, elastic_integral, b3)))
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
