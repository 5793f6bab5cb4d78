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

Storage layout: the buffers live in one ``(4, n_elements + 1, 9, B[, f])``
block -- ``B1``, ``B2``, ``B3`` plus the precomputed second-half integral
``B1 - B2`` -- with a trailing all-zero ghost row per buffer.  Relation code
and neighbour id combine into one flat row index per face (boundary faces hit
the ghost row), so a correction reads its neighbours straight from the flat
store: the rows are static per cluster and step parity (:meth:`face_rows`),
and a kernel backend gathers them per element block.  The second-half
buffer is filled from the same ``full``/``half`` integrals a reader would
subtract, so the gathered values are bit-identical to the three-buffer
formulation.
"""

from __future__ import annotations

import numpy as np

from ..kernels.discretization import Discretization, N_ELASTIC

__all__ = ["BufferFill", "LtsBuffers", "store_rows"]

#: relation codes of a face neighbour's cluster w.r.t. the element's cluster
SAME, SMALLER, LARGER, BOUNDARY = 0, -1, 1, -2

#: store rows: B1, B2, B3 and the precomputed second-half integral B1 - B2;
#: B1 leads, so the flat store's rows of a batch are its own full-step
#: integral -- what a backend's correction projects the own traces from
_B1, _B2, _B3, _B1M2 = 0, 1, 2, 3


def store_rows(n_elements: int, neighbors, relations, step_index) -> np.ndarray:
    """Rows of the flat buffer store of an ``n_elements`` mesh that hold
    each face neighbour's elastic time-integrated DOFs over the reading
    element's time interval (see :meth:`LtsBuffers.face_rows`).

    ``step_index`` is the reading element's local step counter, a scalar or
    an array broadcasting against ``relations``.
    """
    # relation -> store row: SAME reads B1, SMALLER reads B3 (the two
    # accumulated sub-steps), LARGER reads B2 on an even local step and
    # the precomputed B1 - B2 on an odd one; boundary faces read the
    # all-zero ghost row (any store row works, B1 is used)
    larger_row = np.where(np.asarray(step_index) % 2 == 0, _B2, _B1M2)
    sel = np.where(relations == SMALLER, _B3, _B1)
    sel = np.where(relations == LARGER, larger_row, sel)
    ids = np.where(relations == BOUNDARY, n_elements, neighbors)
    return sel * (n_elements + 1) + ids


class LtsBuffers:
    """Buffer storage and the buffer update/read rules of the LTS scheme."""

    def __init__(self, disc: Discretization, n_fused: int = 0, dtype=None):
        if dtype is None:
            dtype = getattr(disc, "dtype", np.float64)
        shape: tuple[int, ...] = (N_ELASTIC, disc.n_basis)
        if n_fused > 0:
            shape = shape + (n_fused,)
        self._n_elements = disc.n_elements
        #: row n_elements of every buffer is an all-zero ghost row that
        #: boundary faces gather from; fill() never writes it
        self._store = np.zeros((4, disc.n_elements + 1) + shape, dtype=dtype)
        self._flat = self._store.reshape((4 * (disc.n_elements + 1),) + shape)

    # ------------------------------------------------------------------
    # the public three-buffer view (checkpoint/exchange paths assign these);
    # the views are read-only because an in-place write through them would
    # silently stale the precomputed ``B1 - B2`` row -- mutate via ``fill``
    # or whole-buffer assignment (``buffers.b1 = ...``)
    # ------------------------------------------------------------------
    def _view(self, row: int) -> np.ndarray:
        view = self._store[row, : self._n_elements]
        view.flags.writeable = False
        return view

    @property
    def b1(self) -> np.ndarray:
        return self._view(_B1)

    @b1.setter
    def b1(self, value) -> None:
        self._store[_B1, : self._n_elements] = value
        self._refresh_second_half()

    @property
    def b2(self) -> np.ndarray:
        return self._view(_B2)

    @b2.setter
    def b2(self, value) -> None:
        self._store[_B2, : self._n_elements] = value
        self._refresh_second_half()

    @property
    def b3(self) -> np.ndarray:
        return self._view(_B3)

    @b3.setter
    def b3(self, value) -> None:
        self._store[_B3, : self._n_elements] = value

    @property
    def b1_minus_b2(self) -> np.ndarray:
        """The stored second-half integral, bitwise ``b1 - b2``."""
        return self._view(_B1M2)

    @property
    def store(self) -> np.ndarray:
        """The flat ``(4 (n_elements + 1), 9, B[, f])`` row store that
        :meth:`face_rows` indexes (read-only); its rows ``[0, n_elements)``
        are ``B1``, which a backend's ``correct`` reads the own traces from."""
        view = self._flat.view()
        view.flags.writeable = False
        return view

    def _refresh_second_half(self) -> None:
        """Re-establish ``store[B1M2] == b1 - b2`` after a bulk assignment.

        ``b1 - b2`` on restored arrays is elementwise over the exact stored
        values, so the invariant reproduces what a read-time subtraction
        would have computed, bit for bit.
        """
        n = self._n_elements
        np.subtract(
            self._store[_B1, :n], self._store[_B2, :n], out=self._store[_B1M2, :n]
        )

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
            neighbour reads it).
        step_index:
            The elements' local step counter ``n_k`` (before the step), which
            controls the even/odd accumulation of ``B3``.
        """
        for call, args in self.fill_calls(elements, elastic_integral, elastic_half, step_index):
            call(*args)

    def fill_calls(self, elements: slice, elastic_integral, elastic_half, step_index: int) -> list:
        """:meth:`fill` as ``(ufunc, operands)`` calls on views of the store,
        to run in order: what a kernel backend compiles into a block's
        program."""
        store, calls = self._store, []
        if elastic_half is not None:
            calls.append((np.copyto, (store[_B2, elements], elastic_half)))
            # the second-half integral a smaller-step neighbour's odd
            # sub-step reads; ``full - half`` here equals the read-time
            # ``b1 - b2`` bitwise (same stored operands, same subtraction)
            calls.append((np.subtract, (elastic_integral, elastic_half, store[_B1M2, elements])))
        calls.append((np.copyto, (store[_B1, elements], elastic_integral)))
        b3 = store[_B3, elements]
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
        return store_rows(self._n_elements, neighbors, relations, step_index)

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

    __slots__ = ("buffers", "step_index")

    def __init__(self, buffers: LtsBuffers, step_index: int):
        self.buffers, self.step_index = buffers, step_index

    def __call__(self, elements: slice, elastic_integral, elastic_half) -> None:
        self.buffers.fill(elements, elastic_integral, elastic_half, self.step_index)

    def calls(self, elements: slice, elastic_integral, elastic_half) -> list:
        return self.buffers.fill_calls(elements, elastic_integral, elastic_half, self.step_index)
