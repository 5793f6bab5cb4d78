"""The stepper protocol and its single-rank half.

Every stepper the scenario runner drives -- the GTS and clustered-LTS
solvers here, the two multi-rank engines of :mod:`repro.distributed` --
exposes the same members:

* ``time``, ``n_element_updates``, ``dofs`` and ``macro_dt``;
* ``step_cycle()``, ``set_initial_condition(func)`` and ``close()``;
* ``state_arrays()`` and ``restore_state(arrays, time, n_element_updates)``:
  the dynamic state as the checkpoint's global arrays (``dofs``, plus
  ``step_index``/``b1``/``b2``/``b3`` for LTS) and back;
* ``telemetry_snapshots()``, ``trace_lanes()`` and ``concurrent_lanes``;
* ``comm_summary()``: the measured-vs-modelled halo traffic, ``None`` on a
  single rank.

:class:`SingleRankStepper` holds what the two single-rank solvers share.
"""

from __future__ import annotations

import numpy as np

from ..observability import resident_nbytes
from ..source.moment_tensor import DiscretePointSource, MomentTensorSource, PointForceSource

__all__ = ["HalfAppliedStepError", "SingleRankStepper", "check_restored"]


class HalfAppliedStepError(RuntimeError):
    """A kernel dispatch raised mid-step: some DOF rows advanced and some
    did not, so the solver refuses to step on until a state is restored."""


def check_restored(name: str, array, shape: tuple, dtype=None) -> np.ndarray:
    """``array`` of a restored state as an array, if it has the stepper's
    ``shape`` (and ``dtype``, unless ``None``); otherwise a ``ValueError``
    naming it, raised before any of the state is applied."""
    array = np.asarray(array)
    if array.shape != tuple(shape) or (dtype is not None and array.dtype != dtype):
        expected = np.dtype(array.dtype if dtype is None else dtype)
        raise ValueError(
            f"restored {name} are {array.dtype}{list(array.shape)}, the solver's are "
            f"{expected}{list(shape)}"
        )
    return array


class SingleRankStepper:
    """The protocol members common to the GTS and clustered-LTS solvers.

    Subclasses set ``disc``, ``n_fused``, ``telemetry``, ``backend``,
    ``dofs``, ``time`` and ``n_element_updates`` and define ``macro_dt``,
    ``workspaces`` and ``step_cycle``; a step that raises part-way sets
    ``_failed``, and every step starts with :meth:`_check_state`.
    """

    #: one lane records the wall clock: phase totals need no normalisation
    concurrent_lanes = 1
    #: why the last step left a half-applied state (``None``: clean)
    _failed: str | None = None

    def _check_state(self) -> None:
        """Refuse to step from a half-applied state (see ``_failed``)."""
        if self._failed is not None:
            raise HalfAppliedStepError(
                f"refusing to step from a half-applied state at t = {self.time}: {self._failed}; "
                "restore a checkpoint first"
            )

    def _bind_source(self, source) -> DiscretePointSource:
        if isinstance(source, DiscretePointSource):
            return source
        if isinstance(source, (MomentTensorSource, PointForceSource, list, tuple)):
            # a list/tuple is a fused per-slot source ensemble sharing one
            # location; DiscretePointSource stacks it along the fused axis
            return DiscretePointSource(self.disc, source)
        raise TypeError(f"unsupported source type: {type(source)!r}")

    def set_initial_condition(self, func) -> None:
        """L2-project an initial condition ``func(points) -> values``."""
        self.dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)

    def run(self, t_end: float) -> np.ndarray:
        """Advance to at least ``t_end`` (full macro cycles); returns the DOFs."""
        if t_end < self.time:
            raise ValueError("t_end lies in the past")
        n_cycles = int(np.ceil((t_end - self.time) / self.macro_dt - 1e-12))
        for _ in range(n_cycles):
            self.step_cycle()
        return self.dofs

    # -- checkpoint interchange -----------------------------------------
    def state_arrays(self) -> dict:
        """The dynamic state as named global arrays (the checkpoint's)."""
        return {"dofs": self.dofs}

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Copy a :meth:`state_arrays` state in (extra entries are ignored):
        the solver steps its own DOF array, never the caller's."""
        dofs = check_restored("dofs", arrays["dofs"], self.dofs.shape, self.dofs.dtype)
        np.copyto(self.dofs, dofs)
        self._failed = None
        self.time = float(time)
        self.n_element_updates = int(n_element_updates)

    # -- accounting -----------------------------------------------------
    def memory_owners(self) -> dict:
        """MiB held per owner, from the owners' own arrays (each base array
        once, :func:`~repro.observability.resident_nbytes`): the state
        ``dofs``, the ``lts_buffers`` (none under GTS), the discretization's
        ``operators``, the backend's ``kernel_scratch`` (per-thread block
        scratch; the reference backend's increments) and the batch
        ``workspaces`` (cached operators, gather plans, kept integrals)."""
        buffers = getattr(self, "buffers", None)
        held = {
            "dofs": self.dofs,
            "lts_buffers": () if buffers is None else buffers.store,
            "operators": vars(self.disc),
            "kernel_scratch": self.backend.scratch_arrays(),
            "workspaces": [ws.held() for ws in self.workspaces if ws is not None],
        }
        return {name: resident_nbytes(value) / 2**20 for name, value in held.items()}

    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative per-lane snapshots: the solver's one lane."""
        return [self.telemetry.snapshot()]

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export
        (draining is destructive: export once per run)."""
        return [(self.telemetry.lane, self.telemetry.rank, self.telemetry.drain_events())]

    def comm_summary(self) -> None:
        """A single rank exchanges no halo."""
        return None

    def close(self) -> None:
        """Nothing to release: the solver holds no worker processes."""
