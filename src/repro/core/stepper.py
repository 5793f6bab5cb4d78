"""The stepper protocol and its single-rank half.

Every stepper the scenario runner drives -- the clustered-LTS solver here
(GTS is its one-cluster case), the multi-rank engine of
:mod:`repro.distributed` -- exposes the same members:

* ``time``, ``n_element_updates``, ``dofs`` and ``macro_dt``;
* ``step_cycle()``, ``set_initial_condition(func)`` and ``close()``;
* ``restore_state(arrays, time, n_element_updates)``: the DOFs, the time
  and the update count are the whole dynamic state at a macro-cycle
  boundary, so a checkpoint stores ``dofs`` and restores ``arrays["dofs"]``
  (the LTS buffers and sub-step parities restart with every cycle: each
  cluster's prediction refills its buffer rows before any reader);
* ``telemetry_snapshots()``, ``trace_lanes()`` and ``concurrent_lanes``;
* ``comm_summary()``: the measured-vs-modelled halo traffic, ``None`` on a
  single rank.

:class:`SingleRankStepper` holds the in-process solvers' half.
"""

from __future__ import annotations

import numpy as np

from ..observability import resident_nbytes
from ..source.moment_tensor import DiscretePointSource, MomentTensorSource, PointForceSource

__all__ = ["HalfAppliedStepError", "SingleRankStepper", "restored_dofs"]


class HalfAppliedStepError(RuntimeError):
    """A kernel dispatch raised mid-step: some DOF rows advanced and some
    did not, so the solver refuses to step on until a state is restored."""


def restored_dofs(arrays, shape: tuple, dtype) -> np.ndarray:
    """``arrays["dofs"]`` of a restored state, if it has the stepper's
    ``shape`` and ``dtype``; otherwise a ``ValueError``, raised before any
    of the state is applied."""
    dofs = np.asarray(arrays["dofs"])
    if dofs.shape != tuple(shape) or dofs.dtype != dtype:
        raise ValueError(
            f"restored dofs are {dofs.dtype}{list(dofs.shape)}, the solver's are "
            f"{np.dtype(dtype)}{list(shape)}"
        )
    return dofs


class SingleRankStepper:
    """The protocol members of the clustered-LTS solver and its subclasses.

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
    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Copy ``arrays["dofs"]`` in (other entries are ignored): the
        solver steps its own DOF array, never the caller's."""
        np.copyto(self.dofs, restored_dofs(arrays, self.dofs.shape, self.dofs.dtype))
        self._failed = None
        self.time = float(time)
        self.n_element_updates = int(n_element_updates)

    # -- accounting -----------------------------------------------------
    def memory_owners(self) -> dict:
        """MiB held per owner, from the owners' own arrays (each base array
        once, :func:`~repro.observability.resident_nbytes`): the state
        ``dofs``, the ``lts_buffers``, the discretization's
        ``operators``, the backend's ``kernel_scratch`` (per-thread block
        scratch; the reference backend's increments) and the batch
        ``workspaces`` (cached operators, gather plans, kept integrals)."""
        held = {
            "dofs": self.dofs,
            "lts_buffers": self.buffers.store,
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
