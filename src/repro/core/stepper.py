"""The stepper protocol.

Every stepper the scenario runner drives -- the clustered-LTS solver of
:mod:`repro.core.lts_solver` (GTS is its one-cluster case) and the
multi-rank engine of :mod:`repro.distributed` -- exposes the same members,
so the runner never asks which one it steps:

* ``time``, ``n_element_updates``, ``dofs`` and ``macro_dt``;
* ``step_cycle()``, ``set_initial_condition(func)`` and ``close()``;
* ``restore_state(arrays, time, n_element_updates)``: the DOFs, the time
  and the update count are the whole dynamic state at a macro-cycle
  boundary, so a checkpoint stores ``dofs`` and restores ``arrays["dofs"]``
  (the LTS buffers and sub-step parities restart with every cycle: each
  cluster's prediction refills its buffer rows before any reader);
* ``telemetry_snapshots()``, ``trace_lanes()`` and ``concurrent_lanes``;
* ``comm_summary()``: the measured-vs-modelled halo traffic, ``None`` on a
  single rank;
* ``memory_block()``: the stepper's entries of the summary's ``memory``
  block (one solver's resident MiB by owner, or the ranks' peaks and
  owners);
* ``ledger_columns()``: the stepper's columns of a run-ledger cycle record
  (``{}`` on a single rank).
"""

from __future__ import annotations

import numpy as np

__all__ = ["HalfAppliedStepError", "restored_dofs"]


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
