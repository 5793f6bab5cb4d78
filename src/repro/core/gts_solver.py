"""Global time stepping (GTS) solver -- the baseline configuration.

Advances all elements with the minimum CFL time step of the mesh, using the
classic one-step ADER-DG update.  GTS is both the paper's baseline for the
algorithmic-efficiency comparisons (Tab. I, Fig. 9/10) and the reference the
LTS solver is verified against.
"""

from __future__ import annotations

import numpy as np

from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..kernels.update import gts_step
from ..observability import NULL_TELEMETRY
from ..source.moment_tensor import DiscretePointSource, MomentTensorSource, PointForceSource
from ..source.receivers import ReceiverSet

__all__ = ["GlobalTimeSteppingSolver"]


class GlobalTimeSteppingSolver:
    """ADER-DG solver advancing every element at the global minimum time step.

    ``kernels`` selects the kernel-execution backend (``"ref"``/``"fast"`` or
    a backend instance); the fast backend reuses one solver-wide scratch
    workspace across steps.
    """

    def __init__(
        self,
        disc: Discretization,
        dt: float | None = None,
        sources: list | None = None,
        receivers: ReceiverSet | None = None,
        n_fused: int = 0,
        kernels=None,
        telemetry=None,
    ):
        self.disc = disc
        self.dt = float(dt) if dt is not None else float(disc.time_steps.min())
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        self.n_fused = n_fused
        self.receivers = receivers
        self.sources = [self._bind_source(s) for s in (sources or [])]
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.backend = make_backend(kernels)
        self.backend.telemetry = self.telemetry
        self.workspace = self.backend.make_workspace()
        self.dofs = disc.allocate_dofs(n_fused=n_fused)
        self.time = 0.0
        self.n_element_updates = 0

    def _bind_source(self, source) -> DiscretePointSource:
        if isinstance(source, DiscretePointSource):
            return source
        if isinstance(source, (MomentTensorSource, PointForceSource, list, tuple)):
            # a list/tuple is a fused per-slot source ensemble sharing one
            # location; DiscretePointSource stacks it along the fused axis
            return DiscretePointSource(self.disc, source)
        raise TypeError(f"unsupported source type: {type(source)!r}")

    # ------------------------------------------------------------------
    def set_initial_condition(self, func) -> None:
        """L2-project an initial condition ``func(points) -> values``."""
        self.dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)

    def step(self) -> None:
        """Advance all elements by one global time step."""
        with self.telemetry.region("update"):
            self.dofs = gts_step(
                self.disc, self.dofs, self.dt, backend=self.backend, ws=self.workspace
            )
        for source in self.sources:
            source.inject(self.dofs, self.time, self.time + self.dt)
        self.time += self.dt
        self.n_element_updates += self.disc.n_elements
        if self.receivers is not None:
            self.receivers.record_all(self.time, self.dofs)

    def run(self, t_end: float) -> np.ndarray:
        """Advance the simulation to (at least) ``t_end``; returns the DOFs."""
        if t_end < self.time:
            raise ValueError("t_end lies in the past")
        n_steps = int(np.ceil((t_end - self.time) / self.dt - 1e-12))
        for _ in range(n_steps):
            self.step()
        return self.dofs
