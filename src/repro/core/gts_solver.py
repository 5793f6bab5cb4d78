"""Global time stepping (GTS) solver -- the baseline configuration.

Advances all elements with the minimum CFL time step of the mesh, using the
classic one-step ADER-DG update.  GTS is both the paper's baseline for the
algorithmic-efficiency comparisons (Tab. I, Fig. 9/10) and the reference the
LTS solver is verified against.
"""

from __future__ import annotations

from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..kernels.update import gts_step
from ..observability import NULL_TELEMETRY
from ..source.receivers import ReceiverSet
from .stepper import SingleRankStepper

__all__ = ["GlobalTimeSteppingSolver"]


class GlobalTimeSteppingSolver(SingleRankStepper):
    """ADER-DG solver advancing every element at the global minimum time step.

    ``kernels`` selects the kernel-execution backend (``"ref"``/``"fast"`` or
    a backend instance); the fast backend reuses one solver-wide scratch
    workspace across steps.  A step advances :attr:`dofs` in place, so a
    step that raises leaves them half-applied and every later step is
    refused until :meth:`restore_state`.  A
    macro cycle is ``steps_per_cycle`` steps: the scenario runner passes
    ``2^(N_c - 1)``, so one GTS cycle spans the largest cluster step of the
    LTS clustering it is compared with.
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
        steps_per_cycle: int = 1,
    ):
        # the element operators are assembled with the solver, not in its
        # first step
        disc.assemble_element_operators()
        self.disc = disc
        self.dt = float(dt) if dt is not None else float(disc.time_steps.min())
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        self.steps_per_cycle = int(steps_per_cycle)
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

    @property
    def macro_dt(self) -> float:
        """Duration of one macro cycle (``steps_per_cycle`` steps)."""
        return self.dt * self.steps_per_cycle

    @property
    def workspaces(self) -> list:
        return [self.workspace]

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance all elements by one global time step."""
        self._check_state()
        with self.telemetry.region("update"):
            try:
                gts_step(self.disc, self.dofs, self.dt, backend=self.backend, ws=self.workspace)
            except BaseException as error:
                self._failed = f"the step raised {error!r}"
                raise
        for source in self.sources:
            source.inject(self.dofs, self.time, self.time + self.dt)
        self.time += self.dt
        self.n_element_updates += self.disc.n_elements
        if self.receivers is not None:
            self.receivers.record_all(self.time, self.dofs)

    def step_cycle(self) -> None:
        """Advance all elements by one macro cycle."""
        for _ in range(self.steps_per_cycle):
            self.step()
