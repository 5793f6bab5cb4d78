"""Convergence-order estimation over mesh-refinement ladders.

The classic verification: run the ``plane_wave`` scenario (exact travelling
P wave, see :mod:`~repro.verification.analytic`) on a ladder of refined
meshes, measure the L2 error at the final time, and fit the convergence
order from the log-log slope.  An ADER-DG scheme of order ``O`` (basis
degree ``O - 1``) converges at :math:`O(h^O)`; the fitted order confirming
that -- under *any* kernel backend -- is what makes non-bit-exact execution
modes shippable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["ConvergenceStudy", "estimate_order", "plane_wave_convergence"]


@dataclass
class ConvergenceStudy:
    """One refinement ladder and its fitted convergence order."""

    order: int
    kernels: str
    precision: str
    solver: str
    n_ranks: int
    t_end: float
    lengths: list
    n_elements: list
    errors: list  #: aggregate relative L2 error per ladder level
    estimated_order: float
    expected_order: int

    def passes(self, slack: float = 0.75) -> bool:
        """Whether the fitted order reaches the formal order within slack."""
        return self.estimated_order >= self.expected_order - slack

    def to_dict(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passes()
        return out


def estimate_order(lengths, errors) -> float:
    """Least-squares slope of ``log(error)`` against ``log(h)``."""
    lengths = np.asarray(lengths, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if len(lengths) < 2:
        raise ValueError("order estimation needs at least two ladder levels")
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(lengths), np.log(errors), 1)
    return float(slope)


def plane_wave_convergence(
    order: int = 3,
    lengths=(500.0, 400.0, 250.0),
    *,
    t_end: float = 0.01,
    kernels: str = "ref",
    precision: str = "f64",
    solver: str = "gts",
    n_ranks: int = 1,
    extent_m: float = 2000.0,
    wavelength: float = 2000.0,
    seed: int = 0,
) -> ConvergenceStudy:
    """Run the plane-wave ladder and fit the convergence order.

    Each level runs the registry ``plane_wave`` scenario to (at least)
    ``t_end``; the L2 error against the travelling-wave solution is taken
    over a fixed interior region (one coarse-level edge length inside the
    box at every level) so the first-order absorbing-boundary feedback does
    not cap the fitted order.  The levels stop at slightly different times
    (runs complete whole steps), so errors are each measured against the
    exact solution *at the level's own final time* -- the fit only assumes
    the error constant varies mildly over one coarse step.

    Lengths should divide ``extent_m`` evenly: the structured generator
    otherwise appends a sliver cell layer whose degenerate elements destroy
    the run (not just the fit).

    ``n_ranks > 1`` runs every ladder level through the distributed engine
    (one forked worker per rank); the solver switches to the clustered
    driver, which GTS-steps identically here because the plane-wave
    scenario is single-cluster.
    """
    from ..scenarios.registry import get_scenario
    from ..scenarios.runner import make_runner
    from .analytic import analytic_solution_for
    from .norms import state_error_norms

    if n_ranks > 1:
        solver = "lts"  # the distributed engine requires the clustered driver
    margin = 1.05 * max(lengths)
    errors, counts = [], []
    for h in lengths:
        spec = get_scenario(
            "plane_wave",
            extent_m=extent_m,
            characteristic_length=float(h),
            wavelength=wavelength,
            order=order,
            seed=seed,
            solver=solver,
            t_end=t_end,
            kernels=kernels,
            precision=precision,
            n_ranks=n_ranks if n_ranks > 1 else None,
        )
        runner = make_runner(spec)
        summary = runner.run()
        norms = state_error_norms(
            runner.setup.disc,
            runner.solver.dofs,
            float(runner.solver.time),
            analytic_solution_for(runner.setup),
            interior_margin=margin,
        )
        errors.append(float(norms["rel_l2"]))
        counts.append(int(summary["n_elements"]))
    return ConvergenceStudy(
        order=order,
        kernels=kernels,
        precision=precision,
        solver=solver,
        n_ranks=n_ranks,
        t_end=t_end,
        lengths=[float(h) for h in lengths],
        n_elements=counts,
        errors=errors,
        estimated_order=estimate_order(lengths, errors),
        expected_order=order,
    )
