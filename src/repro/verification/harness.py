"""The end-to-end verification suite behind ``repro verify``.

One entry point per scenario family:

* golden scenarios (``loh3``, ``la_habra``) re-run their frozen spec under
  the requested kernel mode and diff seismograms against the committed
  fixture under the tolerance ladder,
* ``plane_wave`` runs the mesh-refinement ladder and checks the fitted
  convergence order against the scheme's formal order.

``verify_suite`` runs all of them; a kernel mode that passes the suite is
considered accuracy-verified for release (the bar every non-bit-exact
optimisation -- fast-f64, f32, future native kernels -- must clear).
"""

from __future__ import annotations

from .convergence import plane_wave_convergence
from .golden import GOLDEN_SCENARIOS, compare_to_golden

__all__ = ["verify_scenario", "verify_suite"]

#: ladder used by the convergence leg of the suite: order 3, three levels
SUITE_CONVERGENCE = dict(order=3, lengths=(500.0, 400.0, 250.0), t_end=0.01)


def verify_scenario(
    name: str,
    *,
    kernels: str = "ref",
    precision: str = "f64",
    n_ranks: int = 1,
) -> dict:
    """One verification check; returns a JSON-ready report with ``passed``."""
    if name in GOLDEN_SCENARIOS:
        return compare_to_golden(
            name,
            kernels=kernels,
            precision=precision,
            n_ranks=n_ranks,
        )
    if name == "plane_wave":
        study = plane_wave_convergence(
            kernels=kernels,
            precision=precision,
            n_ranks=n_ranks,
            **SUITE_CONVERGENCE,
        )
        report = study.to_dict()
        report["kind"] = "convergence"
        report["scenario"] = name
        return report
    known = ", ".join(sorted(GOLDEN_SCENARIOS) + ["plane_wave"])
    raise KeyError(f"no verification defined for {name!r} (known: {known})")


def verify_suite(
    *,
    kernels: str = "ref",
    precision: str = "f64",
    n_ranks: int = 1,
) -> dict:
    """Golden regressions plus the convergence ladder, one report."""
    checks = [
        verify_scenario(name, kernels=kernels, precision=precision, n_ranks=n_ranks)
        for name in (*sorted(GOLDEN_SCENARIOS), "plane_wave")
    ]
    return {
        "kernels": kernels,
        "precision": precision,
        "n_ranks": n_ranks,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }
