"""Analytic solutions and error norms: the measuring sticks themselves."""

import numpy as np
import pytest

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner, build_setup
from repro.verification import (
    FIELD_NAMES,
    analytic_solution_for,
    estimate_order,
    state_error_norms,
)


@pytest.fixture(scope="module")
def plane_setup():
    return build_setup(
        get_scenario("plane_wave", extent_m=2000.0, characteristic_length=500.0, order=3)
    )


class TestAnalyticSolution:
    def test_matches_initial_condition_at_t0(self, plane_setup):
        """At t = 0 the travelling wave IS the projected initial condition."""
        solution = analytic_solution_for(plane_setup)
        assert solution is not None
        points = np.array([[100.0, 200.0, -300.0], [900.0, 0.0, -1500.0]])
        from_solution = solution(points, 0.0)
        from_ic = plane_setup.initial_condition(points)
        np.testing.assert_allclose(from_solution, from_ic, rtol=0, atol=1e-15)

    def test_travelling_wave_advects(self, plane_setup):
        """``q(x, t) == q(x - vp t, 0)`` -- pure advection at the P speed."""
        solution = analytic_solution_for(plane_setup)
        points = np.array([[500.0, 100.0, -100.0]])
        t = 0.0123
        shifted = points.copy()
        shifted[:, 0] -= solution.vp * t
        np.testing.assert_allclose(
            solution(points, t), solution(shifted, 0.0), rtol=1e-12
        )

    def test_satisfies_stress_velocity_relation(self, plane_setup):
        solution = analytic_solution_for(plane_setup)
        points = np.array([[321.0, 5.0, -777.0]])
        q = solution(points, 0.004)[0]
        # sxx = -rho vp vx and the lateral stresses follow lam/(lam + 2 mu)
        assert q[0] == pytest.approx(-solution.rho * solution.vp * q[6], rel=1e-12)
        assert q[1] == pytest.approx(q[0] * solution.lateral, rel=1e-12)
        assert q[1] == q[2]
        assert q[3] == q[4] == q[5] == 0.0
        assert q[7] == q[8] == 0.0

    def test_none_for_scenarios_without_closed_form(self):
        setup = build_setup(
            get_scenario("loh3", extent_m=6000.0, characteristic_length=3000.0, order=2)
        )
        assert analytic_solution_for(setup) is None


class TestStateErrorNorms:
    def test_projection_error_is_small_and_structured(self, plane_setup):
        solution = analytic_solution_for(plane_setup)
        disc = plane_setup.disc
        dofs = disc.project_initial_condition(lambda p: solution(p, 0.0))
        norms = state_error_norms(disc, dofs, 0.0, solution)
        assert set(norms["fields"]) == set(FIELD_NAMES)
        # best-approximation error of the projection: small but not zero
        assert 0.0 < norms["rel_l2"] < 0.1
        # fields the wave never touches are exactly representable (zero)
        assert norms["fields"]["sxy"]["l2"] < 1e-12 * norms["fields"]["sxx"]["l2"]
        assert "rel_l2" not in norms["fields"]["sxy"]  # zero reference: absolute only

    def test_interior_margin_shrinks_the_scored_region(self, plane_setup):
        solution = analytic_solution_for(plane_setup)
        disc = plane_setup.disc
        dofs = disc.project_initial_condition(lambda p: solution(p, 0.0))
        norms_full = state_error_norms(disc, dofs, 0.0, solution)
        norms_margin = state_error_norms(
            disc, dofs, 0.0, solution, interior_margin=600.0
        )
        # fewer elements scored: the absolute error integral can only shrink
        assert norms_margin["l2"] <= norms_full["l2"]

    def test_interior_margin_that_excludes_everything_raises(self, plane_setup):
        solution = analytic_solution_for(plane_setup)
        dofs = plane_setup.disc.allocate_dofs()
        with pytest.raises(ValueError, match="interior_margin"):
            state_error_norms(
                plane_setup.disc, dofs, 0.0, solution, interior_margin=5000.0
            )

    def test_fused_state_scores_first_simulation(self, plane_setup):
        solution = analytic_solution_for(plane_setup)
        disc = plane_setup.disc
        dofs = disc.project_initial_condition(lambda p: solution(p, 0.0), n_fused=2)
        scalar = disc.project_initial_condition(lambda p: solution(p, 0.0))
        fused = state_error_norms(disc, dofs, 0.0, solution)
        plain = state_error_norms(disc, scalar, 0.0, solution)
        # strided (fused slice) vs contiguous einsum may round differently
        assert fused["l2"] == pytest.approx(plain["l2"], rel=1e-12)


class TestEstimateOrder:
    def test_exact_power_law(self):
        hs = (400.0, 200.0, 100.0)
        errors = [1e-3 * (h / 400.0) ** 3 for h in hs]
        assert estimate_order(hs, errors) == pytest.approx(3.0, abs=1e-12)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            estimate_order([100.0], [1e-3])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            estimate_order([200.0, 100.0], [1e-3, 0.0])


class TestRunnerAccuracyBlock:
    def test_summary_reports_accuracy_for_plane_wave(self):
        spec = get_scenario(
            "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=2
        )
        summary = ScenarioRunner(spec).run()
        accuracy = summary["accuracy"]
        assert accuracy["t"] == summary["t_end"]
        assert 0.0 < accuracy["rel_l2"] < 1.0
        assert set(accuracy["fields"]) == set(FIELD_NAMES)

    def test_no_accuracy_block_without_analytic_solution(self):
        spec = get_scenario(
            "loh3", extent_m=6000.0, characteristic_length=3000.0, order=2, n_cycles=1
        )
        assert "accuracy" not in ScenarioRunner(spec).run()
