"""Convergence-order verification on the plane-wave refinement ladder."""

import pytest

from repro.verification import plane_wave_convergence

#: the short order-2 ladder the quick tests run
LADDER = dict(order=2, lengths=(500.0, 250.0))


@pytest.fixture(scope="module")
def single_rank_lts_ladder():
    return plane_wave_convergence(solver="lts", **LADDER)


class TestPlaneWaveConvergence:
    def test_order2_ladder_gts(self):
        """GTS at order 2 converges at ~h^2 -- under the fast kernels, which
        is exactly the point: reassociated contractions must not cost order."""
        study = plane_wave_convergence(order=2, lengths=(500.0, 250.0), kernels="fast")
        assert study.passes()
        assert study.estimated_order == pytest.approx(2.0, abs=0.75)
        assert study.errors[-1] < study.errors[0]

    @pytest.mark.slow
    def test_order3_ladder_all_kernels(self):
        """The full suite ladder at order 3, for every kernel backend.

        ref and fast must both reach the formal order and agree within the
        fit's own resolution.
        """
        studies = {
            kind: plane_wave_convergence(order=3, kernels=kind)
            for kind in ("ref", "fast")
        }
        for kind, study in studies.items():
            assert study.passes(), (kind, study.estimated_order, study.errors)
        assert studies["fast"].estimated_order == pytest.approx(
            studies["ref"].estimated_order, abs=0.05
        )

    @pytest.mark.distributed
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_ladder_on_forked_ranks_is_the_single_rank_lts_ladder(
        self, single_rank_lts_ladder, n_ranks
    ):
        """``n_ranks > 1`` steps every level on forked ranks through the
        clustered driver: the same errors, bit for bit, as the single-rank
        clustered ladder."""
        single = single_rank_lts_ladder
        ranked = plane_wave_convergence(n_ranks=n_ranks, **LADDER)
        assert ranked.errors == single.errors and ranked.n_elements == single.n_elements
        assert ranked.passes() and ranked.solver == "lts"
        report = ranked.to_dict()
        assert report["n_ranks"] == n_ranks and "backend" not in report

    def test_report_shape(self):
        study = plane_wave_convergence(order=2, lengths=(500.0, 250.0), kernels="fast")
        report = study.to_dict()
        assert report["expected_order"] == 2
        assert len(report["errors"]) == len(report["lengths"]) == 2
        assert report["passed"] == study.passes()
        assert report["kernels"] == "fast"
