"""Convergence-order verification on the plane-wave refinement ladder."""

import pytest

from repro.verification import plane_wave_convergence

#: the short order-2 ladder the quick tests run
LADDER = dict(order=2, lengths=(500.0, 250.0))

#: two-cluster LTS on the jittered plane-wave mesh: both clusters are
#: populated, interleaved, at every level ([138, 246] elements at h = 500 m,
#: [441, 309] at 400 m, [960, 2112] at 250 m)
TWO_CLUSTERS = dict(solver="lts", n_clusters=2, lam=0.6)

#: each level's LTS error over the GTS one: measured 0.975 and 0.995 at
#: order 2, 0.976-1.004 at order 3 and 0.996-1.034 at order 4, identical
#: under ref and fast
RATIO_BAND = (0.95, 1.05)


@pytest.fixture(scope="module")
def ladder():
    """``plane_wave_convergence(**kwargs)``, each ladder run once per module."""
    studies = {}

    def run(**kwargs):
        key = tuple(sorted(kwargs.items()))
        if key not in studies:
            studies[key] = plane_wave_convergence(**kwargs)
        return studies[key]

    return run


def _assert_two_cluster_ladder(lts, gts):
    """Both clusters populated at every level, the formal order reached and
    each level's error within :data:`RATIO_BAND` of GTS."""
    assert lts.solver == "lts" and gts.solver == "gts"
    assert all(sum(n > 0 for n in counts) >= 2 for counts in lts.cluster_counts), lts.cluster_counts
    assert lts.n_elements == gts.n_elements
    assert lts.passes(), (lts.estimated_order, lts.errors)
    ratios = [a / b for a, b in zip(lts.errors, gts.errors)]
    assert all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios), ratios


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
    def test_gts_ladder_on_forked_ranks_is_the_single_rank_ladder(self, ladder, n_ranks):
        """``n_ranks > 1`` GTS-steps every level on forked ranks: the same
        errors, bit for bit, as the single-rank GTS ladder."""
        single = ladder(**LADDER)
        ranked = plane_wave_convergence(n_ranks=n_ranks, **LADDER)
        assert ranked.errors == single.errors and ranked.n_elements == single.n_elements
        assert ranked.passes() and ranked.solver == "gts"
        report = ranked.to_dict()
        assert report["n_ranks"] == n_ranks and "backend" not in report

    def test_report_shape(self):
        study = plane_wave_convergence(order=2, lengths=(500.0, 250.0), kernels="fast")
        report = study.to_dict()
        assert report["expected_order"] == 2
        assert len(report["errors"]) == len(report["lengths"]) == 2
        assert report["passed"] == study.passes()
        assert report["kernels"] == "fast"


class TestTwoClusterLtsConvergence:
    """The rate-2 LTS scheme against the exact plane wave, not only against
    GTS: two populated clusters keep the formal order and the GTS error."""

    @pytest.mark.parametrize("kernels", ["ref", "fast"])
    def test_order2_ladder(self, ladder, kernels):
        _assert_two_cluster_ladder(
            ladder(kernels=kernels, **LADDER, **TWO_CLUSTERS), ladder(kernels=kernels, **LADDER)
        )

    @pytest.mark.distributed
    @pytest.mark.parametrize("kernels", ["ref", "fast"])
    def test_order2_ladder_on_two_forked_ranks_is_the_single_rank_ladder(self, ladder, kernels):
        single = ladder(kernels=kernels, **LADDER, **TWO_CLUSTERS)
        ranked = plane_wave_convergence(n_ranks=2, kernels=kernels, **LADDER, **TWO_CLUSTERS)
        assert ranked.errors == single.errors
        assert ranked.cluster_counts == single.cluster_counts
        _assert_two_cluster_ladder(ranked, ladder(kernels=kernels, **LADDER))

    @pytest.mark.slow
    @pytest.mark.parametrize("kernels", ["ref", "fast"])
    @pytest.mark.parametrize("order", [3, 4])
    def test_higher_order_ladders(self, ladder, order, kernels):
        """The suite ladder (500, 400, 250 m) at orders 3 and 4."""
        _assert_two_cluster_ladder(
            ladder(order=order, kernels=kernels, **TWO_CLUSTERS),
            ladder(order=order, kernels=kernels),
        )
