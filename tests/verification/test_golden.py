"""Golden seismogram regressions for the loh3 and la_habra scenarios.

The committed fixtures freeze the reference-backend f64 traces of two
small, fully-pinned configurations; every kernel backend re-runs the frozen
spec and must match under the tolerance ladder.  A failure here means the
numerical trajectory moved -- either an accuracy regression, or a deliberate
physics change that must be shipped together with regenerated fixtures
(``repro verify --update-golden``).
"""

import numpy as np
import pytest

from repro.verification import (
    GOLDEN_SCENARIOS,
    compare_to_golden,
    load_golden,
    record_golden,
    seismogram_tolerance,
)
from repro.verification.golden import golden_spec


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_fixture_committed_and_wellformed(self, name):
        golden = load_golden(name)
        assert golden["scenario"] == name
        assert golden["generator"]["kernels"] == "ref"
        assert golden["generator"]["precision"] == "f64"
        spec = golden_spec(name)
        # the frozen spec must round-trip: a comparison run rebuilds from it
        assert golden["spec"] == spec.to_dict()
        for fixture in golden["receivers"].values():
            values = np.asarray(fixture["values"])
            assert len(fixture["times"]) == len(values) > 0
            assert np.isfinite(values).all()
            # a golden of pre-arrival zeros would compare everything to noise
            assert np.abs(values).max() > 0.0

    def test_missing_fixture_message(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="update-golden"):
            load_golden("loh3", directory=tmp_path)

    def test_record_into_directory(self, tmp_path):
        path = record_golden("la_habra", directory=tmp_path)
        assert path.parent == tmp_path
        rewritten = load_golden("la_habra", directory=tmp_path)
        committed = load_golden("la_habra")
        assert rewritten["spec"] == committed["spec"]
        for name, fixture in committed["receivers"].items():
            # within the ladder's regeneration floor, not bitwise: the
            # committed fixture may come from a different numpy build
            values = np.asarray(fixture["values"])
            peak = np.abs(values).max()
            err = np.abs(np.asarray(rewritten["receivers"][name]["values"]) - values).max()
            assert err <= 1e-12 * peak


class TestToleranceLadder:
    def test_ladder_is_ordered(self):
        """The bit-exact reference gets the floor, fast sits between, f32 on top."""
        for scenario in GOLDEN_SCENARIOS:
            ref = seismogram_tolerance(scenario, "ref", "f64")
            fast = seismogram_tolerance(scenario, "fast", "f64")
            f32 = seismogram_tolerance(scenario, "fast", "f32")
            assert ref < fast < f32

    @pytest.mark.parametrize("kernels", ["native", "opt"])
    def test_unknown_combination_rejected(self, kernels):
        with pytest.raises(ValueError, match="tolerance"):
            seismogram_tolerance("loh3", kernels, "f64")


class TestGoldenRegression:
    @pytest.mark.parametrize("kernels", ["ref", "fast"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_f64_backends_match_golden(self, name, kernels):
        """Both f64 backends pass their ladder rung.  ref is only held to
        the 1e-12 floor, not to bitwise zero: the committed fixture may
        come from a different numpy build."""
        report = compare_to_golden(name, kernels=kernels)
        assert report["passed"], report

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_f32_matches_golden_within_ladder(self, name):
        for kernels in ("ref", "fast"):
            report = compare_to_golden(name, kernels=kernels, precision="f32")
            assert report["passed"], report
            # and the ladder is meaningfully engaged, not trivially zero
            assert report["max_peak_rel_err"] > 0.0

    @pytest.mark.slow
    def test_fused_run_matches_golden(self):
        report = compare_to_golden("loh3", kernels="fast", n_fused=2)
        assert report["passed"], report


@pytest.mark.distributed
class TestGoldenDistributed:
    """The harness bar for fast-f64 on multi-rank runs: the frozen golden
    spec re-run on 2 forked ranks stays in tolerance."""

    def test_2rank_fast_matches_golden(self):
        report = compare_to_golden("loh3", kernels="fast", n_ranks=2)
        assert report["passed"], report
        assert report["n_ranks"] == 2 and "backend" not in report

    @pytest.mark.slow
    def test_2rank_bit_exact_backend_stays_on_the_floor(self):
        report = compare_to_golden("loh3", kernels="ref", n_ranks=2)
        assert report["passed"] and report["tolerance"] == 1e-12, report
