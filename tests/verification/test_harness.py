"""The verify_scenario / verify_suite entry points behind ``repro verify``."""

import numpy as np
import pytest

import repro.verification.harness as harness_module
from repro.verification import plane_wave_convergence, verify_scenario, verify_suite
from repro.verification.golden import compare_to_golden, load_golden


class TestVerifyScenario:
    def test_golden_scenario_report(self):
        report = verify_scenario("la_habra", kernels="fast")
        assert report["kind"] == "golden"
        assert report["scenario"] == "la_habra"
        assert report["passed"]

    @pytest.mark.slow
    def test_plane_wave_convergence_report(self):
        report = verify_scenario("plane_wave", kernels="fast")
        assert report["kind"] == "convergence"
        assert report["scenario"] == "plane_wave"
        assert report["passed"]
        assert report["expected_order"] == 3

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="plane_wave"):
            verify_scenario("bimaterial_slab")


@pytest.mark.parametrize(
    "entry",
    [
        lambda **kw: verify_scenario("loh3", **kw),
        lambda **kw: verify_suite(**kw),
        lambda **kw: compare_to_golden("loh3", **kw),
        lambda **kw: plane_wave_convergence(**kw),
    ],
    ids=["verify_scenario", "verify_suite", "compare_to_golden", "plane_wave_convergence"],
)
def test_entry_points_take_no_rank_host(entry):
    """Every multi-rank check forks its ranks: no entry point takes a
    ``backend``, and passing one fails before anything runs."""
    with pytest.raises(TypeError, match="unexpected keyword argument 'backend'"):
        entry(n_ranks=2, backend="process")


class TestVerifySuite:
    @pytest.mark.slow
    def test_full_suite_passes_under_fast_kernels(self, monkeypatch):
        # shrink the convergence leg: the dedicated convergence tests own
        # the full ladder, the suite test owns the orchestration
        monkeypatch.setattr(
            harness_module,
            "SUITE_CONVERGENCE",
            dict(order=2, lengths=(500.0, 250.0), t_end=0.01),
        )
        report = verify_suite(kernels="fast")
        assert report["passed"]
        kinds = [check["kind"] for check in report["checks"]]
        assert kinds == ["golden", "golden", "golden", "convergence"]
        scenarios = [check["scenario"] for check in report["checks"]]
        assert scenarios == ["la_habra", "loh3", "loh3_fused2", "plane_wave"]


class TestGoldenStructuralMismatch:
    """Schedule drift is a hard error, never a tolerance question."""

    def test_sample_count_mismatch_raises(self, tmp_path, monkeypatch):
        import json

        import repro.verification.golden as golden_module

        golden = load_golden("la_habra")
        broken = json.loads(json.dumps(golden))
        for fixture in broken["receivers"].values():
            fixture["times"] = fixture["times"][:-1]
            fixture["values"] = fixture["values"][:-1]
        (tmp_path / "golden_la_habra.json").write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="samples"):
            compare_to_golden("la_habra", directory=tmp_path)

    def test_sample_time_mismatch_raises(self, tmp_path):
        import json

        golden = load_golden("la_habra")
        broken = json.loads(json.dumps(golden))
        for fixture in broken["receivers"].values():
            fixture["times"] = list(np.asarray(fixture["times"]) * 1.001)
        (tmp_path / "golden_la_habra.json").write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="times"):
            compare_to_golden("la_habra", directory=tmp_path)

    def test_unsupported_fixture_format_raises(self, tmp_path):
        import json

        golden = load_golden("la_habra")
        broken = dict(golden, format_version=999)
        (tmp_path / "golden_la_habra.json").write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="format"):
            load_golden("la_habra", directory=tmp_path)
