"""Fast kernel mode through the scenario layer: CLI, checkpoints, verify.

The fast backend is spec-addressable (``--kernels fast``) and deterministic
(a fast checkpoint resumes in fast mode and continues bit-identically).  The
``repro verify`` subcommand is the shipping bar.
"""

import numpy as np
import pytest

import repro.verification.golden as golden_module
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.cli import main


@pytest.fixture()
def tiny_plane_wave():
    return get_scenario(
        "plane_wave", extent_m=1500.0, characteristic_length=750.0, order=2, n_cycles=4
    )


class TestFastThroughRunner:
    def test_summary_reports_fast_and_tracks_reference(self, tiny_plane_wave):
        fast = ScenarioRunner(tiny_plane_wave.with_overrides(kernels="fast"))
        s_fast = fast.run()
        assert s_fast["kernels"] == "fast"
        ref = ScenarioRunner(tiny_plane_wave.with_overrides(kernels="ref"))
        ref.run()
        scale = np.abs(ref.solver.dofs).max()
        err = np.abs(fast.solver.dofs - ref.solver.dofs).max()
        assert 0.0 <= err <= 1e-12 * scale
        # the analytic accuracy block agrees to the same fidelity
        assert s_fast["accuracy"]["rel_l2"] == pytest.approx(
            ref.summary()["accuracy"]["rel_l2"], rel=1e-9
        )

    def test_checkpoint_resume_continues_fast_bitwise(self, tiny_plane_wave, tmp_path):
        spec = tiny_plane_wave.with_overrides(kernels="fast")
        path = tmp_path / "fast.ckpt.npz"
        full = ScenarioRunner(spec)
        full.run()
        half = ScenarioRunner(spec)
        for _ in range(2):
            half.step_cycle()
        half.save_checkpoint(path)
        resumed = ScenarioRunner.resume(path)
        assert resumed.spec.solver.kernels == "fast"
        resumed.run()
        # fast is deterministic: the continuation replays the same GEMMs
        assert np.array_equal(resumed.solver.dofs, full.solver.dofs)

    @pytest.mark.parametrize("kernels,precision", [("ref", "f64"), ("ref", "f32"), ("fast", "f32")])
    def test_checkpoint_resumes_in_its_own_kernels_and_precision(
        self, tiny_plane_wave, tmp_path, kernels, precision
    ):
        """Kernel kind and precision are checkpointed state: the resumed
        run keeps both and continues bit-identically."""
        spec = tiny_plane_wave.with_overrides(kernels=kernels, precision=precision)
        path = tmp_path / "x.ckpt.npz"
        full = ScenarioRunner(spec)
        full.run()
        half = ScenarioRunner(spec)
        half.step_cycle()
        half.save_checkpoint(path)
        resumed = ScenarioRunner.resume(path)
        assert resumed.spec.solver.kernels == kernels
        assert resumed.spec.solver.precision == precision
        resumed.run()
        assert resumed.solver.dofs.dtype == full.solver.dofs.dtype
        assert np.array_equal(resumed.solver.dofs, full.solver.dofs)

    def test_resume_offers_no_kernel_override(self, tiny_plane_wave, tmp_path, capsys):
        path = tmp_path / "r.ckpt.npz"
        runner = ScenarioRunner(tiny_plane_wave.with_overrides(kernels="ref"))
        runner.step_cycle()
        runner.save_checkpoint(path)
        with pytest.raises(TypeError):
            ScenarioRunner.resume(path, kernels="fast")
        with pytest.raises(SystemExit) as exit_info:
            main(["resume", str(path), "--kernels", "fast"])
        assert exit_info.value.code == 2


class TestVerifyCli:
    def test_run_accepts_fast(self, capsys):
        rc = main(["run", "plane_wave", "--smoke", "--kernels", "fast", "--quiet"])
        assert rc == 0

    def test_verify_golden_scenario_passes(self, capsys):
        assert main(["verify", "loh3", "--kernels", "fast", "--quiet"]) == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_verify_2rank_golden_scenario_passes(self, backend, capsys):
        argv = ["verify", "loh3", "--kernels", "fast", "--ranks", "2",
                "--backend", backend, "--quiet"]
        assert main(argv) == 0

    def test_verify_unknown_scenario_is_input_error(self, capsys):
        assert main(["verify", "does_not_exist", "--quiet"]) == 2

    def test_verify_failure_sets_exit_code(self, monkeypatch, capsys):
        # an impossible ladder: even the reassociation floor fails it
        monkeypatch.setitem(
            golden_module.SCENARIO_TOLERANCES, "la_habra", {("fast", "f64"): 0.0}
        )
        assert main(["verify", "la_habra", "--kernels", "fast", "--quiet"]) == 1

    def test_update_golden_writes_fixtures(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(golden_module, "FIXTURES_DIR", tmp_path)
        assert main(["verify", "la_habra", "--update-golden", "--quiet"]) == 0
        assert (tmp_path / "golden_la_habra.json").exists()
