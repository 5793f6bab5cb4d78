"""Scenario-layer coverage of the kernel-backend/precision options plus the
seismogram-output header logic."""

import json

import numpy as np
import pytest

from repro.kernels.backend import KERNEL_KINDS
from repro.kernels.discretization import PRECISIONS
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.cli import build_parser, main as cli_main
from repro.scenarios.outputs import (
    seismogram_header,
    write_fused_slot_seismograms,
    write_seismograms,
)
from repro.scenarios.spec import SOLVER_KERNELS, SOLVER_PRECISIONS, ScenarioSpec, SolverSpec
from repro.source.receivers import Receiver


@pytest.fixture(scope="module")
def tiny_loh3():
    return get_scenario(
        "loh3",
        extent_m=4000.0,
        characteristic_length=2000.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=3,
    )


class TestSpecOptions:
    def test_defaults_and_round_trip(self, tiny_loh3):
        import os

        # the default follows REPRO_KERNELS (the CI fast leg soaks every
        # spec-driven test through it), falling back to the reference kernels
        assert tiny_loh3.solver.kernels == (os.environ.get("REPRO_KERNELS") or "ref")
        assert tiny_loh3.solver.precision == "f64"
        spec = tiny_loh3.with_overrides(kernels="fast", precision="f32")
        assert spec.solver.kernels == "fast" and spec.solver.precision == "f32"
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="kernels"):
            SolverSpec(kernels="vectorized")
        with pytest.raises(ValueError, match="precision"):
            SolverSpec(precision="f128")
        # "fast" is a real kernel mode (tolerance-equal, see repro.verification)
        assert SolverSpec(kernels="fast").kernels == "fast"

    def test_spec_choices_match_the_kernel_layer(self):
        # the spec stays import-light, so it restates these tuples
        assert SOLVER_KERNELS == KERNEL_KINDS
        assert SOLVER_PRECISIONS == PRECISIONS

    def test_opt_kernels_rejected_naming_the_two_kinds(self, tiny_loh3, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"\('ref', 'fast'\)"):
            SolverSpec(kernels="opt")
        # a serialised spec naming the removed kind fails the same validation
        payload = tiny_loh3.to_dict()
        payload["solver"]["kernels"] = "opt"
        with pytest.raises(ValueError, match=r"\('ref', 'fast'\)"):
            ScenarioSpec.from_dict(payload)
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["run", "--spec", str(path), "--quiet"]) == 2
        assert "('ref', 'fast')" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "loh3", "--kernels", "opt"])
        assert exit_info.value.code == 2
        assert "'ref', 'fast'" in capsys.readouterr().err

    def test_cli_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "loh3", "--kernels", "fast", "--precision", "f32"]
        )
        assert args.kernels == "fast" and args.precision == "f32"


class TestRunnerBackendOptions:
    def test_summary_reports_kernels_and_precision(self, tiny_loh3):
        runner = ScenarioRunner(tiny_loh3.with_overrides(kernels="fast"))
        summary = runner.run()
        assert summary["kernels"] == "fast"
        assert summary["precision"] == "f64"

    def test_f32_seismograms_match_f64_within_tolerance(self, tiny_loh3):
        """The documented f32 accuracy contract: LOH.3-style seismograms at
        f32 match the f64 run within 5e-4 of the peak amplitude (a few
        hundred single-precision roundings over the run)."""
        f64 = ScenarioRunner(tiny_loh3)
        f64.run()
        for kernels in ("ref", "fast"):
            f32 = ScenarioRunner(
                tiny_loh3.with_overrides(precision="f32", kernels=kernels)
            )
            f32.run()
            for receiver in f64.receivers.receivers:
                t64, v64 = receiver.seismogram()
                t32, v32 = f32.receivers[receiver.name].seismogram()
                assert v32.dtype == np.float32
                assert np.array_equal(t64, t32)  # sampling times are f64 exact
                scale = np.abs(v64).max()
                assert np.abs(v32.astype(np.float64) - v64).max() <= 5e-4 * scale

    def test_cli_run_with_kernels_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", "plane_wave", "--smoke", "--kernels", "fast",
                "--precision", "f32", "--output-dir", str(out), "--quiet",
            ]
        )
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["kernels"] == "fast" and summary["precision"] == "f32"


class TestSeismogramHeaders:
    def test_header_variants(self):
        assert seismogram_header(0) == "time,vx,vy,vz"
        assert seismogram_header(3) == "time,vx,vy,vz"
        assert (
            seismogram_header(6) == "time,vx_0,vx_1,vy_0,vy_1,vz_0,vz_1"
        )
        with pytest.raises(ValueError):
            seismogram_header(4)

    def _receiver_with_samples(self, samples):
        receiver = Receiver(name="r0", location=np.zeros(3), element=0)
        for t, sample in enumerate(samples):
            receiver.times.append(float(t))
            receiver.samples.append(np.asarray(sample))
        return receiver

    def _write(self, receiver, tmp_path):
        class Shim:
            receivers = [receiver]

        (path,) = write_seismograms(Shim(), tmp_path)
        lines = path.read_text().strip().splitlines()
        return lines[0], lines[1:]

    def test_fused_header_matches_flattened_column_order(self, tmp_path):
        samples = [np.arange(6.0).reshape(3, 2) * (i + 1) for i in range(2)]
        header, rows = self._write(self._receiver_with_samples(samples), tmp_path)
        assert header == "time,vx_0,vx_1,vy_0,vy_1,vz_0,vz_1"
        values = np.loadtxt(tmp_path / "seismogram_r0.csv", delimiter=",", skiprows=1)
        # row-major flatten of (3, 2): vx_0, vx_1, vy_0, ...
        assert np.array_equal(values[0, 1:], samples[0].reshape(-1))

    def test_n_fused_1_is_consistent_with_scalar(self, tmp_path):
        fused1 = [np.arange(3.0).reshape(3, 1), np.arange(3.0).reshape(3, 1) * 2]
        header_fused, _ = self._write(self._receiver_with_samples(fused1), tmp_path)
        scalar = [np.arange(3.0), np.arange(3.0) * 2]
        header_scalar, _ = self._write(self._receiver_with_samples(scalar), tmp_path)
        assert header_fused == header_scalar == "time,vx,vy,vz"

    def test_empty_recording_writes_header_only(self, tmp_path):
        header, rows = self._write(self._receiver_with_samples([]), tmp_path)
        assert header == "time,vx,vy,vz"
        assert rows == []

    def test_fused_runner_outputs_round_trip(self, tiny_loh3, tmp_path):
        runner = ScenarioRunner(tiny_loh3.with_overrides(n_fused=2, n_cycles=1))
        runner.run()
        paths = write_seismograms(runner.receivers, tmp_path)
        for path in paths:
            header = path.read_text().splitlines()[0]
            assert header == "time,vx_0,vx_1,vy_0,vy_1,vz_0,vz_1"
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            assert table.shape[1] == 7


class TestFusedSlotDemux:
    """CSV demux of fused recordings into per-slot scalar seismograms."""

    def _receiver(self, samples):
        receiver = Receiver(name="r0", location=np.zeros(3), element=0)
        for t, sample in enumerate(samples):
            receiver.times.append(float(t))
            receiver.samples.append(np.asarray(sample))
        return receiver

    def _shim(self, *receivers):
        class Shim:
            pass

        shim = Shim()
        shim.receivers = list(receivers)
        return shim

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_demux_slices_each_slot_with_scalar_header(self, width, tmp_path):
        rng = np.random.default_rng(width)
        samples = [rng.normal(size=(3, width)) for _ in range(5)]
        receivers = self._shim(self._receiver(samples))
        for f in range(width):
            out = tmp_path / f"slot{f}"
            (path,) = write_fused_slot_seismograms(receivers, out, slot=f)
            header, *rows = path.read_text().strip().splitlines()
            assert header == "time,vx,vy,vz"
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            expected = np.stack([s[:, f] for s in samples])
            np.testing.assert_array_equal(table[:, 1:], expected)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_demuxed_csv_byte_identical_to_scalar_writer(self, width, tmp_path):
        """Each demuxed slot file must be the exact bytes the scalar writer
        produces for that slot's samples (the --fuse demux contract)."""
        rng = np.random.default_rng(7 + width)
        samples = [rng.normal(size=(3, width)) for _ in range(4)]
        fused = self._shim(self._receiver(samples))
        for f in range(width):
            (demuxed,) = write_fused_slot_seismograms(fused, tmp_path / f"d{f}", slot=f)
            scalar = self._shim(self._receiver([s[:, f] for s in samples]))
            (direct,) = write_seismograms(scalar, tmp_path / f"s{f}")
            assert demuxed.read_bytes() == direct.read_bytes()

    def test_unrecorded_station_keeps_scalar_header(self, tmp_path):
        """A station never hit by a local step records nothing; both writers
        emit the scalar-header empty CSV for it (no fused columns)."""
        fused = self._shim(self._receiver([]))
        (demuxed,) = write_fused_slot_seismograms(fused, tmp_path / "d", slot=1)
        (direct,) = write_seismograms(fused, tmp_path / "s")
        assert demuxed.read_text().strip() == "time,vx,vy,vz"
        assert demuxed.read_bytes() == direct.read_bytes()

    def test_mixed_recorded_and_unrecorded_stations(self, tmp_path):
        rng = np.random.default_rng(3)
        recorded = self._receiver([rng.normal(size=(3, 2)) for _ in range(3)])
        silent = Receiver(name="r1", location=np.zeros(3), element=1)
        paths = write_fused_slot_seismograms(self._shim(recorded, silent), tmp_path, slot=0)
        assert [p.name for p in paths] == ["seismogram_r0.csv", "seismogram_r1.csv"]
        assert paths[1].read_text().strip() == "time,vx,vy,vz"
        assert len(paths[0].read_text().strip().splitlines()) == 4

    def test_demux_of_scalar_recording_raises(self, tmp_path):
        scalar = self._shim(self._receiver([np.arange(3.0) for _ in range(2)]))
        with pytest.raises(ValueError, match="nothing to demux"):
            write_fused_slot_seismograms(scalar, tmp_path, slot=0)

