"""Slot-wise bit-identity of fused ensembles with distinct per-slot sources.

The fused axis is only trustworthy if it is *transparent*: slot ``f`` of an
F-wide fused run must reproduce the standalone scalar run of source ``f``
bit for bit (ref kernels, f64), through the full LTS machinery -- on
one rank and on 2 forked rank workers, whose halo payloads carry the
fused axis.  The halo traffic of a fused run must also match the F-scaled
exchange model exactly: fused ensembles amortize *messages*, never bytes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.distributed import ProcessLtsEngine
from repro.scenarios import FusedSourceSpec, ScenarioRunner, get_scenario, make_runner

pytestmark = pytest.mark.distributed

WIDTH = 4


@pytest.fixture(scope="module")
def fused_loh3():
    """A small 2-cluster LOH.3 variant with 4 genuinely distinct slots."""
    spec = get_scenario(
        "loh3",
        extent_m=4000.0,
        characteristic_length=2000.0,
        order=2,
        n_mechanisms=1,
        lam=1.0,
        n_clusters=2,
        n_cycles=3,
    )
    slots = tuple(
        FusedSourceSpec(
            moment_scale=1.0 - 0.15 * f,
            time_function=dict(kind="ricker", params={"f0": 2.0, "t0": 0.4 + 0.05 * f}),
        )
        for f in range(WIDTH)
    )
    return replace(
        spec.with_overrides(n_fused=WIDTH, precision="f64"),
        source=replace(spec.source, fused=slots),
    )


def _scalar_slot_spec(fused_spec, f):
    """The standalone scalar spec of fused slot ``f``."""
    return replace(
        fused_spec,
        source=fused_spec.source.slot(f),
        solver=replace(fused_spec.solver, n_fused=0),
    )


class TestSerialSlotIdentity:
    def test_each_slot_bit_identical_to_scalar_run(self, fused_loh3):
        spec = fused_loh3.with_overrides(kernels="ref")
        fused = ScenarioRunner(spec)
        summary = fused.run()
        assert summary["n_fused"] == WIDTH
        for f in range(WIDTH):
            scalar = ScenarioRunner(_scalar_slot_spec(spec, f))
            scalar.run()
            np.testing.assert_array_equal(fused.solver.dofs[..., f], scalar.solver.dofs)
            for receiver in scalar.receivers.receivers:
                t_s, v_s = receiver.seismogram()
                t_f, v_f = fused.receivers[receiver.name].seismogram()
                np.testing.assert_array_equal(t_f, t_s)
                np.testing.assert_array_equal(v_f[..., f], v_s)

    def test_slots_are_genuinely_distinct(self, fused_loh3):
        fused = ScenarioRunner(fused_loh3.with_overrides(kernels="ref"))
        fused.run()
        dofs = fused.solver.dofs
        for f in range(1, WIDTH):
            assert np.any(dofs[..., f] != dofs[..., 0])


class TestProcessBackendSlotIdentity:
    @pytest.fixture(scope="class")
    def process_run(self, fused_loh3):
        spec = fused_loh3.with_overrides(kernels="ref", n_ranks=2)
        runner = make_runner(spec)
        assert runner.solver is runner.engine
        assert isinstance(runner.engine, ProcessLtsEngine)
        summary = runner.run()
        return runner, summary

    def test_each_slot_bit_identical_to_scalar_single_rank(
        self, fused_loh3, process_run
    ):
        process, summary = process_run
        assert summary["n_fused"] == WIDTH
        for f in range(WIDTH):
            scalar = ScenarioRunner(
                _scalar_slot_spec(fused_loh3.with_overrides(kernels="ref"), f)
            )
            scalar.run()
            np.testing.assert_array_equal(
                process.solver.dofs[..., f], scalar.solver.dofs
            )
            for receiver in scalar.receivers.receivers:
                t_s, v_s = receiver.seismogram()
                t_p, v_p = process.receivers[receiver.name].seismogram()
                np.testing.assert_array_equal(t_p, t_s)
                np.testing.assert_array_equal(v_p[..., f], v_s)

    def test_measured_halo_bytes_match_f_scaled_model(self, fused_loh3, process_run):
        _, summary = process_run
        model = summary["comm"]["model"]
        assert summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]
        assert summary["comm"]["measured_messages_per_cycle"] == model["n_messages"]

        # the model itself must scale exactly with F over the scalar run:
        # fused halos carry F times the bytes in the same number of messages
        scalar_spec = _scalar_slot_spec(fused_loh3.with_overrides(kernels="ref"), 0)
        scalar = make_runner(scalar_spec.with_overrides(n_ranks=2))
        scalar_summary = scalar.run()
        scalar_model = scalar_summary["comm"]["model"]
        assert model["total_bytes"] == WIDTH * scalar_model["total_bytes"]
        assert model["n_messages"] == scalar_model["n_messages"]
        assert (
            summary["comm"]["measured_bytes_per_cycle"]
            == WIDTH * scalar_summary["comm"]["measured_bytes_per_cycle"]
        )
        assert (
            summary["comm"]["measured_messages_per_cycle"]
            == scalar_summary["comm"]["measured_messages_per_cycle"]
        )
