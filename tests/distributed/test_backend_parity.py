"""Kernel-backend parity and precision across the distributed engines.

Asserts the PR's distributed acceptance criteria:

* a 2-rank run under the reference kernels (f64) is bit-identical to the
  single-rank reference run (DOFs, seismograms, update counts), whichever
  legacy ``solver.backend`` value its spec names,
* an f32 distributed run ships f32 halo payloads -- measured traffic equals
  the machine model evaluated at 4 bytes per value -- and, on the fast
  kernels, equals the single-rank f32 run bitwise,
* the ``repro run loh3 --smoke --ranks 2`` halo is thin (under half the
  elements on a partition boundary) and ships at most one pack per
  (src, dst, micro step), its measured bytes exactly the modelled ones.
"""

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, make_runner

pytestmark = pytest.mark.distributed


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


@pytest.fixture(scope="module")
def single_rank_ref(tiny_loh3):
    # explicitly the reference kernels, so the bitwise comparison stays
    # meaningful when the suite itself runs under REPRO_KERNELS=fast
    runner = ScenarioRunner(tiny_loh3.with_overrides(kernels="ref"))
    runner.run()
    return runner


class TestRefKernelsDistributed:
    def test_2rank_ref_bit_identical_to_single_rank_ref(self, tiny_loh3, single_rank_ref):
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=2, kernels="ref"))
        summary = dist.run()
        assert summary["kernels"] == "ref"
        assert np.array_equal(dist.solver.dofs, single_rank_ref.solver.dofs)
        assert dist.solver.n_element_updates == single_rank_ref.solver.n_element_updates
        for receiver in single_rank_ref.receivers.receivers:
            ts, vs = receiver.seismogram()
            td, vd = dist.receivers[receiver.name].seismogram()
            assert np.array_equal(ts, td) and np.array_equal(vs, vd)
        model = summary["comm"]["model"]
        assert summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]

    def test_2rank_ref_process_backend_bit_identical(self, tiny_loh3, single_rank_ref):
        dist = make_runner(
            tiny_loh3.with_overrides(n_ranks=2, kernels="ref", backend="process")
        )
        dist.run()
        assert np.array_equal(dist.solver.dofs, single_rank_ref.solver.dofs)
        assert dist.solver.n_element_updates == single_rank_ref.solver.n_element_updates


class TestF32Distributed:
    def test_f32_payloads_halve_the_measured_traffic(self, tiny_loh3):
        f64 = make_runner(tiny_loh3.with_overrides(n_ranks=2))
        s64 = f64.run()
        f32 = make_runner(tiny_loh3.with_overrides(n_ranks=2, precision="f32"))
        s32 = f32.run()
        assert f32.solver.dofs.dtype == np.float32
        # measured == model at the run's value size, and f32 is half of f64
        assert s32["comm"]["measured_bytes_per_cycle"] == s32["comm"]["model"]["total_bytes"]
        assert s64["comm"]["measured_bytes_per_cycle"] == s64["comm"]["model"]["total_bytes"]
        assert (
            s32["comm"]["model"]["total_bytes"] * 2
            == s64["comm"]["model"]["total_bytes"]
        )
        assert s32["comm"]["measured_messages_per_cycle"] == s64[
            "comm"
        ]["measured_messages_per_cycle"]

    def test_f32_distributed_matches_f32_single_rank_bitwise(self, tiny_loh3):
        """Under the reference kernels the contractions are batch-shape
        independent, so f32 distributed runs stay bit-identical too."""
        spec = tiny_loh3.with_overrides(precision="f32", kernels="ref")
        single = ScenarioRunner(spec)
        single.run()
        dist = make_runner(spec.with_overrides(n_ranks=2))
        dist.run()
        assert dist.solver.dofs.dtype == np.float32
        assert np.array_equal(dist.solver.dofs, single.solver.dofs)

    def test_f32_fast_distributed_matches_single_rank_bitwise(self, tiny_loh3):
        """Every fast contraction is per element or per face, so the
        distributed boundary/interior split leaves f32 runs bit-identical
        too."""
        spec = tiny_loh3.with_overrides(precision="f32", kernels="fast")
        single = ScenarioRunner(spec)
        single.run()
        dist = make_runner(spec.with_overrides(n_ranks=2))
        dist.run()
        assert dist.solver.dofs.dtype == np.float32
        np.testing.assert_array_equal(dist.solver.dofs, single.solver.dofs)


class TestSmokeHalo:
    def test_loh3_smoke_2rank_halo_is_thin_and_packed(self):
        spec = get_scenario("loh3").with_overrides(n_ranks=2).smoke()
        summary = make_runner(spec).run()
        comm = summary["comm"]
        # a partition that interleaves the ranks still computes the right
        # answer, so the shape of the halo is asserted on its own
        assert comm["boundary_element_fraction"] < 0.5, comm
        assert comm["measured_bytes_per_cycle"] == comm["model"]["total_bytes"], comm
        # one pack per (src, dst, micro step), never one message per face
        n_ranks, micro_steps = summary["n_ranks"], 2 ** (summary["n_clusters"] - 1)
        assert comm["measured_messages_per_cycle"] <= n_ranks * (n_ranks - 1) * micro_steps, comm
