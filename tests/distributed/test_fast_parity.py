"""Fast-kernel parity of the distributed engine.

Every contraction of the fast backend is per element or per face, so an
element's bits depend neither on the block nor on the batch around it, and
the distributed boundary/interior split does not change a single bit:
distributed fast runs equal the single-rank fast run exactly.  (The
``F_bar`` projection once ran one GEMM per face class over a whole block;
BLAS picks its kernel by the row count, so at order 4 a rank split moved
bits.  The order-4 runs below hold that shut.)  Fast against ``ref`` stays
tolerance-equal (1e-11), the contract the verification harness pins.
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
def single_rank_fast(tiny_loh3):
    runner = ScenarioRunner(tiny_loh3.with_overrides(kernels="fast"))
    runner.run()
    return runner


def _rel_err(a, b):
    scale = np.abs(np.asarray(b, dtype=np.float64)).max()
    return np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max() / scale


class TestFastDistributed:
    def test_2rank_fast_matches_single_rank_bitwise(self, tiny_loh3, single_rank_fast):
        dist = make_runner(tiny_loh3.with_overrides(n_ranks=2, kernels="fast"))
        summary = dist.run()
        assert summary["kernels"] == "fast"
        assert dist.solver.n_element_updates == single_rank_fast.solver.n_element_updates
        np.testing.assert_array_equal(dist.solver.dofs, single_rank_fast.solver.dofs)
        for receiver in single_rank_fast.receivers.receivers:
            ts, vs = receiver.seismogram()
            td, vd = dist.receivers[receiver.name].seismogram()
            np.testing.assert_array_equal(td, ts)
            np.testing.assert_array_equal(vd, vs)
        # the halo payload volume does not depend on the kernel backend
        model = summary["comm"]["model"]
        assert summary["comm"]["measured_bytes_per_cycle"] == model["total_bytes"]

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_order4_2rank_fast_matches_single_rank_bitwise(self, tiny_loh3, precision):
        """Order 4 over 12 cycles: the per-class ``F_bar`` GEMM differed
        from the third cycle on (f64)."""
        spec = tiny_loh3.with_overrides(order=4, n_cycles=12, kernels="fast", precision=precision)
        single = ScenarioRunner(spec)
        single.run()
        dist = make_runner(spec.with_overrides(n_ranks=2))
        dist.run()
        assert dist.solver.dofs.dtype == single.solver.dofs.dtype
        np.testing.assert_array_equal(dist.solver.dofs, single.solver.dofs)
        for receiver in single.receivers.receivers:
            ts, vs = receiver.seismogram()
            td, vd = dist.receivers[receiver.name].seismogram()
            np.testing.assert_array_equal(td, ts)
            np.testing.assert_array_equal(vd, vs)

    def test_fast_vs_ref_distributed_within_tolerance(self, tiny_loh3):
        """2-rank fast vs 2-rank ref: the kernels, not the halo exchange,
        are the only difference."""
        ref = make_runner(tiny_loh3.with_overrides(n_ranks=2, kernels="ref"))
        ref.run()
        fast = make_runner(tiny_loh3.with_overrides(n_ranks=2, kernels="fast"))
        fast.run()
        assert _rel_err(fast.solver.dofs, ref.solver.dofs) <= 1e-11

    @pytest.mark.slow
    def test_process_workers_rebuild_fast_backend_by_name(self, tiny_loh3):
        """The forked ranks build the kernels the spec names: only the ref
        correction times its local surface half as a region of its own (the
        fast correction is one fused pass)."""
        regions = {}
        for kernels in ("ref", "fast"):
            runner = make_runner(
                tiny_loh3.with_overrides(n_ranks=2, kernels=kernels, n_cycles=1, telemetry=True)
            )
            regions[kernels] = runner.run()["telemetry"]["regions"]
        assert "correct/kernel.surface_local" in regions["ref"]
        assert "correct/kernel.surface_local" not in regions["fast"]
        assert "correct/kernel.surface_neighbor" in regions["fast"]
