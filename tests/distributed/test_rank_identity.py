"""Single- vs multi-rank bit-identity.

Both kernel kinds step a multi-rank run bitwise like the single-rank run:
``ref`` because the halo ships exactly the ``F_bar`` products the receiver
would have formed, ``fast`` because every contraction is per element or per
face, so the boundary/interior split cuts no arithmetic.  loh3 and la_habra
(5 clusters, free surface, both ``LARGER`` parities) at orders 3 and 4 and
at 2 and 4 ranks cover the halo packs and the overlay of the fused
correction under every relation kind; the measured traffic equals the
machine model's.  Threads inside a rank are the last row: a fast run at
the CPUs' thread budget equals the run on one CPU.
"""

import os
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, make_runner

pytestmark = pytest.mark.distributed


@cache
def _spec(scenario, kernels, order):
    return get_scenario(scenario).smoke().with_overrides(kernels=kernels, order=order)


@cache
def _single(scenario, kernels, order):
    runner = ScenarioRunner(_spec(scenario, kernels, order))
    runner.run()
    return runner


@pytest.mark.parametrize("n_ranks", [2, 4])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("kernels", ["ref", "fast"])
@pytest.mark.parametrize("scenario", ["loh3", "la_habra"])
def test_multi_rank_run_is_bitwise_the_single_rank_run(scenario, kernels, order, n_ranks):
    single = _single(scenario, kernels, order)
    dist = make_runner(_spec(scenario, kernels, order).with_overrides(n_ranks=n_ranks))
    summary = dist.run()
    assert np.array_equal(dist.solver.dofs, single.solver.dofs)
    assert dist.solver.n_element_updates == single.solver.n_element_updates
    for receiver in single.receivers.receivers:
        ts, vs = receiver.seismogram()
        td, vd = dist.receivers[receiver.name].seismogram()
        assert np.array_equal(td, ts) and np.array_equal(vd, vs), receiver.name
    comm, model = summary["comm"], summary["comm"]["model"]
    assert comm["measured_bytes_per_cycle"] == model["total_bytes"]
    assert comm["measured_messages_per_cycle"] == model["n_messages"]


_AFFINITY_RUN = textwrap.dedent("""
    import os
    import numpy as np
    from repro.kernels import backend, threads
    from repro.scenarios import ScenarioRunner, get_scenario

    backend._BLOCK_STACK_BYTES = 1 << 16  # the smoke mesh in many blocks
    spec = get_scenario("loh3").smoke().with_overrides(kernels="fast")
    cpus = os.sched_getaffinity(0)
    runs = []
    for affinity in (cpus, {min(cpus)}):
        os.sched_setaffinity(0, affinity)
        runner = ScenarioRunner(spec)
        runner.run()
        runs.append((threads.thread_budget(), runner.solver.dofs.copy()))
    (n_threads, threaded), (one, single) = runs
    assert n_threads == len(cpus) and one == 1, (n_threads, one)
    assert np.array_equal(threaded, single)
""")


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2, reason="needs 2 CPUs"
)
def test_threads_from_the_real_affinity_step_bitwise_like_one_cpu():
    """A real process on every CPU of its affinity mask (one BLAS thread
    per call, so each CPU is a kernel thread) against the same process
    pinned to one CPU."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _AFFINITY_RUN], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
