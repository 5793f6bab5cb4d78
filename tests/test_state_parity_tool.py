"""``benchmarks/state_parity.py``: digests that see every bit, a compare
that names each differing or missing array, and a run state that repeats
bit for bit."""

import importlib.util
from pathlib import Path

import numpy as np

from repro.scenarios import get_scenario

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "state_parity.py"
_spec = importlib.util.spec_from_file_location("state_parity", _SCRIPT)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_a_digest_sees_the_sign_of_zero_the_dtype_and_the_shape():
    zeros = np.zeros(4)
    assert parity.digest(zeros) == parity.digest(zeros.copy())
    assert parity.digest(zeros) != parity.digest(-zeros)
    assert parity.digest(zeros) != parity.digest(zeros.astype(np.float32))
    assert parity.digest(zeros) != parity.digest(zeros.reshape(2, 2))
    assert parity.digest(np.ones((3, 2)).T) == parity.digest(np.ones((2, 3)))


def test_compare_names_missing_and_differing_arrays():
    ours = {"a/ref/dofs": "x", "a/fast/dofs": "y", "b/ref/dofs": "z"}
    assert parity.compare(ours, dict(ours)) == []
    reference = {"a/ref/dofs": "x", "a/fast/dofs": "changed", "c/ref/dofs": "z"}
    assert parity.compare(ours, reference) == [
        "missing in one side: b/ref/dofs",
        "missing in one side: c/ref/dofs",
        "a/fast/dofs: differs",
    ]


def test_the_cases_and_a_run_state_that_repeats_bitwise():
    names = list(parity.cases())
    for name in ("loh3-m-lts", "loh3-m-gts", "basin-s-lts/4rank", "loh3-m-lts/f32",
                 "golden-loh3_fused2"):
        assert name in names
    spec = get_scenario("loh3").smoke()
    first, second = (parity.state(spec, "ref", cycles=1) for _ in range(2))
    assert first["dofs"].shape[0] == 162 and any(k.startswith("seismogram_") for k in first)
    assert {k: parity.digest(v) for k, v in first.items()} == {
        k: parity.digest(v) for k, v in second.items()
    }
    fast = parity.state(spec, "fast", cycles=1)
    assert parity.digest(fast["dofs"]) != parity.digest(first["dofs"])
