"""The program hooks the end-to-end benchmark harness keys on.

``benchmarks/e2e/layers.py`` substitutes setup-path callables by attribute
name, and ``benchmarks/e2e/harness.py`` builds preprocessing caches,
prewarms them and runs sweeps on a named store.  A refactor that drops or
renames one of these must fail here, on every test leg, instead of only at
the benchmark.  The harness files are imported as they are, not edited.
"""

import sys
from pathlib import Path

import pytest

from repro.preprocessing.cache import PreprocessingCache, warm_preprocessing
from repro.scenarios import get_scenario, make_runner
from repro.sweep import SweepAxis, SweepSpec, read_manifest, run_sweep

_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(_E2E))
    try:
        import layers as module
    finally:
        sys.path.remove(str(_E2E))
    return module


def tiny_sweep():
    base = get_scenario(
        "loh3", extent_m=4000.0, characteristic_length=2000.0, n_mechanisms=1
    ).with_overrides(order=2, n_clusters=2, lam=0.8, n_cycles=2, n_partitions=2)
    locations = [[0.0, 0.0, -1000.0], [500.0, 0.0, -1000.0]]
    return SweepSpec(
        base=base, axes=[SweepAxis(path="source.location", values=locations)], name="hooks"
    )


def test_every_setup_target_resolves(layers):
    targets = layers.setup_targets()
    assert targets
    for owner, attribute, span in targets:
        assert callable(getattr(owner, attribute)), (owner, attribute, span)


def test_the_harness_cache_and_sweep_calls(layers, tmp_path):
    """The calls of ``harness.run_solver`` (a cold setup into a fresh
    store, a warm one re-reading it) and of ``harness.run_sweep_workload``
    (a prewarm into a scratch store, then whole sweeps on one store)."""
    harness = sys.modules["harness"]
    sweep = tiny_sweep()
    members = sweep.expand()

    cold = PreprocessingCache(tmp_path / "cache0")
    make_runner(members[0].spec, cache=cold)
    warm = PreprocessingCache(tmp_path / "cache0")
    make_runner(members[0].spec, cache=warm)
    assert all(c["misses"] > 0 for c in cold.snapshot().values())
    assert all(c == {"hits": 1, "misses": 0} for c in warm.snapshot().values())

    scratch = PreprocessingCache(tmp_path / "prewarm0")
    assert all(c["misses"] == 1 for c in warm_preprocessing(members[0].spec, scratch).values())

    for index, prewarmed in enumerate([1, 0]):
        out_dir = tmp_path / f"sweep{index}"
        tally = run_sweep(
            sweep, out_dir, workers=harness.SWEEP_WORKERS, cache_dir=tmp_path / "cache", fuse=True
        )
        assert (tally["done"], tally["failed"], tally["prewarmed"]) == (2, 0, prewarmed)
        done = [r for r in read_manifest(out_dir / "manifest.jsonl")
                if r.get("record") == "member" and r["status"] == "done"]
        assert len(done) == 2
        for row in done:
            assert all(c["misses"] == 0 and c["hits"] > 0 for c in row["cache"].values())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep0", "sweep1"]
