"""The content-addressed preprocessing cache: keying, stability, bit-identity.

The keying tests pin the contract the sweep service leans on: two specs
that differ only in source location share every preprocessing artifact,
observability knobs never split the cache, and changing the mesh h or the
material options misses exactly the stages whose result they determine.
The bit-identity tests assert that cached runs are indistinguishable from
uncached ones -- DOFs and all.  The assembled operators are not a stage:
a cached run assembles them exactly once and stores nothing for them.  The
store is in-process: one per root, read-only, and never a file.
"""

import numpy as np
import pytest

from repro.preprocessing.cache import (
    PreprocessingCache,
    STAGES,
    diff_stats,
    needed_stage_keys,
    result_content_hash,
    stage_key,
    warm_preprocessing,
)
from repro.observability import spec_content_hash
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner, build_setup, make_runner, staged_setup
from repro.scenarios.spec import ScenarioSpec


def tiny_loh3(**factory):
    """The tiny LOH.3 variant of the CLI smokes, as a runnable spec."""
    factory = {
        "extent_m": 4000.0, "characteristic_length": 2000.0, "n_mechanisms": 1,
        **factory,
    }
    return get_scenario("loh3", **factory).with_overrides(
        order=2, n_clusters=2, lam=0.8, n_cycles=2
    )


def moved_source(spec, location=(500.0, 250.0, -1500.0)):
    data = spec.to_dict()
    data["source"]["location"] = list(location)
    return ScenarioSpec.from_dict(data)


def all_stage_keys(spec):
    return {stage: stage_key(spec, stage) for stage in STAGES}


HIT = {"hits": 1, "misses": 0}
MISS = {"hits": 0, "misses": 1}


class TestStageKeys:
    def test_source_location_shares_every_stage(self):
        spec = tiny_loh3()
        assert all_stage_keys(spec) == all_stage_keys(moved_source(spec))

    def test_output_knobs_never_split_the_cache(self):
        spec = tiny_loh3()
        instrumented = spec.with_overrides(
            events="out/run.jsonl", telemetry=True, progress=True
        )
        assert all_stage_keys(spec) == all_stage_keys(instrumented)
        assert result_content_hash(spec) == result_content_hash(instrumented)
        # ...unlike the full-spec content hash, which does see the output block
        assert spec_content_hash(spec) != spec_content_hash(instrumented)

    def test_defaults_filled_json_round_trip_is_stable(self):
        spec = tiny_loh3()
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert all_stage_keys(spec) == all_stage_keys(rebuilt)
        assert result_content_hash(spec) == result_content_hash(rebuilt)

    def test_dict_key_order_does_not_matter(self):
        spec = tiny_loh3()
        shuffled = {key: spec.to_dict()[key] for key in reversed(list(spec.to_dict()))}
        assert all_stage_keys(spec) == all_stage_keys(ScenarioSpec.from_dict(shuffled))

    def test_mesh_h_misses_every_stage(self):
        a = all_stage_keys(tiny_loh3())
        b = all_stage_keys(tiny_loh3(characteristic_length=1000.0))
        for stage in STAGES:
            assert a[stage] != b[stage], stage

    def test_material_fields_miss_only_downstream_stages(self):
        a, spec = all_stage_keys(tiny_loh3()), tiny_loh3()
        # n_mechanisms shapes the assembled operators only -- which are not
        # a stage -- so no artifact is split by it
        assert all_stage_keys(tiny_loh3(n_mechanisms=2)) == a
        # the anelastic switch strips the sampled table itself
        c = all_stage_keys(
            ScenarioSpec.from_dict(
                {**spec.to_dict(), "material": {**spec.to_dict()["material"],
                                                "anelastic": False}}
            )
        )
        assert c["mesh"] == a["mesh"]
        assert c["materials"] != a["materials"]
        assert c["clustering"] != a["clustering"]

    def test_operator_only_fields_share_every_stage(self):
        """Precision and flux are read by operator assembly alone."""
        a = all_stage_keys(tiny_loh3())
        assert all_stage_keys(tiny_loh3().with_overrides(precision="f32")) == a
        data = tiny_loh3().to_dict()
        data["solver"]["flux"] = "godunov"
        assert all_stage_keys(ScenarioSpec.from_dict(data)) == a

    def test_stages_and_needed_keys(self):
        assert STAGES == ("mesh", "materials", "clustering", "partition")
        spec = tiny_loh3()
        assert [stage for stage, _ in needed_stage_keys(spec)] == [
            "mesh", "materials", "clustering"
        ]
        reordered = spec.with_overrides(n_partitions=2, reorder=True)
        assert needed_stage_keys(reordered) == [
            (stage, stage_key(reordered, stage)) for stage in STAGES
        ]

    def test_partition_stage_ignores_the_reorder_switch(self):
        """With more than one partition both ``reorder`` values store the
        same partitions and permutation, so they share one artifact; the
        partition count still splits it."""
        keyed = tiny_loh3().with_overrides(n_partitions=2)
        assert all_stage_keys(keyed.with_overrides(reorder=True)) == all_stage_keys(
            keyed.with_overrides(reorder=False)
        )
        assert stage_key(keyed.with_overrides(n_partitions=3), "partition") != stage_key(
            keyed, "partition"
        )

    def test_gts_and_lts_share_all_but_the_partition_stage(self, tmp_path):
        """Both kinds derive the policy's clustering and share that artifact;
        a GTS run partitions and orders by its own one-cluster clustering,
        so its partition stage is its own entry."""
        lts = tiny_loh3().with_overrides(n_partitions=2)
        gts = lts.with_overrides(solver="gts")
        a, b = all_stage_keys(lts), all_stage_keys(gts)
        assert {s: a[s] for s in STAGES[:-1]} == {s: b[s] for s in STAGES[:-1]}
        assert a["partition"] != b["partition"]
        cache = PreprocessingCache(tmp_path / "cache")
        make_runner(lts, cache=cache)
        before = cache.snapshot()
        runner = make_runner(gts, cache=cache)
        delta = diff_stats(before, cache.snapshot())
        assert {stage: delta[stage] for stage in STAGES[:-1]} == {s: HIT for s in STAGES[:-1]}
        assert delta["partition"] == MISS
        assert runner.clustering.counts.tolist() == [runner.setup.mesh.n_elements, 0]

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError, match="stage"):
            stage_key(tiny_loh3(), "operators")


class TestCacheBitIdentity:
    def test_shared_mesh_members_load_bit_identical_artifacts(self, tmp_path):
        spec_a = tiny_loh3()
        spec_b = moved_source(spec_a)
        cache_a = PreprocessingCache(tmp_path)
        setup_a = build_setup(spec_a, cache=cache_a)
        assert all(c["misses"] >= 0 for c in cache_a.stats.values())

        cache_b = PreprocessingCache(tmp_path)
        setup_b = build_setup(spec_b, cache=cache_b)
        for stage in ("mesh", "materials"):
            assert cache_b.stats[stage] == HIT, stage
        assert np.array_equal(setup_a.mesh.vertices, setup_b.mesh.vertices)
        assert np.array_equal(setup_a.mesh.elements, setup_b.mesh.elements)
        assert np.array_equal(setup_a.materials.rho, setup_b.materials.rho)
        for name, array in setup_a.disc.operator_arrays().items():
            assert np.array_equal(array, setup_b.disc.operator_arrays()[name]), name

        assert cache_b.stats["clustering"] == HIT
        assert np.array_equal(setup_a.clustering.cluster_ids, setup_b.clustering.cluster_ids)
        assert np.array_equal(
            setup_a.clustering.cluster_time_steps, setup_b.clustering.cluster_time_steps
        )

    def test_differing_mesh_h_misses_in_the_store(self, tmp_path):
        cache = PreprocessingCache(tmp_path)
        warm_preprocessing(tiny_loh3(), cache)
        other = PreprocessingCache(tmp_path)
        build_setup(tiny_loh3(characteristic_length=1000.0), cache=other)
        for stage in ("mesh", "materials"):
            assert other.stats[stage]["misses"] == 1, stage

    def test_cached_run_is_bit_identical_to_uncached(self, tmp_path):
        spec = tiny_loh3()
        plain = ScenarioRunner(spec)
        plain_summary = plain.run()

        cold = ScenarioRunner(spec, cache=PreprocessingCache(tmp_path))
        cold_summary = cold.run()
        warm_cache = PreprocessingCache(tmp_path)
        warm = ScenarioRunner(spec, cache=warm_cache)
        warm_summary = warm.run()

        assert all(c["misses"] == 0 for c in warm_cache.stats.values())
        assert np.array_equal(plain.solver.dofs, cold.solver.dofs)
        assert np.array_equal(plain.solver.dofs, warm.solver.dofs)
        for key in ("t_end", "element_updates", "lambda", "n_clusters", "n_elements"):
            assert plain_summary[key] == cold_summary[key] == warm_summary[key], key

    def test_preprocessed_run_is_bit_identical_to_uncached(self, tmp_path):
        spec = tiny_loh3().with_overrides(n_partitions=2, reorder=True)
        plain = make_runner(spec)
        plain.run()

        stats = warm_preprocessing(spec, PreprocessingCache(tmp_path))
        assert stats["partition"]["misses"] == 1
        warm_cache = PreprocessingCache(tmp_path)
        warm = make_runner(spec, cache=warm_cache)
        warm.run()
        assert warm_cache.is_warm(spec)
        assert all(c["misses"] == 0 for c in warm_cache.stats.values())
        assert np.array_equal(plain.solver.dofs, warm.solver.dofs)
        assert np.array_equal(
            plain.clustering.cluster_ids, warm.clustering.cluster_ids
        )
        assert np.array_equal(plain.setup.partitions, warm.setup.partitions)

    def test_cli_and_spec_file_partitioned_runs_share_the_partition(self, tmp_path):
        """A ``reorder: true`` spec and a spec file with only
        ``n_partitions: 2`` are the same problem: the second hits the
        first's artifact."""
        spec = tiny_loh3().with_overrides(n_partitions=2)
        make_runner(spec.with_overrides(reorder=True), cache=PreprocessingCache(tmp_path))
        second = PreprocessingCache(tmp_path)
        from_file = make_runner(spec, cache=second)
        assert all(second.stats[stage] == HIT for stage in STAGES)
        assert [stage for stage, _ in second.entries].count("partition") == 1
        assert from_file.setup.partitions.max() == 1

    @pytest.mark.parametrize("reorder", [False, True])
    def test_operators_are_assembled_once_and_never_stored(self, tmp_path, monkeypatch, reorder):
        spec = tiny_loh3()
        if reorder:
            spec = spec.with_overrides(n_partitions=2, reorder=True)
        plain = make_runner(spec)

        from repro.kernels.discretization import Discretization

        built = []
        init = Discretization.__init__
        monkeypatch.setattr(
            Discretization, "__init__",
            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw),
        )
        cold = make_runner(spec, cache=PreprocessingCache(tmp_path))
        warm_cache = PreprocessingCache(tmp_path)
        warm = make_runner(spec, cache=warm_cache)
        assert len(built) == 2  # one per runner, cold or warm
        assert built[1] is warm.setup.disc
        assert sorted(warm_cache.entries) == sorted(needed_stage_keys(spec))
        assert all(c["misses"] == 0 for c in warm_cache.stats.values())
        for name, array in plain.setup.disc.operator_arrays().items():
            assert np.array_equal(array, cold.setup.disc.operator_arrays()[name]), name
            assert np.array_equal(array, warm.setup.disc.operator_arrays()[name]), name

    @pytest.mark.parametrize("reorder", [False, True])
    def test_prewarm_assembles_no_operators(self, tmp_path, monkeypatch, reorder):
        """The sweep prewarm fills the cached stages only: every member run
        assembles its own operators, so a prewarm that built a
        Discretization would pay for one nobody uses."""
        from repro.kernels.discretization import Discretization

        spec = tiny_loh3()
        if reorder:
            spec = spec.with_overrides(n_partitions=2, reorder=True)
        built = []
        init = Discretization.__init__
        monkeypatch.setattr(
            Discretization, "__init__",
            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw),
        )
        delta = warm_preprocessing(spec, PreprocessingCache(tmp_path))
        assert built == []
        assert sorted(delta) == sorted(stage for stage, _ in needed_stage_keys(spec))
        assert PreprocessingCache(tmp_path).is_warm(spec)

    def test_reordered_setup_is_assembled_in_solver_order(self, tmp_path):
        """``build_setup`` of a reordering spec applies the cached stage's
        permutation once and assembles the operators in that order."""
        spec = tiny_loh3().with_overrides(n_partitions=2, reorder=True)
        runner = make_runner(spec, cache=PreprocessingCache(tmp_path))
        setup = build_setup(spec)
        permutation = runner.cache.partition(spec)["permutation"]
        assert np.array_equal(setup.mesh.original_ids, permutation)
        staged = staged_setup(spec)
        assert np.array_equal(staged.time_steps[permutation], setup.disc.time_steps)
        assert np.array_equal(setup.disc.time_steps, runner.setup.disc.time_steps)

    def test_is_warm_and_the_sweep_signature_follow_the_needed_stages(self, tmp_path):
        from repro.sweep.orchestrator import preprocessing_signature

        spec = tiny_loh3()
        cache = PreprocessingCache(tmp_path)
        assert not cache.is_warm(spec)
        warm_preprocessing(spec, cache)
        assert cache.is_warm(spec)
        # operator-only fields need no artifact of their own ...
        f32 = spec.with_overrides(precision="f32")
        assert cache.is_warm(f32)
        assert preprocessing_signature(f32) == preprocessing_signature(spec)
        # ... the reordered variant needs the partition stage on top
        reordered = spec.with_overrides(n_partitions=2, reorder=True)
        assert preprocessing_signature(reordered) != preprocessing_signature(spec)
        assert not cache.is_warm(reordered)
        stats = warm_preprocessing(reordered, cache)
        assert stats == {
            "mesh": HIT, "materials": HIT, "clustering": HIT, "partition": MISS,
        }
        assert cache.is_warm(reordered)


class TestInProcessStore:
    """One store per root per process: shared by every cache on the root,
    read-only, unpacked into new objects on a hit, and never a file."""

    def test_no_file_appears_under_the_root(self, tmp_path):
        spec = tiny_loh3().with_overrides(n_partitions=2)
        root = tmp_path / "store"
        warm_preprocessing(spec, PreprocessingCache(root))
        assert not root.exists()
        cache = PreprocessingCache(root)
        build_setup(spec, cache=cache)
        assert all(c == HIT for c in cache.stats.values())
        build_setup(tiny_loh3(characteristic_length=1000.0), cache=cache)
        assert not root.exists()
        assert list(tmp_path.iterdir()) == []

    def test_stored_arrays_are_read_only_and_a_hit_returns_new_objects(self, tmp_path):
        spec = tiny_loh3().with_overrides(n_partitions=2)
        cache = PreprocessingCache(tmp_path)
        make_runner(spec, cache=cache)
        assert sorted(cache.entries) == sorted(needed_stage_keys(spec))
        stored = [a for entry in cache.entries.values() for a in entry.values()]
        arrays = [a for a in stored if isinstance(a, np.ndarray)]
        assert len(arrays) == len(stored) - 2  # the clustering's lam and dt_min are floats
        assert not any(a.flags.writeable for a in arrays)

        def never():
            raise AssertionError("a hit must not build")

        first, second = cache.mesh(spec, never), cache.mesh(spec, never)
        assert first is not second
        packed = cache.entries["mesh", stage_key(spec, "mesh")]
        for name in ("vertices", "elements", "boundary_tags"):
            a, b = getattr(first, name), getattr(second, name)
            assert np.array_equal(a, packed[name]) and a.dtype == packed[name].dtype
            assert a.flags.writeable
            assert not np.shares_memory(a, b) and not np.shares_memory(a, packed[name])
        clustering = cache.clustering(spec, never)
        assert clustering.cluster_ids.flags.writeable
        hit = cache.partition(spec)
        assert hit is not cache.partition(spec)
        assert all(array.flags.writeable for array in hit.values())

        # what a miss built stays the caller's: the store keeps copies
        fresh = PreprocessingCache(tmp_path / "fresh")
        built = fresh.mesh(spec, lambda: first)
        assert built is first and first.elements.flags.writeable
        kept = fresh.entries["mesh", stage_key(spec, "mesh")]["elements"]
        assert not np.shares_memory(kept, first.elements)

    def test_writing_into_a_hit_leaves_the_store_intact(self, tmp_path):
        """A caller may scribble on what a hit returns: the next hit, on any
        cache of the root, still reads what the miss stored."""
        spec = tiny_loh3().with_overrides(n_partitions=2)
        cache = PreprocessingCache(tmp_path)
        make_runner(spec, cache=cache)
        before = {k: {n: np.copy(a) for n, a in e.items()} for k, e in cache.entries.items()}

        def never():
            raise AssertionError("a hit must not build")

        mesh = cache.mesh(spec, never)
        mesh.vertices += 1.0
        mesh.elements[:] = 0
        materials = cache.materials(spec, never)
        materials.rho *= 2.0
        clustering = cache.clustering(spec, never)
        clustering.cluster_ids[:] = 0
        for array in cache.partition(spec).values():
            array[...] = 0

        again = PreprocessingCache(tmp_path)
        assert again.entries.keys() == before.keys()
        for key, entry in again.entries.items():
            for name, array in entry.items():
                assert np.array_equal(array, before[key][name]), (key, name)
        assert np.array_equal(
            again.mesh(spec, never).vertices, before["mesh", stage_key(spec, "mesh")]["vertices"]
        )

    def test_caches_share_entries_per_root(self, tmp_path):
        spec = tiny_loh3()
        first = PreprocessingCache(tmp_path / "a")
        warm_preprocessing(spec, first)
        same_root = PreprocessingCache(tmp_path / "x" / ".." / "a")
        assert same_root.entries is first.entries and same_root.is_warm(spec)
        assert warm_preprocessing(spec, same_root) == {stage: HIT for stage in STAGES[:-1]}
        other_root = PreprocessingCache(tmp_path / "b")
        assert other_root.entries is not first.entries and not other_root.is_warm(spec)
        assert warm_preprocessing(spec, other_root) == {stage: MISS for stage in STAGES[:-1]}
