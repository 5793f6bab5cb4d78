"""The content-addressed preprocessing cache: keying, stability, bit-identity.

The keying tests pin the contract the sweep service leans on: two specs
that differ only in source location share every preprocessing artifact,
observability knobs never split the cache, and changing the mesh h or the
material options misses exactly the stages whose result they determine.
The bit-identity tests assert that cached runs are indistinguishable from
uncached ones -- DOFs and all.
"""

import numpy as np
import pytest

from repro.preprocessing.cache import (
    PreprocessingCache,
    STAGES,
    result_content_hash,
    stage_key,
    warm_preprocessing,
)
from repro.observability import spec_content_hash
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner, build_setup, make_runner
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
        # n_mechanisms shapes the assembled operators but not the mesh,
        # the sampled material table or the CFL clustering
        b = all_stage_keys(tiny_loh3(n_mechanisms=2))
        assert b["mesh"] == a["mesh"]
        assert b["materials"] == a["materials"]
        assert b["clustering"] == a["clustering"]
        assert b["operators"] != a["operators"]
        # the anelastic switch strips the sampled table itself
        c = all_stage_keys(
            ScenarioSpec.from_dict(
                {**spec.to_dict(), "material": {**spec.to_dict()["material"],
                                                "anelastic": False}}
            )
        )
        assert c["mesh"] == a["mesh"]
        assert c["materials"] != a["materials"]
        assert c["operators"] != a["operators"]

    def test_precision_misses_only_operators(self):
        a = all_stage_keys(tiny_loh3())
        b = all_stage_keys(tiny_loh3().with_overrides(precision="f32"))
        assert b["mesh"] == a["mesh"]
        assert b["materials"] == a["materials"]
        assert b["clustering"] == a["clustering"]
        assert b["operators"] != a["operators"]

    def test_reordered_layout_gets_its_own_operator_entry(self):
        spec = tiny_loh3().with_overrides(n_partitions=2, reorder=True)
        assert stage_key(spec, "operators") != stage_key(
            spec, "operators", layout="reordered"
        )

    def test_unknown_stage_and_layout_raise(self):
        spec = tiny_loh3()
        with pytest.raises(ValueError, match="stage"):
            stage_key(spec, "nope")
        with pytest.raises(ValueError, match="layout"):
            stage_key(spec, "operators", layout="sideways")


class TestCacheBitIdentity:
    def test_shared_mesh_members_load_bit_identical_artifacts(self, tmp_path):
        spec_a = tiny_loh3()
        spec_b = moved_source(spec_a)
        cache_a = PreprocessingCache(tmp_path)
        setup_a = build_setup(spec_a, cache=cache_a)
        assert all(c["misses"] >= 0 for c in cache_a.stats.values())

        cache_b = PreprocessingCache(tmp_path)
        setup_b = build_setup(spec_b, cache=cache_b)
        for stage in ("mesh", "materials", "operators"):
            assert cache_b.stats[stage] == {"hits": 1, "misses": 0}, stage
        assert np.array_equal(setup_a.mesh.vertices, setup_b.mesh.vertices)
        assert np.array_equal(setup_a.mesh.elements, setup_b.mesh.elements)
        assert np.array_equal(setup_a.materials.rho, setup_b.materials.rho)
        for name, array in setup_a.disc.operator_arrays().items():
            assert np.array_equal(array, setup_b.disc.operator_arrays()[name]), name

        clustering_a = cache_a.clustering(spec_a, setup_a.clustering)
        clustering_b = cache_b.clustering(spec_b, setup_b.clustering)
        assert cache_b.stats["clustering"] == {"hits": 1, "misses": 0}
        assert np.array_equal(clustering_a.cluster_ids, clustering_b.cluster_ids)
        assert np.array_equal(
            clustering_a.cluster_time_steps, clustering_b.cluster_time_steps
        )

    def test_differing_mesh_h_misses_on_disk(self, tmp_path):
        cache = PreprocessingCache(tmp_path)
        warm_preprocessing(tiny_loh3(), cache)
        other = PreprocessingCache(tmp_path)
        build_setup(tiny_loh3(characteristic_length=1000.0), cache=other)
        for stage in ("mesh", "materials", "operators"):
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
        assert np.array_equal(plain.preprocessed.partitions, warm.preprocessed.partitions)

    def test_cache_written_at_an_older_format_version_is_a_miss(self, tmp_path, monkeypatch):
        """Version 2 stored the index-range (interleaved) partition under the
        key fields version 3 still uses: it must miss, not replay."""
        from repro.preprocessing import cache as cache_module

        spec = tiny_loh3().with_overrides(n_partitions=2, reorder=True)
        assert cache_module.CACHE_FORMAT_VERSION == 3
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 2)
        old_keys = all_stage_keys(spec)
        warm_preprocessing(spec, PreprocessingCache(tmp_path))
        assert PreprocessingCache(tmp_path).is_warm(spec)
        monkeypatch.undo()

        assert all(all_stage_keys(spec)[stage] != old_keys[stage] for stage in STAGES)
        cache = PreprocessingCache(tmp_path)
        assert not cache.is_warm(spec)
        make_runner(spec, cache=cache)
        assert cache.stats["partition"] == {"hits": 0, "misses": 1}

    def test_reordered_run_assembles_and_caches_one_operator_set(self, tmp_path, monkeypatch):
        """The original-layout operators were only ever read for
        ``time_steps``; a reordering run builds the solver-order set alone."""
        from repro.kernels.discretization import Discretization

        built = []
        init = Discretization.__init__
        monkeypatch.setattr(
            Discretization, "__init__",
            lambda self, *a, **kw: built.append(kw.get("operators") is None) or init(self, *a, **kw),
        )
        spec = tiny_loh3().with_overrides(n_partitions=2, reorder=True)
        cache = PreprocessingCache(tmp_path)
        cold = make_runner(spec, cache=cache)
        assert built == [True]
        assert cache.stats["operators"] == {"hits": 0, "misses": 1}
        assert len(list((tmp_path / "operators").iterdir())) == 1

        setup = build_setup(spec)
        assert setup.disc is None
        permutation = cold.cache.partition(spec)["permutation"]
        assert np.array_equal(setup.time_steps[permutation], cold.setup.disc.time_steps)

        warm_cache = PreprocessingCache(tmp_path)
        make_runner(spec, cache=warm_cache)
        assert warm_cache.stats["operators"] == {"hits": 1, "misses": 0}
        assert built == [True, False]

    def test_is_warm_tracks_every_needed_stage(self, tmp_path):
        spec = tiny_loh3()
        cache = PreprocessingCache(tmp_path)
        assert not cache.is_warm(spec)
        warm_preprocessing(spec, cache)
        assert cache.is_warm(spec)
        # the reordered variant needs its own operator set and the partition
        reordered = spec.with_overrides(n_partitions=2, reorder=True)
        assert not cache.is_warm(reordered)
        warm_preprocessing(reordered, cache)
        assert cache.is_warm(reordered)
