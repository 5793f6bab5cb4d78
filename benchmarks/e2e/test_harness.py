"""Tests of the benchmark harness itself (``pytest benchmarks/e2e -q``).

Not collected by tier-1 (``testpaths = tests``).  They exercise the
harness's arithmetic and bookkeeping on synthetic inputs; no workload runs.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- pooled percentiles and the sample-count rule -----------------------------


def test_percentile_interpolates_linearly():
    assert probe.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert probe.percentile([4.0, 1.0, 3.0, 2.0], 75.0) == 3.25
    assert probe.percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize(
    "n, tail_q", [(10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (1000, 99.0)]
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, tail_q):
    pooled = probe.pooled_percentiles(range(n))
    assert pooled["n"] == n
    assert pooled["p50"] == (n - 1) / 2
    assert pooled["tail_q"] == tail_q
    assert (pooled["tail"] is None) == (tail_q is None)


# -- probe normalisation -------------------------------------------------------


def test_normalise_is_identity_on_a_reference_speed_host():
    assert probe.normalise(1.5, probe.PROBE_REF_S, probe.PROBE_REF_S) == 1.5


def test_normalise_divides_by_the_mean_of_adjacent_probes():
    # a host running at half speed (probe takes twice as long) doubles the
    # raw wall; the normalised second undoes exactly that
    assert probe.normalise(2.0, 2 * probe.PROBE_REF_S, 2 * probe.PROBE_REF_S) == pytest.approx(1.0)
    assert probe.normalise(1.0, 0.010, 0.030) == pytest.approx(1.0)


def constant_probe(monkeypatch, host, walls):
    """Make every sample of reading ``i`` take ``walls[i]`` seconds."""
    def sample():
        wall = walls[len(host.readings)]
        host.samples.append(wall)
        return wall

    monkeypatch.setattr(host, "sample", sample)


def test_timed_reuses_the_previous_reading_as_before(monkeypatch):
    host = probe.HostProbe()
    constant_probe(monkeypatch, host, [0.020, 0.040, 0.040])
    _, _, first = host.timed(lambda: None)
    assert host.readings == [0.020, 0.040]  # before (none yet -> read) and after
    _, raw, second = host.timed(lambda: None)
    assert host.readings == [0.020, 0.040, 0.040]  # only the "after" is new
    assert second == pytest.approx(raw * 0.020 / 0.040)


def test_a_reading_is_a_burst_sized_to_the_operation(monkeypatch):
    host = probe.HostProbe()
    constant_probe(monkeypatch, host, [0.020] * 3)
    host.read()
    assert len(host.samples) == 3  # never fewer than three samples
    host.read(after_wall_s=2.0)  # 5 % of 2 s = 0.1 s -> five 20 ms samples
    assert len(host.samples) == 3 + 5
    host.read(after_wall_s=60.0)
    assert len(host.samples) == 3 + 5 + 15  # capped


# -- spans ----------------------------------------------------------------------


def fake_clock(ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_with_nested_and_sibling_spans():
    #      outer 0..10 ; a 1..4 (inner 2..3) ; b 5..9
    rec = SpanRecorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("outer"):
        with rec.span("a"):
            with rec.span("inner"):
                pass
        with rec.span("b"):
            pass
    names = [s["name"] for s in rec.spans]
    own = dict(zip(names, rec.self_times()))
    assert own == {"outer": 10 - 3 - 4, "a": 3 - 1, "inner": 1, "b": 4}
    assert sum(own.values()) == 10  # self times sum to the root's duration
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0]


def test_spans_carry_the_identifier_current_at_their_start():
    rec = SpanRecorder(clock=fake_clock(range(10)))
    rec.ident = ("w", "cycle", 3)
    with rec.span("x"):
        pass
    assert rec.to_json()[0]["id"] == ["w", "cycle", 3]
    assert rec.totals(lambda s: s["id"][1] == "setup") == {}


class _Layer:
    def method(self, x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls.__name__, x)


def test_wrappers_are_restored_after_an_exception_in_a_traced_call():
    rec = SpanRecorder()
    instance = _Layer()
    original_method = _Layer.__dict__["method"]
    original_build = _Layer.__dict__["build"]
    with pytest.raises(ValueError):
        with rec.installed([
            (instance, "method", "layer.instance"),
            (_Layer, "method", "layer.class"),
            (_Layer, "build", "layer.build"),
        ]):
            assert _Layer.build(2) == ("_Layer", 2)  # classmethod binding survives
            assert _Layer().method(1) == 2  # class-level wrap keeps `self`
            instance.method(-1)
    assert "method" not in vars(instance)
    assert _Layer.__dict__["method"] is original_method
    assert _Layer.__dict__["build"] is original_build
    assert [s["name"] for s in rec.spans] == ["layer.build", "layer.class", "layer.instance"]
    assert all(s["end"] is not None for s in rec.spans)  # closed despite the raise


# -- operations attempted / failed ---------------------------------------------


def test_a_raised_cycle_and_a_non_finite_state_count_as_failures():
    class Solver:
        n_element_updates = 0

    class Runner:
        solver = Solver()
        calls = 0

        def step_cycle(self):
            self.calls += 1
            if self.calls == 2:
                raise FloatingPointError("diverged")
            self.solver.n_element_updates += 7

    result = harness.RunResult("basin-s-lts", seed=0, n_ops=3)
    runner = Runner()
    assert harness.step_checked(result, runner, "cycle", expected_updates=7)
    assert not harness.step_checked(result, runner, "cycle", expected_updates=7)
    assert harness.step_checked(result, runner, "cycle", expected_updates=8)  # count mismatch
    result.checks.finite("final state", np.array([1.0, np.nan]))
    checks = result.checks
    assert (checks.attempted, checks.failed) == (3, 3)
    assert [f["check"] for f in checks.failures] == [
        "operation_raised", "updates_per_cycle", "finite_state",
    ]
    assert not checks.correct
    assert len(result.raw("cycle")) == 2  # the raised cycle left no timing sample


def test_rel_err_is_relative_to_the_reference_peak():
    checks = harness.Checks()
    checks.attempted = 1
    reference = np.array([0.0, 2.0, -4.0])
    checks.compare("ok", reference + 4e-10, reference)
    assert checks.correct and checks.rel_err == pytest.approx(1e-10)
    checks.compare("bad", reference + 4e-8, reference)
    assert [f["check"] for f in checks.failures] == ["rel_err_vs_ref"]


def test_a_workload_needing_more_processes_than_cores_is_refused(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    with pytest.raises(ValueError, match="measure the scheduler"):
        harness.run_workload("loh3-m-2rank", seed=0, seconds=1)


# -- compare ---------------------------------------------------------------------


def result_set(values, counts=None, host=None):
    return {
        "host": host or {"cpu_count": 2, "numpy": "2", "blas": "b", "python": "3", "platform": "p"},
        "workloads": {
            "w": {
                "end_to_end": {
                    name: {"median": float(np.median(v)), "values": v, "unit": "s"}
                    for name, v in values.items()
                },
                "counts": counts or {"core.updates_per_cycle": 10},
            }
        },
    }


METRICS = [
    {"name": "cycle_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "updates_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def verdicts(a, b):
    rows, mismatches = compare.compare(a, b, METRICS)
    return {row["metric"]: row["verdict"] for row in rows}, mismatches


def test_compare_verdicts():
    base = result_set({"cycle_s_p50": [1.0, 1.02], "updates_per_s": [100.0, 101.0]})
    slower = result_set({"cycle_s_p50": [1.2, 1.22], "updates_per_s": [80.0, 81.0]})
    faster = result_set({"cycle_s_p50": [0.5, 0.51], "updates_per_s": [200.0, 201.0]})
    noisy = result_set({"cycle_s_p50": [1.0, 1.5], "updates_per_s": [100.0, 100.5]})
    assert verdicts(base, base)[0] == {"cycle_s_p50": "ok", "updates_per_s": "ok"}
    assert verdicts(base, slower)[0] == {"cycle_s_p50": "worse", "updates_per_s": "worse"}
    assert verdicts(base, faster)[0] == {"cycle_s_p50": "ok", "updates_per_s": "ok"}
    # a spread wider than the bound can say neither "unchanged" nor "worse"
    assert verdicts(base, noisy)[0] == {"cycle_s_p50": "unresolved", "updates_per_s": "ok"}


def test_compare_requires_exact_counts_and_equal_hosts(tmp_path, capsys):
    base = result_set({"cycle_s_p50": [1.0]})
    other = result_set({"cycle_s_p50": [1.0]}, counts={"core.updates_per_cycle": 11})
    assert verdicts(base, other)[1] == ["w: core.updates_per_cycle 10 != 11"]
    foreign = result_set({"cycle_s_p50": [1.0]}, host=dict(base["host"], cpu_count=64))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(foreign))
    assert compare.main(str(a), str(b)) == 2
    assert "cpu_count" in capsys.readouterr().err
    b.write_text(json.dumps(other))
    assert compare.main(str(a), str(b)) == 1  # count mismatch is a failure
    assert compare.main(str(a), str(a)) == 0


def test_relative_spread_uses_quartiles_from_four_values_on():
    assert probe.relative_spread([1.0]) == 0.0
    assert probe.relative_spread([1.0, 1.1]) == pytest.approx(0.1 / 1.05)
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert probe.relative_spread(values) == pytest.approx((4.5 - 1.5) / 3.0)


# -- names and the contract file -------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_and_workload_names_are_well_formed_and_unique():
    names = list(wl.WORKLOAD_NAMES) + list(harness.END_TO_END) + list(layers.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    units = list(harness.END_TO_END.values()) + list(layers.PER_LAYER.values())
    assert all(UNIT.fullmatch(unit) for unit in units)


def test_benchmark_json_names_what_the_harness_reports():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert BENCHMARK["run_seconds"] == wl.NOMINAL_SECONDS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_generated_inputs_depend_only_on_the_seed():
    for name in wl.WORKLOAD_NAMES:
        assert wl.generate(name, 5) == wl.generate(name, 5)
        assert wl.generate(name, 5) != wl.generate(name, 6)
        spec = wl.generate(name, 5).get("spec") or wl.generate(name, 5)["sweep"]["base"]
        assert (spec["solver"]["kernels"], spec["solver"]["precision"]) == ("fast", "f64")
        assert spec["mesh"]["seed"] == 0  # the seed moves the source, never the mesh
    assert wl.n_operations("loh3-m-lts", 5) == 8
    assert wl.n_operations("loh3-m-lts", 0.1) == wl.WORKLOADS["loh3-m-lts"]["min_ops"]
