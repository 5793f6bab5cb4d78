"""Committed golden seismogram fixtures and the tolerance ladder.

A golden fixture freezes the seismograms of one small, fully-pinned
scenario configuration as produced by the bit-exact reference backend at
f64.  Regression tests re-run the *frozen spec* (stored inside the fixture,
so registry-factory drift cannot silently move the goal posts) under every
kernel backend and precision, and diff the new traces against the fixture
under an explicit tolerance ladder:

========== ========= ==================================================
kernels    precision peak-relative tolerance
========== ========= ==================================================
ref        f64       1e-12 (regeneration guard; the floor only absorbs
                     numpy-version drift)
fast       f64       1e-9  (BLAS reassociation at double precision)
any        f32       2e-3  (single-precision accumulation)
========== ========= ==================================================

"Peak-relative" compares ``max |v - v_golden|`` against the receiver's peak
golden amplitude, the standard seismological normalisation (absolute
differences in the coda are meaningless compared to machine noise at the
peak).  Per-scenario overrides live in :data:`SCENARIO_TOLERANCES`.

Updating fixtures
-----------------
Run ``repro verify --update-golden`` after a change that *legitimately*
alters the physics (new flux, changed operators) and commit the rewritten
JSON together with the change.  Never update fixtures to quiet a tolerance
failure of a non-bit-exact backend -- that is the regression the fixtures
exist to catch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "GOLDEN_SCENARIOS",
    "SCENARIO_TOLERANCES",
    "golden_fixture_path",
    "golden_spec",
    "record_golden",
    "load_golden",
    "seismogram_tolerance",
    "compare_to_golden",
]

GOLDEN_FORMAT_VERSION = 1

FIXTURES_DIR = Path(__file__).parent / "fixtures"

#: the registry scenarios with committed golden traces, pinned to small
#: configurations (a few hundred elements) whose run window is long enough
#: for the source wavefield to actually arrive at the receivers -- a golden
#: trace of pre-arrival noise would compare everything against zero.  The
#: ``time_function`` entries speed the published (long-period) sources up so
#: the arrival fits an affordable window; the traces are a frozen numerical
#: trajectory for regression, not physics-resolved seismograms.
GOLDEN_SCENARIOS = {
    "loh3": dict(
        factory=dict(
            extent_m=6000.0,
            characteristic_length=2000.0,
            order=3,
            n_mechanisms=3,
            jitter=0.2,
            lam=0.7,
            n_clusters=2,
            n_cycles=75,
        ),
        time_function=dict(kind="ricker", params={"f0": 2.5, "t0": 0.35}),
    ),
    "la_habra": dict(
        factory=dict(
            extent_m=8000.0,
            depth_m=6000.0,
            max_frequency=0.3,
            order=3,
            min_vs=800.0,
            n_clusters=2,
            n_cycles=30,
        ),
        time_function=dict(kind="gaussian_derivative", params={"sigma": 0.3, "t0": 0.8}),
    ),
    # a fused width-2 ensemble with *distinct* per-slot sources on the LOH.3
    # golden configuration: slot 0 is the plain golden source, slot 1 scales
    # the moment down and retunes the wavelet -- the regression that the
    # fused axis carries per-slot physics, not F copies of one run
    "loh3_fused2": dict(
        base="loh3",
        factory=dict(
            extent_m=6000.0,
            characteristic_length=2000.0,
            order=3,
            n_mechanisms=3,
            jitter=0.2,
            lam=0.7,
            n_clusters=2,
            n_cycles=75,
        ),
        time_function=dict(kind="ricker", params={"f0": 2.5, "t0": 0.35}),
        fused=[
            dict(moment_scale=1.0),
            dict(
                moment_scale=0.6,
                time_function=dict(kind="ricker", params={"f0": 2.0, "t0": 0.5}),
            ),
        ],
    ),
}

#: peak-relative tolerance ladder, keyed by (kernels, precision)
DEFAULT_TOLERANCES = {
    ("ref", "f64"): 1e-12,
    ("fast", "f64"): 1e-9,
    ("ref", "f32"): 2e-3,
    ("fast", "f32"): 2e-3,
}

#: per-scenario overrides of the default ladder (same key structure)
SCENARIO_TOLERANCES: dict = {
    # the La Habra basin's low-velocity zone accumulates more f32 rounding
    # over a macro cycle than the stiffer LOH.3 layers
    "la_habra": {("ref", "f32"): 5e-3, ("fast", "f32"): 5e-3},
    # the distinct-source fused golden pins the whole f64 ladder explicitly:
    # ref stays on the bit-identical floor per the slot-wise bit-identity
    # contract (each fused slot IS the scalar run of that slot's source), and
    # fast's folded-GEMM fused contractions are held to the scalar fast tier
    "loh3_fused2": {
        ("ref", "f64"): 1e-12,
        ("fast", "f64"): 1e-9,
    },
}


def seismogram_tolerance(scenario: str, kernels: str, precision: str) -> float:
    """The peak-relative tolerance a run is held to against its golden."""
    key = (kernels, precision)
    override = SCENARIO_TOLERANCES.get(scenario, {})
    if key in override:
        return override[key]
    try:
        return DEFAULT_TOLERANCES[key]
    except KeyError:
        raise ValueError(
            f"no tolerance defined for kernels={kernels!r} precision={precision!r}"
        ) from None


def golden_fixture_path(name: str, directory=None) -> Path:
    directory = FIXTURES_DIR if directory is None else Path(directory)
    return directory / f"golden_{name}.json"


def golden_spec(name: str):
    """The frozen golden configuration of a registry scenario (ref / f64)."""
    from dataclasses import replace

    from ..scenarios.registry import get_scenario
    from ..scenarios.spec import FusedSourceSpec, TimeFunctionSpec

    if name not in GOLDEN_SCENARIOS:
        known = ", ".join(sorted(GOLDEN_SCENARIOS))
        raise KeyError(f"no golden configuration for {name!r} (known: {known})")
    config = GOLDEN_SCENARIOS[name]
    spec = get_scenario(config.get("base", name), **config["factory"])
    time_function = config.get("time_function")
    if time_function is not None:
        spec = replace(
            spec, source=replace(spec.source, time_function=TimeFunctionSpec(**time_function))
        )
    fused = config.get("fused")
    if fused is not None:
        slots = tuple(FusedSourceSpec(**slot) for slot in fused)
        spec = replace(
            spec,
            source=replace(spec.source, fused=slots),
            solver=replace(spec.solver, n_fused=len(slots)),
        )
    if config.get("base"):
        spec = replace(spec, name=name)
    return spec.with_overrides(kernels="ref", precision="f64")


def record_golden(name: str, directory=None) -> Path:
    """Run the golden configuration on the reference backend and freeze it."""
    import numpy

    from ..scenarios.runner import ScenarioRunner

    spec = golden_spec(name)
    runner = ScenarioRunner(spec)
    summary = runner.run()
    receivers = {}
    for receiver in runner.receivers.receivers:
        times, values = receiver.seismogram()
        receivers[receiver.name] = {
            "times": [float(t) for t in times],
            "values": np.asarray(values, dtype=np.float64).tolist(),
        }
    payload = {
        "format_version": GOLDEN_FORMAT_VERSION,
        "scenario": name,
        "spec": spec.to_dict(),
        "generator": {
            "kernels": "ref",
            "precision": "f64",
            "numpy": numpy.__version__,
        },
        "n_elements": int(summary["n_elements"]),
        "cycles": int(summary["cycles"]),
        "receivers": receivers,
    }
    path = golden_fixture_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def load_golden(name: str, directory=None) -> dict:
    path = golden_fixture_path(name, directory)
    if not path.exists():
        raise FileNotFoundError(
            f"golden fixture {path} is missing; regenerate it with "
            f"'repro verify --update-golden' and commit the result"
        )
    data = json.loads(path.read_text())
    if data["format_version"] != GOLDEN_FORMAT_VERSION:
        raise ValueError(f"unsupported golden fixture format {data['format_version']}")
    return data


def compare_to_golden(
    name: str,
    *,
    kernels: str = "ref",
    precision: str = "f64",
    n_ranks: int = 1,
    n_fused: int = 0,
    directory=None,
) -> dict:
    """Re-run the frozen golden spec under a kernel mode and diff the traces.

    Returns a JSON-ready report with per-receiver peak-relative errors and
    an overall ``passed`` flag against the tolerance ladder.  Fused runs of
    a *scalar* golden (``n_fused > 0``) replicate one physical simulation,
    so every ensemble member is diffed against the same golden trace; a
    golden whose frozen spec is itself a fused ensemble (distinct per-slot
    sources, e.g. ``loh3_fused2``) stores fused ``(n, 3, F)`` traces and is
    diffed slot against slot.  Raises on structural mismatch (missing
    receivers, diverging sample counts) -- those are never tolerance
    questions.
    """
    from ..scenarios.runner import make_runner
    from ..scenarios.spec import ScenarioSpec

    golden = load_golden(name, directory)
    spec = ScenarioSpec.from_dict(golden["spec"]).with_overrides(
        kernels=kernels,
        precision=precision,
        n_ranks=n_ranks if n_ranks > 1 else None,
        n_fused=n_fused if n_fused else None,
    )
    runner = make_runner(spec)
    runner.run()

    tolerance = seismogram_tolerance(name, kernels, precision)
    receivers = {}
    worst = 0.0
    for rec_name, fixture in golden["receivers"].items():
        receiver = runner.receivers[rec_name]
        times, values = receiver.seismogram()
        ref_times = np.asarray(fixture["times"], dtype=np.float64)
        ref_values = np.asarray(fixture["values"], dtype=np.float64)
        if len(times) != len(ref_times):
            raise ValueError(
                f"receiver {rec_name!r} recorded {len(times)} samples, golden "
                f"has {len(ref_times)}: the run schedule changed (not a "
                "tolerance question)"
            )
        if not np.allclose(times, ref_times, rtol=0.0, atol=1e-12):
            raise ValueError(f"receiver {rec_name!r} sample times diverge from golden")
        peak = float(np.abs(ref_values).max())
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 3 and ref_values.ndim == 2:
            # replicated fused run of a scalar golden: every ensemble
            # member is diffed against the same golden trace (distinct-source
            # goldens store (n, 3, F) values and compare slot against slot)
            ref_values = ref_values[..., None]
        err = float(np.abs(values - ref_values).max())
        rel = err / peak if peak > 0.0 else err
        worst = max(worst, rel)
        receivers[rec_name] = {"peak_rel_err": rel, "peak": peak}
    return {
        "kind": "golden",
        "scenario": name,
        "kernels": kernels,
        "precision": precision,
        "n_ranks": n_ranks,
        "n_elements": int(golden["n_elements"]),
        "tolerance": tolerance,
        "max_peak_rel_err": worst,
        "receivers": receivers,
        "passed": bool(worst <= tolerance),
    }
