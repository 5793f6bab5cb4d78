"""The seven named workloads, generated from a seed as plain JSON.

The program under test receives only what :func:`generate` returns:
``ScenarioSpec.from_dict`` / ``SweepSpec.from_dict`` input and, for the CLI
workload, a spec file.  Every spec names ``kernels`` and ``precision``
explicitly: nothing is read from the environment.

``--seed`` moves the *source* (position within +-300 m, depth within
+-100 m, onset time ``t0`` within +-10 %), not the mesh.  Measured on this
tree: letting the seed drive ``mesh.seed`` swings ``loh3-m-lts`` between
6985 and 13378 element updates per macro cycle (the jitter moves ``dt_min``
and with it every cluster boundary), so run-to-run spreads across seeds
would show the workload's own variation instead of the program's.  The mesh
seed therefore stays 0 -- the meshes whose sizes the benchmark definition
quotes -- and the seed varies an input whose cost is neutral while the
outputs, and so the correctness check, differ.

Sizes are fixed by the benchmark definition (never change mesh sizes,
orders, ranks or cluster counts); only the number of timed operations
scales with ``--seconds``.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.scenarios import get_scenario
from repro.sweep import SweepAxis, SweepSpec

__all__ = ["WORKLOADS", "WORKLOAD_NAMES", "NOMINAL_SECONDS", "generate", "n_operations"]

#: the ``--seconds`` the per-workload operation rates below were sized for
NOMINAL_SECONDS = 5

_KERNELS = {"kernels": "fast", "precision": "f64"}

#: name -> static description.  ``kind`` picks the driver loop;
#: ``ops_per_second`` x ``--seconds`` is the number of timed operations
#: (an operation is a macro cycle, a whole sweep, or a CLI invocation);
#: ``warmup`` operations run before the timed ones and ``check_cycles`` of
#: them are replayed on the ref/f64 oracle; ``setups`` is how often the
#: spec -> ready-runner path is timed (with ``cache``: each time into a
#: fresh preprocessing cache, followed by one all-hits setup);
#: ``processes`` is what must fit in ``os.cpu_count()``.
WORKLOADS = {
    "loh3-m-lts": {
        "kind": "solver",
        "why": "kernel-bound reference: 3456-element LOH.3, 3-cluster LTS; large batched "
               "contractions, LTS buffers and neighbour gathers all active",
        "ops_per_second": 1.6, "min_ops": 3, "warmup": 1, "check_cycles": 1,
        "setups": 3, "processes": 1,
    },
    "loh3-m-gts": {
        "kind": "solver",
        "why": "the paper's baseline and plain single-threaded run of the same mesh: kernels "
               "without core.buffers or the rate-2 schedule, so LTS-only gains must not show",
        "ops_per_second": 1.2, "min_ops": 3, "warmup": 1, "check_cycles": 1,
        "setups": 3, "processes": 1,
    },
    "basin-s-lts": {
        "kind": "solver",
        "why": "576-element La Habra basin, 5 clusters, 16 micro steps: tiny batches, so Python "
               "dispatch per (cluster, micro step) dominates instead of GEMM shape",
        "ops_per_second": 6.0, "min_ops": 10, "warmup": 2, "check_cycles": 2,
        "setups": 3, "processes": 1,
    },
    "loh3-m-2rank": {
        "kind": "solver",
        "why": "loh3-m-lts on 2 process ranks with the spec's default transport: halo, "
               "partition and overlap changes show here and nowhere else",
        "ops_per_second": 2.2, "min_ops": 4, "warmup": 1, "check_cycles": 1,
        "setups": 3, "processes": 2,
    },
    "loh3-l-setup": {
        "kind": "solver",
        "why": "7200-element LOH.3 with 2-partition reordering through a fresh preprocessing "
               "cache: setup-dominated, largest working set; work moved into setup shows here",
        "ops_per_second": 0.8, "min_ops": 2, "warmup": 1, "check_cycles": 1,
        "setups": 1, "processes": 1, "cache": True,
    },
    "sweep-s-fused16": {
        "kind": "sweep",
        "why": "16-member fused source sweep on 2 workers over a shared cache: pool supervisor, "
               "manifest, cache hits, fused-column kernels and demux",
        "ops_per_second": 0.2, "min_ops": 1, "warmup": 0, "check_cycles": 0,
        "setups": 3, "processes": 2,
    },
    "cli-s-run": {
        "kind": "cli",
        "why": "the whole `python -m repro run --spec` invocation a user pays: import, argparse, "
               "setup, lazy warm-up, outputs, ledger, checkpoint",
        "ops_per_second": 1.0, "min_ops": 2, "warmup": 0, "check_cycles": 0,
        "setups": 0, "processes": 1,
    },
}

WORKLOAD_NAMES = tuple(WORKLOADS)

#: macro cycles inside one sweep member / one CLI invocation
SWEEP_MEMBER_CYCLES = 10
CLI_CYCLES = 6


def n_operations(name: str, seconds: float) -> int:
    """Timed operations of one run: the workload's rate times ``--seconds``."""
    entry = WORKLOADS[name]
    return max(entry["min_ops"], round(entry["ops_per_second"] * seconds))


def _seeded(spec, seed: int):
    """``spec`` with its source moved and delayed by ``seed``."""
    rng = random.Random(seed)
    x, y, z = spec.source.location
    location = (x + rng.uniform(-300, 300), y + rng.uniform(-300, 300), z + rng.uniform(-100, 100))
    time_function = spec.source.time_function
    params = dict(time_function.params)
    params["t0"] = params["t0"] * rng.uniform(0.9, 1.1)
    source = replace(
        spec.source, location=location, time_function=replace(time_function, params=params)
    )
    return replace(spec, source=source).with_overrides(**_KERNELS)


def _loh3_m(seed: int, **overrides):
    spec = get_scenario(
        "loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0,
        solver=overrides.pop("solver", "lts"),
    )
    return _seeded(spec, seed).with_overrides(**overrides)


def _loh3_s(seed: int, n_cycles: int):
    return _seeded(get_scenario("loh3", characteristic_length=2000.0, n_cycles=n_cycles), seed)


def generate(name: str, seed: int) -> dict:
    """The generated input of one workload: ``{"spec": ...}`` (ScenarioSpec
    dict) or ``{"sweep": ...}`` (SweepSpec dict)."""
    if name == "loh3-m-lts":
        return {"spec": _loh3_m(seed).to_dict()}
    if name == "loh3-m-gts":
        return {"spec": _loh3_m(seed, solver="gts").to_dict()}
    if name == "basin-s-lts":
        return {"spec": _seeded(get_scenario("la_habra"), seed).to_dict()}
    if name == "loh3-m-2rank":
        # the transport is deliberately not named: the spec's default stays
        # valid when one of the process transports is deleted
        return {"spec": _loh3_m(seed, n_ranks=2, backend="process").to_dict()}
    if name == "loh3-l-setup":
        spec = _seeded(get_scenario("loh3", characteristic_length=800.0), seed)
        return {"spec": spec.with_overrides(n_partitions=2, reorder=True).to_dict()}
    if name == "sweep-s-fused16":
        base = _loh3_s(seed, SWEEP_MEMBER_CYCLES)
        x, y, z = base.source.location
        locations = tuple((x + dx, y + dy, z) for dx, dy in ((0, 0), (200, 0), (0, 200), (200, 200)))
        sweep = SweepSpec(
            name="sweep-s-fused16",
            base=base,
            axes=(
                SweepAxis("source.location", locations),
                SweepAxis("source.time_function.params.f0", (0.8, 0.9, 1.0, 1.1)),
            ),
        )
        return {"sweep": sweep.to_dict()}
    if name == "cli-s-run":
        return {"spec": _loh3_s(seed, CLI_CYCLES).to_dict()}
    raise KeyError(f"unknown workload {name!r} (known: {', '.join(WORKLOAD_NAMES)})")
