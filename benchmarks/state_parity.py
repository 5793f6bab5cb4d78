"""Bitwise state parity between two checkouts of this repository.

A kernel change that keeps ``ref`` (or ``fast``) bit for bit is checked on
what a run leaves behind: the DOFs and every receiver's seismogram after
two macro cycles, under both kernel kinds.  Because two versions of
``repro`` cannot live in one interpreter, the check is two invocations::

    PYTHONPATH=<parent checkout>/src python benchmarks/state_parity.py --dump parent.json
    PYTHONPATH=src python benchmarks/state_parity.py --compare parent.json

``--dump`` writes, per array, the SHA-256 of its bytes with its dtype and
shape (a few kB; the sign of a zero and every NaN payload count).
``--compare`` runs the same cases, names every array whose digest differs
or that one side lacks, and exits 1 if there is any.

Cases: the solver workloads' specs of ``benchmarks/e2e`` at seed 0 (the
CLI workload's spec too) on one rank, ``loh3-m-lts`` and ``basin-s-lts``
also on 2 and 4 ranks and on one rank over 2 preprocessing partitions,
``loh3-m-lts`` in f32 on 1 and 2 ranks, ``loh3-m-gts`` in f32 and on 2
ranks over 2 preprocessing partitions, and the fused width-2 golden spec
``loh3_fused2``.  DOFs are digested in mesh generation order
(``TetMesh.original_ids``), so two trees that step elements in different
solver orders still compare bit for bit.  Within one tree every variant
digests equal to its base case (the case without its ``/partitions2`` and
``/<n>rank`` parts): neither the rank count nor the element order a
partition brings moves a bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e: the workload generators)

from repro.scenarios import ScenarioSpec, make_runner  # noqa: E402
from repro.verification.golden import golden_spec  # noqa: E402

#: macro cycles each case runs
CYCLES = 2
KERNELS = ("ref", "fast")


def _workload(name: str) -> ScenarioSpec:
    return ScenarioSpec.from_dict(workloads.generate(name, seed=0)["spec"])


def cases() -> dict[str, ScenarioSpec]:
    """``{case: spec}`` of every case, in run order."""
    out = {
        name: _workload(name)
        for name in ("loh3-m-lts", "loh3-m-gts", "basin-s-lts", "loh3-l-setup", "cli-s-run")
    }
    for name in ("loh3-m-lts", "basin-s-lts"):
        for n_ranks in (2, 4):
            out[f"{name}/{n_ranks}rank"] = out[name].with_overrides(n_ranks=n_ranks)
        out[f"{name}/partitions2"] = out[name].with_overrides(n_partitions=2)
    out["loh3-m-lts/f32"] = out["loh3-m-lts"].with_overrides(precision="f32")
    out["loh3-m-lts/f32/2rank"] = out["loh3-m-lts/f32"].with_overrides(n_ranks=2)
    out["loh3-m-gts/f32"] = out["loh3-m-gts"].with_overrides(precision="f32")
    out["loh3-m-gts/partitions2/2rank"] = out["loh3-m-gts"].with_overrides(
        n_partitions=2, n_ranks=2
    )
    out["golden-loh3_fused2"] = golden_spec("loh3_fused2")
    return out


def state(spec: ScenarioSpec, kernels: str, cycles: int = CYCLES) -> dict[str, np.ndarray]:
    """``{"dofs": ..., "seismogram_<receiver>": ...}`` after ``cycles``
    macro cycles of ``spec`` under ``kernels``, writing nothing."""
    spec = replace(
        spec.with_overrides(kernels=kernels),
        output=replace(spec.output, telemetry=False, trace=False, events=None, progress=False),
    )
    runner = make_runner(spec)
    try:
        for _ in range(cycles):
            runner.step_cycle()
        # generation order: independent of the checkout's solver order
        out = {"dofs": runner.solver.dofs[np.argsort(runner.setup.mesh.original_ids)]}
        for receiver in runner.receivers.receivers if runner.receivers else ():
            out[f"seismogram_{receiver.name}"] = np.asarray(receiver.seismogram()[1])
    finally:
        close = getattr(getattr(runner, "engine", None), "close", None)
        if close is not None:
            close()
    return out


def digest(array: np.ndarray) -> str:
    """``<dtype><shape>:<sha256 of the bytes>``."""
    array = np.ascontiguousarray(array)
    return f"{array.dtype}{list(array.shape)}:{hashlib.sha256(array.tobytes()).hexdigest()}"


def collect() -> dict[str, str]:
    """``{"<case>/<kernels>/<array>": digest}`` of this checkout."""
    out = {}
    for case, spec in cases().items():
        for kernels in KERNELS:
            arrays = state(spec, kernels)
            out.update({f"{case}/{kernels}/{k}": digest(v) for k, v in arrays.items()})
            print(f"{case}/{kernels}: {len(arrays)} arrays", file=sys.stderr)
    return out


def compare(ours: dict, reference: dict) -> list[str]:
    problems = [f"missing in one side: {k}" for k in sorted(set(ours) ^ set(reference))]
    return problems + [
        f"{k}: differs" for k in sorted(set(ours) & set(reference)) if ours[k] != reference[k]
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="JSON", help="write this checkout's digests")
    group.add_argument("--compare", metavar="JSON", help="compare this checkout against a dump")
    args = parser.parse_args()
    digests = collect()
    if args.dump:
        Path(args.dump).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return 0
    problems = compare(digests, json.loads(Path(args.compare).read_text()))
    for problem in problems:
        print(problem)
    print(f"{len(digests)} arrays compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
