"""Command line interface of the scenario engine.

::

    python -m repro list
    python -m repro describe loh3
    python -m repro run loh3 --clusters 3 --order 3
    python -m repro run bimaterial_slab --set contrast=3.0 --output-dir out/
    python -m repro run la_habra --smoke
    python -m repro run loh3 --smoke --ranks 2
    python -m repro run loh3 --smoke --ranks 2 --comm-timeout 30
    python -m repro run loh3 --checkpoint run.ckpt.npz --checkpoint-every 1
    python -m repro run loh3 --metrics --events out/run.jsonl --progress
    python -m repro resume run.ckpt.npz
    python -m repro resume run.ckpt.npz --checkpoint-every 2
    python -m repro sweep loh3 --smoke --out sweeps/loh3 \
        --axis 'source.location=[[0,0,-1000],[500,0,-1000],[0,500,-1000],[250,250,-500]]'
    python -m repro sweep loh3 --smoke --out sweeps/lam --axis clustering.lam=0.7,0.8,0.9
    python -m repro sweep --spec sweep.json --out sweeps/x --workers 4
    python -m repro sweep --spec sweep.json --out sweeps/x --resume
    python -m repro sweep loh3 --smoke --out sweeps/fused --fuse \
        --axis 'source.time_function.params.t0=[0.3,0.4,0.5,0.6]'
    python -m repro report out/ gts_out/
    python -m repro report ref_out/ fast_out/ --json
    python -m repro report sweeps/loh3/manifest.jsonl
    python -m repro report sweeps/loh3/members/
    python -m repro verify --kernels fast
    python -m repro verify loh3 --kernels fast --ranks 2
    python -m repro verify plane_wave --kernels fast
    python -m repro verify --update-golden

(also installed as the ``repro`` console script).
"""

from __future__ import annotations

import argparse
import json
import sys

from .outputs import write_outputs
from .registry import describe_scenario, get_scenario, scenario_names
from .runner import ScenarioRunner, make_runner
from .spec import (
    OVERRIDE_PATHS,
    RESUMABLE_OVERRIDES,
    SOLVER_KERNELS,
    SOLVER_KINDS,
    SOLVER_PRECISIONS,
    ScenarioSpec,
)

__all__ = ["main", "build_parser"]


def _parse_value(text: str):
    """Best-effort literal for ``--set key=value`` overrides."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axis(text: str) -> dict:
    """Parse one ``--axis PATH=VALUES`` argument into a SweepAxis dict.

    ``VALUES`` is either a JSON array (required for structured values like
    source locations) or a comma-separated list of scalars run through the
    ``--set`` literal parser.
    """
    if "=" not in text:
        raise SystemExit(f"--axis expects PATH=VALUES, got {text!r}")
    path, _, values_text = text.partition("=")
    values_text = values_text.strip()
    if values_text.startswith("["):
        try:
            values = json.loads(values_text)
        except json.JSONDecodeError as error:
            raise SystemExit(f"--axis {path}: invalid JSON values: {error}")
        if not isinstance(values, list):
            raise SystemExit(f"--axis {path}: JSON values must be an array")
    else:
        values = [_parse_value(item.strip()) for item in values_text.split(",") if item.strip()]
    return {"path": path.strip(), "values": values}


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_value(value.strip())
    return overrides


#: the flags that set a spec knob: (flag, override name from
#: :data:`~repro.scenarios.spec.OVERRIDE_PATHS`, kind, help).  The kind is
#: the argparse type, a tuple of choices, ``bool`` (a switch) or ``str`` (a
#: PATH).  An absent flag parses to ``None`` and keeps the spec's value;
#: ``--trace PATH`` sets ``trace`` to ``True`` and names the trace file
_RUN_FLAGS = (
    ("--clusters", "n_clusters", int, "number of LTS clusters"),
    ("--lambda", "lam", float, "fixed lambda in (0.5, 1]; omit for the grid-search optimum"),
    ("--order", "order", int, "order of convergence"),
    ("--fused", "n_fused", int, "number of fused simulations"),
    ("--solver", "solver", SOLVER_KINDS, "solver kind"),
    ("--cycles", "n_cycles", int, "number of macro cycles to run"),
    ("--t-end", "t_end", float, "target simulated time [s]"),
    ("--seed", "seed", int, "mesh jitter seed"),
    ("--ranks", "n_ranks", int,
     "number of ranks of the distributed engine, one forked worker each (default 1)"),
    ("--comm-timeout", "comm_timeout", float,
     "abort a blocked halo receive after this many seconds (default 120)"),
    ("--kernels", "kernels", SOLVER_KERNELS,
     "kernel-execution backend: 'ref' runs the plain reference kernels, 'fast' "
     "blocked stacked-operator GEMMs (tolerance-equal; see 'repro verify')"),
    ("--precision", "precision", SOLVER_PRECISIONS,
     "state/operator precision of the run (default f64)"),
    ("--partitions", "n_partitions", int,
     "weighted partition count (> 1 orders elements by cluster, partition, role)"),
    ("--checkpoint-every", "checkpoint_every", int,
     "checkpoint cadence in macro cycles (0 disables; default: the spec's)"),
    ("--metrics", "telemetry", bool,
     "phase timers and counters: the run summary gains a "
     "'telemetry' block (phase breakdown, counters, updates/s, GFLOP/s)"),
    ("--trace", "trace", str,
     "write a Chrome-trace JSON timeline (one lane per rank) to PATH; implies --metrics"),
    ("--events", "events", str,
     "append a JSONL run ledger to PATH: a provenance header plus one flushed "
     "record per macro cycle (a resumed run appends a new segment); implies --metrics"),
    ("--progress", "progress", bool, "live progress heartbeat on stderr (cycles, updates/s, ETA)"),
)

#: the flags ``verify`` shares with ``run``, with the defaults it verifies
_VERIFY_DEFAULTS = {"kernels": "ref", "precision": "f64", "n_ranks": 1}


def _add_flags(parser, names, defaults=None) -> None:
    """Add the :data:`_RUN_FLAGS` rows whose override name is in ``names``."""
    for flag, name, kind, text in _RUN_FLAGS:
        if name not in names:
            continue
        if kind is bool:
            options = {"action": "store_true"}
        elif isinstance(kind, tuple):
            options = {"choices": kind}
        else:
            options = {"type": kind, "metavar": {int: "N", float: "X", str: "PATH"}[kind]}
        default = (defaults or {}).get(name)
        parser.add_argument(flag, dest=name, default=default, help=text, **options)


def _flag_overrides(args) -> dict:
    """The ``with_overrides`` keywords of the flags given on the command line."""
    overrides = {}
    for _, name, _, _ in _RUN_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = True if name == "trace" else value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run clustered-LTS ADER-DG scenarios from declarative specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    describe = sub.add_parser("describe", help="show a scenario's documentation and spec")
    describe.add_argument("name", help="registered scenario name")

    run = sub.add_parser("run", help="run a scenario end-to-end")
    run.add_argument("name", nargs="?", help="registered scenario name")
    run.add_argument("--spec", help="path to a ScenarioSpec JSON file (instead of a name)")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="factory override (repeatable), e.g. --set contrast=3.0")
    _add_flags(run, OVERRIDE_PATHS)
    run.add_argument("--smoke", action="store_true",
                     help="coarsened two-cycle variant (CI smoke test); "
                          "explicit flags apply on top of it")
    run.add_argument("--checkpoint", metavar="PATH", help="checkpoint file to write")
    run.add_argument("--output-dir", metavar="DIR",
                     help="write seismogram CSVs and run_summary.json here")
    run.add_argument("--quiet", action="store_true", help="suppress the summary printout")

    verify = sub.add_parser(
        "verify",
        help="run the accuracy-verification harness (golden traces + convergence)",
    )
    verify.add_argument("name", nargs="?",
                        help="scenario to verify: a golden scenario (loh3, la_habra) "
                             "or 'plane_wave' for the convergence ladder; "
                             "default: the full suite")
    _add_flags(verify, _VERIFY_DEFAULTS, _VERIFY_DEFAULTS)
    verify.add_argument("--update-golden", action="store_true",
                        help="regenerate the committed golden fixtures from the "
                             "reference backend at f64 (commit the result; only "
                             "legitimate after a deliberate physics change)")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress the JSON report (exit code still reflects "
                             "pass/fail)")

    sweep = sub.add_parser(
        "sweep",
        help="expand a base scenario over parameter axes and shard the "
             "members over a worker pool with a shared preprocessing cache",
    )
    sweep.add_argument("name", nargs="?", help="registered scenario name (the base spec)")
    sweep.add_argument("--spec", metavar="FILE",
                       help="path to a SweepSpec JSON file (instead of a "
                            "name plus --axis flags)")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="base-spec factory override (repeatable)")
    sweep.add_argument("--smoke", action="store_true",
                       help="coarsen the base spec (see 'run --smoke')")
    sweep.add_argument("--axis", action="append", default=[], metavar="PATH=VALUES",
                       help="swept parameter (repeatable): a dotted spec path "
                            "plus comma-separated scalars or a JSON array, "
                            "e.g. --axis clustering.lam=0.7,0.8 or "
                            "--axis 'source.location=[[0,0,-1000],[500,0,-1000]]'; "
                            "members are the cartesian product of all axes")
    sweep.add_argument("--sweep-name", metavar="NAME",
                       help="sweep name recorded in the manifest "
                            "(default: <base>-sweep)")
    sweep.add_argument("--out", required=True, metavar="DIR",
                       help="sweep output tree: manifest.jsonl, "
                            "members/<id>/")
    sweep.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes, each handed one member or "
                            "fused group at a time; a crashed worker's unit "
                            "is always re-queued (default 2; 0 runs every "
                            "unit in this process)")
    sweep.add_argument("--fuse", action="store_true",
                       help="collapse members that differ only in fusable "
                            "source axes (time function, moment tensor, "
                            "force vector) into single fused ensemble runs; "
                            "per-member seismograms and summaries are "
                            "demuxed back out of the fused slots, so the "
                            "manifest, resume and 'repro report' stay "
                            "per-member")
    sweep.add_argument("--resume", action="store_true",
                       help="resume from <out>/manifest.jsonl: members "
                            "already done are skipped, in-flight and failed "
                            "ones re-run")
    sweep.add_argument("--retries", type=int, default=1, metavar="N",
                       help="re-queue a crashed/failed member this many "
                            "times before marking it failed (default 1)")
    sweep.add_argument("--no-events", dest="events", action="store_false",
                       help="skip the per-member JSONL run ledgers")
    sweep.add_argument("--json", action="store_true",
                       help="emit the final tally as JSON")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-member progress on stderr")

    resume = sub.add_parser("resume", help="resume a checkpointed run")
    resume.add_argument("checkpoint", help="checkpoint file written by 'run --checkpoint'")
    _add_flags(resume, RESUMABLE_OVERRIDES)
    resume.add_argument("--output-dir", metavar="DIR")
    resume.add_argument("--quiet", action="store_true")

    report = sub.add_parser(
        "report",
        help="derived analytics over finished runs: overlap efficiency, "
             "load imbalance, measured-vs-theoretical LTS speedup, kernel "
             "GFLOP/s, multi-run comparison",
    )
    report.add_argument("runs", nargs="+", metavar="RUN",
                        help="run artefacts to analyse: an --output-dir "
                             "directory, a run_summary.json, an --events "
                             "JSONL ledger, a sweep manifest.jsonl (expands "
                             "to every completed member), or a directory of "
                             "summaries (e.g. a sweep's members/ tree); pass "
                             "several runs (e.g. ref/fast, or an LTS run "
                             "plus a GTS reference of the same scenario) for "
                             "the comparison table")
    report.add_argument("--json", action="store_true",
                        help="emit the full report payload as JSON instead "
                             "of the text rendering")

    return parser


def _cmd_list() -> int:
    from .registry import _REGISTRY  # summaries live next to the factories

    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        print(f"{name:<{width}}  {_REGISTRY[name].summary}")
    return 0


def _cmd_describe(name: str) -> int:
    print(describe_scenario(name))
    print("\ndefault spec:")
    print(get_scenario(name).to_json(indent=2))
    return 0


def _resolve_spec(args) -> ScenarioSpec:
    if args.spec:
        if args.name:
            raise SystemExit("run takes a scenario name or --spec FILE, not both")
        if args.set:
            raise SystemExit(
                "--set passes factory overrides and has no effect with --spec; "
                "edit the spec file (or use flags like --order) instead"
            )
        with open(args.spec) as handle:
            spec = ScenarioSpec.from_json(handle.read())
    elif args.name:
        spec = get_scenario(args.name, **_parse_overrides(args.set))
    else:
        raise SystemExit("run needs a scenario name or --spec FILE")
    if args.smoke:
        spec = spec.smoke()
    return spec.with_overrides(**_flag_overrides(args))


def _finish(
    runner: ScenarioRunner,
    summary: dict,
    output_dir,
    quiet: bool,
    trace_path=None,
) -> int:
    if trace_path:
        runner.write_trace(trace_path)
    if output_dir:
        written = write_outputs(runner, output_dir, summary=summary)
        summary = dict(summary)
        summary["outputs"] = str(written["run_summary"].parent)
    if not quiet:
        print(json.dumps(summary, indent=2))
        memory = summary.get("memory", {})
        rss = memory.get("peak_rss_mb")
        banner = f"[{summary['scenario']}] wall {summary['wall_s']:.2f} s"
        if rss is not None:
            banner += f", peak RSS {rss:.0f} MiB"
            children = memory.get("peak_rss_children_mb")
            if children is not None:
                banner += f" (+{children:.0f} MiB workers)"
        if trace_path:
            banner += f", trace -> {trace_path}"
        print(banner, file=sys.stderr)
        if "comm" in summary:
            from ..observability.analysis import halo_block, render_halo

            for line in render_halo(halo_block(summary)):
                print(f"[{summary['scenario']}] {line}", file=sys.stderr)
    return 0


def _input_error(error) -> int:
    # user-input errors (unknown scenario, invalid spec value, bad factory
    # override, unreadable file) exit cleanly instead of with a traceback
    message = error.args[0] if (isinstance(error, KeyError) and error.args) else error
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    # only spec resolution and runner construction are guarded: a failure
    # during the run itself is a solver bug and keeps its traceback
    try:
        spec = _resolve_spec(args)
        runner = make_runner(spec)
    except (KeyError, ValueError, TypeError, OSError) as error:
        return _input_error(error)
    if not args.quiet:
        clustering = runner.clustering
        ranks = f", {spec.solver.n_ranks} ranks" if spec.solver.n_ranks > 1 else ""
        extras = "" if spec.solver.kernels == "ref" else f", kernels {spec.solver.kernels}"
        if spec.solver.precision != "f64":
            extras += f", {spec.solver.precision}"
        print(
            f"[{spec.name}] {runner.setup.mesh.n_elements} elements, "
            f"order {spec.order}, {clustering.n_clusters} clusters "
            f"(lambda {clustering.lam:.2f}, theoretical speedup "
            f"{clustering.speedup():.2f}x), solver {spec.solver.kind}{ranks}{extras}",
            file=sys.stderr,
        )
    summary = runner.run(checkpoint_path=args.checkpoint)
    return _finish(runner, summary, args.output_dir, args.quiet, trace_path=args.trace)


def _cmd_verify(args) -> int:
    from ..verification import GOLDEN_SCENARIOS, record_golden, verify_scenario, verify_suite

    if args.update_golden:
        names = [args.name] if args.name else sorted(GOLDEN_SCENARIOS)
        try:
            for name in names:
                path = record_golden(name)
                if not args.quiet:
                    print(f"rewrote {path}", file=sys.stderr)
        except (KeyError, ValueError, TypeError, OSError) as error:
            return _input_error(error)
        return 0
    options = {name: getattr(args, name) for name in _VERIFY_DEFAULTS}
    try:
        if args.name:
            report = verify_scenario(args.name, **options)
            passed = report["passed"]
        else:
            report = verify_suite(**options)
            passed = report["passed"]
    except (KeyError, ValueError, TypeError, OSError) as error:
        return _input_error(error)
    if not args.quiet:
        print(json.dumps(report, indent=2))
    if not passed:
        print("repro verify: FAILED", file=sys.stderr)
    return 0 if passed else 1


def _resolve_sweep(args):
    from ..sweep import SweepAxis, SweepSpec

    if args.spec:
        if args.name or args.axis or args.set or args.smoke:
            raise SystemExit(
                "sweep takes a SweepSpec --spec FILE *or* a scenario name "
                "plus --axis flags, not both"
            )
        with open(args.spec) as handle:
            return SweepSpec.from_json(handle.read())
    if not args.name:
        raise SystemExit("sweep needs a scenario name or --spec FILE")
    if not args.axis:
        raise SystemExit("sweep needs at least one --axis PATH=VALUES")
    base = get_scenario(args.name, **_parse_overrides(args.set))
    if args.smoke:
        base = base.smoke()
    return SweepSpec(
        base=base,
        axes=tuple(SweepAxis(**_parse_axis(axis)) for axis in args.axis),
        name=args.sweep_name or "",
    )


def _cmd_sweep(args) -> int:
    from ..sweep import run_sweep

    try:
        sweep = _resolve_sweep(args)
    except (KeyError, ValueError, TypeError, OSError) as error:
        return _input_error(error)
    log = (lambda message: None) if args.quiet else (
        lambda message: print(f"[{sweep.name}] {message}", file=sys.stderr)
    )
    if not args.quiet:
        axes = ", ".join(f"{a.path} x{len(a.values)}" for a in sweep.axes)
        print(
            f"[{sweep.name}] {sweep.n_members} members ({axes}), "
            f"{args.workers} worker(s) -> {args.out}",
            file=sys.stderr,
        )
    try:
        tally = run_sweep(
            sweep,
            args.out,
            workers=args.workers,
            resume=args.resume,
            events=args.events,
            retries=args.retries,
            fuse=args.fuse,
            log=log,
        )
    except (ValueError, OSError) as error:
        return _input_error(error)
    if args.json:
        print(json.dumps(tally, indent=2))
    elif not args.quiet:
        fused = (
            f" ({tally['fused_members']} member(s) in "
            f"{tally['fused_groups']} fused group(s))"
            if tally.get("fused_groups") else ""
        )
        print(
            f"[{sweep.name}] {tally['done']} done, {tally['skipped']} skipped, "
            f"{tally['failed']} failed in {tally['wall_s']:.1f} s{fused}; "
            f"manifest -> {tally['manifest']}",
            file=sys.stderr,
        )
    return 0 if tally["failed"] == 0 else 1


def _cmd_resume(args) -> int:
    try:
        runner = ScenarioRunner.resume(
            args.checkpoint, **_flag_overrides(args)
        )
    except (KeyError, ValueError, TypeError, OSError) as error:
        return _input_error(error)
    if not args.quiet:
        print(
            f"[{runner.spec.name}] resumed at cycle {runner.cycles_done}/"
            f"{runner.total_cycles} (t = {runner.solver.time:.4f} s)",
            file=sys.stderr,
        )
    summary = runner.run(checkpoint_path=args.checkpoint)
    return _finish(runner, summary, args.output_dir, args.quiet, trace_path=args.trace)


def _cmd_report(args) -> int:
    from ..observability.analysis import build_report, render_report

    try:
        report = build_report(args.runs)
    except (KeyError, ValueError, TypeError, OSError) as error:
        return _input_error(error)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        try:
            return _cmd_describe(args.name)
        except KeyError as error:
            return _input_error(error)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "report":
        return _cmd_report(args)
    raise SystemExit(2)


if __name__ == "__main__":
    raise SystemExit(main())
