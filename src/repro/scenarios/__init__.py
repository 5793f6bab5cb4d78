"""The scenario engine: declarative specs, a named registry, run
orchestration with checkpoint/restart, output writers and a CLI.

Typical use::

    from repro.scenarios import get_scenario, ScenarioRunner

    spec = get_scenario("loh3", order=3, n_clusters=3)
    runner = ScenarioRunner(spec)
    summary = runner.run()

or from the command line: ``python -m repro run loh3 --order 3``.
"""

from .outputs import (
    write_fused_slot_seismograms,
    write_outputs,
    write_run_summary,
    write_seismograms,
)
from .registry import (
    describe_scenario,
    get_scenario,
    register,
    scenario_names,
)
from .runner import (
    ScenarioRunner,
    ScenarioSetup,
    build_setup,
    make_runner,
    measure_update_cost,
)
from .spec import (
    ClusteringSpec,
    DomainSpec,
    FusedSourceSpec,
    InitialConditionSpec,
    MaterialSpec,
    MeshSpec,
    PreprocessingSpec,
    RefinementSpec,
    RunSpec,
    ScenarioSpec,
    SolverSpec,
    SourceSpec,
    TimeFunctionSpec,
    VelocityModelSpec,
)

__all__ = [
    "ScenarioSpec",
    "DomainSpec",
    "MeshSpec",
    "RefinementSpec",
    "VelocityModelSpec",
    "MaterialSpec",
    "TimeFunctionSpec",
    "FusedSourceSpec",
    "SourceSpec",
    "InitialConditionSpec",
    "ClusteringSpec",
    "SolverSpec",
    "PreprocessingSpec",
    "RunSpec",
    "register",
    "get_scenario",
    "scenario_names",
    "describe_scenario",
    "build_setup",
    "ScenarioSetup",
    "ScenarioRunner",
    "make_runner",
    "measure_update_cost",
    "write_seismograms",
    "write_fused_slot_seismograms",
    "write_run_summary",
    "write_outputs",
]
