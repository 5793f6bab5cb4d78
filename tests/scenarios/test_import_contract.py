"""What a plain invocation is allowed to import.

``import repro`` and a single-rank ``repro run`` must not load scipy (0.4 s
for two small routines that now live on numpy), the sweep service or the
distributed engine.  Each check runs in a fresh
interpreter: this test process has long since imported all of them.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.scenarios import get_scenario

SRC = Path(__file__).resolve().parents[2] / "src"
FORBIDDEN = ("scipy", "repro.sweep", "repro.distributed")


def loaded_after(statements: str, modules=FORBIDDEN) -> list[str]:
    """The ``modules`` in ``sys.modules`` after running ``statements`` in a
    fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{statements}\n"
        f"import json; print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_repro_stays_light():
    """``import repro`` in a fresh interpreter leaves ``scipy`` out of
    ``sys.modules`` (this is the whole scipy-free startup contract; it is
    checked here in tier-1 rather than in a CI step of its own)."""
    assert loaded_after("import repro") == []


def test_importing_the_cli_stays_light():
    assert loaded_after("import repro.scenarios.cli, repro.observability, repro.parallel") == []


def test_single_rank_run_stays_light(tmp_path):
    spec = get_scenario(
        "loh3", extent_m=4000.0, characteristic_length=2000.0, order=2, n_mechanisms=1,
        n_clusters=2, n_cycles=2,
    )
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec.to_json())
    argv = [
        "run", "--spec", str(spec_file), "--output-dir", str(tmp_path / "out"),
        "--checkpoint", str(tmp_path / "run.ckpt.npz"), "--events", str(tmp_path / "ev.jsonl"),
        "--quiet",
    ]
    # an anelastic LOH.3 run exercises both routines that used to be scipy's
    statements = f"from repro.scenarios.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(statements) == []
    assert (tmp_path / "out" / "run_summary.json").exists()


def test_a_run_summary_without_an_analytic_solution_skips_the_verification_package():
    """Only a source-free ``plane_wave`` run has a closed-form solution: a
    ``loh3 --smoke`` summary does not import ``repro.verification``."""
    statements = (
        "from repro.scenarios import ScenarioRunner, get_scenario\n"
        "assert ScenarioRunner(get_scenario('loh3').smoke()).run().get('accuracy') is None"
    )
    modules = ("repro.verification", "repro.verification.golden")
    assert loaded_after(statements, modules) == []


def test_lazy_names_still_resolve():
    from repro import observability
    from repro.observability import analysis

    assert observability.build_report is analysis.build_report
    assert "analyze_run" in observability.__all__


@pytest.mark.parametrize(
    "package",
    ["repro"] + sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ),
)
def test_every_exported_name_resolves(package):
    """Each name a package's ``__all__`` exports resolves (lazy names
    included), so a deleted module or class leaves no stale export."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{package}.__all__ names what it cannot resolve: {missing}"
