"""repro -- reproduction of "Next-Generation Local Time Stepping for the
ADER-DG Finite Element Method" (Breuer & Heinecke, IPDPS 2022).

The package mirrors the structure of the EDGE solver the paper describes:

* :mod:`repro.basis`           -- reference element (basis, quadrature, DG operators)
* :mod:`repro.mesh`            -- unstructured tetrahedral meshes
* :mod:`repro.equations`       -- (visco)elastic wave equations and flux solvers
* :mod:`repro.kernels`         -- ADER-DG time/volume/surface kernels
* :mod:`repro.core`            -- the paper's contribution: clustered local time stepping
* :mod:`repro.source`          -- seismic sources, receivers, misfits
* :mod:`repro.parallel`        -- partitioning, communication accounting, scaling model
* :mod:`repro.preprocessing`   -- velocity models, the Fig. 8 preprocessing stages and their cache
* :mod:`repro.workloads`       -- the La Habra Fig. 5 time-step calibration
* :mod:`repro.scenarios`       -- declarative scenario specs, registry, runner and CLI
"""

import time as _time

_import_start = _time.perf_counter()  # before any other import: see ``import_s``

from .core import (
    ClusteredLtsSolver,
    Clustering,
    GlobalTimeSteppingSolver,
    derive_clustering,
    optimize_lambda,
)
from .equations import ElasticMaterial, MaterialTable, ViscoelasticMaterial
from .kernels import Discretization
from .mesh import TetMesh, box_mesh, layered_box_mesh
from .scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)

__version__ = "1.0.0"

#: wall seconds this process spent importing the package (numpy included when
#: it was not loaded yet) -- ``startup.import_s`` of every run summary
import_s = _time.perf_counter() - _import_start

__all__ = [
    "__version__",
    "ScenarioSpec",
    "ScenarioRunner",
    "get_scenario",
    "scenario_names",
    "TetMesh",
    "box_mesh",
    "layered_box_mesh",
    "ElasticMaterial",
    "ViscoelasticMaterial",
    "MaterialTable",
    "Discretization",
    "Clustering",
    "derive_clustering",
    "optimize_lambda",
    "GlobalTimeSteppingSolver",
    "ClusteredLtsSolver",
]
