"""Distributed execution: multi-rank clustered LTS with real halo exchange.

The subsystem turns the substrate of :mod:`repro.parallel` into an actual
execution path (Sec. V-C of the paper): per-rank subdomains with
global-to-local element maps and static halo send/receive plans, rank-local
clustered-LTS steppers, and face-local compressed ``B1``/``B2``/``B3`` halo
packs exchanged through the one queue communicator -- bit-identical to the
single-rank solver.  One engine, :class:`ProcessLtsEngine`, drives one
:class:`RankWorker` per rank, each in a forked worker process, through one
command protocol; it implements the stepper protocol of
:mod:`repro.core.stepper`, and :func:`build_engine` is what the scenario
runner calls for ``n_ranks > 1``.
"""

from .engine import RankWorker
from .process_engine import ProcessLtsEngine
from .runner import build_engine
from .stepper import RankSolver
from .subdomain import RankSubdomain, SubdomainDisc

__all__ = [
    "ProcessLtsEngine",
    "RankWorker",
    "build_engine",
    "RankSolver",
    "RankSubdomain",
    "SubdomainDisc",
]
