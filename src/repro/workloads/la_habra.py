"""The 2014 Mw 5.1 La Habra workload (Sec. VII-C).

The paper's production setting uses a 237,861,634-element velocity-adapted
mesh with topography, N_c = 5 clusters and lambda = 0.81, giving a 5.38x
theoretical LTS speedup; the mesh itself cannot be rebuilt offline (the CVM
and the DEM are external data and the size is out of reach for Python).

:func:`la_habra_time_step_distribution` draws a synthetic per-element
CFL-time-step sample whose *density* is calibrated to the published Fig. 5
clustering (counts per cluster for N_c = 5, lambda = 0.81).  The clustering,
lambda optimisation and partitioning studies (Figs. 5, 7, 10) operate on
exactly this information -- per-element time steps and the dual graph -- so
their behaviour is preserved at full fidelity.

A small executable basin model (synthetic CVM + optional topography) is the
``la_habra`` scenario of the registry
(:func:`repro.scenarios.registry.la_habra_scenario`); build it with
``build_setup(get_scenario("la_habra", ...))``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAPER_CLUSTER_COUNTS",
    "PAPER_LAMBDA",
    "PAPER_SPEEDUP",
    "la_habra_time_step_distribution",
]

#: element counts per cluster (C1..C5) of the published Fig. 5 (N_c = 5,
#: lambda = 0.81).  This ascending-cluster assignment of the five published
#: numbers is the one that reproduces the published 5.38x theoretical speedup.
PAPER_CLUSTER_COUNTS = np.array([22_206, 2_364_450, 51_392_298, 163_627_668, 20_455_012])
PAPER_ELEMENT_COUNT = 237_861_634
PAPER_LAMBDA = 0.81
PAPER_N_CLUSTERS = 5
PAPER_SPEEDUP = 5.38


def la_habra_time_step_distribution(
    n_elements: int = 200_000, seed: int = 0, dt_min: float = 1.0
) -> np.ndarray:
    """Synthetic per-element CFL time steps calibrated to the paper's Fig. 5.

    Elements are drawn cluster by cluster in proportion to the published
    counts; within a cluster the relative time step follows a triangular
    density that rises towards the upper cluster boundary (matching the
    published density's shape, which peaks inside cluster C3).  ``dt_min``
    rescales the distribution; the minimum is guaranteed to be attained.
    """
    if n_elements < 10:
        raise ValueError("need a reasonable number of elements")
    rng = np.random.default_rng(seed)
    fractions = PAPER_CLUSTER_COUNTS / PAPER_CLUSTER_COUNTS.sum()
    counts = np.maximum(np.round(fractions * n_elements).astype(int), 1)
    counts[0] += n_elements - counts.sum()

    samples = []
    for cluster, count in enumerate(counts):
        # cluster boundaries in units of dt_min; no element is faster than dt_min,
        # so the first cluster effectively starts at 1
        low = max(PAPER_LAMBDA * 2.0**cluster, 1.0)
        high = PAPER_LAMBDA * 2.0 ** (cluster + 1)
        if cluster == len(counts) - 1:
            high = 1.2 * low  # the open-ended cluster's tail is thin
        mode = 0.25 * low + 0.75 * high if cluster <= 2 else low
        samples.append(rng.triangular(low, mode, high * (1.0 - 1e-9), size=count))
    dts = np.concatenate(samples)
    rng.shuffle(dts)
    # pin the minimum so that cluster boundaries land where the paper puts them
    dts[np.argmin(dts)] = 1.0
    return dts * dt_min

