#!/usr/bin/env python
"""La Habra production pipeline walkthrough (Secs. V-C, VI, VII-C).

Demonstrates the full preprocessing pipeline on the synthetic La-Habra-like
basin model -- velocity-aware meshing, constant-Q material sampling, LTS
clustering with lambda optimisation, weighted partitioning and reordering,
all driven by one scenario spec -- and then models the strong scaling on
Frontera-like nodes (the Fig. 10 analogue) from the partitioning and
communication volumes.

Run:  python examples/la_habra_pipeline.py
"""

from dataclasses import replace

import numpy as np

from repro.core.clustering import derive_clustering
from repro.kernels.flops import count_flops_per_element_update
from repro.parallel.machine_model import strong_scaling_study
from repro.parallel.partition import element_weights, partition_dual_graph
from repro.scenarios import build_setup, get_scenario
from repro.workloads.la_habra import (
    PAPER_LAMBDA,
    PAPER_SPEEDUP,
    la_habra_time_step_distribution,
)


def main() -> None:
    print("=== La Habra: preprocessing pipeline + modelled strong scaling ===\n")

    # -- 1. end-to-end preprocessing on the synthetic basin model -----------
    spec = get_scenario(
        "la_habra", extent_m=16000.0, depth_m=10000.0, max_frequency=0.3, order=4,
        with_topography=False, n_clusters=4,
    ).with_overrides(n_partitions=8)
    spec = replace(spec, mesh=replace(spec.mesh, elements_per_wavelength=1.5,
                                      horizontal_factor=1.0))
    preprocessed = build_setup(spec)  # solver element order, operators assembled
    clustering = preprocessed.clustering
    summary = {
        "n_elements": preprocessed.mesh.n_elements,
        "n_clusters": clustering.n_clusters,
        "lambda": clustering.lam,
        "theoretical_speedup": clustering.speedup(),
        "n_partitions": preprocessed.partitions.max() + 1,
    }
    print("preprocessing summary:")
    for key, value in summary.items():
        print(f"  {key:<22s} {value:.4g}")
    print(f"  cluster counts         {clustering.counts.tolist()}")
    sizes = np.bincount(preprocessed.partitions).tolist()
    print(f"  elements per partition {sizes}\n")

    # -- 2. clustering of the paper-calibrated 238M-element distribution ----
    dts = la_habra_time_step_distribution(n_elements=200_000)
    clustering = derive_clustering(dts, 5, PAPER_LAMBDA)
    print(f"paper-calibrated distribution: N_c=5, lambda={PAPER_LAMBDA}: "
          f"theoretical speedup {clustering.speedup():.2f}x (paper: {PAPER_SPEEDUP}x)")

    # -- 3. modelled strong scaling (Fig. 10 analogue) -----------------------
    setup = build_setup(
        get_scenario("la_habra", extent_m=12000.0, depth_m=8000.0, max_frequency=0.3, order=4)
    )
    weights = element_weights(clustering.cluster_ids[: setup.mesh.n_elements] % 5, 5)
    flops = count_flops_per_element_update(setup.disc).total
    points = strong_scaling_study(
        weights,
        setup.mesh.neighbors,
        clustering.cluster_ids[: setup.mesh.n_elements] % 5,
        5,
        node_counts=[2, 4, 8, 16, 32],
        flops_per_element_update=float(flops),
        order=4,
    )
    print("\nmodelled strong scaling (parallel efficiency, paper sustains >80-95%):")
    for point in points:
        print(f"  {point.n_nodes:>4d} nodes: efficiency {point.parallel_efficiency:5.2f}, "
              f"speedup {point.speedup_vs_smallest:5.2f}x")

    # -- 4. partition imbalance (Fig. 7 analogue) ----------------------------
    partition = partition_dual_graph(setup.mesh.neighbors, np.ones(setup.mesh.n_elements), 8)
    print(f"\nunweighted partitioning element spread: {partition.element_count_spread():.2f}x; "
          "with LTS weights the spread grows (see tests/parallel/test_partition_and_comm.py)")


if __name__ == "__main__":
    main()
