#!/usr/bin/env python
"""Walkthrough of the LTS buffer scheme of Fig. 6.

Reproduces, on an actual two-cluster discretization, the sequence of
predictions and corrections of the paper's Fig. 6 and shows which buffer
(B1, B2, B3 or B1 - B2) every face uses, plus the check that global time
stepping -- the same solver with every element in cluster 0 -- is
bit-identical to the independent one-step update.

Run:  python examples/lts_buffer_walkthrough.py
"""

import numpy as np

from repro.core import ClusteredLtsSolver, GlobalTimeSteppingSolver, derive_clustering
from repro.core.lts_scheduler import schedule_cycle
from repro.equations.material import ElasticMaterial, MaterialTable
from repro.kernels.discretization import Discretization
from repro.kernels.update import gts_step
from repro.mesh.generation import layered_box_mesh
from repro.mesh.geometry import cfl_time_steps
from repro.mesh.reorder import reorder_elements


def main() -> None:
    print("=== Next-generation LTS: buffers and schedule (Fig. 6 analogue) ===\n")

    mesh = layered_box_mesh(
        extent=(0, 4000.0, 0, 4000.0, -4000.0, 0.0),
        edge_length_of_depth=lambda z: 500.0 if z > -1000.0 else 2000.0,
        horizontal_edge_length=2000.0,
        jitter=0.1,
    )
    table = MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements)
    # cluster first, then assemble in cluster order (Sec. VI): every cluster
    # becomes one contiguous run of element ids
    time_steps = cfl_time_steps(mesh.insphere_radii, table.max_wave_speed, order=3)
    clustering = derive_clustering(time_steps, 3, 1.0, mesh.neighbors)
    order = reorder_elements(clustering.cluster_ids)
    mesh, table, clustering = mesh.permuted(order), table.subset(order), clustering.permuted(order)
    disc = Discretization(mesh, table, order=3)
    print(f"mesh: {mesh.n_elements} elements, cluster counts {clustering.counts.tolist()}, "
          f"cluster time steps {np.round(clustering.cluster_time_steps, 5).tolist()}")

    print("\nschedule of one macro cycle (predict at micro-step start, correct at its end):")
    for entry in schedule_cycle(clustering.n_clusters):
        print(f"  micro step {entry['micro_step']}: predict clusters {entry['predict']}, "
              f"correct clusters {entry['correct']}")

    print("\nbuffer usage rules (Sec. V-B):")
    print("  same cluster neighbour     -> B1 (full-interval integral)")
    print("  smaller (faster) neighbour -> B3 (pairwise accumulated integrals)")
    print("  larger (slower) neighbour  -> B2 (first half) or B1 - B2 (second half)")

    solver = ClusteredLtsSolver(disc, clustering)
    solver.set_initial_condition(_pulse)
    solver.step_cycle()
    print(f"\none macro cycle advanced {solver.n_element_updates} element updates "
          f"(GTS would need {disc.n_elements * 2 ** (clustering.n_clusters - 1)}); "
          f"speedup {clustering.speedup():.2f}x")

    # GTS is one-cluster LTS: bit-identical to the one-step update
    dt = float(disc.time_steps.min())
    gts = GlobalTimeSteppingSolver(disc, dt=dt)
    gts.set_initial_condition(_pulse)
    dofs = gts.dofs.copy()
    gts.run(3 * dt)
    for _ in range(3):
        gts_step(disc, dofs, dt)
    identical = np.array_equal(gts.dofs, dofs)
    print(f"GTS (one-cluster LTS) bit-identical to the one-step update: {identical}")


def _pulse(points):
    out = np.zeros((len(points), 9))
    center = np.array([2000.0, 2000.0, -500.0])
    out[:, 6] = np.exp(-np.sum((points - center) ** 2, axis=1) / (2 * 600.0**2))
    return out


if __name__ == "__main__":
    main()
