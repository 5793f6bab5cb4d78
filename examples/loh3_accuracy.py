#!/usr/bin/env python
"""LOH.3 accuracy study (the laptop-scale analogue of Fig. 9 / Tab. I).

Runs the scaled LOH.3 scenario with global time stepping and with the
next-generation clustered LTS (lambda = 1.0 and the optimised lambda) through
the scenario runner, compares the seismograms at the receiver-9 analogue, and
reports the measured and theoretical speedups plus the cost of anelasticity.

Run:  python examples/loh3_accuracy.py
"""

import numpy as np

from repro.scenarios import ScenarioRunner, build_setup, get_scenario, measure_update_cost
from repro.source import seismogram_misfit
from repro.source.receivers import resample_seismogram

N_CYCLES = 10  # 10 macro cycles = 40 steps of cluster 0


def run_config(setup, solver, label):
    spec = setup.spec.with_overrides(solver=solver, n_cycles=N_CYCLES)
    runner = ScenarioRunner(spec, setup=setup)
    summary = runner.run()
    print(f"  {label:<22s} wall {summary['wall_s']:8.2f} s   "
          f"element updates {summary['element_updates']:>9d}")
    return runner, summary


def main() -> None:
    print("=== LOH.3 accuracy & algorithmic efficiency (scaled) ===\n")
    spec = get_scenario("loh3", extent_m=8000.0, characteristic_length=2000.0, order=4)
    # one setup per clustering: an LTS setup is built in its clustering's order
    setup = build_setup(spec.with_overrides(n_clusters=3, lam=1.0))
    setup_opt = build_setup(spec.with_overrides(n_clusters=3, lam=None))
    print(f"mesh: {setup.mesh.n_elements} tetrahedra (paper: 743,066), order 4, 3 mechanisms\n")

    clustering_1 = setup.clustering
    clustering_opt = setup_opt.clustering
    print(f"clustering lambda=1.00: counts {clustering_1.counts.tolist()}, "
          f"theoretical speedup {clustering_1.speedup():.2f}x (paper: 2.28x)")
    print(f"clustering lambda={clustering_opt.lam:.2f}: counts {clustering_opt.counts.tolist()}, "
          f"theoretical speedup {clustering_opt.speedup():.2f}x (paper: 2.67x at lambda=0.80)\n")

    gts, s_gts = run_config(setup, "gts", "GTS")
    lts1, s_1 = run_config(setup, "lts", "LTS lambda=1.00")
    ltso, s_o = run_config(setup_opt, "lts", f"LTS lambda={clustering_opt.lam:.2f}")

    t_g, v_g = gts.receivers["receiver_9"].seismogram()
    print("\nseismogram misfits E against the GTS reference (paper: ~1e-3):")
    for label, runner in (("LTS lambda=1.00", lts1), (f"LTS lambda={clustering_opt.lam:.2f}", ltso)):
        t_l, v_l = runner.receivers["receiver_9"].seismogram()
        common = np.linspace(0.0, min(t_g[-1], t_l[-1]), 300)
        misfit = seismogram_misfit(
            resample_seismogram(t_l, v_l, common), resample_seismogram(t_g, v_g, common)
        )
        print(f"  {label:<22s} E = {misfit:.3e}")

    print("\nmeasured time-to-solution speedups over GTS (Tab. I analogue):")
    print(f"  LTS lambda=1.00        {s_gts['wall_s'] / s_1['wall_s']:5.2f}x   (paper: 2.14x)")
    print(f"  LTS lambda={clustering_opt.lam:.2f}        "
          f"{s_gts['wall_s'] / s_o['wall_s']:5.2f}x   (paper: 2.51x)")

    elastic = build_setup(
        get_scenario("loh3", extent_m=8000.0, characteristic_length=2000.0, order=4,
                     anelastic=False)
    )

    cost = measure_update_cost(setup) / measure_update_cost(elastic)
    print(f"\ncost of anelasticity (3 mechanisms): {cost:.2f}x per element update (paper: ~1.8x)")


if __name__ == "__main__":
    main()
