"""Shaping fast drive pulses with GRAPE.

The smooth adiabatic ramp needs ~7/K to reach the cat state; two
piecewise-constant quadrature controls get there in 0.5/K with higher
fidelity.  This script optimizes the drive and undrive pulses, re-scores
them under photon loss, and writes the pulse tables.  Takes about three
seconds.
"""

import numpy as np

from catlink import pulseopt as po
from catlink.catqubit import CatQubitParams

params = CatQubitParams(kerr=1.0, kappa=1e-3)

for direction, maker in (("drive", po.drive_problem),
                         ("undrive", po.undrive_problem)):
    problem = maker(params)  # |0> <-> |C+> in 0.5/K, 64 segments, dim 30
    result = po.grape_optimize(problem, max_iters=400)
    unitary = result.fidelity
    lossy = po.evaluate_pulse(problem, result.schedule)

    print(f"{direction}: optimized fidelity {unitary:.5f} "
          f"({result.n_iterations} iterations, converged={result.converged})")
    print(f"{' ' * len(direction)}  with loss at K/kappa=1e3: {lossy:.5f}")

    path = f"grape_{direction}.csv"
    result.schedule.to_csv(path)
    amps = result.schedule.segment_values
    print(f"{' ' * len(direction)}  peak |E_p| = "
          f"{np.max(np.abs(amps['two_photon'])):.2f} K, "
          f"peak |E_p_perp| = {np.max(np.abs(amps['two_photon_orthogonal'])):.2f} K"
          f" -> {path}")
