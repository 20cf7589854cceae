"""Shaping fast drive pulses with GRAPE.

The smooth adiabatic ramp needs ~7/K to reach the cat state; two
piecewise-constant quadrature controls get there in 0.5/K with higher
fidelity.  This script optimizes the drive pulse once and takes the undrive
as its time reverse (segments in reverse order, the orthogonal quadrature
negated), which returns the cat to |0> with the drive's lossless fidelity.
It re-scores both directions under photon loss and prints their peak
amplitudes; ``catlink grape`` writes the segment tables
(``pulse_drive.csv``, ``pulse_undrive.csv``).  Takes about a second.
"""

import numpy as np

from catlink import pulseopt as po
from catlink.catqubit import CatQubitParams, time_reversed

params = CatQubitParams(kerr=1.0, kappa=1e-3)
# the [grape] defaults: 0.5/K, 64 segments, amplitudes within 10 K
pulse = dict(total_time=0.5, n_segments=64, amplitude_bound=10.0)

drive = po.drive_problem(params, **pulse)  # |0> -> |C+> at dim 30
result = po.grape_optimize(drive, max_iters=400)
print(f"drive optimized: fidelity {result.fidelity:.5f} "
      f"({result.n_iterations} iterations, converged={result.converged})")

for direction, problem, schedule in (
        ("drive", drive, result.schedule),
        ("undrive", po.undrive_problem(params, **pulse), time_reversed(result.schedule))):
    # both scores solve the master equation; at kappa = 0 it has no jump term
    lossless = po.evaluate_pulse(problem, schedule, kappa=0.0)
    lossy = po.evaluate_pulse(problem, schedule, kappa=params.kappa)
    print(f"{direction}: lossless {lossless:.5f}, with loss at K/kappa=1e3: {lossy:.5f}")

    amps = schedule.channels
    print(f"{' ' * len(direction)}  peak |E_p| = "
          f"{np.max(np.abs(amps['two_photon'])):.2f} K, "
          f"peak |E_p_perp| = {np.max(np.abs(amps['two_photon_orthogonal'])):.2f} K")
print("pulse tables: catlink grape")
