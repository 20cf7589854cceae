"""Microwave-to-spin transfer and the emission budget.

A single microwave photon swaps into the collective excitation of a spin
ensemble in a quarter Rabi period.  The natural inhomogeneous broadening of
the spin line is the main loss; this script shows the transfer efficiency at
the reference parameters, its sensitivity to the broadening, and how the
overall emission probability p of the rate model is assembled.  Runs in
about a second.
"""

import math

from catlink import transducer as td

TP = 2 * math.pi

params = td.TransducerParams()
print(f"transfer time T_S = {params.transfer_time * 1e9:.2f} ns "
      f"(quarter Rabi period at g'sqrt(N)/2pi = "
      f"{params.ensemble_coupling / TP / 1e6:.0f} MHz)")

result = td.spin_transfer_efficiency(params)
print(f"\nreference transfer efficiency: {result.efficiency:.5f} "
      f"(converged: {result.converged}, bin drift {result.bin_drift:.1e})")
print(f"  left in cavity : {result.cavity_population:.5f}")
print(f"  lost           : {result.lost_population:.5f}")

print("\nbroadening sweep (FWHM of the natural spin line):")
for mhz in (2, 5, 10, 20, 40):
    p = td.TransducerParams(natural_linewidth=TP * mhz * 1e6)
    eta = td.spin_transfer_efficiency(p).efficiency
    print(f"  {mhz:>3d} MHz: eta = {eta:.5f}")

gauss = td.TransducerParams(lineshape="gaussian")
eta_g = td.spin_transfer_efficiency(gauss).efficiency
print(f"\nlineshape sensitivity: gaussian gives {eta_g:.5f} "
      f"({eta_g - result.efficiency:+.5f} vs lorentzian)")

budget = td.transduction_budget(params, result)
print(f"\nemission budget p = eta * echo * coupling = "
      f"{result.efficiency:.4f} * {params.echo_efficiency} * "
      f"{params.coupling_efficiency} = {budget:.4f}")
