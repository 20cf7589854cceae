"""From circuit parameters to cat-qubit rates.

A transmon-like ancilla dispersively coupled to the cavity donates the Kerr
nonlinearity and, through the inverse-Purcell effect, most of the cavity's
loss.  This script estimates K by diagonalizing the two-mode Hamiltonian,
evaluates the loss formula, and reads the effective decoherence rate of
stored cat coherence off the Liouvillian mode that holds it.  Runs in about
a second.
"""

import math

from catlink import device as dv

TP = 2 * math.pi

base = dict(cavity_freq=TP * 5e9, qubit_freq=TP * 6.5e9,
            anharmonicity=TP * 250e6, cavity_decay=TP * 0.32)
detuning = TP * 1.5e9

print("ancilla lifetime sweep at g/Delta = 0.1:")
print(f"{'gamma/2pi (Hz)':>15} {'K/2pi (kHz)':>12} {'kappa/2pi (Hz)':>15} {'K/kappa':>10} "
      f"{'kappa_eff/kappa':>16}")
for gamma_hz in (1.6e4, 1.6e3, 1.6e2, 50.0):
    params = dv.DeviceParams(coupling=0.1 * detuning, qubit_decay=TP * gamma_hz,
                             **base)
    derived = dv.derive_device(params)
    print(f"{gamma_hz:>15.3g} {derived.kerr / TP / 1e3:>12.2f} "
          f"{derived.kappa / TP:>15.3g} {derived.kerr / derived.kappa:>10.3g} "
          f"{derived.kappa_eff / derived.kappa:>16.6f}")

print("\nquartic scaling of the inherited Kerr:")
for frac in (0.025, 0.05, 0.1):
    fit = dv.dispersive_kerr(dv.DeviceParams(coupling=frac * detuning,
                                             qubit_decay=TP * 1.6e3, **base))
    print(f"  g/Delta = {frac:5.3f}: K/2pi = {fit.kerr / TP:10.1f} Hz "
          f"(fit residual {fit.residual / fit.kerr * 100:.2f}% of K)")

print("\neffective decoherence of stored cat coherence:")
keff = dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=math.sqrt(2))
print(f"  kappa_eff / kappa = {keff / 1e-3:.4f}  (about 2 alpha^2 = 4)")
