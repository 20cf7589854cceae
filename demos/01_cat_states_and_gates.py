"""Cat-qubit basics: states, driving, and the gate set.

Walks through the building blocks of the cat qubit: the even/odd cat
states, the adiabatic mapping from Fock states, and the X/Z/G/CNOT gate
set with its fidelities under photon loss.  Takes about two seconds.
"""

import math

import numpy as np

from catlink import catqubit as cq
from catlink import qcore as qc

# -- the logical states -------------------------------------------------------
# The logical qubit lives in the even and odd cat states of a Kerr cavity.
alpha = math.sqrt(2)
even = qc.cat_state(alpha, "even", 20)
odd = qc.cat_state(alpha, "odd", 20)
print("cat state overlap |<C+|C->| :", abs(np.vdot(even, odd)))
print("even cat parity             :", qc.parity_expectation(even))
print("odd  cat parity             :", qc.parity_expectation(odd))

# -- driving: Fock -> cat -----------------------------------------------------
# Ramping the two-photon drive maps |0> and |1> onto the cats.  With loss at
# K/kappa = 1e3 the default ramp reaches the anchored ~99.6% fidelity.
params = cq.CatQubitParams(kerr=1.0, kappa=1e-3)
[result] = cq.drive([params])  # one result per cavity in the list
print(f"\ndrive |0> -> |C+>  fidelity = {result.fidelity:.5f} "
      f"(duration {result.duration_s:.2f}/K)")

# undriving is the time-reversed pulse; composed losslessly it undoes driving
ideal = cq.CatQubitParams(kerr=1.0, kappa=0.0)
[driven] = cq.drive([ideal])
# the drive returns a density matrix; its top eigenvector is the pure state
[roundtrip] = cq.undrive([ideal], state=np.linalg.eigh(driven.state)[1][:, -1])
print(f"lossless drive-undrive roundtrip fidelity = {roundtrip.fidelity:.5f}")

# -- single- and two-qubit gates ----------------------------------------------
ep0 = params.two_photon_amplitude
x = cq.gate_x(params, math.pi / 2, ep0 / 10)
z = cq.gate_z(params, math.pi / 2)
g = cq.gate_g(params, math.pi / 2, ep0 / 15)
print(f"\nX_pi/2: t = {x.duration_s:.4f}/K,  F = {x.fidelity:.5f}")
print(f"Z_pi/2: t = {z.duration_s:.4f}/K,  F = {z.fidelity:.5f}")
print(f"G_pi/2: t = {g.duration_s:.4f}/K,  F = {g.fidelity:.5f}")

# The CNOT is a seven-stage sequence of those rotations.
cnot = cq.cnot(params, ep0 / 10, ep0 / 15)
print(f"CNOT  : t = {cnot.duration_s:.4f}/K,  F = {cnot.fidelity:.5f}")
print("        per-basis-state:",
      {k: round(v, 5) for k, v in cnot.state_fidelities.items()})

# -- the full gate table --------------------------------------------------------
print("\ngate report at K/kappa = 1e3:")
for name, r in cq.gate_report([(params, 10.0, 15.0)])[0].items():
    print(f"  {name:8s}  K*t = {r.duration_s * params.kerr:8.4f}   F = {r.fidelity:.5f}")
