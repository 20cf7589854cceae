"""Effective device parameters of one cavity + ancilla unit.

A weakly anharmonic superconducting ancilla dispersively coupled to the
cavity makes the cavity mode inherit a self-Kerr nonlinearity K and an
"inverse-Purcell" enhanced decay rate kappa.  This module estimates K by
numerically diagonalizing the two-mode Hamiltonian

    H = w_c a^dag a + w_q b^dag b - K_q b^dag^2 b^2 + g (a^dag b + a b^dag)

and fitting the spacing of consecutive dressed cavity levels, evaluates the
inverse-Purcell formula, and extracts the effective decoherence rate of a
stored cat superposition by fitting the decay of its logical coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy

from . import qcore as qc
from .catqubit import CatQubitParams, _stabilized_h
from .dynamics import evolve_constant, fit_exponential_decay

__all__ = [
    "DeviceParams",
    "DispersiveFit",
    "KappaEffFit",
    "dispersive_kerr",
    "purcell_kappa",
    "kappa_eff",
    "derive_device",
]

DISPERSIVE_LIMIT = 0.3
N_FIT_LEVELS = 5              # spacings of |0,0> .. |5,0> enter the Kerr fit


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of a cavity + ancilla unit (all angular, rad/s or 1/s).

    ``kerr``, ``kappa`` and ``kappa_eff`` are derived quantities; construct
    with them unset and call ``derive_device`` to fill them from the physical
    inputs, or supply them directly when taking tabulated values.
    """

    cavity_freq: float
    qubit_freq: float
    anharmonicity: float          # ancilla self-Kerr K_q
    coupling: float               # g
    cavity_decay: float           # bare kappa_c
    qubit_decay: float            # gamma
    kerr: Optional[float] = None
    kappa: Optional[float] = None
    kappa_eff: Optional[float] = None

    def __post_init__(self):
        for name in ("anharmonicity", "coupling", "cavity_decay", "qubit_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def detuning(self) -> float:
        return self.qubit_freq - self.cavity_freq

    def check_dispersive(self) -> "DeviceParams":
        ratio = abs(self.coupling / self.detuning) if self.detuning != 0 else math.inf
        if ratio >= DISPERSIVE_LIMIT:
            raise ValueError(
                f"g/|Delta| = {ratio:.3f} violates the dispersive regime (< {DISPERSIVE_LIMIT})")
        return self


@dataclass(frozen=True)
class DispersiveFit:
    kerr: float
    residual: float               # RMS of spacing fit, same units as kerr
    spacings: np.ndarray


@dataclass(frozen=True)
class KappaEffFit:
    kappa_eff: float
    residual: float               # relative RMS residual of the log-linear fit
    flagged: bool                 # residual above 5 percent


def _two_mode_hamiltonian(params: DeviceParams, cavity_levels: int,
                          qubit_levels: int) -> np.ndarray:
    a = qc.annihilation(cavity_levels)
    b = qc.annihilation(qubit_levels)
    eye_a = qc.identity(cavity_levels)
    eye_b = qc.identity(qubit_levels)
    a_full = qc.tensor([a, eye_b]).data
    b_full = qc.tensor([eye_a, b]).data
    h = (params.cavity_freq * a_full.conj().T @ a_full
         + params.qubit_freq * b_full.conj().T @ b_full
         - params.anharmonicity * b_full.conj().T @ b_full.conj().T @ b_full @ b_full
         + params.coupling * (a_full.conj().T @ b_full + a_full @ b_full.conj().T))
    return h


def dispersive_kerr(params: DeviceParams, cavity_levels: int = 12,
                    qubit_levels: int = 5) -> DispersiveFit:
    """Inherited cavity Kerr from exact diagonalization.

    Dressed states |i, 0> are identified by maximum overlap with the bare
    product states, then the spacings w(i+1,0) - w(i,0) are fit to a line
    whose slope is -2K.  Raises when a maximum overlap is below 0.8, which
    signals a dispersive-regime violation.  Above 0.8 no two bare states can
    claim one eigenvector, since their overlaps with it sum to at most 1.
    """
    params.check_dispersive()
    h = _two_mode_hamiltonian(params, cavity_levels, qubit_levels)
    evals, evecs = scipy.linalg.eigh(h)

    # overlap of each eigenvector with each bare |i, 0>
    bare_idx = [i * qubit_levels for i in range(N_FIT_LEVELS + 1)]
    overlaps = np.abs(evecs[bare_idx, :]) ** 2  # (n_fit+1, dim)
    energies = []
    for i, j in enumerate(np.argmax(overlaps, axis=1)):
        if overlaps[i, j] < 0.8:
            raise ValueError(
                f"dressed-state identification ambiguous for level {i} "
                f"(overlap {overlaps[i, j]:.2f} < 0.8); not dispersive enough")
        energies.append(evals[j])
    energies = np.asarray(energies)
    spacings = np.diff(energies)
    idx = np.arange(len(spacings))
    coeffs = np.polyfit(idx, spacings, 1)
    kerr = -coeffs[0] / 2.0
    residual = float(np.sqrt(np.mean((np.polyval(coeffs, idx) - spacings) ** 2)))
    return DispersiveFit(kerr=float(kerr), residual=residual, spacings=spacings)


def purcell_kappa(cavity_decay: float, qubit_decay: float, coupling: float,
                  detuning: float) -> float:
    """Inverse-Purcell cavity decay (1 - (g/D)^2) kappa_c + (g/D)^2 gamma."""
    if detuning == 0:
        raise ValueError("detuning must be nonzero")
    ratio2 = (coupling / detuning) ** 2
    return (1.0 - ratio2) * cavity_decay + ratio2 * qubit_decay


def kappa_eff(kerr: float, kappa: float, alpha: float = math.sqrt(2.0)) -> KappaEffFit:
    """Effective decoherence rate of cat-encoded coherence under loss.

    Evolves the logical superposition (|C+> + i |C->)/sqrt(2) under the
    stabilized Hamiltonian with single-photon loss and fits the exponential
    decay of the antisymmetric cat-basis coherence
    |<C+|rho|C-> - <C-|rho|C+>|/2; approximately 2 kappa alpha^2.  (Each
    photon jump swaps the two cat components, so only the antisymmetric part
    of the coherence decays; the symmetric part belongs to the loss-immune
    coherent-state pointer basis.)  The fit samples 40 times over 0.35 of
    the expected coherence lifetime at a Fock truncation of 20.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kappa == 0:
        return KappaEffFit(kappa_eff=0.0, residual=0.0, flagged=False)
    dim = 20
    cavity = CatQubitParams(kerr=kerr, kappa=kappa, alpha=alpha, dim=dim)
    h = _stabilized_h(cavity)
    plus = qc.cat_state(alpha, "even", dim).data
    minus = qc.cat_state(alpha, "odd", dim).data
    psi0 = (plus + 1j * minus) / math.sqrt(2.0)
    rho0 = np.outer(psi0, psi0.conj())

    expected = 2.0 * kappa * alpha**2
    t_end = 0.35 / expected
    times = np.linspace(0.0, t_end, 40)
    rhos = evolve_constant(h, [(qc.annihilation(dim).data, kappa)], rho0, times)
    coherence = np.array([0.5 * abs(np.vdot(plus, r @ minus)
                                    - np.vdot(minus, r @ plus)) for r in rhos])
    coherence = coherence / coherence[0]
    fit = fit_exponential_decay(times, coherence)
    rel_residual = fit.residual / max(abs(fit.rate) * t_end, 1e-30)
    return KappaEffFit(kappa_eff=float(fit.rate), residual=float(rel_residual),
                       flagged=rel_residual > 0.05)


def derive_device(params: DeviceParams, cavity_levels: int = 12,
                  qubit_levels: int = 5, alpha: float = math.sqrt(2.0),
                  fit_kappa_eff: bool = True) -> DeviceParams:
    """Fill the derived (kerr, kappa, kappa_eff) fields from physical inputs.

    ``fit_kappa_eff=False`` uses the closed-form 2 kappa alpha^2 instead of
    the dynamical fit (useful in wide sweeps).
    """
    fit = dispersive_kerr(params, cavity_levels, qubit_levels)
    kap = purcell_kappa(params.cavity_decay, params.qubit_decay,
                        params.coupling, params.detuning)
    if fit_kappa_eff and fit.kerr > 0 and kap > 0:
        keff = kappa_eff(fit.kerr, kap, alpha).kappa_eff
    else:
        keff = 2.0 * kap * alpha**2
    return replace(params, kerr=fit.kerr, kappa=kap, kappa_eff=keff)

