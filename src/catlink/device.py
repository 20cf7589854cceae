"""Effective device parameters of one cavity + ancilla unit.

A weakly anharmonic superconducting ancilla dispersively coupled to the
cavity makes the cavity mode inherit a self-Kerr nonlinearity K and an
"inverse-Purcell" enhanced decay rate kappa.  This module estimates K by
numerically diagonalizing the two-mode Hamiltonian

    H = w_c a^dag a + w_q b^dag b - K_q b^dag^2 b^2 + g (a^dag b + a b^dag)

and fitting the spacing of consecutive dressed cavity levels, evaluates the
inverse-Purcell formula, and takes the effective decoherence rate of a
stored cat superposition as the decay rate of the one Liouvillian eigenmode
that holds its logical coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy

from . import qcore as qc
from .catqubit import CatQubitParams, _stabilized_h
from .dynamics import coupled_blocks, liouvillian

__all__ = [
    "DeviceParams",
    "DispersiveFit",
    "dispersive_kerr",
    "purcell_kappa",
    "kappa_eff",
    "KappaEffError",
    "derive_device",
]

DISPERSIVE_LIMIT = 0.3
N_FIT_LEVELS = 5              # spacings of |0,0> .. |5,0> enter the Kerr fit
MODE_LEFTOVER_LIMIT = 1e-3    # cat coherence the non-dominant Liouvillian modes may carry


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


def _two_mode_hamiltonian(params: DeviceParams, cavity_levels: int,
                          qubit_levels: int) -> np.ndarray:
    a = qc.annihilation(cavity_levels)
    b = qc.annihilation(qubit_levels)
    eye_a = qc.identity(cavity_levels)
    eye_b = qc.identity(qubit_levels)
    a_full = qc.tensor([a, eye_b])
    b_full = qc.tensor([eye_a, b])
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
    if cavity_levels <= N_FIT_LEVELS:
        raise ValueError(f"the Kerr fit reads |{N_FIT_LEVELS}, 0>, so it needs cavity_levels "
                         f">= {N_FIT_LEVELS + 1}, got {cavity_levels}")
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
    return DispersiveFit(kerr=float(kerr), residual=residual)


def purcell_kappa(cavity_decay: float, qubit_decay: float, coupling: float,
                  detuning: float) -> float:
    """Inverse-Purcell cavity decay (1 - (g/D)^2) kappa_c + (g/D)^2 gamma."""
    if detuning == 0:
        raise ValueError("detuning must be nonzero")
    ratio2 = (coupling / detuning) ** 2
    return (1.0 - ratio2) * cavity_decay + ratio2 * qubit_decay


class KappaEffError(ValueError):
    """``kappa_eff`` has no rate at (K, kappa, alpha); ``reason`` says why.

    The message gives K and kappa in the caller's units, followed by
    ``unit``; a caller that knows the units can restate it from the fields.
    """

    def __init__(self, kerr: float, kappa: float, alpha: float, reason: str,
                 unit: str = ""):
        super().__init__(f"kappa_eff at K = {kerr:.6g}{unit}, kappa = {kappa:.6g}{unit}, "
                         f"alpha = {alpha:.6g}: {reason}")
        self.kerr, self.kappa, self.alpha, self.reason = kerr, kappa, alpha, reason


def kappa_eff(kerr: float, kappa: float, alpha: float = math.sqrt(2.0)) -> float:
    """Effective decoherence rate of cat-encoded coherence under loss.

    The antisymmetric cat-basis coherence (|C+><C-| - |C-><C+|)/2 decays
    under the stabilized Hamiltonian with single-photon loss at about
    2 kappa alpha^2.  (Each photon jump swaps the two cat components, so only
    the antisymmetric part of the coherence decays; the symmetric part
    belongs to the loss-immune coherent-state pointer basis.)  The
    coherence lies in the parity-odd block of the Liouvillian at a Fock
    truncation of 20; expanded in that block's eigenmodes, it is carried by
    one mode, and the rate is -Re of that mode's eigenvalue.  Raises when
    K <= 0, or when the other modes together carry more than
    ``MODE_LEFTOVER_LIMIT`` of the initial coherence, so that the coherence
    is no single exponential (a cat the Kerr barely stabilizes, or one too
    large for the truncation); either raises ``KappaEffError``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kerr <= 0:
        raise KappaEffError(kerr, kappa, alpha, "K must be positive to stabilize the cat")
    if kappa == 0:
        return 0.0
    dim = 20
    h = _stabilized_h(CatQubitParams(kerr=kerr, kappa=kappa, alpha=alpha, dim=dim))
    lv = liouvillian(h, [(qc.annihilation(dim), kappa)])
    plus = qc.cat_state(alpha, "even", dim)
    minus = qc.cat_state(alpha, "odd", dim)
    rho = 0.5 * (np.outer(plus, minus.conj()) - np.outer(minus, plus.conj()))
    vec = rho.reshape(-1, order="F")
    block = next(b for b in coupled_blocks(lv) if vec[b].any())
    vec = vec[block]
    lam, modes = np.linalg.eig(lv[block][:, block].toarray())
    # share of the coherence <rho0, rho(t)> / <rho0, rho0> = sum_k w_k e^(lam_k t)
    # that each mode carries
    weights = np.linalg.solve(modes, vec) * (vec.conj() @ modes) / np.vdot(vec, vec)
    k = int(np.argmax(np.abs(weights)))
    leftover = float(np.sum(np.abs(weights)) - abs(weights[k]))
    if leftover > MODE_LEFTOVER_LIMIT:
        raise KappaEffError(kerr, kappa, alpha,
                            f"no single Liouvillian mode holds the cat coherence; "
                            f"the other modes carry {leftover:.3g} of it "
                            f"(limit {MODE_LEFTOVER_LIMIT:g})")
    return float(-lam[k].real)


def derive_device(params: DeviceParams, cavity_levels: int = 12,
                  qubit_levels: int = 5, alpha: float = math.sqrt(2.0)) -> DeviceParams:
    """Fill the derived (kerr, kappa, kappa_eff) fields from physical inputs.

    A row whose K stabilizes no cat (an uncoupled or linear ancilla leaves
    K at rounding noise) is refused by ``kappa_eff`` with a
    ``KappaEffError`` naming K, kappa (both angular, as here) and alpha.
    """
    fit = dispersive_kerr(params, cavity_levels, qubit_levels)
    kap = purcell_kappa(params.cavity_decay, params.qubit_decay,
                        params.coupling, params.detuning)
    return replace(params, kerr=fit.kerr, kappa=kap,
                   kappa_eff=kappa_eff(fit.kerr, kap, alpha))
