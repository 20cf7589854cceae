"""Microwave-to-spin transfer efficiency and the transduction budget.

The microwave cavity mode couples resonantly to the collective excitation of
N spins with an ensemble-enhanced strength g'sqrt(N); free evolution swaps a
single cavity excitation into the collective spin mode in T_S =
pi / (2 g'sqrt(N)).  Natural inhomogeneous broadening of the spin transition
spreads the collective coupling over detuned sub-ensembles and is the main
efficiency limit; cavity decay, spin decay, and the homogeneous spin
linewidth take the rest.

The single-excitation subspace makes this exact and small: one amplitude per
spin bin plus the cavity, with every decay channel emptying into a loss sink.

By default the homogeneous linewidth gamma_2 counts as amplitude loss of the
retrievable excitation rather than as pure dephasing: excitation that has
homogeneously dephased is not recovered by the subsequent echo sequence, so
it is gone for transduction purposes.  The pure-dephasing variant (which
conserves spin population) is available via ``gamma2_model``.

The two models use different solvers:

* ``gamma2_model="loss"`` (default): with no pure dephasing the state stays
  pure, so the n_bins + 1 no-jump amplitudes (cavity, then the spin bins)
  obey a non-Hermitian Schrodinger equation under H_eff = H - (i/2) Gamma,
  and the sink holds 1 - ||psi||^2.  H_eff is an arrowhead matrix (diagonal
  bins, each coupled to the cavity with the same g), so one right-hand side
  costs O(n_bins).
* ``gamma2_model="dephasing"``: pure dephasing mixes the state, so the
  (n_bins + 2)^2 density matrix (cavity, bins, sink) is evolved with a
  Lindblad right-hand side specialized to diagonal dephasing and
  rank-one-to-sink decay; its commutator with the arrowhead H costs
  O(n_bins^2), not two dense products.  This solver is also the test oracle
  for the amplitude solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynamics import integrate_rk45

__all__ = [
    "TransducerParams",
    "TransferResult",
    "spin_transfer_efficiency",
    "transduction_budget",
]

# Truncating the Lorentzian at +/-10 FWHM visibly underestimates the
# tail-induced cavity residue.  +/-25 FWHM is not converged either: the
# default eta reads 0.994077 here and 0.993164 at +/-100 FWHM, and its
# excess over the unbounded-line limit falls as 1/span (1.25e-3, 3.3e-4 and
# 8.1e-5 at +/-25, +/-100 and +/-400 FWHM).  The doubled-bin ``bin_drift``
# check holds the span fixed, so it reads 1.6e-5 and cannot see this bias.
DEFAULT_SPAN_FWHM = 25.0


@dataclass(frozen=True)
class TransducerParams:
    """Rates of the cavity-spin interface, all angular (rad/s or 1/s)."""

    ensemble_coupling: float = 2 * math.pi * 34e6   # g' sqrt(N)
    natural_linewidth: float = 2 * math.pi * 10e6   # Delta_ns (FWHM)
    spin_decay: float = 2 * math.pi * 160.0         # gamma_1
    spin_dephasing: float = 2 * math.pi * 100e3     # gamma_2
    cavity_decay: float = 2 * math.pi * 10.0        # kappa_mw
    n_bins: int = 201
    span_fwhm: float = DEFAULT_SPAN_FWHM
    lineshape: str = "lorentzian"                   # or "gaussian"
    gamma2_model: str = "loss"                      # or "dephasing"
    echo_efficiency: float = 0.90
    coupling_efficiency: float = 0.898

    def __post_init__(self):
        if self.ensemble_coupling <= 0:
            raise ValueError("ensemble coupling must be positive")
        if not self.natural_linewidth >= 0:
            raise ValueError(f"natural_linewidth must be >= 0, got {self.natural_linewidth}")
        if not self.span_fwhm > 0:
            raise ValueError(f"span_fwhm must be positive, got {self.span_fwhm}")
        if self.n_bins < 51 or self.n_bins % 2 == 0:
            raise ValueError("n_bins must be odd and >= 51")
        if self.lineshape not in ("lorentzian", "gaussian"):
            raise ValueError("lineshape must be 'lorentzian' or 'gaussian'")
        if self.gamma2_model not in ("loss", "dephasing"):
            raise ValueError("gamma2_model must be 'loss' or 'dephasing'")
        for name in ("echo_efficiency", "coupling_efficiency"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def transfer_time(self) -> float:
        """Swap time T_S = pi / (2 g' sqrt(N))."""
        return math.pi / (2.0 * self.ensemble_coupling)


@dataclass(frozen=True)
class TransferResult:
    efficiency: float
    cavity_population: float
    lost_population: float
    converged: bool          # doubling n_bins moves efficiency < 0.1 pp
    bin_drift: float         # |eta(2 n_bins + 1) - eta(n_bins)|


def _detuning_grid(params: TransducerParams) -> np.ndarray:
    """Symmetric equal-weight detuning grid over +/- span_fwhm linewidths.

    Equal-weight (inverse-CDF) placement resolves the sharp Lorentzian peak
    without wasting bins far in the wings; every bin then couples with the
    same strength g_ens / sqrt(n_bins), preserving sum g_j^2 = g_ens^2.
    """
    n = params.n_bins
    if params.natural_linewidth == 0:
        return np.zeros(n)
    half = params.span_fwhm * params.natural_linewidth
    qs = (np.arange(n) + 0.5) / n
    if params.lineshape == "lorentzian":
        gam = params.natural_linewidth / 2.0
        cdf_half = math.atan(half / gam) / math.pi
        return gam * np.tan((qs * 2.0 - 1.0) * cdf_half * math.pi)
    import scipy.special

    sigma = params.natural_linewidth / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    cdf_half = 0.5 * math.erf(half / (sigma * math.sqrt(2.0)))
    return sigma * math.sqrt(2.0) * scipy.special.erfinv((qs * 2.0 - 1.0) * 2.0 * cdf_half)


def _transfer_amplitudes(params: TransducerParams) -> tuple[float, float, float]:
    """(spin, cavity, sink) populations at T_S for ``gamma2_model="loss"``.

    Integrates the no-jump amplitudes psi = (cavity, bins) under
    H_eff = H - (i/2) Gamma; everything that decays has left for the sink.
    """
    n = params.n_bins
    g = params.ensemble_coupling / math.sqrt(n)
    decay = np.full(n + 1, params.spin_decay + params.spin_dephasing)
    decay[0] = params.cavity_decay
    # -i H_eff restricted to its diagonal: bin detunings and half-rate decay
    diag = -1j * np.concatenate(([0.0], _detuning_grid(params))) - 0.5 * decay

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = diag * y
        out[0] -= 1j * g * np.sum(y[1:])
        out[1:] -= 1j * g * y[0]
        return out

    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[0] = 1.0
    ys = integrate_rk45(rhs, psi0, [0.0, params.transfer_time],
                        rel_tol=1e-9, abs_tol=1e-13)
    pops = np.abs(ys[-1]) ** 2
    spin, cavity = float(np.sum(pops[1:])), float(pops[0])
    return spin, cavity, 1.0 - spin - cavity


def _arrowhead_commutator(h: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> h @ rho - rho @ h in O(d^2) for an arrowhead ``h``: a diagonal
    plus couplings in row 0 and column 0 only."""
    diag = np.diag(h).copy()
    row, col = h[0].copy(), h[:, 0].copy()
    row[0] = col[0] = 0.0
    spread = diag[:, None] - diag[None, :]

    def commutator(rho: np.ndarray) -> np.ndarray:
        # h = diag + e0 row^T + col e0^T
        out = spread * rho
        out += np.outer(col, rho[0]) - np.outer(rho[:, 0], row)
        out[0] += row @ rho
        out[:, 0] -= rho @ col
        return out

    return commutator


def _transfer_density_matrix(params: TransducerParams) -> tuple[float, float, float]:
    """(spin, cavity, sink) populations at T_S from the full density matrix.

    Needed for ``gamma2_model="dephasing"``, whose pure dephasing leaves a
    mixed state; in the loss model it is the oracle for
    ``_transfer_amplitudes``.
    """
    n = params.n_bins
    deltas = _detuning_grid(params)
    g = params.ensemble_coupling / math.sqrt(n)

    d = n + 2   # cavity | spin bins | sink
    h = np.zeros((d, d), dtype=complex)
    h[1:-1, 1:-1] = np.diag(deltas)
    h[0, 1:-1] = g
    h[1:-1, 0] = g

    decay = np.zeros(d)
    decay[0] = params.cavity_decay
    decay[1:-1] = params.spin_decay
    dephase = np.zeros(d)
    if params.gamma2_model == "loss":
        decay[1:-1] += params.spin_dephasing
    else:
        dephase[1:-1] = params.spin_dephasing

    # element-wise damping: amplitude decay on rows/columns plus pure
    # dephasing of coherences between distinct levels
    damp = 0.5 * (decay[:, None] + decay[None, :])
    damp += 0.5 * (dephase[:, None] + dephase[None, :]) - np.diag(dephase)

    commutator = _arrowhead_commutator(h)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho = y.reshape(d, d)
        out = -1j * commutator(rho)
        out -= damp * rho
        out[-1, -1] += float(np.sum(decay * np.real(np.diag(rho))))
        return out.reshape(-1)

    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0
    ys = integrate_rk45(rhs, rho0.reshape(-1), [0.0, params.transfer_time],
                        rel_tol=1e-9, abs_tol=1e-13)
    pops = np.real(np.diag(ys[-1].reshape(d, d)))
    return float(np.sum(pops[1:-1])), float(pops[0]), float(pops[-1])


def spin_transfer_efficiency(params: TransducerParams) -> TransferResult:
    """Total spin population after the resonant swap time.

    The solve is repeated with doubled bin count; the move in efficiency is
    reported as ``bin_drift``, and the result is flagged unconverged when it
    exceeds 0.1 percentage points.
    """
    solve = (_transfer_amplitudes if params.gamma2_model == "loss"
             else _transfer_density_matrix)
    spin, cavity, sink = solve(params)
    spin2, _, _ = solve(replace(params, n_bins=2 * params.n_bins + 1))
    drift = abs(spin2 - spin)
    return TransferResult(efficiency=spin, cavity_population=cavity, lost_population=sink,
                          converged=drift < 1e-3, bin_drift=drift)


def transduction_budget(params: TransducerParams, transfer: TransferResult) -> float:
    """Overall emission probability p: transfer x echo x fiber coupling.

    The echo and coupling factors stand in for the optical read-out stages,
    which are not dynamically modeled here; defaults are chosen so the
    budget lands at the 0.8 used by the rate scenarios.
    """
    return transfer.efficiency * params.echo_efficiency * params.coupling_efficiency
