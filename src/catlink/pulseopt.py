"""GRAPE shaping of the two orthogonal two-photon drive envelopes.

Fast driving and undriving between Fock and cat states uses two
piecewise-constant controls, the two-photon drive (a^dag^2 + a^2) and its
orthogonal quadrature i (a^dag^2 - a^2), on top of the fixed Kerr term.  The
objective is the squared overlap with the target after lossless propagation;
photon loss is scored afterwards by re-running the optimized schedule through
the master-equation integrator (the pulse is shaped unitarily, which is both
cheaper and matches how the achievable fidelities are loss-dominated).

The Hamiltonian conserves photon-number parity, so the propagation keeps
only the parity sector that the initial and target states occupy (half the
space for the cat problems).  Gradients are exact: all segment propagators
come from one stacked eigendecomposition, and the derivative along a control
direction uses the standard divided-difference (Loewner) construction,
evaluated for every segment at once, so the adjoint gradient matches finite
differences to solver precision.  Re-scoring also checks that the initial
and final states stay clear of the Fock cutoff.  The optimizer is scipy's
L-BFGS-B with the amplitude bound as box constraints, i.e. quasi-Newton
GRAPE (de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy

from . import qcore as qc
from .catqubit import CatQubitParams, _check_truncation, _kerr_op, _two_photon_op, \
    _two_photon_orthogonal_op, adiabatic_drive_pulse
from .dynamics import coupled_blocks, evolve
from .pulses import PulseSchedule, piecewise_constant

__all__ = [
    "GrapeProblem",
    "GrapeResult",
    "grape_optimize",
    "evaluate_pulse",
    "drive_problem",
    "undrive_problem",
]

GRAPE_DIM = 30  # transient excursions leave the qubit manifold; needs headroom


@dataclass(frozen=True)
class GrapeProblem:
    """State-transfer problem for piecewise-constant two-photon controls."""

    params: CatQubitParams
    initial: qc.QState
    target: qc.QState
    total_time: float
    n_segments: int = 64
    amplitude_bound: Optional[float] = None  # rad/s; default 10 K

    def __post_init__(self):
        if self.n_segments < 4:
            raise ValueError("need at least 4 segments")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        bound = self.amplitude_bound
        if bound is None:
            bound = 10.0 * self.params.kerr
        if bound <= 0:
            raise ValueError("amplitude_bound must be positive")
        object.__setattr__(self, "amplitude_bound", float(bound))
        if self.initial.dims != self.target.dims:
            raise ValueError("initial and target dims differ")

    @property
    def dim(self) -> int:
        return self.initial.dim


@dataclass(frozen=True)
class GrapeResult:
    schedule: PulseSchedule
    fidelity: float
    iterations: np.ndarray = field(repr=False)  # fidelity trace, index 0 = initial guess
    converged: bool          # L-BFGS-B met its own convergence test
    stop_reason: str         # L-BFGS-B's message
    evaluations: int         # objective and gradient evaluations (scipy's nfev)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations) - 1


def drive_problem(params: CatQubitParams, total_time: Optional[float] = None,
                  n_segments: int = 64, dim: int = GRAPE_DIM,
                  amplitude_bound: Optional[float] = None) -> GrapeProblem:
    """|0> -> even cat in ``total_time`` (default 0.5 / K)."""
    t = total_time if total_time is not None else 0.5 / params.kerr
    p = replace(params, dim=dim)
    return GrapeProblem(params=p, initial=qc.fock_state(0, dim),
                        target=qc.cat_state(params.alpha, "even", dim),
                        total_time=t, n_segments=n_segments,
                        amplitude_bound=amplitude_bound)


def undrive_problem(params: CatQubitParams, total_time: Optional[float] = None,
                    n_segments: int = 64, dim: int = GRAPE_DIM,
                    amplitude_bound: Optional[float] = None) -> GrapeProblem:
    """Even cat -> |0> in ``total_time`` (default 0.5 / K)."""
    t = total_time if total_time is not None else 0.5 / params.kerr
    p = replace(params, dim=dim)
    return GrapeProblem(params=p, initial=qc.cat_state(params.alpha, "even", dim),
                        target=qc.fock_state(0, dim),
                        total_time=t, n_segments=n_segments,
                        amplitude_bound=amplitude_bound)


class _Propagation:
    """Overlap and exact gradient for one control configuration.

    The problem is restricted to the ``coupled_blocks`` of H0 and the controls
    that the initial or target state touches; the dynamics never leave them,
    so the restriction is exact.  For the cat problems, whose states are both
    even, that is the even-parity half of the space.
    """

    def __init__(self, problem: GrapeProblem):
        dim = problem.dim
        h0 = _kerr_op(dim, problem.params.kerr)
        controls = (_two_photon_op(dim), _two_photon_orthogonal_op(dim))
        psi0, target = problem.initial.data, problem.target.data
        keep = np.sort(np.concatenate([idx for idx in coupled_blocks(h0, *controls)
                                       if np.any(psi0[idx]) or np.any(target[idx])]))
        sub = np.ix_(keep, keep)
        self.h0 = h0[sub]
        self.controls = np.stack([c[sub] for c in controls])
        self.dt = problem.total_time / problem.n_segments
        self.psi0 = psi0[keep]
        self.target = target[keep]
        self.n = problem.n_segments

    def overlap_and_gradient(self, u: np.ndarray):
        """u has shape (2, n_segments); returns (|c|^2, dF/du)."""
        dt, n = self.dt, self.n
        # segment Hamiltonians (n, d, d), all factored in one stacked eigh
        h = self.h0 + u[0, :, None, None] * self.controls[0] \
            + u[1, :, None, None] * self.controls[1]
        lam, v = np.linalg.eigh(h)
        vh = v.conj().transpose(0, 2, 1)
        phase = np.exp(-1j * lam * dt)

        # the two sequential recursions, keeping each segment's eigen-
        # coefficients of the forward state psi_k and of the backward-
        # propagated target chi_k+1 on entry to segment k
        psi_t = np.empty(lam.shape, dtype=complex)
        chi_t = np.empty(lam.shape, dtype=complex)
        psi = self.psi0
        for k in range(n):
            psi_t[k] = vh[k] @ psi
            psi = v[k] @ (phase[k] * psi_t[k])
        c = complex(np.vdot(self.target, psi))
        chi = self.target
        for k in range(n - 1, -1, -1):
            chi_t[k] = vh[k] @ chi
            chi = v[k] @ (np.conj(phase[k]) * chi_t[k])

        # Loewner matrices for f(x) = exp(-i x dt), one per segment
        diff = lam[:, :, None] - lam[:, None, :]
        num = phase[:, :, None] - phase[:, None, :]
        tiny = 1e-12 * np.max(np.abs(lam) + 1.0, axis=1)[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(np.abs(diff) > tiny, num / diff, -1j * dt * phase[:, :, None])
        # dc/du_jk = <chi_k+1| V (M o V^dag C_j V) V^dag |psi_k>
        #          = sum_xy (C_j)_xy (V^* A V^T)_xy  with  A = (chi_t^* psi_t^T) o M
        a = chi_t.conj()[:, :, None] * m * psi_t[:, None, :]
        dcdu = np.einsum("jxy,kxy->jk", self.controls, v.conj() @ a @ v.transpose(0, 2, 1))
        return abs(c) ** 2, 2.0 * np.real(np.conj(c) * dcdu)


def _initial_guess(problem: GrapeProblem, seed: Optional[int]) -> np.ndarray:
    """Adiabatic ramp resampled onto the segment grid; the orthogonal channel
    starts at zero.  A seed adds a small reproducible perturbation (used for
    restarts)."""
    n = problem.n_segments
    dt = problem.total_time / n
    mids = (np.arange(n) + 0.5) * dt
    ramp = adiabatic_drive_pulse(problem.params,
                                 duration_kt=problem.total_time * problem.params.kerr)
    # direction of the transfer decides whether the ramp runs up or down
    forward = abs(problem.initial.data[0]) > 0.5
    vals = np.array([ramp.channels["two_photon"](t if forward else
                                                 problem.total_time - t)
                     for t in mids])
    u = np.zeros((2, n))
    u[0] = vals
    if seed is not None:
        rng = np.random.default_rng(seed)
        u += 0.05 * problem.params.two_photon_amplitude * rng.standard_normal(u.shape)
    bound = problem.amplitude_bound
    return np.clip(u, -bound, bound)


def grape_optimize(problem: GrapeProblem, max_iters: int = 1000,
                   initial_guess: Optional[np.ndarray] = None,
                   seed: Optional[int] = None) -> GrapeResult:
    """Box-constrained quasi-Newton GRAPE: scipy's L-BFGS-B on 1 - F.

    The gradient is the exact adjoint gradient and every amplitude is bounded
    by ``problem.amplitude_bound``, so the returned schedule respects it.
    ``max_iters`` caps the L-BFGS-B iterations; ``converged`` says whether
    L-BFGS-B stopped on its own rule and ``stop_reason`` carries its message.
    ``max_iters <= 0`` returns the clipped initial guess unoptimized
    (L-BFGS-B takes one step even at a zero cap).
    """
    prop = _Propagation(problem)
    bound = problem.amplitude_bound
    u = _initial_guess(problem, seed) if initial_guess is None else \
        np.clip(np.array(initial_guess, dtype=float), -bound, bound)
    if u.shape != (2, problem.n_segments):
        raise ValueError(f"initial guess shape {u.shape} != (2, {problem.n_segments})")

    if max_iters <= 0:
        fidelity, converged = prop.overlap_and_gradient(u)[0], False
        stop_reason = f"max_iters = {max_iters}: not optimized"
        trace, evaluations = [fidelity], 1
    else:
        trace = []

        def objective(x):
            fid, grad = prop.overlap_and_gradient(x.reshape(u.shape))
            if not trace:  # L-BFGS-B evaluates the initial guess first
                trace.append(fid)
            return 1.0 - fid, -grad.ravel()

        res = scipy.optimize.minimize(
            objective, u.ravel(), jac=True, method="L-BFGS-B",
            bounds=[(-bound, bound)] * u.size, options={"maxiter": max_iters},
            callback=lambda intermediate_result: trace.append(1.0 - intermediate_result.fun))
        u = res.x.reshape(u.shape)
        fidelity, converged, stop_reason = 1.0 - res.fun, bool(res.success), str(res.message)
        evaluations = int(res.nfev)

    schedule = piecewise_constant(problem.total_time, {
        "two_photon": u[0].astype(complex),
        "two_photon_orthogonal": u[1].astype(complex),
    })
    return GrapeResult(schedule=schedule, fidelity=float(fidelity),
                       iterations=np.asarray(trace), converged=converged,
                       stop_reason=stop_reason, evaluations=evaluations)


def evaluate_pulse(problem: GrapeProblem, schedule: PulseSchedule,
                   kappa: Optional[float] = None) -> float:
    """Re-score a schedule with the master-equation integrator.

    ``kappa`` defaults to the problem's loss rate; pass 0 for the unitary
    cross-check against the optimizer's internal propagation.  Raises
    ``TruncationOverflowError`` when the initial or final state holds more
    than 1e-6 in the top two Fock levels.
    """
    from .catqubit import _pulse_hamiltonian

    k = problem.params.kappa if kappa is None else float(kappa)
    params = replace(problem.params, kappa=k, dim=problem.dim)
    h = _pulse_hamiltonian(params, schedule)
    collapse = [(qc.annihilation(params.dim), k)] if k > 0 else []
    traj = evolve(h, collapse, problem.initial, n_samples=2)
    _check_truncation(traj.states, params.dim)
    return qc.state_fidelity(traj.final_state, problem.target)
