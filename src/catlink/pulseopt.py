"""GRAPE shaping of the two orthogonal two-photon drive envelopes.

Fast driving and undriving between Fock and cat states uses two
piecewise-constant controls, the two-photon drive (a^dag^2 + a^2) and its
orthogonal quadrature i (a^dag^2 - a^2), on top of the fixed Kerr term.  The
objective is the squared overlap with the target after lossless propagation;
photon loss is scored afterwards by re-running the optimized schedule, whose
channels are its segment values, through ``catqubit``'s ramp scorer, the
master-equation integrator one segment at a time (the pulse is shaped
unitarily: cheaper, and the achievable fidelities are loss-dominated).

The Hamiltonian conserves photon-number parity, so the propagation keeps
only the parity sector that the initial and target states occupy (half the
space for the cat problems).  Gradients are exact: all segment propagators
come from one stacked eigendecomposition, and the derivative along a control
direction uses the standard divided-difference (Loewner) construction,
evaluated for every segment at once, so the adjoint gradient matches finite
differences to solver precision.  Re-scoring also checks that the sampled
states stay clear of the Fock cutoff.  The optimizer is scipy's
L-BFGS-B with the amplitude bound as box constraints, i.e. quasi-Newton
GRAPE (de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import qcore as qc
from .catqubit import _CHANNEL_OPS, CatQubitParams, PulseSchedule, _kerr_op, _run_pulse, \
    adiabatic_drive_pulse
from .dynamics import coupled_blocks
# not used here: the benchmark tracer's self-test reaches it as ``pulseopt.evolve``
from .dynamics import evolve  # noqa: F401

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
    """State-transfer problem for piecewise-constant two-photon controls
    between two normalized state vectors of one length."""

    params: CatQubitParams
    initial: np.ndarray
    target: np.ndarray
    total_time: float
    n_segments: int
    amplitude_bound: float  # rad/s

    def __post_init__(self):
        if self.n_segments < 4:
            raise ValueError("need at least 4 segments")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.amplitude_bound <= 0:
            raise ValueError("amplitude_bound must be positive")
        qc.check_pure(self.initial, "GRAPE initial state")
        qc.check_pure(self.target, "GRAPE target state")
        if len(self.initial) != len(self.target):
            raise ValueError(f"initial and target lengths differ: {len(self.initial)} "
                             f"vs {len(self.target)}")

    @property
    def dim(self) -> int:
        return len(self.initial)


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


def drive_problem(params: CatQubitParams, total_time: float, n_segments: int,
                  amplitude_bound: float, dim: int = GRAPE_DIM) -> GrapeProblem:
    """|0> -> even cat in ``total_time``."""
    return GrapeProblem(params=replace(params, dim=dim), initial=qc.fock_state(0, dim),
                        target=qc.cat_state(params.alpha, "even", dim),
                        total_time=total_time, n_segments=n_segments,
                        amplitude_bound=amplitude_bound)


def undrive_problem(params: CatQubitParams, total_time: float, n_segments: int,
                    amplitude_bound: float, dim: int = GRAPE_DIM) -> GrapeProblem:
    """Even cat -> |0> in ``total_time``: the drive reversed."""
    drive = drive_problem(params, total_time, n_segments, amplitude_bound, dim)
    return replace(drive, initial=drive.target, target=drive.initial)


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
        controls = [build(dim) for build, _ in _CHANNEL_OPS.values()]
        psi0, target = problem.initial, problem.target
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
    """Adiabatic up-ramp sampled at the segment midpoints; the orthogonal
    channel starts at zero.  A seed adds a small reproducible perturbation
    (used for restarts)."""
    n = problem.n_segments
    mids = (np.arange(n) + 0.5) * (problem.total_time / n)
    ramp = adiabatic_drive_pulse(problem.params,
                                 duration_kt=problem.total_time * problem.params.kerr)
    u = np.zeros((2, n))
    u[0] = [ramp.channels["two_photon"](t) for t in mids]
    if seed is not None:
        rng = np.random.default_rng(seed)
        u += 0.05 * problem.params.two_photon_amplitude * rng.standard_normal(u.shape)
    bound = problem.amplitude_bound
    return np.clip(u, -bound, bound)


def grape_optimize(problem: GrapeProblem, max_iters: int,
                   seed: Optional[int] = None) -> GrapeResult:
    """Box-constrained quasi-Newton GRAPE: scipy's L-BFGS-B on 1 - F.

    The gradient is the exact adjoint gradient and every amplitude is bounded
    by ``problem.amplitude_bound``, so the returned schedule respects it.
    The initial guess is the adiabatic up-ramp (``_initial_guess``), which
    suits a drive from |0>.
    ``max_iters`` caps the L-BFGS-B iterations; ``converged`` says whether
    L-BFGS-B stopped on its own rule and ``stop_reason`` carries its message.
    ``max_iters <= 0`` returns the clipped initial guess unoptimized
    (L-BFGS-B takes one step even at a zero cap).
    """
    prop = _Propagation(problem)
    bound = problem.amplitude_bound
    u = _initial_guess(problem, seed)

    if max_iters <= 0:
        fidelity, converged = prop.overlap_and_gradient(u)[0], False
        stop_reason = f"max_iters = {max_iters}: not optimized"
        trace, evaluations = [fidelity], 1
    else:
        import scipy.optimize

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

    # the rows of u are the channels, in the order of the control operators
    schedule = PulseSchedule(problem.total_time,
                             {name: row.astype(complex) for name, row in zip(_CHANNEL_OPS, u)})
    return GrapeResult(schedule=schedule, fidelity=float(fidelity),
                       iterations=np.asarray(trace), converged=converged,
                       stop_reason=stop_reason, evaluations=evaluations)


def evaluate_pulse(problem: GrapeProblem, schedule: PulseSchedule, kappa: float) -> float:
    """Re-score a schedule with loss at ``kappa`` through
    ``catqubit._run_pulse``; kappa = 0 is the unitary cross-check against the
    optimizer's internal propagation.  Errors name the K/kappa row and
    "GRAPE pulse evaluation"; ``TruncationOverflowError`` means a sampled
    state holds more than 1e-6 in the top two Fock levels.
    """
    row = replace(problem.params, kappa=kappa, dim=problem.dim)
    return _run_pulse([row], "GRAPE pulse evaluation", schedule, problem.initial,
                      problem.target)[0].fidelity
