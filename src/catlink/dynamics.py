"""Open-system time evolution and decay-rate fitting.

``evolve`` integrates the Lindblad master equation

    drho/dt = -i [H(t), rho] + sum_j kappa_j (L_j rho L_j^dag
                                              - 1/2 {L_j^dag L_j, rho})

with an adaptive embedded Runge-Kutta 5(4) scheme (Dormand-Prince) acting on
the flattened density matrix.  The right-hand side is applied with dense
matrix products rather than an explicit superoperator matrix, which keeps
composite systems of a few hundred dimensions tractable.  For constant
Hamiltonians on small single-mode spaces, ``liouvillian`` plus
``evolve_constant`` give the exact dense-superoperator route.

Unitary problems with pure initial states are propagated as state vectors.

``PiecewiseConstantPropagator`` serves Hamiltonians that are constant over a
list of stages (the cat-qubit gates and the GRAPE segments): it propagates
exactly through one eigendecomposition per distinct stage Hamiltonian and
scores lossy evolution with a no-jump + one-jump expansion, which the test
suite checks against ``evolve_constant`` on single- and multi-stage
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .qcore import QOperator, QState, expectation, to_density_matrix

__all__ = [
    "TimeDependentHamiltonian",
    "Trajectory",
    "DecayFit",
    "IntegrationError",
    "evolve",
    "liouvillian",
    "evolve_constant",
    "fit_exponential_decay",
    "integrate_rk45",
    "PiecewiseConstantPropagator",
]


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator underflows its step size."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Hamiltonian H(t) = static_part + sum_k f_k(t) * drive_ops[k].

    Coefficient functions take a time in seconds and return a (complex)
    amplitude in rad/s.  ``breakpoints`` optionally lists interior times at
    which coefficients are only piecewise smooth (segment edges of
    piecewise-constant pulses); the integrator restarts there so no step
    straddles a discontinuity.
    """

    static_part: QOperator
    drive_terms: tuple[tuple[QOperator, Callable[[float], complex]], ...] = ()
    t_span: tuple[float, float] = (0.0, 0.0)
    breakpoints: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        terms = tuple((op, fn) for op, fn in self.drive_terms)
        for op, _ in terms:
            if op.dims != self.static_part.dims:
                raise ValueError("all Hamiltonian terms must share dims")
        object.__setattr__(self, "drive_terms", terms)
        object.__setattr__(self, "t_span", (float(self.t_span[0]), float(self.t_span[1])))

    @property
    def dims(self):
        return self.static_part.dims


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time evolution with optional observable series."""

    times: np.ndarray
    states: tuple[QState, ...]
    expectations: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0) and len(t) > 1:
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def final_state(self) -> QState:
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Write (time, expectation...) rows; states themselves are not
        serialized."""
        import csv

        names = sorted(self.expectations)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s"] + names)
            for i, t in enumerate(self.times):
                writer.writerow([repr(float(t))] +
                                [repr(float(self.expectations[n][i])) for n in names])


# -- Dormand-Prince RK45 ----------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def integrate_rk45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    output_times: Sequence[float],
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    breakpoints: Optional[Sequence[float]] = None,
    max_steps: int = 10_000_000,
) -> list[np.ndarray]:
    """Adaptive Dormand-Prince 5(4) integration of a complex ODE system.

    Integrates from ``output_times[0]`` through ``output_times[-1]``, hitting
    every output time (and every interior breakpoint) exactly, and returns
    the solution at the output times.  Raises ``IntegrationError`` on
    step-size underflow, reporting the failure time.
    """
    output_times = np.asarray(output_times, dtype=float)
    t = float(output_times[0])
    y = np.array(y0, dtype=complex)
    results = [y.copy()]

    stops = set(float(x) for x in output_times[1:])
    if breakpoints is not None:
        t_end = float(output_times[-1])
        stops.update(float(b) for b in breakpoints if output_times[0] < b < t_end)
    stop_list = sorted(stops)
    out_set = set(float(x) for x in output_times[1:])

    if not stop_list:
        return results

    k = [None] * 7
    f0 = rhs(t, y)
    span = stop_list[-1] - t
    # initial step heuristic, clamped to the integration span
    norm_y = _rms(y)
    norm_f = _rms(f0)
    h = 0.01 * norm_y / norm_f if norm_f > 0 and norm_y > 0 else span / 100.0
    h = min(max(h, 1e-10 * span), span / 10.0)

    steps = 0
    min_h_floor = 1e-14 * span
    for stop in stop_list:
        while t < stop:
            steps += 1
            if steps > max_steps:
                raise IntegrationError(f"step budget exceeded at t={t:.6e}", t)
            if h < min_h_floor:
                raise IntegrationError(f"step size underflow at t={t:.6e}", t)
            h_try = min(h, stop - t)
            k[0] = f0
            for i in range(1, 7):
                yi = y + h_try * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
                k[i] = rhs(t + _DP_C[i] * h_try, yi)
            y5 = y + h_try * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
            y4 = y + h_try * sum(b * k[j] for j, b in enumerate(_DP_B4) if b != 0.0)
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = _rms((y5 - y4) / scale)
            if err <= 1.0:
                t = t + h_try
                y = y5
                f0 = k[6]  # FSAL
                factor = 0.9 * err ** -0.2 if err > 0 else 5.0
                h = h_try * min(5.0, max(0.2, factor))
            else:
                h = h_try * max(0.2, 0.9 * err ** -0.2)
        # exactly at a stop; FSAL derivative may be stale across breakpoints
        f0 = rhs(t, y)
        if stop in out_set or math.isclose(stop, float(output_times[-1])):
            results.append(y.copy())
    return results


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(x) ** 2)))


# -- Lindblad evolution ------------------------------------------------------


def _lindblad_rhs_factory(h: TimeDependentHamiltonian,
                          collapse_ops: Sequence[tuple[QOperator, float]]):
    h_static = np.asarray(h.static_part.data)
    drive = [(np.asarray(op.data), fn) for op, fn in h.drive_terms]
    ls = []
    for op, rate in collapse_ops:
        if rate < 0:
            raise ValueError("collapse rates must be nonnegative")
        l_mat = np.sqrt(rate) * np.asarray(op.data)
        ls.append((l_mat, l_mat.conj().T, l_mat.conj().T @ l_mat))
    dim = h_static.shape[0]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho = y.reshape(dim, dim)
        ht = h_static
        if drive:
            ht = h_static.copy()
            for mat, fn in drive:
                c = complex(fn(t))
                if c.imag == 0:
                    ht += c.real * mat
                else:
                    ht += c * mat
        out = -1j * (ht @ rho - rho @ ht)
        for l_mat, l_dag, ldl in ls:
            out += l_mat @ rho @ l_dag - 0.5 * (ldl @ rho + rho @ ldl)
        return out.reshape(-1)

    return rhs


def _schrodinger_rhs_factory(h: TimeDependentHamiltonian):
    h_static = np.asarray(h.static_part.data)
    drive = [(np.asarray(op.data), fn) for op, fn in h.drive_terms]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        ht = h_static
        if drive:
            ht = h_static.copy()
            for mat, fn in drive:
                ht += complex(fn(t)) * mat
        return -1j * (ht @ y)

    return rhs


def evolve(
    hamiltonian: TimeDependentHamiltonian,
    collapse_ops: Sequence[tuple[QOperator, float]],
    rho0: QState,
    n_samples: int = 2,
    rel_tol: float = 1e-8,
    observables: Optional[dict[str, QOperator]] = None,
) -> Trajectory:
    """Integrate the master equation and return uniformly sampled states.

    Collapse operators are passed as (operator, rate) pairs; the rate
    multiplies the dissipator, i.e. the jump operator is sqrt(rate) * op.
    With no collapse operators and a pure initial state the Schrodinger
    equation is integrated on the state vector instead.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    for op, _ in collapse_ops:
        if op.dims != hamiltonian.dims:
            raise ValueError("collapse operator dims mismatch")
    if rho0.dims != hamiltonian.dims:
        raise ValueError("initial state dims mismatch")
    t0, t1 = hamiltonian.t_span
    times = np.linspace(t0, t1, n_samples)

    pure_path = (not collapse_ops) and rho0.kind == "pure"
    if pure_path:
        rhs = _schrodinger_rhs_factory(hamiltonian)
        y0 = rho0.data
    else:
        rhs = _lindblad_rhs_factory(hamiltonian, collapse_ops)
        y0 = to_density_matrix(rho0).data.reshape(-1)

    ys = integrate_rk45(rhs, y0, times, rel_tol=rel_tol,
                        abs_tol=rel_tol * 1e-4,
                        breakpoints=hamiltonian.breakpoints)

    dim = math.prod(hamiltonian.dims)
    states = []
    for y in ys:
        if pure_path:
            nrm = np.linalg.norm(y)
            states.append(QState(hamiltonian.dims, y / nrm, normalize=False))
        else:
            states.append(QState(hamiltonian.dims, y.reshape(dim, dim),
                                 normalize=False))
    exp_series: dict[str, np.ndarray] = {}
    if observables:
        for name, op in observables.items():
            exp_series[name] = np.array(
                [np.real(expectation(op, s)) for s in states])
    return Trajectory(times, tuple(states), exp_series)


# -- dense superoperator route (small constant problems) ---------------------


def liouvillian(h_matrix: np.ndarray,
                collapse_ops: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Column-stacking Liouvillian matrix for a constant-H Lindblad problem.

    Only sensible for small Hilbert dimensions (d <= ~40); the result is a
    d^2 x d^2 dense matrix with vec(drho/dt) = L vec(rho) under column
    stacking (Fortran order).
    """
    h = np.asarray(h_matrix, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in collapse_ops:
        l_mat = np.sqrt(rate) * np.asarray(op, dtype=complex)
        ldl = l_mat.conj().T @ l_mat
        lv += np.kron(l_mat.conj(), l_mat)
        lv -= 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return lv


def evolve_constant(
    h_matrix: np.ndarray,
    collapse_ops: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    times: Sequence[float],
) -> list[np.ndarray]:
    """Exact propagation under a constant Liouvillian via expm.

    ``times`` must be an increasing grid starting at 0; returns the density
    matrix at each time.  Uses a single expm of the step Liouvillian when the
    grid is uniform, otherwise one expm per distinct step.
    """
    times = np.asarray(times, dtype=float)
    lv = liouvillian(h_matrix, collapse_ops)
    d = np.asarray(h_matrix).shape[0]
    vec = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    out = [np.asarray(rho0, dtype=complex).copy()]
    steps = np.diff(times)
    props: dict[float, np.ndarray] = {}
    for dt in steps:
        key = round(float(dt), 18)
        if key not in props:
            props[key] = scipy.linalg.expm(lv * dt)
        vec = props[key] @ vec
        out.append(vec.reshape(d, d, order="F").copy())
    return out


# -- piecewise-constant propagation -------------------------------------------


class PiecewiseConstantPropagator:
    """Exact lossless propagation and one-jump lossy fidelities over a fixed
    list of (H, duration) stages.

    Each distinct H array (by identity) is eigendecomposed once and the stage
    durations are applied afterwards, so a stage list that repeats an array
    pays for it once; factors are cached across input states.  ``jump_ops``
    are (L, rate) pairs; rate-0 operators are dropped, and without jumps
    ``lossy_fidelity`` is the lossless overlap.  ``kerr`` (rad/s) scales the
    one-jump quadrature grid.
    """

    # quadrature density for the one-jump integral, points per unit K*t
    GRID_PER_KT = 400

    def __init__(self, stages: Sequence[tuple[np.ndarray, float]],
                 jump_ops: Sequence[tuple[np.ndarray, float]] = (), kerr: float = 1.0):
        self.stages = [(np.asarray(h), float(t)) for h, t in stages]
        self.jump_ops = [(np.asarray(op), float(rate)) for op, rate in jump_ops if rate != 0]
        self.kerr = kerr
        self._herm = None
        self._eff = None

    @property
    def duration(self) -> float:
        return sum(t for _, t in self.stages)

    def _per_distinct_h(self, factorize):
        cache = {}
        for h, _ in self.stages:
            if id(h) not in cache:
                cache[id(h)] = factorize(h)
        return [cache[id(h)] for h, _ in self.stages]

    def hermitian_factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, eigenvectors) of each stage's H."""
        if self._herm is None:
            self._herm = self._per_distinct_h(scipy.linalg.eigh)
        return self._herm

    def _effective_factors(self):
        """Per stage: eigenpairs (lam, V, V^-1) of H_eff = H - i/2 sum rate L^dag L
        and each jump operator in that eigenbasis, V^-1 L V."""
        if self._eff is None:
            d = self.stages[0][0].shape[0]
            damp = np.zeros((d, d), dtype=complex)
            for op, rate in self.jump_ops:
                damp += 0.5j * rate * (op.conj().T @ op)

            def factorize(h):
                lam, v = scipy.linalg.eig(h - damp)
                w = np.linalg.inv(v)
                return lam, v, w, [w @ op @ v for op, _ in self.jump_ops]

            self._eff = self._per_distinct_h(factorize)
        return self._eff

    def forward(self, psi0: np.ndarray) -> list[np.ndarray]:
        """Lossless state at every stage boundary, ``psi0`` first."""
        psis = [np.asarray(psi0, dtype=complex)]
        for (lam, v), (_, t) in zip(self.hermitian_factors(), self.stages):
            psis.append(v @ (np.exp(-1j * lam * t) * (v.conj().T @ psis[-1])))
        return psis

    def propagate_pure(self, psi0: np.ndarray) -> np.ndarray:
        return self.forward(psi0)[-1]

    def lossy_fidelity(self, psi0: np.ndarray, target: np.ndarray) -> float:
        """<t|rho(T)|t> to first order in the jump number.

        The no-jump term propagates under H_eff; each one-jump term integrates
        |<t| U_eff(T, s) L U_eff(s, 0) |psi0>|^2 over the jump time s with the
        trapezoid rule on max(129, 400 K t + 1) points per stage.
        """
        if not self.jump_ops:
            return float(abs(np.vdot(target, self.propagate_pure(psi0))) ** 2)
        eff = self._effective_factors()
        psis = [np.asarray(psi0, dtype=complex)]
        for (lam, v, w, _), (_, t) in zip(eff, self.stages):
            psis.append(v @ (np.exp(-1j * lam * t) * (w @ psis[-1])))
        fid = abs(np.vdot(target, psis[-1])) ** 2

        phis = [np.asarray(target, dtype=complex)]
        for (lam, v, w, _), (_, t) in zip(reversed(eff), reversed(self.stages)):
            phis.append(w.conj().T @ (np.exp(1j * lam.conj() * t) * (v.conj().T @ phis[-1])))
        phis = phis[::-1]

        for k, ((lam, v, w, jumps), (_, t)) in enumerate(zip(eff, self.stages)):
            n = max(129, int(self.GRID_PER_KT * t * self.kerr) + 1)
            s = np.linspace(0.0, t, n)
            # eigen-coefficients of U_eff(s) psi_k and of <phi_k+1| U_eff(t - s)
            ket = np.exp(-1j * np.outer(lam, s)) * (w @ psis[k])[:, None]
            bra = np.exp(-1j * np.outer(lam, t - s)) * (phis[k + 1].conj() @ v)[:, None]
            for jump, (_, rate) in zip(jumps, self.jump_ops):
                amp = np.einsum("ij,ij->j", bra, jump @ ket)
                fid += rate * np.trapezoid(np.abs(amp) ** 2, s)
        return float(min(fid, 1.0))


# -- exponential decay fitting ----------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    residual: float


def fit_exponential_decay(times: Sequence[float], values: Sequence[float]) -> DecayFit:
    """Least-squares fit of log(values) vs time; returns the decay rate.

    ``values`` must be positive and at least 8 samples long.  ``residual``
    is the RMS deviation of log(values) from the fitted line.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 8:
        raise ValueError("need at least 8 samples to fit a decay rate")
    if np.any(v <= 0):
        raise ValueError("values must be strictly positive for a log fit")
    logv = np.log(v)
    coeffs = np.polyfit(t, logv, 1)
    fit = np.polyval(coeffs, t)
    residual = float(np.sqrt(np.mean((logv - fit) ** 2)))
    return DecayFit(rate=float(-coeffs[0]), amplitude=float(np.exp(coeffs[1])),
                    residual=residual)
