"""Open-system time evolution and decay-rate fitting.

``evolve`` integrates the Lindblad master equation

    drho/dt = -i [H(t), rho] + sum_j kappa_j (L_j rho L_j^dag
                                              - 1/2 {L_j^dag L_j, rho})

on the column-stacked density matrix with ``integrate_rk45``, which runs
scipy's adaptive Dormand-Prince 8(5,3) solver (``scipy.integrate.DOP853``):
on the smooth drive ramps at these tolerances its eighth-order steps need
about 30 % fewer right-hand-side calls than a 5(4) pair.  The right-hand
side is one sparse product with a generator built by ``liouvillian``, the one
place the Lindblad form is written, with every drive term stacked under the
static one; ``evolve_constant`` densifies the same Liouvillian for exact
expm propagation of small constant problems.

Unitary problems with pure initial states are propagated as state vectors.

``PiecewiseConstantPropagator`` serves Hamiltonians that are constant over a
list of stages (the cat-qubit gates): it propagates exactly through one
eigendecomposition per distinct stage Hamiltonian and scores lossy evolution
with a no-jump + one-jump expansion, integrating the one-jump term over each
stage with an n-vs-2n checked Gauss-Legendre rule.  A two-cavity stage that
is a Kronecker sum A x 1 + 1 x B (no term moves both cavities) is factored
per cavity, with eigenvalues alpha_i + beta_j and eigenvectors V_A x V_B.
Every other eigendecomposition runs one block at a time over the blocks that
``coupled_blocks`` finds, the connected components of the matrix's sparsity
pattern: the cat Hamiltonians conserve photon-number parity (per cavity, or
in total for the coupling), so the coupling stage splits into two blocks and
a one-cavity stage into two to dim.  Both splits are exact, and a connected
matrix is one block, the dense case.
The test suite checks the expansion against ``evolve_constant`` on single-
and multi-stage sequences and, for the CNOT, against ``expm_multiply`` of the
sparse two-cavity Liouvillian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from .qcore import QOperator, QState, to_density_matrix

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
    "coupled_blocks",
    "PiecewiseConstantPropagator",
]


class IntegrationError(RuntimeError):
    """Raised when a time integration fails: the adaptive integrator's step
    size fell below the floating-point spacing, or a one-jump quadrature
    missed its tolerance; ``t`` is the failure time (the stage start for a
    quadrature)."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Hamiltonian H(t) = static_part + sum_k f_k(t) * drive_ops[k].

    Coefficient functions take a time in seconds and return a (complex)
    amplitude in rad/s; ``evolve`` multiplies each into the slice of one
    stacked sparse product that belongs to its operator.  ``breakpoints``
    optionally lists interior times at which coefficients are only piecewise
    smooth (segment edges of piecewise-constant pulses); ``integrate_rk45``
    starts a fresh DOP853 solver at each one, so no step straddles a
    discontinuity, which a high-order step would otherwise have to find by
    rejecting steps.
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
    """Uniformly sampled time evolution."""

    times: np.ndarray
    states: tuple[QState, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0) and len(t) > 1:
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def final_state(self) -> QState:
        return self.states[-1]


# -- ODE integration ---------------------------------------------------------


def integrate_rk45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    output_times: Sequence[float],
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    breakpoints: Optional[Sequence[float]] = None,
) -> list[np.ndarray]:
    """Adaptive Dormand-Prince 8(5,3) integration of a complex ODE system.

    Runs ``scipy.integrate.DOP853`` from ``output_times[0]`` through
    ``output_times[-1]``, restarting the solver at every output time and
    every interior breakpoint so that each is hit exactly and no step
    straddles one, and returns the solution at the output times.  Between
    stops bounded by a breakpoint, ``rhs`` is called with its time held
    1e-9 of the interval inside both ends, so piecewise-constant
    coefficients take one value per interval.  Raises ``IntegrationError``
    when the solver fails, reporting the failure time.

    The name predates the switch from RK45 to DOP853; the benchmark's layer
    tracer looks the function up by it, so it stays until the benchmark
    itself is revised.
    """
    output_times = np.asarray(output_times, dtype=float)
    t = float(output_times[0])
    y = np.array(y0, dtype=complex)
    results = [y.copy()]

    outputs = set(float(x) for x in output_times[1:])
    edges = set()
    if breakpoints is not None:
        edges = set(float(b) for b in breakpoints if t < b < output_times[-1])

    for stop in sorted(outputs | edges):
        fun = rhs
        if t in edges or stop in edges:
            # coefficients jump at a breakpoint, and float rounding can put the
            # breakpoint itself on either side; the first and last stages
            # land on the interval's ends, so hold the coefficient time just
            # inside it so every stage sees this interval's values
            lo, hi = t + 1e-9 * (stop - t), stop - 1e-9 * (stop - t)

            def fun(s, y, lo=lo, hi=hi):
                return rhs(min(max(s, lo), hi), y)
        solver = scipy.integrate.DOP853(fun, t, y, stop, rtol=rel_tol, atol=abs_tol)
        while solver.status == "running":
            message = solver.step()
        failed, t, y = solver.status == "failed", solver.t, solver.y
        # an OdeSolver holds closures that refer back to it, so only the cycle
        # collector would free its arrays, and a collection of generation 0
        # misses a solver that lived through an automatic collection;
        # dropping its attributes breaks the cycle and frees it here, and
        # dropping the name keeps a raised error's frame from holding it
        vars(solver).clear()
        del solver
        if failed:
            raise IntegrationError(f"{message} (t={t:.6e})", t)
        if stop in outputs:
            results.append(y.copy())
    return results


# -- Lindblad evolution ------------------------------------------------------


def evolve(
    hamiltonian: TimeDependentHamiltonian,
    collapse_ops: Sequence[tuple[QOperator, float]],
    rho0: QState,
    n_samples: int = 2,
    rel_tol: float = 1e-8,
) -> Trajectory:
    """Integrate the master equation and return uniformly sampled states.

    Collapse operators are passed as (operator, rate) pairs; the rate
    multiplies the dissipator, i.e. the jump operator is sqrt(rate) * op.
    The right-hand side is the sparse generator G(t) = G0 + sum_k f_k(t) G_k
    applied to the column-stacked density matrix, with G0 the Liouvillian of
    the static part and the jumps and G_k that of each drive operator alone
    (the commutator is linear in H, so the split is exact).  G0 and every
    G_k are stacked into one CSR matrix, so each call is one sparse product
    whose slices are then weighted and summed.  With no collapse operators
    and a pure initial state the Schrodinger equation is integrated on the
    state vector instead, with G = -iH.
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
        g0 = scipy.sparse.csr_matrix(-1j * hamiltonian.static_part.data)
        gk = [scipy.sparse.csr_matrix(-1j * op.data) for op, _ in hamiltonian.drive_terms]
        y0 = rho0.data
    else:
        g0 = liouvillian(hamiltonian.static_part.data,
                         [(op.data, rate) for op, rate in collapse_ops])
        gk = [liouvillian(op.data, ()) for op, _ in hamiltonian.drive_terms]
        y0 = to_density_matrix(rho0).data.reshape(-1, order="F")
    # rows [k n, (k + 1) n) of the stack hold G_k, with G0 as block 0; CSR
    # keeps each row's entries in order, so every slice equals its own G @ y
    stacked = scipy.sparse.vstack([g0, *gk], format="csr")
    n = y0.size
    coefficients = [(slice(k * n, (k + 1) * n), fn)
                    for k, (_, fn) in enumerate(hamiltonian.drive_terms, start=1)]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        products = stacked @ y
        out = products[:n]
        for rows, fn in coefficients:
            out += complex(fn(t)) * products[rows]
        return out

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
            states.append(QState(hamiltonian.dims, y.reshape(dim, dim, order="F"),
                                 normalize=False))
    return Trajectory(times, tuple(states))


def liouvillian(h_matrix: np.ndarray,
                collapse_ops: Sequence[tuple[np.ndarray, float]]) -> scipy.sparse.csr_matrix:
    """Sparse Liouvillian of a Lindblad problem with Hamiltonian ``h_matrix``.

    Returns the d^2 x d^2 CSR matrix L with vec(drho/dt) = L vec(rho) under
    column stacking (Fortran order):

        L = -i (1 x H - H^T x 1)
            + sum_j (L_j^* x L_j - 1/2 (1 x L_j^dag L_j + (L_j^dag L_j)^T x 1))

    with L_j = sqrt(rate_j) * op_j.  This is the only place the Lindblad form
    is written; ``evolve`` and ``evolve_constant`` both build on it.
    """
    h = scipy.sparse.csr_matrix(np.asarray(h_matrix, dtype=complex))
    eye = scipy.sparse.identity(h.shape[0], dtype=complex, format="csr")
    lv = -1j * (scipy.sparse.kron(eye, h) - scipy.sparse.kron(h.T, eye))
    for op, rate in collapse_ops:
        if rate < 0:
            raise ValueError("collapse rates must be nonnegative")
        l_mat = scipy.sparse.csr_matrix(np.sqrt(rate) * np.asarray(op, dtype=complex))
        ldl = l_mat.conj().T @ l_mat
        lv = lv + scipy.sparse.kron(l_mat.conj(), l_mat) - 0.5 * (
            scipy.sparse.kron(eye, ldl) + scipy.sparse.kron(ldl.T, eye))
    return scipy.sparse.csr_matrix(lv)


def evolve_constant(
    h_matrix: np.ndarray,
    collapse_ops: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    times: Sequence[float],
) -> list[np.ndarray]:
    """Exact propagation under a constant Liouvillian via expm.

    ``times`` must be an increasing grid starting at 0; returns the density
    matrix at each time.  Uses a single expm of the step Liouvillian when the
    grid is uniform, otherwise one expm per distinct step.  The Liouvillian
    is densified, so this suits small Hilbert dimensions (d <= ~40).
    """
    times = np.asarray(times, dtype=float)
    lv = liouvillian(h_matrix, collapse_ops).toarray()
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _scale_rows(vec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(vec) @ x for a vector or a (d, c) stack of column vectors."""
    return (vec * x.T).T


def coupled_blocks(*matrices: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the matrices' joint sparsity
    pattern, each sorted, ordered by their smallest index.

    No matrix has an entry between two blocks, so any sum of them is block
    diagonal over these index sets and can be factored one block at a time.
    """
    pattern = np.zeros(matrices[0].shape, dtype=bool)
    for m in matrices:
        pattern |= np.asarray(m) != 0
    n, labels = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_matrix(pattern),
                                                          directed=False)
    return [np.flatnonzero(labels == k) for k in range(n)]


def _blockwise_eig(m: np.ndarray, hermitian: bool):
    """Eigendecomposition of ``m`` one ``coupled_blocks`` block at a time,
    assembled into full-size arrays: (lam, V) from ``eigh`` when
    ``hermitian``, else (lam, V, V^-1) from ``eig`` and ``inv``.  Eigenvalue j
    belongs to column j of V, which is zero outside the block of index j."""
    d = m.shape[0]
    lam = np.empty(d, dtype=float if hermitian else complex)
    v = np.zeros((d, d), dtype=m.dtype if hermitian else complex)
    w = None if hermitian else np.zeros((d, d), dtype=complex)
    for idx in coupled_blocks(m):
        block = np.ix_(idx, idx)
        if hermitian:
            lam[idx], v[block] = scipy.linalg.eigh(m[block])
        else:
            lam[idx], v[block] = scipy.linalg.eig(m[block])
            w[block] = np.linalg.inv(v[block])
    return (lam, v) if hermitian else (lam, v, w)


# largest entry of m - (A x 1 + 1 x B), relative to the largest entry of m,
# that a Kronecker split may leave (rounding of the partial traces is ~1e-15)
_SPLIT_TOL = 1e-13


def _kronecker_split(m: np.ndarray, dims: Sequence[int]):
    """(A, B) with ``m`` = A x 1 + 1 x B over the two subsystems of ``dims``.

    Returns None for any other number of subsystems, when an entry of ``m``
    moves both subsystems at once, or when (A, B) rebuild ``m`` only to worse
    than ``_SPLIT_TOL`` relative (a diagonal term such as a cross-Kerr that
    moves neither subsystem yet couples them)."""
    if len(dims) != 2:
        return None
    d1, d2 = dims
    t = m.reshape(d1, d2, d1, d2)
    off1, off2 = ~np.eye(d1, dtype=bool), ~np.eye(d2, dtype=bool)
    if np.any(t[off1[:, None, :, None] & off2[None, :, None, :]]):
        return None
    # partial traces, with the trace of m taken back out of B
    a = np.einsum("ijkj->ik", t) / d2
    b = np.einsum("ijil->jl", t) / d1 - np.trace(m) / (d1 * d2) * np.eye(d2)
    rebuilt = np.kron(a, np.eye(d2)) + np.kron(np.eye(d1), b)
    if np.max(np.abs(m - rebuilt)) > _SPLIT_TOL * np.max(np.abs(m)):
        return None
    return a, b


def _factor(m: np.ndarray, hermitian: bool, dims: Sequence[int]):
    """``_blockwise_eig`` of ``m``, computed per subsystem when ``m`` is a
    Kronecker sum over ``dims``: A = V_A diag(alpha) V_A^-1 and B likewise
    give eigenvalues alpha_i + beta_j with eigenvectors V_A x V_B and
    inverse W_A x W_B, in the order of ``np.kron``."""
    split = _kronecker_split(m, dims)
    if split is None:
        return _blockwise_eig(m, hermitian)
    a, b = (_blockwise_eig(x, hermitian) for x in split)
    lam = (a[0][:, None] + b[0][None, :]).reshape(-1)
    return (lam, *(np.kron(x, y) for x, y in zip(a[1:], b[1:])))


class PiecewiseConstantPropagator:
    """Exact lossless propagation and one-jump lossy fidelities over a fixed
    list of (H, duration) stages.

    Each distinct H array (by identity) is eigendecomposed once, and the
    stage durations are applied afterwards, so a stage list that repeats an
    array pays for it once; factors are cached across input states.  With
    two subsystems in ``dims``, a stage that is a Kronecker sum over them
    (and its H_eff, when the jumps split too) is factored per subsystem;
    every other stage is factored one coupled block at a time.  States are
    vectors of length d or (d, c) stacks of c column vectors.  ``jump_ops``
    are (L, rate) pairs; rate-0 operators are dropped, and without jumps
    ``lossy_fidelity`` is the lossless overlap.  ``kerr`` (rad/s) sets the
    one-jump quadrature's node count.
    """

    # one-jump quadrature: Gauss-Legendre on n = max(MIN_NODES,
    # ceil(NODES_PER_KT K t)) nodes per stage, checked against 2n nodes; a
    # stage that misses the tolerance doubles n, at most MAX_DOUBLINGS times
    # (states far off the gate's cat manifold carry fast eigenfrequencies)
    NODES_PER_KT = 8
    MIN_NODES = 8
    MAX_DOUBLINGS = 5
    # largest |I_n - I_2n| a stage may show; the default gate table stays
    # about 4x below it
    QUADRATURE_GAP_TOL = 1e-7

    def __init__(self, stages: Sequence[tuple[np.ndarray, float]],
                 jump_ops: Sequence[tuple[np.ndarray, float]] = (), kerr: float = 1.0,
                 dims: Sequence[int] = ()):
        self.stages = [(np.asarray(h), float(t)) for h, t in stages]
        self.jump_ops = [(np.asarray(op), float(rate)) for op, rate in jump_ops if rate != 0]
        self.kerr = kerr
        self.dims = tuple(dims)
        # largest |I_n - I_2n| over the stages and cases of the last lossy_fidelity
        self.quadrature_gap = 0.0
        # largest amount by which the last lossy_fidelity exceeded 1 before
        # it was clipped there
        self.clip_excess = 0.0
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
            self._herm = self._per_distinct_h(lambda h: _factor(h, True, self.dims))
        return self._herm

    def _effective_factors(self):
        """Per stage: eigenpairs (lam, V, V^-1) of H_eff = H - i/2 sum rate L^dag L
        and each jump operator in that eigenbasis, V^-1 L V."""
        if self._eff is None:
            d = self.stages[0][0].shape[0]
            damp = np.zeros((d, d), dtype=complex)
            for op, rate in self.jump_ops:
                damp += 0.5j * rate * (op.conj().T @ op)

            jumps = [scipy.sparse.csr_array(op) for op, _ in self.jump_ops]

            def factorize(h):
                lam, v, w = _factor(h - damp, False, self.dims)
                return lam, v, w, [w @ (op @ v) for op in jumps]

            self._eff = self._per_distinct_h(factorize)
        return self._eff

    def forward(self, psi0: np.ndarray) -> list[np.ndarray]:
        """Lossless state at every stage boundary, ``psi0`` first."""
        psis = [np.asarray(psi0, dtype=complex)]
        for (lam, v), (_, t) in zip(self.hermitian_factors(), self.stages):
            psis.append(v @ _scale_rows(np.exp(-1j * lam * t), v.conj().T @ psis[-1]))
        return psis

    def propagate_pure(self, psi0: np.ndarray) -> np.ndarray:
        return self.forward(psi0)[-1]

    def lossy_fidelity(self, psi0: np.ndarray, target: np.ndarray):
        """<t|rho(T)|t> to first order in the jump number: a float for state
        vectors, one value per column for (d, c) stacks.

        The no-jump term propagates under H_eff; each one-jump term integrates
        |<t| U_eff(T, s) L U_eff(s, 0) |psi0>|^2 over the jump time s in each
        stage with Gauss-Legendre rules on n and 2n nodes, and keeps the 2n
        value.  ``quadrature_gap`` records the largest accepted |I_n - I_2n|;
        a stage whose gap still exceeds ``QUADRATURE_GAP_TOL`` after
        ``MAX_DOUBLINGS`` doublings of n raises ``IntegrationError``.  The
        expansion can overshoot 1 by its rounding; such values are clipped
        to 1, and ``clip_excess`` records the largest excess removed.
        """
        self.quadrature_gap = 0.0
        self.clip_excess = 0.0
        target = np.asarray(target, dtype=complex)
        if not self.jump_ops:
            fid = np.abs(np.sum(target.conj() * self.propagate_pure(psi0), axis=0)) ** 2
            return fid if fid.ndim else float(fid)
        eff = self._effective_factors()
        psis = [np.asarray(psi0, dtype=complex)]
        for (lam, v, w, _), (_, t) in zip(eff, self.stages):
            psis.append(v @ _scale_rows(np.exp(-1j * lam * t), w @ psis[-1]))
        fid = np.abs(np.sum(target.conj() * psis[-1], axis=0)) ** 2

        phis = [target]
        for (lam, v, w, _), (_, t) in zip(reversed(eff), reversed(self.stages)):
            phis.append(w.conj().T @ _scale_rows(np.exp(1j * lam.conj() * t),
                                                 v.conj().T @ phis[-1]))
        phis = phis[::-1]

        for k, ((lam, v, w, jumps), (_, t)) in enumerate(zip(eff, self.stages)):
            d = lam.size
            # eigen-coefficients of psi_k and of <phi_k+1|, cases along axis 1
            ket0 = (w @ psis[k]).reshape(d, 1, -1)
            bra0 = (v.T @ phis[k + 1].conj()).reshape(d, 1, -1)

            def one_jump(n):
                x, wts = _gauss_legendre(n)
                s = t * x
                # U_eff(s) psi_k and <phi_k+1| U_eff(t - s) at every node
                ket = (np.exp(-1j * np.outer(lam, s))[:, :, None] * ket0).reshape(d, -1)
                bra = (np.exp(-1j * np.outer(lam, t - s))[:, :, None] * bra0).reshape(d, -1)
                total = 0.0
                for jump, (_, rate) in zip(jumps, self.jump_ops):
                    amp = np.sum(bra * (jump @ ket), axis=0).reshape(n, -1)
                    total = total + rate * t * (wts @ np.abs(amp) ** 2)
                return total

            n = max(self.MIN_NODES, math.ceil(self.NODES_PER_KT * self.kerr * t))
            coarse = one_jump(n)
            for doubling in range(self.MAX_DOUBLINGS + 1):
                fine = one_jump(2 * n)
                gap = float(np.max(np.abs(coarse - fine)))
                if gap <= self.QUADRATURE_GAP_TOL:
                    break
                if doubling == self.MAX_DOUBLINGS:
                    raise IntegrationError(
                        f"one-jump quadrature of stage {k} not converged: |I_{n} - I_{2 * n}|"
                        f" = {gap:.3e} > {self.QUADRATURE_GAP_TOL:.1e}",
                        sum(dt for _, dt in self.stages[:k]))
                n, coarse = 2 * n, fine
            self.quadrature_gap = max(self.quadrature_gap, gap)
            fid = fid + fine.reshape(fid.shape)
        self.clip_excess = max(0.0, float(np.max(fid - 1.0)))
        fid = np.minimum(fid, 1.0)
        return fid if fid.ndim else float(fid)


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
