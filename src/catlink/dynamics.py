"""Open-system time evolution.

``evolve`` integrates the Lindblad master equation

    drho/dt = -i [H(t), rho] + sum_j kappa_j (L_j rho L_j^dag
                                              - 1/2 {L_j^dag L_j, rho})

on the column-stacked density matrix with ``integrate_rk45``, the adaptive
Dormand-Prince 8(5,3) method of Hairer's DOP853 code (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, Sec. II.10), written
here in numpy: it takes exactly the steps of ``scipy.integrate.DOP853``
without importing ``scipy.integrate``, whose package import alone outlasts
the transducer solve.  The name ``integrate_rk45`` predates DOP853 and
stays because the benchmark's layer tracer looks the function up by it.
On the smooth drive ramps at these tolerances the eighth-order steps need
about 30 % fewer right-hand-side calls than a 5(4) pair.  Several initial
states, each with its own collapse rates, run as the columns of one solve:
the right-hand side is one sparse product of all columns with generators
built by ``liouvillian``, the one place the Lindblad form is written: the
static one with the jumps whose rate every column shares, the unit-rate
dissipator of each other jump, and each drive term, stacked in one matrix
whose slices are then weighted per column and per time.  A
solve keeps only the connected components of the generators' joint
sparsity pattern (``coupled_blocks``) that some initial state touches, the
parity sector for the cat ramps; every other entry is exactly 0.
``evolve_constant`` densifies the same Liouvillian for exact expm
propagation of small constant problems.  A drive coefficient is a function
of time or an array of values on equal segments (a GRAPE pulse): ``evolve``
then runs the integrator once per segment with that segment's values bound
into the right-hand side, so no step straddles a jump and the integrator
itself knows nothing of pulses.

Unitary problems with pure initial states are propagated as state vectors.

``PiecewiseConstantPropagator`` serves Hamiltonians that are constant over a
list of stages (the cat-qubit gates): it propagates exactly through one
eigendecomposition per distinct stage Hamiltonian and scores lossy evolution
with a no-jump + one-jump expansion, integrating the one-jump term over each
stage with an n-vs-2n checked Gauss-Legendre rule.  One routine,
``_stage_factors``, turns a stage into the record (lam, V, V^-1, jumps in
the eigenbasis): of H by ``eigh``, with V^-1 = V^dag and no jumps, for the
lossless pass, and of H_eff = H - i/2 sum rate L^dag L for the lossy one;
one sweep over the records serves both passes.  A two-cavity stage in
which no term moves both cavities is passed as a ``KroneckerSum`` A x 1 +
1 x B and factored per cavity, with eigenvalues alpha_i + beta_j and
eigenvectors V_A x V_B; V, V^-1 and each one-cavity jump in the eigenbasis,
(W_A A V_A) x 1, are kept per cavity and applied to the (d1 d2, cases)
stacks one cavity at a time, so no two-cavity factor is ever formed.  A
stage passed as an array runs one block at a time over the blocks that
``coupled_blocks`` finds, the connected components of the matrix's sparsity
pattern: the cat Hamiltonians conserve photon-number parity (per cavity, or
in total for the coupling), so the coupling stage splits into two blocks and
a one-cavity stage into two to dim.  V and V^-1 stay per block, and a jump
in the eigenbasis is formed and applied only on the block pairs it connects
(a photon loss flips the parity, so two of the coupling stage's four).  Both
splits are exact, and a connected matrix is one block, the dense case.  The
factors of the last two arrays are memoized by a digest of the matrix, so
the gate G and the CNOT's G stage of one gate-table row share one
factorization.
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

from .qcore import to_density_matrix

__all__ = [
    "TimeDependentHamiltonian",
    "Trajectory",
    "IntegrationError",
    "evolve",
    "liouvillian",
    "evolve_constant",
    "integrate_rk45",
    "coupled_blocks",
    "KroneckerSum",
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

    Every operator is a square complex array, and the drive operators must
    have the static part's shape.  A coefficient f_k is either a function
    that takes a time in seconds and returns a (complex) amplitude in rad/s,
    or a 1-D array of n values, constant on n equal-length segments of
    ``t_span``; every array of one Hamiltonian has the same n.  ``evolve``
    multiplies each coefficient into the slice of one stacked sparse product
    that belongs to its operator.
    """

    static_part: np.ndarray
    drive_terms: tuple[tuple[np.ndarray, Callable[[float], complex] | np.ndarray], ...] = ()
    t_span: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        terms = tuple((op, fn) for op, fn in self.drive_terms)
        shape = self.static_part.shape
        for op, fn in terms:
            if op.shape != shape:
                raise ValueError(f"drive operator shape {op.shape} != static part's {shape}")
            if not (callable(fn) or (isinstance(fn, np.ndarray) and fn.ndim == 1
                                     and fn.size > 0)):
                raise ValueError("a drive coefficient must be a function of time or a "
                                 "non-empty 1-D array of segment values")
        if len({fn.size for _, fn in terms if not callable(fn)}) > 1:
            raise ValueError("all array coefficients need the same number of segments")
        object.__setattr__(self, "drive_terms", terms)
        object.__setattr__(self, "t_span", (float(self.t_span[0]), float(self.t_span[1])))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time evolution, as state vectors or density matrices
    (see ``evolve``); ``rhs_evals`` counts the right-hand-side calls the
    integrator made."""

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    rhs_evals: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0) and len(t) > 1:
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# -- ODE integration ---------------------------------------------------------

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, Sec. II.10), as the coefficients of Hairer's
# DOP853 code: the nodes, the lower triangle of A row by row with its zeros
# (each row is one dot product with the earlier stages), the weights, and
# the fifth- and third-order error weights over the twelve stages and the
# derivative at the new point
_DOP853_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_DOP853_A = [np.array(row) for row in (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1])]
_DOP853_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_DOP853_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0])
# the embedded third-order weights are B minus these, entry by entry
_DOP853_E3 = np.append(_DOP853_B, 0.0) - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1, 0.0])

# step-size control: safety factor, bounds on the change of one step, and
# the exponent -1 / (q + 1) of the seventh-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  rel_tol: float, abs_tol: float) -> float:
    """First trial step from the size of y0, f0 and one probe derivative
    (Hairer, Norsett & Wanner, Sec. II.4), capped at the interval."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = abs_tol + np.abs(y0) * rel_tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def integrate_rk45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    output_times: Sequence[float],
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> list[np.ndarray]:
    """Adaptive Dormand-Prince 8(5,3) integration of a complex ODE system.

    Integrates dy/dt = rhs(t, y) through the increasing ``output_times``
    with the explicit Runge-Kutta pair of Hairer's DOP853 code (Hairer,
    Norsett & Wanner, Solving Ordinary Differential Equations I, Sec. II.10):
    eighth-order steps whose error is estimated from the embedded fifth- and
    third-order solutions in the weighted RMS norm with scale abs_tol +
    rel_tol max(|y|, |y_new|).  A step is accepted when that norm is below 1;
    the next step is the last one times 0.9 err^(-1/8), within [0.2, 10],
    and never larger after a rejection.  The integration restarts at each
    output time, with a fresh derivative and initial-step estimate, so each
    is hit exactly.  Each step and each choice of step size is the one that
    ``scipy.integrate.DOP853`` makes, restarted the same way (the test suite
    checks the two bit for bit), so the right-hand side is called as often.
    Returns the solution at every output time, ``y0`` first.  Raises
    ``IntegrationError`` with the failure time when the step size falls
    below ten times the spacing of floating-point numbers at t.

    The name predates the switch from RK45 to DOP853; the benchmark's layer
    tracer looks the function up by it and binds ``rhs`` by name, so both
    stay until the benchmark itself is revised.
    """
    output_times = np.asarray(output_times, dtype=float).tolist()
    if np.any(np.diff(output_times) < 0):
        raise ValueError("output_times must be increasing")
    t = output_times[0]
    y = np.array(y0, dtype=complex)
    # stage derivatives, one row each, and the derivative at the new point
    k = np.empty((_DOP853_C.size + 1, y.size), dtype=complex)
    # no state is changed in place, so the list can hold them uncopied
    results = [y]
    for stop in output_times[1:]:
        fy = rhs(t, y)
        h_abs = _initial_step(rhs, t, y, fy, stop, rel_tol, abs_tol)
        while t < stop:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError("Required step size is less than spacing between "
                                           f"numbers. (t={t:.6e})", t)
                t_new = min(t + h_abs, stop)
                h = t_new - t
                h_abs = abs(h)
                k[0] = fy
                for s, (a, c) in enumerate(zip(_DOP853_A, _DOP853_C[1:]), start=1):
                    k[s] = rhs(t + c * h, y + np.dot(k[:s].T, a) * h)
                y_new = y + h * np.dot(k[:-1].T, _DOP853_B)
                k[-1] = f_new = rhs(t + h, y_new)
                scale = abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * rel_tol
                err5 = np.linalg.norm(np.dot(k.T, _DOP853_E5) / scale) ** 2
                err3 = np.linalg.norm(np.dot(k.T, _DOP853_E3) / scale) ** 2
                if err5 == 0 and err3 == 0:
                    error_norm = 0.0
                else:
                    error_norm = abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)
                if error_norm < 1:
                    factor = (_MAX_FACTOR if error_norm == 0 else
                              min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            t, y, fy = t_new, y_new, f_new
        results.append(y)
    return results


# -- Lindblad evolution ------------------------------------------------------


def evolve(
    hamiltonian: TimeDependentHamiltonian,
    collapse_ops: Sequence[tuple[np.ndarray, float | Sequence[float]]],
    rho0: np.ndarray | Sequence[np.ndarray],
    n_samples: int = 2,
    rel_tol: float = 1e-8,
) -> Trajectory | list[Trajectory]:
    """Integrate the master equation and return uniformly sampled states.

    ``rho0`` is one initial state, a state vector or a density matrix, or a
    sequence of them; a sequence is integrated as the columns of one solve
    and returns one ``Trajectory`` per state, each with the shared
    ``rhs_evals``, and one state is a batch of one that returns its own.
    Collapse operators are passed as (array, rate) pairs; the rate
    multiplies the dissipator, i.e. the jump operator is sqrt(rate) * op,
    and is one float for every state or one rate per state.  Every operator
    must have the Hamiltonian's shape and every state its dimension.  The
    returned states are vectors where state vectors are integrated (see
    below) and C-ordered density matrices otherwise.
    The right-hand side is the sparse generator G(t) = G0 + sum_j r_j D_j +
    sum_k f_k(t) G_k applied to the column-stacked density matrices, with
    G0 the Liouvillian of the static part and of the jumps whose rate every
    state shares, D_j the dissipator of another jump j at unit rate,
    weighted by each column's own rate r_j, and G_k that of each drive
    operator alone (the commutator is linear in H, so the split is exact).
    G0, every D_j and every G_k are stacked into one CSR matrix, so each
    call is one sparse product with all columns, whose slices are then
    weighted and summed.  Only the connected components of the
    generators' joint sparsity pattern (``coupled_blocks``) that some
    initial state touches are integrated; no generator connects two
    components, so every other entry stays exactly 0 (for a parity-
    conserving Hamiltonian with photon loss, the sector of one parity
    difference, half the space).  When every rate is 0 and every initial
    state is a vector, the Schrodinger equation is integrated on the state
    vectors instead, with G = -iH, and every sampled state is normalized.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    single = isinstance(rho0, np.ndarray)
    states = [rho0] if single else list(rho0)
    if not states:
        raise ValueError("need at least one initial state")
    shape = hamiltonian.static_part.shape
    # a rate that every state shares goes into G0 (a shared rate of 0 does
    # nothing); each other jump's dissipator is weighted per column
    shared, varying = [], []
    for op, rate in collapse_ops:
        if op.shape != shape:
            raise ValueError(f"collapse operator shape {op.shape} != Hamiltonian's {shape}")
        rates = np.asarray(rate, dtype=float)
        if rates.ndim == 0:
            rates = np.full(len(states), rates)
        elif rates.shape != (len(states),):
            raise ValueError(f"a collapse rate is one float or one per state ({len(states)}), "
                             f"got shape {rates.shape}")
        if np.any(rates < 0):
            raise ValueError("collapse rates must be nonnegative")
        if np.any(rates != rates[0]):
            varying.append((op, rates))
        elif rates[0]:
            shared.append((op, rates[0]))
    for state in states:
        if np.shape(state) not in (shape[:1], shape):
            raise ValueError(f"initial state shape {np.shape(state)} does not fit Hamiltonian "
                             f"shape {shape}")
        if not np.any(state):
            raise ValueError("an initial state is zero")
    t0, t1 = hamiltonian.t_span
    times = np.linspace(t0, t1, n_samples)

    pure_path = not (shared or varying) and all(np.ndim(state) == 1 for state in states)
    if pure_path:
        generators = [scipy.sparse.csr_matrix(-1j * op) for op in
                      (hamiltonian.static_part, *(op for op, _ in hamiltonian.drive_terms))]
        y0 = np.stack(states, axis=1)
    else:
        zero = np.zeros(shape)
        generators = [liouvillian(hamiltonian.static_part, shared),
                      *(liouvillian(zero, [(op, 1.0)]) for op, _ in varying),
                      *(liouvillian(op, ()) for op, _ in hamiltonian.drive_terms)]
        y0 = np.stack([to_density_matrix(state).reshape(-1, order="F") for state in states],
                      axis=1)
    # integrate only the components that some column starts in
    keep = np.sort(np.concatenate([idx for idx in coupled_blocks(*generators)
                                   if np.any(y0[idx])]))
    # rows [k m, (k + 1) m) of the stack hold generator k on the kept
    # entries, G0 first; CSR keeps each row's entries in order, so every
    # slice equals its own G @ y
    stacked = scipy.sparse.vstack([g[keep][:, keep] for g in generators], format="csr")
    m = keep.size
    blocks = [slice(k * m, (k + 1) * m) for k in range(1, len(generators))]
    weights = [(rows, rates) for rows, (_, rates) in zip(blocks, varying)]
    coefficients = [(rows, fn) for rows, (_, fn) in zip(blocks[len(varying):],
                                                         hamiltonian.drive_terms)]

    rhs_evals = 0

    def segment_rhs(segment: int):
        # an array coefficient is its value on ``segment``, bound here once
        terms = [(rows, fn if callable(fn) else lambda t, v=complex(fn[segment]): v)
                 for rows, fn in coefficients]

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            nonlocal rhs_evals
            rhs_evals += 1
            products = stacked @ y.reshape(m, -1)
            out = products[:m]
            for rows, rates in weights:
                out += rates * products[rows]
            for rows, fn in terms:
                out += complex(fn(t)) * products[rows]
            return out.reshape(-1)
        return rhs

    # one integration per segment, so no solver step straddles a jump of an
    # array coefficient; the samples inside a segment are its output times
    n_seg = next((fn.size for _, fn in hamiltonian.drive_terms if not callable(fn)), 1)
    dt = (t1 - t0) / n_seg
    edges = [t0, *(t0 + k * dt for k in range(1, n_seg)), t1]
    samples = times.tolist()
    y = np.array(y0[keep], dtype=complex).reshape(-1)
    ys = [y]
    for segment, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        stops = [start, *(s for s in samples if start < s < stop), stop]
        out = integrate_rk45(segment_rhs(segment), y, stops, rel_tol=rel_tol,
                             abs_tol=rel_tol * 1e-4)
        y = out[-1]
        ys.extend(out[1:] if stop in samples else out[1:-1])

    full = np.zeros((len(ys),) + y0.shape, dtype=complex)
    full[:, keep] = np.reshape(ys, (len(ys), m, -1))
    if pure_path:
        columns = [tuple(y / np.linalg.norm(y) for y in full[:, :, j])
                   for j in range(len(states))]
    else:
        # C order: BLAS rounds rho @ psi differently on a Fortran-ordered
        # matrix, which moves the last digits of the written fidelities
        columns = [tuple(np.ascontiguousarray(y.reshape(shape, order="F"))
                         for y in full[:, :, j]) for j in range(len(states))]
    trajectories = [Trajectory(times, column, rhs_evals) for column in columns]
    return trajectories[0] if single else trajectories


def liouvillian(h_matrix: np.ndarray,
                collapse_ops: Sequence[tuple[np.ndarray, float]]) -> scipy.sparse.csr_matrix:
    """Sparse Liouvillian of a Lindblad problem with Hamiltonian ``h_matrix``.

    Returns the d^2 x d^2 CSR matrix L with vec(drho/dt) = L vec(rho) under
    column stacking (Fortran order):

        L = -i (1 x H - H^T x 1)
            + sum_j (L_j^* x L_j - 1/2 (1 x L_j^dag L_j + (L_j^dag L_j)^T x 1))

    with L_j = sqrt(rate_j) * op_j.  This is the only place the Lindblad form
    is written; ``evolve``, ``evolve_constant`` and the spectral
    ``device.kappa_eff`` all build on it.
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
    is densified, so this suits small Hilbert dimensions (d <= ~40).  No
    package code calls it: it is the test suite's exact Lindblad oracle for
    ``evolve``, the gate propagator and ``device.kappa_eff``.
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


def coupled_blocks(*matrices: np.ndarray | scipy.sparse.sparray) -> list[np.ndarray]:
    """Index sets of the connected components of the matrices' joint sparsity
    pattern, each sorted, ordered by their smallest index.  The matrices are
    square arrays or scipy sparse matrices (such as Liouvillians) of one
    shape.

    No matrix has an entry between two blocks, so any sum of them is block
    diagonal over these index sets and can be factored, or integrated, one
    block at a time.
    """
    # a sum of absolute values has an entry wherever some matrix has one
    pattern = sum(abs(scipy.sparse.csr_array(m)) for m in matrices)
    pattern.eliminate_zeros()
    n, labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    return [np.flatnonzero(labels == k) for k in range(n)]


@dataclass(frozen=True)
class KroneckerSum:
    """A x 1 + 1 x B on two subsystems of ``dims`` (d1, d2), kept as its
    parts: a two-cavity operator in which no term moves both cavities.  A
    part of None is zero, so (A, None) is A x 1 alone, as a one-cavity jump
    is.  ``toarray`` assembles the full (d1 d2, d1 d2) matrix."""

    a: Optional[np.ndarray]
    b: Optional[np.ndarray]
    dims: tuple[int, int]

    def part(self, k: int) -> np.ndarray:
        """Part k as an array, zeros for None."""
        part = (self.a, self.b)[k]
        return np.zeros((self.dims[k],) * 2) if part is None else part

    def toarray(self) -> np.ndarray:
        d1, d2 = self.dims
        return np.kron(self.part(0), np.eye(d2)) + np.kron(np.eye(d1), self.part(1))


class _BlockSparse:
    """A square operator that is nonzero only on (rows, cols, M) blocks,
    applied one block at a time: ``op @ x`` adds M @ x[cols] into rows of
    the result, for a vector or a (d, c) stack x.  ``H`` is the conjugate
    transpose and ``toarray`` assembles the full matrix."""

    def __init__(self, blocks, dim: int):
        self.blocks = blocks
        self.dim = dim

    @property
    def H(self) -> "_BlockSparse":
        return _BlockSparse([(cols, rows, m.conj().T) for rows, cols, m in self.blocks],
                            self.dim)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape, dtype=complex)
        for rows, cols, m in self.blocks:
            out[rows] += m @ x[cols]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=self.blocks[0][2].dtype)
        for rows, cols, m in self.blocks:
            out[np.ix_(rows, cols)] += m
        return out


def _blockwise_eig(m: np.ndarray, hermitian: bool):
    """Eigendecomposition (lam, V, V^-1) of ``m`` one ``coupled_blocks`` block
    at a time, with V and V^-1 kept as ``_BlockSparse`` operators over the
    blocks: from ``eigh`` with V^-1 = V^dag when ``hermitian``, else from
    ``eig`` and ``inv``.  Eigenvalue j belongs to column j of V, which is
    zero outside the block of index j."""
    d = m.shape[0]
    lam = np.empty(d, dtype=float if hermitian else complex)
    v, w = [], []
    for idx in coupled_blocks(m):
        if hermitian:
            lam[idx], vb = scipy.linalg.eigh(m[np.ix_(idx, idx)])
        else:
            lam[idx], vb = scipy.linalg.eig(m[np.ix_(idx, idx)])
            w.append((idx, idx, np.linalg.inv(vb)))
        v.append((idx, idx, vb))
    v = _BlockSparse(v, d)
    return lam, v, v.H if hermitian else _BlockSparse(w, d)


class _KroneckerProduct:
    """A x B on a two-subsystem space of ``dims`` (d1, d2), never formed:
    ``op @ x`` reshapes a vector or (d1 d2, c) stack x to (d1, d2, c) and
    contracts A with the first axis and B with the second, one subsystem at
    a time.  ``parts`` is (A, B), with None for an identity factor; ``H`` is
    the conjugate transpose."""

    def __init__(self, a: Optional[np.ndarray], b: Optional[np.ndarray],
                 dims: tuple[int, int]):
        self.parts = (a, b)
        self.dims = dims

    @property
    def H(self) -> "_KroneckerProduct":
        return _KroneckerProduct(*(None if m is None else m.conj().T for m in self.parts),
                                 self.dims)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        (d1, d2), (a, b) = self.dims, self.parts
        y = x.reshape(d1, d2, -1)
        if a is not None:
            y = (a @ y.reshape(d1, -1)).reshape(d1, d2, -1)
        if b is not None:
            y = b @ y  # one (d2, d2) product per index of the first subsystem
        return y.reshape(x.shape)


# factors of the last _COUPLED_MEMO_SIZE matrices, keyed by shape, dtype,
# the ``hermitian`` flag and a SHA-1 digest of the matrix (no full-size key
# is kept): a gate-table row builds the same coupling Hamiltonian for its G
# gate and the CNOT's G stage, and factors it, and its H_eff, once
_COUPLED_MEMO: dict = {}
_COUPLED_MEMO_SIZE = 2


def _coupled_eig(m: np.ndarray, hermitian: bool):
    """``_blockwise_eig`` of ``m`` through ``_COUPLED_MEMO``; the memo's
    arrays are read-only, so no caller can change a later hit."""
    import hashlib  # loaded on first use, like the scipy submodules

    key = (m.shape, m.dtype.str, hermitian,
           hashlib.sha1(np.ascontiguousarray(m)).digest())
    factors = _COUPLED_MEMO.pop(key, None)
    if factors is None:
        factors = _blockwise_eig(m, hermitian)
        lam, *ops = factors
        for x in [lam] + [block for op in ops for _, _, block in op.blocks]:
            x.flags.writeable = False
    _COUPLED_MEMO[key] = factors  # most recently used last
    while len(_COUPLED_MEMO) > _COUPLED_MEMO_SIZE:
        del _COUPLED_MEMO[next(iter(_COUPLED_MEMO))]
    return factors


def _dense(m) -> np.ndarray:
    return m.toarray() if isinstance(m, KroneckerSum) else m


def _block_pairs(w: _BlockSparse, op: np.ndarray, v: _BlockSparse) -> _BlockSparse:
    """W op V for block-diagonal V and W = V^-1 over the same blocks, formed
    only on the block pairs that ``op`` connects (a photon loss flips the
    parity, so it maps each parity block onto the other)."""
    label = np.empty(v.dim, dtype=int)
    for n, (idx, _, _) in enumerate(v.blocks):
        label[idx] = n
    rows, cols = np.nonzero(op)
    pairs = []
    for i, j in sorted(set(zip(label[rows], label[cols]))):
        (ri, _, wi), (ci, _, vj) = w.blocks[i], v.blocks[j]
        pairs.append((ri, ci, wi @ (op[np.ix_(ri, ci)] @ vj)))
    return _BlockSparse(pairs, v.dim)


def _stage_factors(h, jump_ops: Sequence[tuple[np.ndarray | KroneckerSum, float]]):
    """The record (lam, V, V^-1, jumps) of one stage: the eigendecomposition
    of H_eff = H - i/2 sum rate L^dag L over the (L, rate) ``jump_ops`` and
    each L in its eigenbasis, V^-1 L V.  Without jumps H_eff is H, factored
    by ``eigh`` with V^-1 = V^dag.  A ``KroneckerSum`` stage whose jumps are
    all one-sided ``KroneckerSum``s is damped and factored per cavity, and a
    jump A x 1 becomes (W_A A V_A) x 1; any other stage and its jumps go
    through ``toarray`` to the block route, with each jump formed only on the
    parity-block pairs it connects."""
    hermitian = not jump_ops
    if isinstance(h, KroneckerSum) and all(
            isinstance(op, KroneckerSum) and (op.a is None) != (op.b is None)
            for op, _ in jump_ops):
        parts = [h.part(0), h.part(1)]
        for op, rate in jump_ops:
            for k, x in enumerate((op.a, op.b)):
                if x is not None:
                    parts[k] = parts[k] - 0.5j * rate * (x.conj().T @ x)
        # eigenvalues alpha_i + beta_j in ``np.kron`` order, V = V_A x V_B
        a, b = (_blockwise_eig(part, hermitian) for part in parts)
        lam = (a[0][:, None] + b[0][None, :]).reshape(-1)
        v = _KroneckerProduct(a[1].toarray(), b[1].toarray(), h.dims)
        w = v.H if hermitian else _KroneckerProduct(a[2].toarray(), b[2].toarray(), h.dims)
        # each jump's part maps through its own cavity's factors
        jumps = [_KroneckerProduct(*(None if x is None else wk @ x @ vk
                                     for x, wk, vk in zip((op.a, op.b), w.parts, v.parts)),
                                   h.dims) for op, _ in jump_ops]
        return lam, v, w, jumps
    ops = [_dense(op) for op, _ in jump_ops]
    damp = sum(0.5j * rate * (x.conj().T @ x).toarray()
               for x, (_, rate) in zip(map(scipy.sparse.csr_array, ops), jump_ops))
    lam, v, w = _coupled_eig(_dense(h) - damp, hermitian)
    return lam, v, w, [_block_pairs(w, op, v) for op in ops]


class PiecewiseConstantPropagator:
    """Exact lossless propagation and one-jump lossy fidelities over a fixed
    list of (H, duration) stages.

    Each distinct stage H (by identity) is factored once per pass by
    ``_stage_factors``, and the stage durations are applied afterwards, so a
    stage list that repeats an H pays for it once; the records are cached
    across input states.  A stage H is a ``KroneckerSum``, factored and
    applied per subsystem, or an array, factored one coupled block at a time
    through ``_coupled_eig``'s memo.  States are vectors of length d or (d, c)
    stacks of c column vectors.  ``jump_ops`` are (L, rate) pairs, each L an
    array or a ``KroneckerSum``; rate-0 operators are dropped, and without
    jumps ``lossy_fidelity`` is the lossless overlap.  ``kerr`` (rad/s) sets
    the one-jump quadrature's node count.
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

    def __init__(self, stages: Sequence[tuple[np.ndarray | KroneckerSum, float]],
                 jump_ops: Sequence[tuple[np.ndarray | KroneckerSum, float]] = (),
                 kerr: float = 1.0):
        self.stages = [(h, float(t)) for h, t in stages]
        self.jump_ops = [(op, float(rate)) for op, rate in jump_ops if rate != 0]
        self.kerr = kerr
        self._factors = {}  # per-stage records, keyed by "has jumps"

    @property
    def duration(self) -> float:
        return sum(t for _, t in self.stages)

    def factors(self, lossy: bool) -> list:
        """Per stage, the ``_stage_factors`` record of H, or with ``lossy`` of
        H_eff; without jumps both passes share the record of H."""
        jump_ops = self.jump_ops if lossy else []
        key = bool(jump_ops)
        if key not in self._factors:
            distinct = {id(h): h for h, _ in self.stages}
            records = {i: _stage_factors(h, jump_ops) for i, h in distinct.items()}
            self._factors[key] = [records[id(h)] for h, _ in self.stages]
        return self._factors[key]

    def forward(self, psi0: np.ndarray, lossy: bool = False) -> list[np.ndarray]:
        """State at every stage boundary, ``psi0`` first: lossless, or with
        ``lossy`` the unnormalized no-jump state under H_eff."""
        psis = [np.asarray(psi0, dtype=complex)]
        for (lam, v, w, _), (_, t) in zip(self.factors(lossy), self.stages):
            psis.append(v @ _scale_rows(np.exp(-1j * lam * t), w @ psis[-1]))
        return psis

    def lossy_fidelity(self, psi0: np.ndarray, target: np.ndarray):
        """(fidelity, quadrature_gap, clip_excess): <t|rho(T)|t> to first
        order in the jump number, a float for state vectors and one value per
        column for (d, c) stacks.

        The no-jump term propagates under H_eff; each one-jump term integrates
        |<t| U_eff(T, s) L U_eff(s, 0) |psi0>|^2 over the jump time s in each
        stage with Gauss-Legendre rules on n and 2n nodes, and keeps the 2n
        value.  ``quadrature_gap`` is the largest accepted |I_n - I_2n|; a
        stage whose gap still exceeds ``QUADRATURE_GAP_TOL`` after
        ``MAX_DOUBLINGS`` doublings of n raises ``IntegrationError``.  The
        expansion can overshoot 1 by its rounding; such values are clipped
        to 1, and ``clip_excess`` is the largest excess removed.
        """
        target = np.asarray(target, dtype=complex)
        psis = self.forward(psi0, lossy=True)
        fid = np.abs(np.sum(target.conj() * psis[-1], axis=0)) ** 2
        # without jumps there is no one-jump term to integrate
        eff = self.factors(lossy=True) if self.jump_ops else []
        phis = [target]
        for (lam, v, w, _), (_, t) in zip(reversed(eff), reversed(self.stages)):
            phis.append(w.H @ _scale_rows(np.exp(1j * lam.conj() * t), v.H @ phis[-1]))
        phis = phis[::-1]

        quadrature_gap = 0.0
        for k, ((lam, v, w, jumps), (_, t)) in enumerate(zip(eff, self.stages)):
            d = lam.size
            # eigen-coefficients of psi_k and of <phi_k+1|, cases along axis 1
            ket0 = (w @ psis[k]).reshape(d, 1, -1)
            bra0 = (v.H @ phis[k + 1]).conj().reshape(d, 1, -1)

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
            quadrature_gap = max(quadrature_gap, gap)
            fid = fid + fine.reshape(fid.shape)
        clip_excess = max(0.0, float(np.max(fid - 1.0)))
        fid = np.minimum(fid, 1.0)
        return (fid if fid.ndim else float(fid)), quadrature_gap, clip_excess
