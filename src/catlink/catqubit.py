"""Cat-qubit preparation, gates, and the heralded-link protocol verifier.

The logical qubit lives in the two-photon-driven Kerr oscillator

    H = -K a^dag^2 a^2 + E_p(t) (a^dag^2 + a^2),

whose degenerate eigenstates |alpha>, |-alpha> (alpha^2 = E_p / K) span the
cat manifold.  Driving ramps E_p from zero, mapping the Fock states |0>, |1>
adiabatically onto the even and odd cats used as logical |0>, |1>.  Gates are
generated by an added single-photon drive (X rotations), free Kerr evolution
with the two-photon drive off (Z rotations), and a linear cavity-cavity
coupling (entangling G rotations); a seven-stage sequence of these composes a
CNOT.  A ``PulseSchedule`` maps the drive channels of ``_CHANNEL_OPS`` to
amplitudes, each a function of time or its array of values on equal segments
(a GRAPE pulse); ``time_reversed`` runs a schedule backwards.

All gate stages have piecewise-constant Hamiltonians, so every gate runs
through ``dynamics.PiecewiseConstantPropagator``: lossless evolution is exact
through per-stage eigendecompositions, and one sweep gives both the lossless
outputs and the no-jump term of the lossy fidelities.  The two-cavity
builders state the structure they know: each CNOT stage that leaves the
cavities uncoupled and each cavity's photon-loss jump is a
``dynamics.KroneckerSum`` of one-cavity parts, factored per cavity, and only
the coupling stage G is a full array, factored over its two parity blocks.
Lossy gate fidelities use a no-jump + one-jump expansion of the master
equation, with all of a gate's input states propagated together as columns
and the one-jump term integrated by an n-vs-2n checked Gauss-Legendre rule
per stage (the probability of two photon-loss events over a gate is
negligible at the loss ratios of interest; the test suite cross-checks the
truncation against exact master-equation propagation for a single X
rotation, a four-stage X/Z sequence and the CNOT).
Driving goes through the adaptive master-equation integrator.  ``drive`` and
``undrive`` take only the length K T of the adiabatic ramp
(``adiabatic_drive_pulse``); a GRAPE schedule is scored by
``pulseopt.evaluate_pulse`` through the same loss scorer, ``_run_pulse``.
It solves in units of 1/K, where cavities of one amplitude and truncation
differ only in kappa / K, so ``drive`` and ``undrive`` take a sequence of
cavities, a list of one for a single cavity, and run them as the columns of
one solve; ``gate_report`` makes one such call for every row of the gate
table.  Every ramp and gate error names its K/kappa row (``_row_names``).
One helper, ``_ramp``, builds the ramp in units of 1/K and the cats at the
amplitude it reaches (the drive's target, the undrive's input and basis).
They are the eigenstates of the *truncated* two-photon-driven Kerr
Hamiltonian (``_stationary_cats``): the analytic cats are its eigenstates
only in the untruncated space, and an undrive started from one spends most
of its integrator steps on the fast oscillation of the truncation residual.
The gate bases stay analytic: gates are propagated exactly, so the residual
costs them nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import qcore as qc
from .dynamics import IntegrationError, KroneckerSum, PiecewiseConstantPropagator, \
    TimeDependentHamiltonian, _blockwise_eig, evolve

__all__ = [
    "PulseSchedule",
    "CatQubitParams",
    "GateResult",
    "DriveResult",
    "ProtocolResult",
    "TruncationOverflowError",
    "DRIVE_RAMP_KT",
    "logical_states",
    "adiabatic_drive_pulse",
    "drive",
    "undrive",
    "time_reversed",
    "gate_x",
    "gate_z",
    "gate_g",
    "cnot",
    "gate_report",
    "simulate_link_protocol",
]

# Dimensionless drive duration K * (1.3 tau).  Calibrated so that the default
# adiabatic ramp reproduces the anchored drive fidelity at K/kappa = 1e3
# while staying adiabatic (>= 0.999) without loss.
DRIVE_RAMP_KT = 7.2

TWO_QUBIT_DIM = 16  # per-cavity truncation for two-cavity gate simulations


class TruncationOverflowError(RuntimeError):
    """Raised when significant population reaches the top Fock levels."""


@dataclass(frozen=True)
class CatQubitParams:
    """One Kerr-cat cavity: nonlinearity, loss, target cat amplitude.

    ``kerr`` is the Kerr rate K in rad/s, ``kappa`` the single-photon loss
    rate in 1/s, ``alpha`` the real target cat amplitude.  The steady
    two-photon drive amplitude is K * alpha^2 by construction.
    """

    kerr: float
    kappa: float = 0.0
    alpha: float = math.sqrt(2.0)
    dim: int = 20

    def __post_init__(self):
        if self.kerr <= 0:
            raise ValueError("kerr rate must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")

    @property
    def two_photon_amplitude(self) -> float:
        """Steady-state two-photon drive E_p0 = K alpha^2 (rad/s)."""
        return self.kerr * self.alpha**2


@dataclass(frozen=True)
class GateResult:
    """Simulated gate outcome: averaged fidelity plus per-state detail.

    ``final_states`` holds the losslessly propagated outputs (they feed the
    manifold-leakage diagnostic); the fidelities themselves include loss.
    ``quadrature_gap`` is the largest n-vs-2n node gap of the one-jump
    quadrature over the stages and cases, and ``clip_excess`` the largest
    amount by which a case's one-jump fidelity exceeded 1 before it was
    clipped there.
    """

    operation: str
    duration_s: float
    fidelity: float
    state_fidelities: dict[str, float]
    leakage: float
    quadrature_gap: float
    clip_excess: float
    final_states: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class DriveResult:
    """Outcome of a drive or undrive ramp.  ``state`` is the final density
    matrix, lossless ramps included; ``rhs_evals`` counts the integrator's
    right-hand-side calls and ``tail_population`` is the largest population
    in the top two Fock levels over the sampled states."""

    state: np.ndarray
    fidelity: float
    target: np.ndarray
    duration_s: float
    rhs_evals: int
    tail_population: float


# -- pulse schedules ----------------------------------------------------------


@dataclass(frozen=True)
class PulseSchedule:
    """Named drive amplitudes over [0, duration], keyed by ``_CHANNEL_OPS``
    name.  Each channel is a function of time or a complex array of its
    values on equal-length segments (a GRAPE pulse), which
    ``dynamics.evolve`` integrates one segment at a time."""

    duration: float
    channels: Mapping[str, Callable[[float], complex] | np.ndarray]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        object.__setattr__(self, "channels", dict(self.channels))


# -- logical basis ----------------------------------------------------------


def logical_states(params: CatQubitParams) -> tuple[np.ndarray, np.ndarray]:
    """(logical zero, logical one) = (even cat, odd cat)."""
    return (qc.cat_state(params.alpha, "even", params.dim),
            qc.cat_state(params.alpha, "odd", params.dim))


def _kerr_op(dim: int, kerr: float) -> np.ndarray:
    a = qc.annihilation(dim)
    ad = a.conj().T
    return -kerr * (ad @ ad @ a @ a)


def _two_photon_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim)
    ad = a.conj().T
    return ad @ ad + a @ a


def _two_photon_orthogonal_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim)
    ad = a.conj().T
    return 1j * (ad @ ad - a @ a)


def _single_photon_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim)
    return a + a.conj().T


def _stabilized_h(params: CatQubitParams, dim: Optional[int] = None) -> np.ndarray:
    d = dim or params.dim
    return _kerr_op(d, params.kerr) + params.two_photon_amplitude * _two_photon_op(d)


# -- driving / undriving -----------------------------------------------------


def adiabatic_drive_pulse(params: CatQubitParams,
                          duration_kt: float = DRIVE_RAMP_KT) -> PulseSchedule:
    """Smooth two-photon ramp E_p(t) = E_p0 (1 - exp(-(t/tau)^4)).

    The full pulse lasts 1.3 tau; ``duration_kt`` fixes the dimensionless
    product K * 1.3 tau (default calibrated against the anchored drive
    fidelity at K/kappa = 1e3).
    """
    duration = duration_kt / params.kerr
    tau = duration / 1.3
    ep0 = params.two_photon_amplitude

    def two_photon(t: float) -> complex:
        return ep0 * (1.0 - math.exp(-((t / tau) ** 4)))

    return PulseSchedule(duration=duration, channels={"two_photon": two_photon})


# channel -> (operator builder, sign s with conj(op) = s op)
_CHANNEL_OPS = {
    "two_photon": (_two_photon_op, 1),
    "two_photon_orthogonal": (_two_photon_orthogonal_op, -1),
}


def time_reversed(pulse: PulseSchedule) -> PulseSchedule:
    """``pulse`` run backwards, with each channel of an imaginary operator
    negated: the Hamiltonian becomes conj H(T - t), whose propagator
    conj(U^dag) takes a drive's target back to its real input with the
    drive's lossless fidelity.  An array channel reverses its segment order."""
    def reverse(channel, sign):
        if isinstance(channel, np.ndarray):
            return sign * channel[::-1]
        return lambda t: sign * channel(pulse.duration - t)

    return PulseSchedule(pulse.duration, {name: reverse(channel, _CHANNEL_OPS[name][1])
                                          for name, channel in pulse.channels.items()})


def _pulse_hamiltonian(params: CatQubitParams, pulse: PulseSchedule) -> TimeDependentHamiltonian:
    terms = tuple((_CHANNEL_OPS[name][0](params.dim), fn) for name, fn in pulse.channels.items())
    return TimeDependentHamiltonian(_kerr_op(params.dim, params.kerr), terms,
                                    (0.0, pulse.duration))


def _fock_coefficients(state: np.ndarray) -> tuple[complex, complex]:
    c0 = complex(state[0])
    c1 = complex(state[1])
    rest = 1.0 - abs(c0) ** 2 - abs(c1) ** 2
    if rest > 1e-9:
        raise ValueError("drive input must lie in span{|0>, |1>}")
    return c0, c1


def _stationary_cats(params: CatQubitParams, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) cats of the truncated Hamiltonian
    -K a^dag^2 a^2 + K alpha^2 (a^dag^2 + a^2) at ``params.dim``.

    The analytic cats are its eigenstates only in the untruncated space; at
    dim 20 the analytic even cat at the default ramp's end amplitude leaves
    ||H psi - <H> psi|| = 7.3e-6 K on the top Fock levels, which an adaptive
    integrator started from it must resolve.  Here each cat is the
    eigenvector of largest eigenvalue in its photon-number-parity block, found
    block by block so the two nearly degenerate cats cannot mix, with the sign
    that makes its overlap with the analytic cat positive.  The other
    parity's amplitudes are exactly zero.
    """
    dim = params.dim
    h = _kerr_op(dim, params.kerr) + params.kerr * alpha**2 * _two_photon_op(dim)
    lam, v, _ = _blockwise_eig(h, hermitian=True)
    v = v.toarray()
    cats = []
    for first, parity in ((0, "even"), (1, "odd")):
        idx = np.arange(first, dim, 2)
        vec = v[:, idx[np.argmax(lam[idx])]]
        overlap = np.vdot(qc.cat_state(alpha, parity, dim), vec)
        cats.append(vec * (abs(overlap) / overlap))
    return cats[0], cats[1]


def _ramp(rows: Sequence[CatQubitParams],
          duration_kt: float) -> tuple[PulseSchedule, float, np.ndarray, np.ndarray]:
    """(schedule, alpha, even cat, odd cat) of the adiabatic ramp of
    ``duration_kt`` on ``_unit_rows(rows)[0]``, in units of 1/K: the cats are
    ``_stationary_cats`` at the amplitude alpha the ramp reaches at its end.

    The smooth ramp only approaches E_p0 asymptotically, so the cat actually
    produced at t = 1.3 tau is slightly smaller than the rows' ``alpha``;
    drive and undrive fidelities are reported against this achieved amplitude.
    """
    unit = _unit_rows(rows)[0]
    pulse = adiabatic_drive_pulse(unit, duration_kt)
    ep_end = abs(complex(pulse.channels["two_photon"](pulse.duration)))
    alpha = math.sqrt(ep_end / unit.kerr) if ep_end > 0 else unit.alpha
    return (pulse, alpha, *_stationary_cats(unit, alpha))


def _row_names(rows: Sequence[CatQubitParams]) -> str:
    """'K/kappa = 1000 row', or 'K/kappa = 1000, 100000 rows' for several."""
    ratios = ", ".join(f"{p.kerr / p.kappa if p.kappa else math.inf:g}" for p in rows)
    return f"K/kappa = {ratios} row{'s' if len(rows) > 1 else ''}"


def _unit_rows(rows: Sequence[CatQubitParams]) -> list[CatQubitParams]:
    """``rows`` at K = 1, each with its own kappa / K; they must share
    ``alpha`` and ``dim``, so one ramp and one pair of cats serve them all."""
    if len({(p.alpha, p.dim) for p in rows}) != 1:
        raise ValueError("a drive needs one or more rows, and they must share alpha and dim")
    return [replace(p, kerr=1.0, kappa=p.kappa / p.kerr) for p in rows]


def _run_pulse(rows: Sequence[CatQubitParams], operation: str, pulse: PulseSchedule,
               state: np.ndarray, target: np.ndarray) -> list[DriveResult]:
    """Evolve ``state`` through ``pulse``, given in units of 1/K, with loss
    at each row's kappa / K and score each final state against ``target``.
    The rows, which must share ``alpha`` and ``dim`` (``_unit_rows``), run at
    K = 1 as the columns of one solve; each result's ``duration_s`` is K T
    over the row's ``kerr``.  A sampled state with more than 1e-6 in the top
    two Fock levels raises ``TruncationOverflowError`` naming its row
    (``_row_names``) and ``operation``; a failed solve names every row,
    ``operation`` and the failure time K t.
    """
    unit = _unit_rows(rows)
    dim = unit[0].dim
    target = target / np.linalg.norm(target)
    h = _pulse_hamiltonian(unit[0], pulse)
    collapse = [(qc.annihilation(dim), [p.kappa for p in unit])]
    try:
        trajs = evolve(h, collapse, [state] * len(unit), n_samples=9)
    except IntegrationError as exc:
        raise IntegrationError(f"{_row_names(rows)}, {operation} at K t = {exc.t:.6e}: {exc}",
                               exc.t) from exc
    results = []
    for p, traj in zip(rows, trajs):
        tail = max(float(np.real(s[dim - 2, dim - 2] + s[dim - 1, dim - 1]))
                   for s in traj.states)
        if tail > 1e-6:
            raise TruncationOverflowError(
                f"{_row_names([p])}, {operation}: population {tail:.2e} in the top two Fock "
                f"levels at dim = {dim}; increase dim")
        final = traj.final_state
        results.append(DriveResult(state=final, fidelity=qc.state_fidelity(final, target),
                                   target=target, duration_s=pulse.duration / p.kerr,
                                   rhs_evals=traj.rhs_evals, tail_population=tail))
    return results


def drive(rows: Sequence[CatQubitParams], duration_kt: float = DRIVE_RAMP_KT,
          state: Optional[np.ndarray] = None) -> list[DriveResult]:
    """Map Fock-basis input onto the parity-matched cat superposition along
    the adiabatic ramp of ``duration_kt`` (``adiabatic_drive_pulse``).

    With input c0 |0> + c1 |1>, the target is c0 |C+> + c1 |C-> (the two cat
    branches stay exactly degenerate along the ramp, so no relative phase
    accumulates).  Evolution includes single-photon loss at each row's
    ``kappa``.
    The cats are those of the truncated Hamiltonian at the amplitude the ramp
    reaches (``_ramp``), the same pair that ``undrive`` starts from.

    The rows, which must share ``alpha`` and ``dim``, run as the columns of
    one solve (``_run_pulse``) from the same ``state`` and return one result
    each.  Errors name the row.
    """
    pulse, _, zero, one = _ramp(rows, duration_kt)
    if state is None:
        state = qc.fock_state(0, rows[0].dim)
    qc.check_pure(state, "drive input")
    c0, c1 = _fock_coefficients(state)
    return _run_pulse(rows, "drive", pulse, state, c0 * zero + c1 * one)


def undrive(rows: Sequence[CatQubitParams], duration_kt: float = DRIVE_RAMP_KT,
            state: Optional[np.ndarray] = None) -> list[DriveResult]:
    """Time-reversed drive: cat superposition back to the Fock basis, along
    the ramp of ``duration_kt`` run through ``time_reversed``.

    The input is decomposed in the cat basis at the amplitude the forward
    ramp reaches; by default the even cat at that amplitude is undriven to
    |0>.  The cats are those of the truncated Hamiltonian
    (``_stationary_cats``): the default input is then stationary under the
    starting Hamiltonian, so the integrator does not have to follow the fast
    oscillation that the analytic cat's truncation residual would drive.
    Rows are solved and batched as in ``drive``.
    """
    pulse, _, zero, one = _ramp(rows, duration_kt)
    if state is None:
        state = zero
    qc.check_pure(state, "undrive input")
    c0 = complex(np.vdot(zero, state))
    c1 = complex(np.vdot(one, state))
    weight = abs(c0) ** 2 + abs(c1) ** 2
    if weight < 0.98:
        raise ValueError(
            f"undrive input has only {weight:.3f} weight in the cat manifold")
    tvec = c0 * qc.fock_state(0, rows[0].dim) + c1 * qc.fock_state(1, rows[0].dim)
    return _run_pulse(rows, "undrive", time_reversed(pulse), state, tvec)


# -- gate constructions -------------------------------------------------------


def _x_rotation_duration(params: CatQubitParams, theta: float, amplitude: float) -> float:
    return abs(theta) / (4.0 * params.alpha * amplitude)


def _z_rotation_duration(params: CatQubitParams, theta: float) -> float:
    # free Kerr evolution only advances the logical phase forward; negative
    # angles wrap to theta + 2 pi
    theta_eff = math.fmod(theta, 2.0 * math.pi)
    if theta_eff < 0:
        theta_eff += 2.0 * math.pi
    return theta_eff / params.kerr


def _g_rotation_duration(params: CatQubitParams, theta: float, coupling: float) -> float:
    return abs(theta) / (4.0 * params.alpha**2 * coupling)


def _ideal_rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma / 2) = cos(theta/2) 1 - i sin(theta/2) sigma, as
    sigma^2 = 1 for the Pauli matrix sigma of ``axis``."""
    if axis == "x":
        sigma = np.array([[0, 1], [1, 0]], dtype=complex)
    elif axis == "z":
        sigma = np.array([[1, 0], [0, -1]], dtype=complex)
    else:
        raise ValueError(axis)
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * sigma


_SINGLE_QUBIT_TEST_STATES = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "minus": (1 / math.sqrt(2), -1 / math.sqrt(2)),
    "plus_i": (1 / math.sqrt(2), 1j / math.sqrt(2)),
    "minus_i": (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


def _run_gate(params: CatQubitParams, operation: str,
              stages: Sequence[tuple[np.ndarray | KroneckerSum, float]],
              jump_ops: Sequence[tuple[np.ndarray | KroneckerSum, float]], basis: np.ndarray,
              cases: dict[str, tuple[np.ndarray, np.ndarray]]) -> GateResult:
    """Propagate each case's logical input through ``stages``.

    ``basis`` holds the logical states as columns; ``cases`` maps a name to
    (input, ideal output) coefficient vectors in that basis.  Fidelities use
    the one-jump expansion with ``jump_ops``; final states and manifold
    leakage come from lossless propagation.  Errors name the row and gate.
    """
    prop = PiecewiseConstantPropagator(stages, jump_ops, params.kerr)
    # one column per case, so every stage contracts all cases at once
    psi0 = basis @ np.stack([c_in for c_in, _ in cases.values()], axis=1)
    targets = basis @ np.stack([c_out for _, c_out in cases.values()], axis=1)
    targets /= np.linalg.norm(targets, axis=0)
    try:
        fids, quadrature_gap, clip_excess = prop.lossy_fidelity(psi0, targets)
    except IntegrationError as exc:
        raise IntegrationError(f"{_row_names([params])}, {operation}, {exc}", exc.t) from exc
    fids = dict(zip(cases, map(float, fids)))
    psi_f = prop.forward(psi0)[-1]
    psi_f /= np.linalg.norm(psi_f, axis=0)
    finals = dict(zip(cases, psi_f.T))
    leakage = max(0.0, float(np.max(1.0 - np.sum(np.abs(basis.conj().T @ psi_f) ** 2,
                                                 axis=0))))

    fid = float(np.mean(list(fids.values())))
    return GateResult(operation=operation, duration_s=prop.duration, fidelity=fid,
                      state_fidelities=fids, leakage=leakage,
                      quadrature_gap=quadrature_gap, clip_excess=clip_excess,
                      final_states=finals)


def _single_qubit_gate(params: CatQubitParams, operation: str,
                       stages: Sequence[tuple[np.ndarray, float]],
                       ideal: np.ndarray) -> GateResult:
    dim = params.dim
    zero, one = logical_states(params)
    basis = np.stack([zero, one], axis=1)  # dim x 2
    cases = {}
    for name, coeffs in _SINGLE_QUBIT_TEST_STATES.items():
        c_in = np.array(coeffs, dtype=complex)
        cases[name] = (c_in, ideal @ c_in)
    return _run_gate(params, operation, stages, [(qc.annihilation(dim), params.kappa)],
                     basis, cases)


def gate_x(params: CatQubitParams, theta: float, drive_amplitude: float) -> GateResult:
    """Rotation about the logical X axis via a single-photon drive.

    The drive amplitude must satisfy ``drive_amplitude << K alpha^2`` to stay
    inside the qubit manifold; the rotation lasts theta / (4 alpha E_x) with
    the drive sign carrying the rotation sense.
    """
    if drive_amplitude <= 0:
        raise ValueError("drive_amplitude must be positive")
    dim = params.dim
    dur = _x_rotation_duration(params, theta, drive_amplitude)
    sign = 1.0 if theta >= 0 else -1.0
    h = _stabilized_h(params) + sign * drive_amplitude * _single_photon_op(dim)
    return _single_qubit_gate(params, f"X_{theta/math.pi:.3g}pi", [(h, dur)],
                              _ideal_rotation("x", theta))


def gate_z(params: CatQubitParams, theta: float) -> GateResult:
    """Rotation about the logical Z axis via free Kerr evolution.

    The two-photon drive is switched off and the cavity evolves under
    -K (a^dag a)^2 for t = theta / K (negative angles wrap forward).  Only
    quarter-turn multiples are exact logical rotations; arbitrary angles are
    reported against the ideal rotation as stated.
    """
    dim = params.dim
    n_op = qc.number_operator(dim)
    h = -params.kerr * (n_op @ n_op)
    dur = _z_rotation_duration(params, theta)
    return _single_qubit_gate(params, f"Z_{theta/math.pi:.3g}pi", [(h, dur)],
                              _ideal_rotation("z", theta))


def _two_cavity_loss(params: CatQubitParams, dim: int) -> list[tuple[KroneckerSum, float]]:
    """Photon loss a x 1 and 1 x a at ``params.kappa`` on two cavities of
    ``dim`` levels, as one-sided ``KroneckerSum``s."""
    a = qc.annihilation(dim)
    return [(KroneckerSum(a, None, (dim, dim)), params.kappa),
            (KroneckerSum(None, a, (dim, dim)), params.kappa)]


def _coupling_op(dim: int) -> np.ndarray:
    """a1^dag a2 + a1 a2^dag = a^dag x a + a x a^dag, built from one-cavity
    operators so that no two-cavity matrix product is taken."""
    a = qc.annihilation(dim)
    ad = a.conj().T
    return np.kron(ad, a) + np.kron(a, ad)


def _coupling_stage(params: CatQubitParams, coupling: float, dim: int) -> np.ndarray:
    """H0 x 1 + 1 x H0 + coupling (a^dag x a + a x a^dag), H0 the one-cavity
    stabilized Hamiltonian: the G gate's stage, and the CNOT's."""
    h0 = _stabilized_h(params, dim)
    return KroneckerSum(h0, h0, (dim, dim)).toarray() + coupling * _coupling_op(dim)


def _two_qubit_logical_basis(params: CatQubitParams, dim: int) -> np.ndarray:
    zero, one = logical_states(replace(params, dim=dim))
    cols = [np.kron(x, y) for x in (zero, one) for y in (zero, one)]
    return np.stack(cols, axis=1)  # (dim^2) x 4, order 00,01,10,11


def gate_g(params: CatQubitParams, theta: float, coupling: float,
           dim_per_cavity: int = TWO_QUBIT_DIM) -> GateResult:
    """Two-qubit entangling rotation from a linear cavity-cavity coupling.

    Both cavities share ``params``.  Starting from the even-even cat product
    state, a quarter rotation (theta = pi/2) reaches the maximally entangled
    ((1+i)|00> + (1-i)|11>)/2 after t = pi / (8 alpha^2 E_c); general angles
    scale the duration linearly.  Fidelity is reported for this preparation.
    """
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    dim = dim_per_cavity
    sign = 1.0 if theta >= 0 else -1.0
    h = _coupling_stage(params, sign * coupling, dim)
    dur = _g_rotation_duration(params, theta, coupling)
    tcoef = math.cos(theta / 2) * np.array([1, 0, 0, 0], dtype=complex) \
        - 1j * math.sin(theta / 2) * np.array([0, 0, 0, 1], dtype=complex)
    return _run_gate(params, f"G_{theta/math.pi:.3g}pi", [(h, dur)],
                     _two_cavity_loss(params, dim), _two_qubit_logical_basis(params, dim),
                     {"even_even": (np.eye(4)[0], tcoef)})


def _cnot_stage_durations(params: CatQubitParams, drive_amplitude: float,
                          coupling: float) -> list[float]:
    """The seven ``_cnot_stages`` durations in order; the CNOT lasts their
    left-to-right sum."""
    t_x = _x_rotation_duration(params, math.pi / 2, drive_amplitude)
    return [t_x, _z_rotation_duration(params, -math.pi / 2), t_x,
            _g_rotation_duration(params, math.pi / 2, coupling),
            _z_rotation_duration(params, math.pi / 2), t_x, t_x]


def _cnot_stages(params: CatQubitParams, drive_amplitude: float, coupling: float,
                 dim: int) -> list[tuple[KroneckerSum | np.ndarray, float]]:
    """Seven-stage decomposition X2(pi/2) X1(-pi/2) Z1(pi/2) G(pi/2)
    X1(-pi/2) Z1(-pi/2) X1(pi/2), rightmost applied first.  The six stages
    that leave the cavities uncoupled are ``KroneckerSum``s; the coupling
    stage G is the G gate's array (``_coupling_stage``)."""
    h0 = _stabilized_h(params, dim)
    n = qc.number_operator(dim)
    x = _single_photon_op(dim)
    dims = (dim, dim)

    h_x1_plus = KroneckerSum(h0 + drive_amplitude * x, h0, dims)
    h_x1_minus = KroneckerSum(h0 - drive_amplitude * x, h0, dims)
    h_x2_plus = KroneckerSum(h0, h0 + drive_amplitude * x, dims)
    h_z1 = KroneckerSum(-params.kerr * (n @ n), h0, dims)
    h_g = _coupling_stage(params, coupling, dim)

    return list(zip([h_x1_plus, h_z1, h_x1_minus, h_g, h_z1, h_x1_minus, h_x2_plus],
                    _cnot_stage_durations(params, drive_amplitude, coupling)))


_CNOT_IDEAL = np.array([[1, 0, 0, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]], dtype=complex)

_TWO_QUBIT_BASIS_NAMES = ("00", "01", "10", "11")


def cnot(params: CatQubitParams, drive_amplitude: float, coupling: float,
         dim_per_cavity: int = TWO_QUBIT_DIM) -> GateResult:
    """Seven-stage CNOT with the first cavity as control.

    Fidelity is the mean state fidelity over the four logical basis states;
    duration is the sum of the stage durations.
    """
    dim = dim_per_cavity
    cases = {name: (np.eye(4)[idx], _CNOT_IDEAL[:, idx])
             for idx, name in enumerate(_TWO_QUBIT_BASIS_NAMES)}
    return _run_gate(params, "CNOT", _cnot_stages(params, drive_amplitude, coupling, dim),
                     _two_cavity_loss(params, dim), _two_qubit_logical_basis(params, dim),
                     cases)


def gate_report(rows: Sequence[tuple[CatQubitParams, float, float]],
                drive_duration_kt: float = DRIVE_RAMP_KT,
                dim_per_cavity: int = TWO_QUBIT_DIM) -> list[dict[str, DriveResult | GateResult]]:
    """The gate table's records, one dict per row of (params, drive_ratio,
    coupling_ratio), keyed by operation in table order: drive, undrive,
    X_0.5pi, Z_0.5pi, G_0.5pi, CNOT.

    ``drive_ratio`` and ``coupling_ratio`` divide the two-photon amplitude
    E_p0 to produce the single-photon drive and the cavity coupling; the
    ``[catqubit] drive_ratios`` and ``coupling_ratios`` config keys hold the
    conventional choices per loss ratio.  The rows must share ``alpha`` and
    ``dim``: all drives run as one batched solve, and so do all undrives, so
    each ramp's ``rhs_evals`` counts its whole batch.  Errors name the row.
    """
    cavities = [params for params, _, _ in rows]
    drives = drive(cavities, drive_duration_kt)
    undrives = undrive(cavities, drive_duration_kt)
    tables = []
    for (params, drive_ratio, coupling_ratio), d, u in zip(rows, drives, undrives):
        e_x = params.two_photon_amplitude / drive_ratio
        e_c = params.two_photon_amplitude / coupling_ratio
        table: dict[str, DriveResult | GateResult] = {"drive": d, "undrive": u}
        for result in (gate_x(params, math.pi / 2, e_x),
                       gate_z(params, math.pi / 2),
                       gate_g(params, math.pi / 2, e_c, dim_per_cavity),
                       cnot(params, e_x, e_c, dim_per_cavity)):
            table[result.operation] = result
        tables.append(table)
    return tables


# -- heralded elementary-link protocol ----------------------------------------


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of the two-round heralded entanglement protocol.

    ``branches`` maps herald patterns to (probability, normalized state on
    the stationary pair).  For the two-step protocol a pattern is (step-I
    detector, step-II detector) with detectors indexed 1 and 2; for a single
    step it is just (detector,).  Each probability is the joint probability
    of its whole pattern; a branch of probability 0 holds the zero matrix.
    """

    branches: dict[tuple, tuple[float, np.ndarray]]
    success_probability: float


def simulate_link_protocol(loss_per_arm: float,
                           detectors: str = "number_resolving",
                           detector_efficiency: float = 1.0,
                           two_step: bool = True) -> ProtocolResult:
    """Exact small-space verification of the two-round heralded link.

    Stationary qubits a, c are abstract two-level systems (logical gates
    taken as ideal).  Each round, every qubit emits a flying mode b, d that
    holds one photon exactly when the qubit is |1>, so two Fock levels per
    mode are exact: loss before the beamsplitter never meets a second
    photon.  Per-arm loss and detector inefficiency fold into one
    transmittance eta, whose amplitude-damping Kraus pair acts on each mode.
    A detector outcome is a row of the 50:50 beamsplitter on |b d>, and
    threshold detectors also count the bunched two-photon rows.  Round I
    starts from |+>|+>; round II flips both qubits and emits again.  Returns
    the post-selected stationary-pair state per herald pattern and the total
    success probability.

    With both protocol steps the heralded state is a Bell state regardless of
    loss (loss only reduces the success probability); with ``two_step=False``
    and threshold detectors, double-emission events contaminate the herald.
    """
    if not 0.0 <= loss_per_arm <= 1.0:
        raise ValueError("loss_per_arm must lie in [0, 1]")
    if not 0.0 <= detector_efficiency <= 1.0:
        raise ValueError("detector_efficiency must lie in [0, 1]")
    s = 1.0 / math.sqrt(2.0)
    # <10| and <01| after the beamsplitter, on inputs |bd> = |00>, |01>, |10>, |11>
    rows = {1: [[0.0, s, s, 0.0]], 2: [[0.0, -s, s, 0.0]]}
    if detectors == "threshold":
        rows[1].append([0.0, 0.0, 0.0, s])    # <20|
        rows[2].append([0.0, 0.0, 0.0, -s])   # <02|
    elif detectors != "number_resolving":
        raise ValueError("detectors must be 'number_resolving' or 'threshold'")
    eta = (1.0 - loss_per_arm) * detector_efficiency
    kraus = [np.diag([1.0, math.sqrt(eta)]),
             np.array([[0.0, math.sqrt(1.0 - eta)], [0.0, 0.0]])]
    # herald maps from (a, c, b, d) to the stationary pair (a, c)
    heralds = {det: [np.kron(np.eye(4), row @ np.kron(k_b, k_d))
                     for row in det_rows for k_b in kraus for k_d in kraus]
               for det, det_rows in rows.items()}
    emit = np.eye(16)[:, ::5]  # |x y> -> |x y x y>, basis index 5 (2x + y)

    unnormalized = {(): np.full((4, 4), 0.25, dtype=complex)}  # |+>|+>
    for step in range(2 if two_step else 1):
        next_round = {}
        for pattern, rho in unnormalized.items():
            if step:
                rho = rho[::-1, ::-1]  # X on both qubits
            rho = emit @ rho @ emit.T
            for det, maps in heralds.items():
                next_round[pattern + (det,)] = sum(m @ rho @ m.T for m in maps)
        unnormalized = next_round

    branches = {}
    for pattern, rho in unnormalized.items():
        prob = float(np.real(np.trace(rho)))
        branches[pattern] = (prob, rho / prob if prob > 0 else rho)
    return ProtocolResult(branches=branches,
                          success_probability=sum(p for p, _ in branches.values()))
