"""Cat-qubit preparation, gates, and the heralded-link protocol verifier.

The logical qubit lives in the two-photon-driven Kerr oscillator

    H = -K a^dag^2 a^2 + E_p(t) (a^dag^2 + a^2),

whose degenerate eigenstates |alpha>, |-alpha> (alpha^2 = E_p / K) span the
cat manifold.  Driving ramps E_p from zero, mapping the Fock states |0>, |1>
adiabatically onto the even and odd cats used as logical |0>, |1>.  Gates are
generated by an added single-photon drive (X rotations), free Kerr evolution
with the two-photon drive off (Z rotations), and a linear cavity-cavity
coupling (entangling G rotations); a seven-stage sequence of these composes a
CNOT.

All gate stages have piecewise-constant Hamiltonians, so every gate runs
through ``dynamics.PiecewiseConstantPropagator``: lossless evolution is exact
through per-stage eigendecompositions, and lossy gate fidelities use a
no-jump + one-jump expansion of the master equation, with all of a gate's
input states propagated together as columns and the one-jump term integrated
by an n-vs-2n checked Gauss-Legendre rule per stage (the probability of two
photon-loss events over a gate is negligible at the loss ratios of interest;
the test suite cross-checks the truncation against exact master-equation
propagation for a single X rotation, a four-stage X/Z sequence and the
CNOT).
Driving, with its smooth time-dependent pulse, goes through the adaptive
master-equation integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy

from . import qcore as qc
from .dynamics import PiecewiseConstantPropagator, TimeDependentHamiltonian, evolve
from .pulses import PulseSchedule, reversed_schedule

__all__ = [
    "CatQubitParams",
    "GateReportRow",
    "GateResult",
    "DriveResult",
    "ProtocolResult",
    "TruncationOverflowError",
    "DRIVE_RAMP_KT",
    "logical_states",
    "adiabatic_drive_pulse",
    "drive",
    "undrive",
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

    @property
    def two_photon_amplitude(self) -> float:
        """Steady-state two-photon drive E_p0 = K alpha^2 (rad/s)."""
        return self.kerr * self.alpha**2


@dataclass(frozen=True)
class GateReportRow:
    """One gate-table row; ``leakage``, ``quadrature_gap`` and
    ``clip_excess`` are the ``GateResult`` diagnostics, None for drive and
    undrive."""

    operation: str
    kerr: float
    kappa: float
    duration_s: float
    duration_kt: float
    fidelity: float
    leakage: Optional[float] = None
    quadrature_gap: Optional[float] = None
    clip_excess: Optional[float] = None


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
    params: CatQubitParams
    duration_s: float
    fidelity: float
    state_fidelities: dict[str, float]
    leakage: float
    quadrature_gap: float
    clip_excess: float
    final_states: dict[str, qc.QState] = field(default_factory=dict, repr=False)

    @property
    def row(self) -> GateReportRow:
        return GateReportRow(
            operation=self.operation,
            kerr=self.params.kerr,
            kappa=self.params.kappa,
            duration_s=self.duration_s,
            duration_kt=self.duration_s * self.params.kerr,
            fidelity=self.fidelity,
            leakage=self.leakage,
            quadrature_gap=self.quadrature_gap,
            clip_excess=self.clip_excess,
        )


@dataclass(frozen=True)
class DriveResult:
    state: qc.QState
    fidelity: float
    target: qc.QState
    pulse: PulseSchedule

    @property
    def duration_s(self) -> float:
        return self.pulse.duration


# -- logical basis ----------------------------------------------------------


def logical_states(params: CatQubitParams) -> tuple[qc.QState, qc.QState]:
    """(logical zero, logical one) = (even cat, odd cat)."""
    return (qc.cat_state(params.alpha, "even", params.dim),
            qc.cat_state(params.alpha, "odd", params.dim))


def _kerr_op(dim: int, kerr: float) -> np.ndarray:
    a = qc.annihilation(dim).data
    ad = a.conj().T
    return -kerr * (ad @ ad @ a @ a)


def _two_photon_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim).data
    ad = a.conj().T
    return ad @ ad + a @ a


def _two_photon_orthogonal_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim).data
    ad = a.conj().T
    return 1j * (ad @ ad - a @ a)


def _single_photon_op(dim: int) -> np.ndarray:
    a = qc.annihilation(dim).data
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


_CHANNEL_OPS = {
    "two_photon": _two_photon_op,
    "two_photon_orthogonal": _two_photon_orthogonal_op,
    "single_photon": _single_photon_op,
}


def _pulse_hamiltonian(params: CatQubitParams, pulse: PulseSchedule) -> TimeDependentHamiltonian:
    dim = params.dim
    static = qc.QOperator((dim,), _kerr_op(dim, params.kerr))
    terms = []
    for name, fn in pulse.channels.items():
        try:
            op = _CHANNEL_OPS[name](dim)
        except KeyError:
            raise ValueError(f"unknown drive channel {name!r}") from None
        terms.append((qc.QOperator((dim,), op), fn))
    return TimeDependentHamiltonian(static, tuple(terms), (0.0, pulse.duration),
                                    breakpoints=pulse.breakpoints)


def _fock_coefficients(state: qc.QState) -> tuple[complex, complex]:
    c0 = complex(state.data[0])
    c1 = complex(state.data[1])
    rest = 1.0 - abs(c0) ** 2 - abs(c1) ** 2
    if rest > 1e-9:
        raise ValueError("drive input must lie in span{|0>, |1>}")
    return c0, c1


def _check_truncation(states: Sequence[qc.QState], dim: int):
    worst = 0.0
    for s in states:
        if s.kind == "pure":
            pop = float(np.sum(np.abs(s.data[dim - 2:]) ** 2))
        else:
            pop = float(np.real(s.data[dim - 2, dim - 2] + s.data[dim - 1, dim - 1]))
        worst = max(worst, pop)
    if worst > 1e-6:
        raise TruncationOverflowError(
            f"population {worst:.2e} in the top two Fock levels; increase dim")


def _schedule_end_alpha(params: CatQubitParams, pulse: PulseSchedule) -> float:
    """Cat amplitude implied by the two-photon drive value at the pulse end.

    The smooth ramp only approaches E_p0 asymptotically, so the cat actually
    produced at t = 1.3 tau is slightly smaller than ``params.alpha``; drive
    and undrive fidelities are reported against this achieved amplitude.
    """
    ep_end = abs(complex(pulse.channels["two_photon"](pulse.duration)))
    return math.sqrt(ep_end / params.kerr) if ep_end > 0 else params.alpha


def _run_pulse(params: CatQubitParams, pulse: PulseSchedule, state: qc.QState,
               target: np.ndarray) -> DriveResult:
    """Evolve ``state`` through ``pulse`` with loss at ``params.kappa``, check
    the Fock truncation, and score the final state against ``target``."""
    target = qc.QState((params.dim,), target / np.linalg.norm(target))
    h = _pulse_hamiltonian(params, pulse)
    collapse = [(qc.annihilation(params.dim), params.kappa)] if params.kappa > 0 else []
    traj = evolve(h, collapse, state, n_samples=9)
    _check_truncation(traj.states, params.dim)
    final = traj.final_state
    return DriveResult(state=final, fidelity=qc.state_fidelity(final, target),
                       target=target, pulse=pulse)


def drive(params: CatQubitParams, pulse: Optional[PulseSchedule] = None,
          state: Optional[qc.QState] = None) -> DriveResult:
    """Map Fock-basis input onto the parity-matched cat superposition.

    With input c0 |0> + c1 |1>, the target is c0 |C+> + c1 |C-> (the two cat
    branches stay exactly degenerate along the ramp, so no relative phase
    accumulates).  Evolution includes single-photon loss at ``params.kappa``.
    The target amplitude follows the final value of the two-photon channel.
    """
    if pulse is None:
        pulse = adiabatic_drive_pulse(params)
    if state is None:
        state = qc.fock_state(0, params.dim)
    target_alpha = _schedule_end_alpha(params, pulse)
    c0, c1 = _fock_coefficients(state)
    zero = qc.cat_state(target_alpha, "even", params.dim)
    one = qc.cat_state(target_alpha, "odd", params.dim)
    return _run_pulse(params, pulse, state, c0 * zero.data + c1 * one.data)


def undrive(params: CatQubitParams, pulse: Optional[PulseSchedule] = None,
            state: Optional[qc.QState] = None) -> DriveResult:
    """Time-reversed drive: cat superposition back to the Fock basis.

    The input is decomposed in the cat basis at the amplitude where the
    reversed schedule starts (the forward schedule's end value); by default
    the even cat at that amplitude is undriven to |0>.
    """
    if pulse is None:
        pulse = adiabatic_drive_pulse(params)
    start_alpha = _schedule_end_alpha(params, pulse)
    rev = reversed_schedule(pulse)
    if state is None:
        state = qc.cat_state(start_alpha, "even", params.dim)
    zero = qc.cat_state(start_alpha, "even", params.dim)
    one = qc.cat_state(start_alpha, "odd", params.dim)
    if state.kind != "pure":
        raise ValueError("undrive expects a pure input state")
    c0 = complex(np.vdot(zero.data, state.data))
    c1 = complex(np.vdot(one.data, state.data))
    weight = abs(c0) ** 2 + abs(c1) ** 2
    if weight < 0.98:
        raise ValueError(
            f"undrive input has only {weight:.3f} weight in the cat manifold")
    tvec = c0 * qc.fock_state(0, params.dim).data + c1 * qc.fock_state(1, params.dim).data
    return _run_pulse(params, rev, state, tvec)


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
    if axis == "x":
        gen = np.array([[0, 1], [1, 0]], dtype=complex)
    elif axis == "z":
        gen = np.array([[1, 0], [0, -1]], dtype=complex)
    else:
        raise ValueError(axis)
    return scipy.linalg.expm(-0.5j * theta * gen)


_SINGLE_QUBIT_TEST_STATES = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "minus": (1 / math.sqrt(2), -1 / math.sqrt(2)),
    "plus_i": (1 / math.sqrt(2), 1j / math.sqrt(2)),
    "minus_i": (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


def _run_gate(params: CatQubitParams, operation: str,
              stages: Sequence[tuple[np.ndarray, float]],
              jump_ops: Sequence[tuple[np.ndarray, float]], basis: np.ndarray,
              cases: dict[str, tuple[np.ndarray, np.ndarray]],
              dims: tuple[int, ...]) -> GateResult:
    """Propagate each case's logical input through ``stages``.

    ``basis`` holds the logical states as columns; ``cases`` maps a name to
    (input, ideal output) coefficient vectors in that basis.  Fidelities use
    the one-jump expansion with ``jump_ops``; final states and manifold
    leakage come from lossless propagation.  ``dims`` are the cavity
    dimensions, so a two-cavity stage that leaves the cavities uncoupled is
    factored per cavity.
    """
    prop = PiecewiseConstantPropagator(stages, jump_ops, params.kerr, dims)
    # one column per case, so every stage contracts all cases at once
    psi0 = basis @ np.stack([c_in for c_in, _ in cases.values()], axis=1)
    targets = basis @ np.stack([c_out for _, c_out in cases.values()], axis=1)
    targets /= np.linalg.norm(targets, axis=0)
    fids = dict(zip(cases, map(float, prop.lossy_fidelity(psi0, targets))))
    psi_f = prop.propagate_pure(psi0)
    psi_f /= np.linalg.norm(psi_f, axis=0)
    finals = {name: qc.QState(dims, psi_f[:, i].copy(), normalize=False)
              for i, name in enumerate(cases)}
    leakage = max(0.0, float(np.max(1.0 - np.sum(np.abs(basis.conj().T @ psi_f) ** 2,
                                                 axis=0))))

    fid = float(np.mean(list(fids.values())))
    return GateResult(operation=operation, params=params,
                      duration_s=prop.duration, fidelity=fid,
                      state_fidelities=fids, leakage=leakage,
                      quadrature_gap=prop.quadrature_gap, clip_excess=prop.clip_excess,
                      final_states=finals)


def _single_qubit_gate(params: CatQubitParams, operation: str,
                       stages: Sequence[tuple[np.ndarray, float]],
                       ideal: np.ndarray) -> GateResult:
    dim = params.dim
    zero, one = logical_states(params)
    basis = np.stack([zero.data, one.data], axis=1)  # dim x 2
    cases = {}
    for name, coeffs in _SINGLE_QUBIT_TEST_STATES.items():
        c_in = np.array(coeffs, dtype=complex)
        cases[name] = (c_in, ideal @ c_in)
    return _run_gate(params, operation, stages, [(qc.annihilation(dim).data, params.kappa)],
                     basis, cases, (dim,))


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
    n_op = qc.number_operator(dim).data
    h = -params.kerr * (n_op @ n_op)
    dur = _z_rotation_duration(params, theta)
    return _single_qubit_gate(params, f"Z_{theta/math.pi:.3g}pi", [(h, dur)],
                              _ideal_rotation("z", theta))


def _two_qubit_ops(params: CatQubitParams, dim: int):
    a = qc.annihilation(dim)
    eye = qc.identity(dim)
    a1 = qc.tensor([a, eye]).data
    a2 = qc.tensor([eye, a]).data
    h0 = _stabilized_h(params, dim)
    h01 = np.kron(h0, np.eye(dim))
    h02 = np.kron(np.eye(dim), h0)
    return a1, a2, h01, h02


def _two_qubit_logical_basis(params: CatQubitParams, dim: int) -> np.ndarray:
    zero = qc.cat_state(params.alpha, "even", dim).data
    one = qc.cat_state(params.alpha, "odd", dim).data
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
    a1, a2, h01, h02 = _two_qubit_ops(params, dim)
    sign = 1.0 if theta >= 0 else -1.0
    h = h01 + h02 + sign * coupling * (a1.conj().T @ a2 + a1 @ a2.conj().T)
    dur = _g_rotation_duration(params, theta, coupling)
    tcoef = math.cos(theta / 2) * np.array([1, 0, 0, 0], dtype=complex) \
        - 1j * math.sin(theta / 2) * np.array([0, 0, 0, 1], dtype=complex)
    return _run_gate(params, f"G_{theta/math.pi:.3g}pi", [(h, dur)],
                     [(a1, params.kappa), (a2, params.kappa)],
                     _two_qubit_logical_basis(params, dim),
                     {"even_even": (np.eye(4)[0], tcoef)}, (dim, dim))


def _cnot_stages(params: CatQubitParams, drive_amplitude: float, coupling: float,
                 dim: int) -> list[tuple[np.ndarray, float]]:
    """Seven-stage decomposition X2(pi/2) X1(-pi/2) Z1(pi/2) G(pi/2)
    X1(-pi/2) Z1(-pi/2) X1(pi/2), rightmost applied first."""
    a1, a2, h01, h02 = _two_qubit_ops(params, dim)
    n1 = a1.conj().T @ a1
    x1 = a1 + a1.conj().T
    x2 = a2 + a2.conj().T
    kerr1_free = -params.kerr * (n1 @ n1)

    t_x = _x_rotation_duration(params, math.pi / 2, drive_amplitude)
    t_z_plus = _z_rotation_duration(params, math.pi / 2)
    t_z_minus = _z_rotation_duration(params, -math.pi / 2)
    t_g = _g_rotation_duration(params, math.pi / 2, coupling)

    h_x1_plus = h01 + h02 + drive_amplitude * x1
    h_x1_minus = h01 + h02 - drive_amplitude * x1
    h_x2_plus = h01 + h02 + drive_amplitude * x2
    h_z1 = kerr1_free + h02
    h_g = h01 + h02 + coupling * (a1.conj().T @ a2 + a1 @ a2.conj().T)

    return [
        (h_x1_plus, t_x),      # X1(+pi/2)
        (h_z1, t_z_minus),     # Z1(-pi/2) via 3/4 turn
        (h_x1_minus, t_x),     # X1(-pi/2)
        (h_g, t_g),            # G(pi/2)
        (h_z1, t_z_plus),      # Z1(+pi/2)
        (h_x1_minus, t_x),     # X1(-pi/2)
        (h_x2_plus, t_x),      # X2(+pi/2)
    ]


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
    a1, a2, _, _ = _two_qubit_ops(params, dim)
    cases = {name: (np.eye(4)[idx], _CNOT_IDEAL[:, idx])
             for idx, name in enumerate(_TWO_QUBIT_BASIS_NAMES)}
    return _run_gate(params, "CNOT", _cnot_stages(params, drive_amplitude, coupling, dim),
                     [(a1, params.kappa), (a2, params.kappa)],
                     _two_qubit_logical_basis(params, dim), cases, (dim, dim))


def gate_report(params: CatQubitParams, drive_ratio: float, coupling_ratio: float,
                drive_duration_kt: float = DRIVE_RAMP_KT,
                dim_per_cavity: int = TWO_QUBIT_DIM) -> list[GateReportRow]:
    """Rows (drive, undrive, X_pi/2, Z_pi/2, G_pi/2, CNOT) for one cavity
    configuration.

    ``drive_ratio`` and ``coupling_ratio`` divide the two-photon amplitude
    E_p0 to produce the single-photon drive and the cavity coupling; the
    ``[catqubit] drive_ratios`` and ``coupling_ratios`` config keys hold the
    conventional choices per loss ratio.
    """
    ep0 = params.two_photon_amplitude
    e_x = ep0 / drive_ratio
    e_c = ep0 / coupling_ratio

    rows = []
    pulse = adiabatic_drive_pulse(params, duration_kt=drive_duration_kt)
    d = drive(params, pulse)
    rows.append(GateReportRow("drive", params.kerr, params.kappa,
                              d.duration_s, d.duration_s * params.kerr, d.fidelity))
    u = undrive(params, pulse)
    rows.append(GateReportRow("undrive", params.kerr, params.kappa,
                              u.duration_s, u.duration_s * params.kerr, u.fidelity))
    for result in (gate_x(params, math.pi / 2, e_x),
                   gate_z(params, math.pi / 2),
                   gate_g(params, math.pi / 2, e_c, dim_per_cavity),
                   cnot(params, e_x, e_c, dim_per_cavity)):
        rows.append(result.row)
    return rows


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

    branches: dict[tuple, tuple[float, qc.QState]]
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
        branches[pattern] = (prob, qc.QState((2, 2), rho / prob if prob > 0 else rho,
                                             normalize=False))
    return ProtocolResult(branches=branches,
                          success_probability=sum(p for p, _ in branches.values()))
