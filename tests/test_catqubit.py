import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

from catlink import catqubit as cq
from catlink import cli, dynamics
from catlink import qcore as qc
from catlink.dynamics import (IntegrationError, KroneckerSum, PiecewiseConstantPropagator,
                              coupled_blocks, evolve_constant, liouvillian)
from catlink.config import load_config
from catlink.catqubit import PulseSchedule

ALPHA = math.sqrt(2)


@pytest.fixture(scope="module")
def lossless():
    return cq.CatQubitParams(kerr=1.0, kappa=0.0)


@pytest.fixture(scope="module")
def lossless_round_trip(lossless):
    """(drive, eigenvalues of its final density matrix, undrive of that
    matrix's top eigenvector) of the default ramp at kappa = 0."""
    [d] = cq.drive([lossless])
    lam, vecs = np.linalg.eigh(d.state)
    [u] = cq.undrive([lossless], state=vecs[:, -1])
    return d, lam, u


@pytest.fixture(scope="module")
def ratio_1e3():
    return cq.CatQubitParams(kerr=1.0, kappa=1e-3)


def test_params_need_two_fock_levels():
    with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
        cq.CatQubitParams(kerr=1.0, dim=1)


class TestPulseSchedule:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="pulse duration must be positive"):
            PulseSchedule(0.0, {"two_photon": lambda t: 0.0})

    def test_unequal_segment_counts_refused(self, lossless):
        sched = PulseSchedule(1.0, {"two_photon": np.ones(4, dtype=complex),
                                    "two_photon_orthogonal": np.ones(3, dtype=complex)})
        with pytest.raises(ValueError, match="same number of segments"):
            cq._pulse_hamiltonian(lossless, sched)


class TestAdiabaticPulse:
    def test_boundary_values(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless, duration_kt=13.0)
        tau = pulse.duration / 1.3
        ep0 = lossless.two_photon_amplitude
        two_photon = pulse.channels["two_photon"]
        assert two_photon(0.0) == 0.0
        assert two_photon(100 * tau) == pytest.approx(ep0)
        assert two_photon(tau) == pytest.approx(
            ep0 * (1 - math.exp(-1)))

    def test_duration(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless, duration_kt=7.2)
        assert pulse.duration == pytest.approx(7.2 / lossless.kerr)


class TestDriveUndrive:
    def test_segmented_pulse_drives_like_its_step_function(self, ratio_1e3):
        # evolve integrates array segments one at a time, as the GRAPE
        # re-score runs them through the ramps' scorer; both pulses drive to
        # and undrive from the default ramp's cats
        ramp, _, zero, _ = cq._ramp([ratio_1e3], cq.DRIVE_RAMP_KT)
        n, dt = 16, ramp.duration / 16
        values = np.array([ramp.channels["two_photon"]((k + 1) * dt) for k in range(n)])
        segmented = PulseSchedule(ramp.duration, {"two_photon": values.astype(complex)})
        step = PulseSchedule(ramp.duration,
                             {"two_photon": lambda t: values[min(int(t / dt), n - 1)]})
        vacuum = qc.fock_state(0, ratio_1e3.dim)

        def fidelities(pulse):
            [drive] = cq._run_pulse([ratio_1e3], "drive", pulse, vacuum, zero)
            [undrive] = cq._run_pulse([ratio_1e3], "undrive", cq.time_reversed(pulse), zero,
                                      vacuum)
            return drive.fidelity, undrive.fidelity

        assert fidelities(segmented) == pytest.approx(fidelities(step), abs=1e-6)

    def test_slow_pulse_lossless_fidelity(self, lossless):
        [result] = cq.drive([lossless], 40.0)
        assert result.fidelity >= 0.999
        assert result.duration_s == pytest.approx(40.0 / lossless.kerr)

    def test_default_lossless_fidelity(self, lossless):
        assert cq.drive([lossless])[0].fidelity >= 0.999

    def test_anchor_fidelity_at_1e3(self, ratio_1e3):
        [result] = cq.drive([ratio_1e3])
        assert result.fidelity == pytest.approx(0.9962, abs=0.002)

    def test_parity_conservation_odd_input(self, lossless):
        [result] = cq.drive([lossless], state=qc.fock_state(1, lossless.dim))
        assert qc.parity_expectation(result.state) < -0.99
        assert result.fidelity >= 0.999

    def test_undrive_reverses_drive(self, lossless_round_trip):
        d, _, u = lossless_round_trip
        assert u.fidelity >= d.fidelity**2 - 1e-3

    def test_lossless_round_trip_matches_the_state_vector_solve(self, lossless_round_trip):
        # a lossless ramp keeps rho rank one, and its fidelities are those of
        # a Schrodinger solve on the state vector (the values below)
        d, lam, u = lossless_round_trip
        assert d.state.shape == (20, 20)
        assert abs(lam[-2]) < 1e-10 and lam[-1] == pytest.approx(1.0, abs=1e-10)
        assert d.fidelity == pytest.approx(0.9997201914421346, abs=1e-12)
        assert u.fidelity == pytest.approx(0.999048853427219, abs=1e-12)

    def test_undrive_odd_cat_gives_single_photon(self, lossless):
        _, alpha_eff, _, _ = cq._ramp([lossless], cq.DRIVE_RAMP_KT)
        [result] = cq.undrive([lossless], state=qc.cat_state(alpha_eff, "odd", lossless.dim))
        assert int(np.argmax(np.abs(result.target))) == 1
        assert result.fidelity >= 0.999

    def test_drive_rejects_leaked_input(self, lossless):
        with pytest.raises(ValueError):
            cq.drive([lossless], state=qc.fock_state(3, lossless.dim))

    @pytest.mark.parametrize("operation", [cq.drive, cq.undrive])
    def test_input_must_be_a_normalized_vector(self, lossless, operation):
        vacuum = qc.fock_state(0, lossless.dim)
        with pytest.raises(ValueError, match="pure state vector"):
            operation([lossless], state=qc.to_density_matrix(vacuum))
        with pytest.raises(ValueError, match="norm"):
            operation([lossless], state=1.01 * vacuum)

    def test_parity_conserved_during_drive(self, lossless):
        # the two-photon Hamiltonian commutes with parity
        [result] = cq.drive([lossless])
        assert abs(qc.parity_expectation(result.state) - 1.0) < 1e-6


class TestBatchedRamps:
    @staticmethod
    def default_rows():
        return [params for _, params, _, _ in cli._row_params(load_config())]

    @pytest.mark.parametrize("operation", [cq.drive, cq.undrive])
    def test_batch_matches_one_row_calls(self, operation):
        rows = self.default_rows()
        batch = operation(rows)
        assert len(batch) == len(rows) == 3
        assert len({r.rhs_evals for r in batch}) == 1  # one shared solve
        for params, result in zip(rows, batch):
            [alone] = operation([params])
            assert result.duration_s == alone.duration_s == cq.DRIVE_RAMP_KT / params.kerr
            assert abs(result.fidelity - alone.fidelity) <= 1e-12
            # the columns share the step sizes, so the states agree to the
            # integrator's own accuracy rather than to rounding
            assert np.max(np.abs(result.state - alone.state)) <= 1e-10
            assert np.array_equal(result.target, alone.target)

    @pytest.mark.parametrize("other", [{"alpha": 1.5}, {"dim": 16}])
    def test_rows_must_share_alpha_and_dim(self, ratio_1e3, other):
        with pytest.raises(ValueError, match="share alpha and dim"):
            cq.drive([ratio_1e3, replace(ratio_1e3, **other)])

    @pytest.mark.parametrize("operation", [cq.drive, cq.undrive])
    def test_no_rows_refused(self, operation):
        with pytest.raises(ValueError, match="one or more rows"):
            operation([])

    def test_overflow_names_its_row(self):
        # at dim 8 the ramp overflows the truncation, and more so with less loss
        rows = [cq.CatQubitParams(kerr=1.8e5, kappa=180.0, dim=8),
                cq.CatQubitParams(kerr=2.46e6, kappa=24.6, dim=8)]
        with pytest.raises(cq.TruncationOverflowError,
                           match=r"^K/kappa = 1000 row, drive: population .* at dim = 8"):
            cq.drive(rows)


class TestTimeReversal:
    @pytest.mark.parametrize("name", sorted(cq._CHANNEL_OPS))
    def test_channel_sign_is_the_conjugation_sign(self, name):
        build, sign = cq._CHANNEL_OPS[name]
        op = build(12)
        assert np.any(op)
        assert np.array_equal(op.conj(), sign * op)

    def test_array_channels_reverse_and_imaginary_ones_negate(self):
        sched = PulseSchedule(1.0, {"two_photon": np.array([1.0, 2.0, 5.0]),
                                    "two_photon_orthogonal": np.array([0.5, -3.0, 4.0])})
        rev = cq.time_reversed(sched)
        assert rev.duration == 1.0
        assert np.array_equal(rev.channels["two_photon"], [5.0, 2.0, 1.0])
        assert np.array_equal(rev.channels["two_photon_orthogonal"], [-4.0, 3.0, -0.5])
        assert np.array_equal(sched.channels["two_photon"], [1.0, 2.0, 5.0])

    def test_closed_form_channel_runs_backwards(self):
        sched = PulseSchedule(2.0, {"two_photon": lambda t: 3.0 * t,
                                    "two_photon_orthogonal": lambda t: t * t})
        rev = cq.time_reversed(sched)
        assert rev.channels["two_photon"](0.5) == 3.0 * 1.5
        assert rev.channels["two_photon_orthogonal"](0.5) == -(1.5 * 1.5)

    def test_reversing_twice_gives_the_schedule_back(self, lossless):
        rng = np.random.default_rng(4)
        values = {name: rng.standard_normal(16) + 1j * rng.standard_normal(16)
                  for name in cq._CHANNEL_OPS}
        sched = PulseSchedule(0.5, values)
        twice = cq.time_reversed(cq.time_reversed(sched))
        assert twice.duration == sched.duration
        for name, channel in sched.channels.items():
            assert np.array_equal(twice.channels[name], channel)
        ramp = cq.adiabatic_drive_pulse(lossless)
        twice = cq.time_reversed(cq.time_reversed(ramp))
        for t in np.linspace(0.0, ramp.duration, 7):
            assert twice.channels["two_photon"](t) == \
                pytest.approx(ramp.channels["two_photon"](t), rel=1e-12, abs=1e-15)


class TestStationaryCats:
    KERR = 2.46e6  # the 1e4/1e5 rows, where a full-space eigh mixed the parities

    @pytest.mark.parametrize("dim", [16, 20, 30])
    @pytest.mark.parametrize("ramp_end", [False, True])
    def test_eigenstates_of_the_truncated_hamiltonian(self, dim, ramp_end):
        params = cq.CatQubitParams(kerr=self.KERR, dim=dim)
        alpha = cq._ramp([params], cq.DRIVE_RAMP_KT)[1] if ramp_end else ALPHA
        h = cq._kerr_op(dim, self.KERR) + self.KERR * alpha**2 * cq._two_photon_op(dim)
        # the analytic cat's own truncation error bounds the overlap: 1.3e-11
        # below 1 for the even cat at dim 16
        overlap_tol = 1e-10 if dim == 16 else 1e-12
        for parity, psi in zip(("even", "odd"), cq._stationary_cats(params, alpha)):
            energy = np.vdot(psi, h @ psi).real
            assert np.linalg.norm(h @ psi - energy * psi) < 1e-9 * self.KERR
            assert not np.any(psi[1::2] if parity == "even" else psi[0::2])
            overlap = np.vdot(qc.cat_state(alpha, parity, dim), psi)
            assert abs(overlap.imag) <= 1e-15
            assert 1.0 - overlap_tol <= overlap.real <= 1.0 + 1e-15

    def test_undrive_default_matches_analytic_input(self):
        params = cq.CatQubitParams(kerr=1.8e5, kappa=180.0)  # the 1e3 row
        _, alpha, _, _ = cq._ramp([params], cq.DRIVE_RAMP_KT)
        [default] = cq.undrive([params])
        [analytic] = cq.undrive([params], state=qc.cat_state(alpha, "even", params.dim))
        assert default.fidelity == pytest.approx(analytic.fidelity, abs=1e-10)
        # the stationary input spares the integrator the truncation residual
        assert default.rhs_evals < analytic.rhs_evals


class TestGateX:
    def test_quarter_rotation_duration(self, ratio_1e3):
        e_x = ratio_1e3.two_photon_amplitude / 10
        res = cq.gate_x(ratio_1e3, math.pi / 2, e_x)
        assert res.duration_s * ratio_1e3.kerr == pytest.approx(1.3884, abs=1e-4)

    def test_zero_angle_is_identity(self, lossless):
        res = cq.gate_x(lossless, 0.0, lossless.two_photon_amplitude / 10)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_two_quarters_compose_to_half(self, lossless):
        e_x = lossless.two_photon_amplitude / 10
        quarter = cq.gate_x(lossless, math.pi / 2, e_x)
        # apply the quarter rotation twice to |0bar> and compare with X_pi
        state = quarter.final_states["zero"]
        stages = [(cq._stabilized_h(lossless) + e_x * cq._single_photon_op(lossless.dim),
                   quarter.duration_s)]
        twice = PiecewiseConstantPropagator(stages).forward(state)[-1]
        full = cq.gate_x(lossless, math.pi, e_x).final_states["zero"]
        assert abs(np.vdot(full, twice)) ** 2 >= 0.99

    def test_lossy_fidelity_matches_liouvillian(self, ratio_1e3):
        # one-jump expansion against the exact dense-superoperator route
        dim = ratio_1e3.dim
        e_x = ratio_1e3.two_photon_amplitude / 10
        res = cq.gate_x(ratio_1e3, math.pi / 2, e_x)
        h = cq._stabilized_h(ratio_1e3) + e_x * cq._single_photon_op(dim)
        zero, one = cq.logical_states(ratio_1e3)
        psi0 = zero
        target = (zero - 1j * one) / math.sqrt(2)
        rhos = evolve_constant(h, [(qc.annihilation(dim), ratio_1e3.kappa)],
                               np.outer(psi0, psi0.conj()), [0.0, res.duration_s])
        exact = float(np.real(np.vdot(target, rhos[-1] @ target)))
        assert res.state_fidelities["zero"] == pytest.approx(exact, abs=5e-5)


class TestPiecewiseConstantPropagator:
    @staticmethod
    def _sequence(params):
        """X(+pi/2) Z(-pi/2) X(-pi/2) X(+pi/2); the first X array is reused."""
        dim = params.dim
        e_x = params.two_photon_amplitude / 10
        drive = e_x * cq._single_photon_op(dim)
        h_xp = cq._stabilized_h(params) + drive
        h_xm = cq._stabilized_h(params) - drive
        n_op = qc.number_operator(dim)
        t_x = cq._x_rotation_duration(params, math.pi / 2, e_x)
        t_z = cq._z_rotation_duration(params, -math.pi / 2)
        return [(h_xp, t_x), (-params.kerr * (n_op @ n_op), t_z), (h_xm, t_x), (h_xp, t_x)]

    def test_multistage_one_jump_matches_liouvillian(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim)
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        for c0, c1 in ((1, 0), (0, 1), (1, 1j)):
            psi0 = (c0 * zero + c1 * one) / np.linalg.norm([c0, c1])
            target = prop.forward(psi0)[-1]
            target /= np.linalg.norm(target)
            rho = np.outer(psi0, psi0.conj())
            for h, t in stages:
                rho = evolve_constant(h, [(a, ratio_1e3.kappa)], rho, [0.0, t])[-1]
            exact = float(np.real(np.vdot(target, rho @ target)))
            # the one-jump expansion drops two-jump terms, so it may only
            # undershoot, by about (kappa t)^2 / 2
            assert -1e-6 <= exact - prop.lossy_fidelity(psi0, target)[0] <= 2e-4

    def test_reused_array_matches_copy(self, ratio_1e3):
        shared = self._sequence(ratio_1e3)
        h_z, t_z = shared[1]
        shared[2] = (h_z, 0.5 * t_z)            # one array at two durations
        copied = [(h.copy(), t) for h, t in shared]
        a = qc.annihilation(ratio_1e3.dim)
        one_prop = PiecewiseConstantPropagator(shared, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        two_prop = PiecewiseConstantPropagator(copied, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        for lossy in (False, True):
            factors = one_prop.factors(lossy)
            assert factors[0] is factors[3] and factors[1] is factors[2]
        psi0, target = cq.logical_states(ratio_1e3)
        for x, y in zip(one_prop.forward(psi0), two_prop.forward(psi0)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert one_prop.lossy_fidelity(psi0, target)[0] == pytest.approx(
            two_prop.lossy_fidelity(psi0, target)[0], abs=1e-12)

    def test_stacked_cases_match_single_calls(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim)
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        psi0 = np.stack([zero, one, (zero + 1j * one) / math.sqrt(2)],
                        axis=1)
        targets = prop.forward(psi0)[-1]
        stacked = prop.lossy_fidelity(psi0, targets)[0]
        assert stacked.shape == (3,)
        for i in range(3):
            single = prop.lossy_fidelity(psi0[:, i], targets[:, i])[0]
            assert isinstance(single, float)
            assert abs(stacked[i] - single) <= 1e-14

    def test_clipped_excess_is_recorded(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim)
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, _ = cq.logical_states(ratio_1e3)
        target = prop.forward(zero)[-1]
        fid, _, clip_excess = prop.lossy_fidelity(zero, target)
        assert fid < 1.0 and clip_excess == 0.0
        # an over-long target lifts the expansion about 3e-2 above 1
        fid_long, _, clip_excess = prop.lossy_fidelity(zero, 1.02 * target)
        assert fid_long == 1.0
        assert clip_excess == pytest.approx(1.02**2 * fid - 1.0, rel=1e-9)
        # without jumps the lossless overlap is clipped and reported alike
        lossless = PiecewiseConstantPropagator(stages)
        assert lossless.lossy_fidelity(zero, 1.02 * lossless.forward(zero)[-1]) == \
            pytest.approx((1.0, 0.0, 1.02**2 - 1.0), rel=1e-9)

    def test_oversized_quadrature_refused_before_any_node(self, monkeypatch):
        # one stage at K t = 1e9 asks for 8e9 nodes, which ``leggauss`` would
        # form as a dense n x n matrix; the refusal builds no rule at all
        monkeypatch.setattr(dynamics, "_gauss_legendre", lambda n: pytest.fail(f"{n} nodes"))
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        prop = PiecewiseConstantPropagator([(sigma_x, 1e9)], [(np.diag([0.0, 1.0]), 1e-3)], 1.0)
        with pytest.raises(IntegrationError, match=r"stage 0 at K t = 1\.000000e\+09 needs "
                                                   r"8000000000 nodes, more than 8192") as err:
            prop.lossy_fidelity(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert err.value.t == 0.0

    def test_unconverged_quadrature_names_the_stage(self, ratio_1e3, monkeypatch):
        monkeypatch.setattr(PiecewiseConstantPropagator, "NODES_PER_KT", 0)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MIN_NODES", 1)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MAX_DOUBLINGS", 0)
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim)
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        with pytest.raises(IntegrationError, match=r"stage 0 .*\|I_1 - I_2\| = "):
            prop.lossy_fidelity(zero, prop.forward(zero)[-1])


def _array(m):
    """A stage or jump as the full array it stands for."""
    return m.toarray() if isinstance(m, KroneckerSum) else m


class TestParityBlocks:
    DIM = 8

    @pytest.fixture(scope="class")
    def cnot_problem(self, ratio_1e3):
        e = ratio_1e3.two_photon_amplitude
        stages = cq._cnot_stages(ratio_1e3, e / 10, e / 15, self.DIM)
        jumps = cq._two_cavity_loss(ratio_1e3, self.DIM)
        basis = cq._two_qubit_logical_basis(ratio_1e3, self.DIM)
        return stages, jumps, basis

    @staticmethod
    def _dense_problem(stages, jumps):
        # the same stages and jumps as full arrays, a repeated stage kept as
        # one array so that it is factored once here too
        arrays = {id(h): _array(h) for h, _ in stages}
        return [(arrays[id(h)], t) for h, t in stages], [(_array(op), r) for op, r in jumps]

    def test_stage_block_counts(self, cnot_problem):
        # X and G conserve the parity of the undriven cavity or the total
        # parity; Z conserves cavity 1's photon number and cavity 2's parity
        stages, _, _ = cnot_problem
        blocks = [coupled_blocks(_array(h)) for h, _ in stages]
        assert [len(b) for b in blocks] == [2, 2 * self.DIM, 2, 2, 2 * self.DIM, 2, 2]
        for b in blocks:
            assert np.array_equal(np.sort(np.concatenate(b)), np.arange(self.DIM**2))

    def test_matches_single_block_factorization(self, cnot_problem, ratio_1e3, monkeypatch):
        stages, jumps, basis = cnot_problem
        stages, jumps = self._dense_problem(stages, jumps)
        blocked = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        psi_blocked = blocked.forward(basis)
        fid_blocked = blocked.lossy_fidelity(basis, psi_blocked[-1])[0]
        # the dense reference: every matrix is one block, factored afresh
        monkeypatch.setattr(dynamics, "coupled_blocks", lambda m: [np.arange(m.shape[0])])
        monkeypatch.setattr(dynamics, "_COUPLED_MEMO", {})
        dense = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        for x, y in zip(psi_blocked, dense.forward(basis)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.max(np.abs(fid_blocked - dense.lossy_fidelity(basis, psi_blocked[-1])[0])) \
            <= 1e-12

    def test_stages_match_two_cavity_operators(self, cnot_problem, ratio_1e3):
        # only G moves both cavities; every stage, and each jump, equals the
        # Hamiltonian written with two-cavity operators a1 = a x 1, a2 = 1 x a
        stages, jumps, _ = cnot_problem
        d, kerr = self.DIM, ratio_1e3.kerr
        e = ratio_1e3.two_photon_amplitude
        a = qc.annihilation(d)
        a1, a2 = np.kron(a, np.eye(d)), np.kron(np.eye(d), a)

        def stabilized(b):
            bd = b.conj().T
            return -kerr * (bd @ bd @ b @ b) + e * (bd @ bd + b @ b)

        h0 = stabilized(a1) + stabilized(a2)
        x1, x2 = a1 + a1.conj().T, a2 + a2.conj().T
        n1 = a1.conj().T @ a1
        h_z1 = -kerr * (n1 @ n1) + stabilized(a2)
        h_g = h0 + e / 15 * (a1.conj().T @ a2 + a1 @ a2.conj().T)
        expected = [h0 + e / 10 * x1, h_z1, h0 - e / 10 * x1, h_g, h_z1, h0 - e / 10 * x1,
                    h0 + e / 10 * x2]
        assert [isinstance(h, KroneckerSum) for h, _ in stages] == \
            [True, True, True, False, True, True, True]
        for (h, _), ref in zip(stages, expected):
            assert np.max(np.abs(_array(h) - ref)) <= 1e-12
        for (op, rate), ref in zip(jumps, (a1, a2)):
            assert np.array_equal(_array(op), ref) and rate == ratio_1e3.kappa

    def test_g_stage_is_the_g_gate_array(self, cnot_problem, ratio_1e3):
        # one builder makes the G gate's stage and the CNOT's, so the
        # coupled-stage memo finds the second bit for bit
        stages, _, _ = cnot_problem
        e = ratio_1e3.two_photon_amplitude
        assert stages[3][0].tobytes() == \
            cq._coupling_stage(ratio_1e3, e / 15, self.DIM).tobytes()

    def test_cnot_takes_the_per_cavity_route(self, ratio_1e3, monkeypatch):
        routes = []

        def recording(name):
            original = getattr(dynamics, name)

            def record(m, hermitian):
                routes.append((name, m.shape[0]))
                return original(m, hermitian)
            return record

        for name in ("_blockwise_eig", "_coupled_eig"):
            monkeypatch.setattr(dynamics, name, recording(name))
        e = ratio_1e3.two_photon_amplitude
        cq.cnot(ratio_1e3, e / 10, e / 15, dim_per_cavity=self.DIM)
        # five distinct stages, each factored as H and as H_eff: the four
        # uncoupled ones per cavity, two one-cavity parts each, and G whole
        # (a memo miss factors it through _blockwise_eig at the full size)
        per_stage = [r for r in routes if r != ("_blockwise_eig", self.DIM**2)]
        assert sorted(per_stage) == [("_blockwise_eig", self.DIM)] * 16 + \
            [("_coupled_eig", self.DIM**2)] * 2

    def test_kronecker_route_matches_blockwise(self, cnot_problem, ratio_1e3):
        stages, jumps, basis = cnot_problem
        split = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        psi_split = split.forward(basis)
        fid_split = split.lossy_fidelity(basis, psi_split[-1])[0]
        # the reference factors every stage over its parity blocks
        dense_stages, dense_jumps = self._dense_problem(stages, jumps)
        blocked = PiecewiseConstantPropagator(dense_stages, dense_jumps, ratio_1e3.kerr)
        for x, y in zip(psi_split, blocked.forward(basis)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.max(np.abs(fid_split - blocked.lossy_fidelity(basis, psi_split[-1])[0])) \
            <= 1e-12
        # every stage's lossless and no-jump propagators and eigenbasis jumps
        # agree, each applied to the identity through its own operators
        eye = np.eye(self.DIM**2)
        for (h, t), (lam_s, v_s, _, _), (lam_b, v_b, _, _), eff_s, eff_b in zip(
                stages, split.factors(lossy=False), blocked.factors(lossy=False),
                split.factors(lossy=True), blocked.factors(lossy=True)):
            u_s = v_s @ (np.exp(-1j * lam_s * t)[:, None] * (v_s.H @ eye))
            u_b = v_b @ (np.exp(-1j * lam_b * t)[:, None] * (v_b.H @ eye))
            assert np.max(np.abs(u_s - u_b)) <= 1e-12
            (lam_s, v_s, w_s, jumps_s), (lam_b, v_b, w_b, jumps_b) = eff_s, eff_b
            u_s = v_s @ (np.exp(-1j * lam_s * t)[:, None] * (w_s @ eye))
            u_b = v_b @ (np.exp(-1j * lam_b * t)[:, None] * (w_b @ eye))
            assert np.max(np.abs(u_s - u_b)) <= 1e-12
            # V L V^-1 rebuilds each jump in the Fock basis
            for j_s, j_b, (op, _) in zip(jumps_s, jumps_b, dense_jumps):
                assert np.max(np.abs(v_s @ (j_s @ (w_s @ eye)) - op)) <= 1e-12
                assert np.max(np.abs(v_b @ (j_b @ (w_b @ eye)) - op)) <= 1e-12

    def test_one_sided_loss_damps_its_own_cavity(self, cnot_problem, ratio_1e3):
        # both cavities share kappa and a, so a route that damps the wrong
        # cavity is invisible with both jumps on; with loss on the control
        # only, then on the target only, the per-cavity route must match the
        # block route, and the two runs must score |01> and |10> apart
        stages, jumps, basis = cnot_problem
        dense_stages, dense_jumps = self._dense_problem(stages, jumps)
        target = PiecewiseConstantPropagator(stages).forward(basis)[-1]
        fids = []
        for k in (0, 1):
            split = PiecewiseConstantPropagator(stages, [jumps[k]], ratio_1e3.kerr)
            blocked = PiecewiseConstantPropagator(dense_stages, [dense_jumps[k]],
                                                  ratio_1e3.kerr)
            fid = split.lossy_fidelity(basis, target)[0]
            assert np.max(np.abs(fid - blocked.lossy_fidelity(basis, target)[0])) <= 1e-12
            fids.append(fid)
        assert np.all(np.abs(fids[0][1:3] - fids[1][1:3]) > 1e-3)

    def test_default_cnot_keeps_no_full_size_array(self, ratio_1e3):
        # at 16 levels per cavity, an uncoupled stage keeps only 16 x 16
        # per-cavity factors and jumps, and the coupling stage only its two
        # 128-row parity blocks, with each jump on two of the four block pairs
        d = cq.TWO_QUBIT_DIM
        e = ratio_1e3.two_photon_amplitude
        stages = cq._cnot_stages(ratio_1e3, e / 10, e / 15, d)
        jumps = cq._two_cavity_loss(ratio_1e3, d)
        prop = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        for (h, _), (_, v, w, _), (_, v_eff, w_eff, jumps) in zip(
                stages, prop.factors(lossy=False), prop.factors(lossy=True)):
            ops = [v, w, v_eff, w_eff, *jumps]
            if isinstance(h, KroneckerSum):
                assert all(isinstance(op, dynamics._KroneckerProduct) for op in ops)
                assert all(m is None or m.shape == (d, d) for op in ops for m in op.parts)
            else:
                assert all(m.shape == (d * d // 2, d * d // 2)
                           for op in ops for _, _, m in op.blocks)
                assert [len(jump.blocks) for jump in jumps] == [2, 2]


class TestCoupledStageMemo:
    def test_row_factors_the_coupling_stage_once(self, monkeypatch):
        # gate_g and the CNOT's G stage share H_g and H_g,eff; each is a pair
        # of 128-row parity blocks at the default 16 levels per cavity
        sizes = []
        original = dynamics._blockwise_eig

        def recording(m, hermitian):
            sizes.append(max(map(len, coupled_blocks(m))))
            return original(m, hermitian)

        monkeypatch.setattr(dynamics, "_COUPLED_MEMO", {})
        monkeypatch.setattr(dynamics, "_blockwise_eig", recording)
        cq.gate_report([(cq.CatQubitParams(kerr=1.8e5, kappa=180.0), 10.0, 15.0)])
        assert sizes.count(128) == 2

    def test_memo_leaves_results_bitwise_equal(self, ratio_1e3, monkeypatch):
        e = ratio_1e3.two_photon_amplitude

        def run():
            return [cq.gate_g(ratio_1e3, math.pi / 2, e / 15, dim_per_cavity=10),
                    cq.cnot(ratio_1e3, e / 10, e / 15, dim_per_cavity=10)]

        monkeypatch.setattr(dynamics, "_COUPLED_MEMO", {})
        memo = run()
        monkeypatch.setattr(dynamics, "_COUPLED_MEMO_SIZE", 0)
        plain = run()
        assert not dynamics._COUPLED_MEMO
        for x, y in zip(memo, plain):
            assert x.fidelity == y.fidelity and x.state_fidelities == y.state_fidelities
            for name in x.final_states:
                assert np.array_equal(x.final_states[name], y.final_states[name])


class TestGateZ:
    def test_quarter_duration(self, ratio_1e3):
        res = cq.gate_z(ratio_1e3, math.pi / 2)
        assert res.duration_s == pytest.approx(math.pi / (2 * ratio_1e3.kerr))

    def test_zero_angle_is_identity(self, lossless):
        res = cq.gate_z(lossless, 0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_lossless_quarter_rotation(self, lossless):
        res = cq.gate_z(lossless, math.pi / 2)
        assert res.fidelity >= 0.999

    def test_negative_angle_wraps_forward(self, lossless):
        res = cq.gate_z(lossless, -math.pi / 2)
        assert res.duration_s == pytest.approx(3 * math.pi / (2 * lossless.kerr))
        assert res.fidelity >= 0.999


class TestGateG:
    def test_quarter_duration(self, ratio_1e3):
        e_c = ratio_1e3.two_photon_amplitude / 15
        res = cq.gate_g(ratio_1e3, math.pi / 2, e_c, dim_per_cavity=12)
        assert res.duration_s * ratio_1e3.kerr == pytest.approx(1.4726, abs=1e-4)

    def test_zero_angle_is_identity(self, lossless):
        res = cq.gate_g(lossless, 0.0, lossless.two_photon_amplitude / 15,
                        dim_per_cavity=12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_lossless_entangling_fidelity(self, lossless):
        res = cq.gate_g(lossless, math.pi / 2, lossless.two_photon_amplitude / 15)
        assert res.fidelity >= 0.99


class TestCnot:
    def test_basis_action_lossless(self, lossless):
        e = lossless.two_photon_amplitude
        res = cq.cnot(lossless, e / 10, e / 15)
        assert res.fidelity >= 0.98
        assert res.state_fidelities["00"] >= 0.98
        assert res.state_fidelities["10"] >= 0.98

    def test_duration_is_stage_sum(self, ratio_1e3):
        e = ratio_1e3.two_photon_amplitude
        res = cq.cnot(ratio_1e3, e / 10, e / 15, dim_per_cavity=12)
        t_x = math.pi / (8 * ALPHA * (e / 10))
        t_g = math.pi / (8 * ALPHA**2 * (e / 15))
        t_z = math.pi / (2 * ratio_1e3.kerr) + 3 * math.pi / (2 * ratio_1e3.kerr)
        assert res.duration_s == pytest.approx(4 * t_x + t_z + t_g, rel=1e-12)

    def test_default_rows_converged_in_truncation(self):
        # README's 16 levels per cavity: 18 levels move the three default
        # rows' CNOT fidelity by -2.0e-9 / +4.4e-9 / +4.9e-9
        for _, params, drive_ratio, coupling_ratio in cli._row_params(load_config()):
            e = params.two_photon_amplitude
            f16 = cq.cnot(params, e / drive_ratio, e / coupling_ratio).fidelity
            f18 = cq.cnot(params, e / drive_ratio, e / coupling_ratio,
                          dim_per_cavity=18).fidelity
            assert abs(f18 - f16) <= 1e-8

    @pytest.mark.parametrize("ratio, drive_ratio, coupling_ratio, low, high",
                             [(1e3, 10.0, 15.0, 0.0, 1e-3),
                              (1e5, 45.0, 55.0, -1e-6, 1e-6)])
    def test_one_jump_against_exact_lindblad(self, ratio, drive_ratio, coupling_ratio,
                                             low, high):
        # stage by stage expm_multiply of the sparse two-cavity Liouvillian;
        # the one-jump expansion drops the nonnegative two-jump terms
        dim = 8
        p = cq.CatQubitParams(kerr=1.0, kappa=1.0 / ratio)
        e = p.two_photon_amplitude
        res = cq.cnot(p, e / drive_ratio, e / coupling_ratio, dim_per_cavity=dim)
        jumps = [(_array(op), rate) for op, rate in cq._two_cavity_loss(p, dim)]
        basis = cq._two_qubit_logical_basis(p, dim)
        names = ("00", "10")
        psi0 = basis[:, [0, 2]]
        targets = basis @ cq._CNOT_IDEAL[:, [0, 2]]
        targets /= np.linalg.norm(targets, axis=0)
        rhos = np.stack([np.outer(psi0[:, i], psi0[:, i].conj()).reshape(-1, order="F")
                         for i in range(2)], axis=1)
        for h, t in cq._cnot_stages(p, e / drive_ratio, e / coupling_ratio, dim):
            lv = liouvillian(_array(h), jumps)
            rhos = expm_multiply(lv * t, rhos)
        for i, name in enumerate(names):
            rho = rhos[:, i].reshape(dim**2, dim**2, order="F")
            exact = float(np.real(np.vdot(targets[:, i], rho @ targets[:, i])))
            assert low <= exact - res.state_fidelities[name] <= high

    def test_fidelity_improves_with_loss_ratio(self):
        fids = []
        for ratio in (1e3, 1e4, 1e5):
            p = cq.CatQubitParams(kerr=1.0, kappa=1.0 / ratio)
            e = p.two_photon_amplitude
            fids.append(cq.cnot(p, e / 10, e / 15, dim_per_cavity=12).fidelity)
        assert fids[0] < fids[1] < fids[2]


class TestGateReport:
    def test_row_inventory(self, gate_rows_1e3):
        assert list(gate_rows_1e3) == ["drive", "undrive", "X_0.5pi", "Z_0.5pi",
                                       "G_0.5pi", "CNOT"]
        assert [type(r) for r in gate_rows_1e3.values()] == [cq.DriveResult] * 2 + \
            [cq.GateResult] * 4
        for name, r in gate_rows_1e3.items():
            if isinstance(r, cq.GateResult):
                assert r.operation == name

    def test_fidelities_in_range(self, gate_rows_1e3):
        for r in gate_rows_1e3.values():
            assert 0.9 < r.fidelity <= 1.0

    def test_monotone_in_loss_ratio(self, gate_rows_1e3, budgets_1e4_1e5):
        # every operation improves from K/kappa = 1e3 to 1e4 (fuller sweep is
        # covered by the acceptance suite)
        mid = budgets_1e4_1e5[1e4].fidelities
        assert mid["x_half"] > gate_rows_1e3["X_0.5pi"].fidelity
        assert mid["cnot"] > gate_rows_1e3["CNOT"].fidelity

    @settings(max_examples=5, deadline=None)
    @given(st.floats(1e-2, 1e3))
    def test_common_rescale_of_kerr_and_kappa_changes_nothing(self, factor):
        # the gates see K and kappa only as kappa / K and K t, which the GRAPE
        # problems at K = 1 and scenarios.operation_durations rely on
        rows = [cq.gate_report([(cq.CatQubitParams(kerr=s, kappa=1e-3 * s), 10.0, 15.0)],
                               dim_per_cavity=10)[0] for s in (1.0, factor)]
        for ref, row in zip(rows[0].values(), rows[1].values()):
            assert row.fidelity == pytest.approx(ref.fidelity, abs=1e-12)
            assert row.duration_s * factor == pytest.approx(ref.duration_s, rel=1e-14)

    def test_clip_excess_reported(self, gate_rows_1e3):
        for name in ("X_0.5pi", "Z_0.5pi", "G_0.5pi", "CNOT"):
            assert gate_rows_1e3[name].clip_excess >= 0.0

    def test_oversized_quadrature_names_row_and_gate(self):
        # stage 0 exists in every gate, so the refusal names the gate too
        small = cq.CatQubitParams(kerr=1.0, kappa=1e-3, alpha=1e-3)
        with pytest.raises(IntegrationError, match=r"^K/kappa = 1000 row, X_0\.5pi, one-jump "
                                                   r"quadrature of stage 0 at K t = "
                                                   r"3\.926991e\+09 needs ") as err:
            cq.gate_report([(small, 10.0, 15.0)], dim_per_cavity=10)
        assert err.value.t == 0.0

    def test_unconverged_quadrature_names_the_gate(self, ratio_1e3, monkeypatch):
        monkeypatch.setattr(PiecewiseConstantPropagator, "NODES_PER_KT", 0)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MIN_NODES", 1)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MAX_DOUBLINGS", 0)
        e = ratio_1e3.two_photon_amplitude
        pattern = r"^K/kappa = 1000 row, CNOT, one-jump quadrature of stage 0 not converged: "
        with pytest.raises(IntegrationError, match=pattern) as err:
            cq.cnot(ratio_1e3, e / 10, e / 15, 10)
        assert err.value.t == 0.0

    def test_gates_trace_and_purity_preserving_lossless(self, lossless):
        e = lossless.two_photon_amplitude
        res = cq.gate_x(lossless, math.pi / 2, e / 10)
        for state in res.final_states.values():
            assert abs(np.linalg.norm(state) - 1.0) < 1e-8
            rho = qc.to_density_matrix(state)
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-8


class TestLinkProtocol:
    def test_lossless_bell_state_and_probability(self):
        res = cq.simulate_link_protocol(0.0)
        assert res.success_probability == pytest.approx(0.5, abs=1e-9)
        bell_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        bell_minus = np.array([0, 1, -1, 0]) / math.sqrt(2)
        same = res.branches[(1, 1)][1]
        diff = res.branches[(1, 2)][1]
        assert qc.state_fidelity(same, bell_plus) == pytest.approx(1.0, abs=1e-9)
        assert qc.state_fidelity(diff, bell_minus) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 0.9])
    def test_heralded_fidelity_immune_to_loss(self, loss):
        res = cq.simulate_link_protocol(loss, detector_efficiency=0.9)
        eta = (1 - loss) * 0.9
        assert res.success_probability == pytest.approx(0.5 * eta**2, abs=1e-9)
        bell_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        fid = qc.state_fidelity(res.branches[(1, 1)][1], bell_plus)
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_single_step_threshold_contaminated(self):
        res = cq.simulate_link_protocol(0.5, detectors="threshold", two_step=False)
        state = res.branches[(1,)][1]
        both_ones = float(np.real(state[3, 3]))
        assert both_ones > 0.1  # |11> admixture survives one round
        bell_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert qc.state_fidelity(state, bell_plus) < 1.0 - 1e-3

    def test_single_step_number_resolving_lossless_is_clean(self):
        res = cq.simulate_link_protocol(0.0, two_step=False)
        state = res.branches[(1,)][1]
        bell_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert qc.state_fidelity(state, bell_plus) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("detectors", ["number_resolving", "threshold"])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.5, 0.1, 0.0])
    def test_closed_forms_per_herald_pattern(self, eta, detectors):
        loss = 1.0 - eta
        eta = 1.0 - loss  # the transmittance the protocol sees
        bell = {1: np.array([0, 1, 1, 0]) / math.sqrt(2),
                2: np.array([0, 1, -1, 0]) / math.sqrt(2)}
        both_ones = np.diag([0.0, 0.0, 0.0, 1.0])

        def check(branch, prob, state):
            assert branch[0] == pytest.approx(prob, abs=1e-12)
            if branch[0] > 0:
                assert np.max(np.abs(branch[1] - state)) < 1e-12

        res = cq.simulate_link_protocol(loss, detectors=detectors)
        for d1 in (1, 2):
            for d2 in (1, 2):
                psi = bell[1 if d1 == d2 else 2]
                check(res.branches[(d1, d2)], eta**2 / 8, np.outer(psi, psi))

        if detectors == "number_resolving":
            prob, w = eta * (2 - eta) / 4, (1 - eta) / (2 - eta)
        else:
            prob, w = eta * (4 - eta) / 8, (2 - eta) / (4 - eta)
        res = cq.simulate_link_protocol(loss, detectors=detectors, two_step=False)
        for d in (1, 2):
            state = (1 - w) * np.outer(bell[d], bell[d]) + w * both_ones
            check(res.branches[(d,)], prob, state)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            cq.simulate_link_protocol(1.5)
        with pytest.raises(ValueError):
            cq.simulate_link_protocol(0.0, detectors="parity")
