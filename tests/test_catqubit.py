import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from catlink import catqubit as cq
from catlink import dynamics
from catlink import qcore as qc
from catlink.dynamics import (IntegrationError, PiecewiseConstantPropagator, coupled_blocks,
                              evolve_constant, liouvillian)

ALPHA = math.sqrt(2)


@pytest.fixture(scope="module")
def lossless():
    return cq.CatQubitParams(kerr=1.0, kappa=0.0)


@pytest.fixture(scope="module")
def ratio_1e3():
    return cq.CatQubitParams(kerr=1.0, kappa=1e-3)


class TestAdiabaticPulse:
    def test_boundary_values(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless, duration_kt=13.0)
        tau = pulse.duration / 1.3
        ep0 = lossless.two_photon_amplitude
        assert pulse.amplitude("two_photon", 0.0) == 0.0
        assert pulse.amplitude("two_photon", 100 * tau) == pytest.approx(ep0)
        assert pulse.amplitude("two_photon", tau) == pytest.approx(
            ep0 * (1 - math.exp(-1)))

    def test_duration(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless, duration_kt=7.2)
        assert pulse.duration == pytest.approx(7.2 / lossless.kerr)


class TestDriveUndrive:
    def test_slow_pulse_lossless_fidelity(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless, duration_kt=40.0)
        result = cq.drive(lossless, pulse)
        assert result.fidelity >= 0.999

    def test_default_lossless_fidelity(self, lossless):
        assert cq.drive(lossless).fidelity >= 0.999

    def test_anchor_fidelity_at_1e3(self, ratio_1e3):
        result = cq.drive(ratio_1e3)
        assert result.fidelity == pytest.approx(0.9962, abs=0.002)

    def test_parity_conservation_odd_input(self, lossless):
        result = cq.drive(lossless, state=qc.fock_state(1, lossless.dim))
        assert qc.parity_expectation(result.state) < -0.99
        assert result.fidelity >= 0.999

    def test_undrive_reverses_drive(self, lossless):
        d = cq.drive(lossless)
        u = cq.undrive(lossless, state=d.state)
        assert u.fidelity >= d.fidelity**2 - 1e-3

    def test_undrive_odd_cat_gives_single_photon(self, lossless):
        pulse = cq.adiabatic_drive_pulse(lossless)
        alpha_eff = cq._schedule_end_alpha(lossless, pulse)
        result = cq.undrive(lossless,
                            state=qc.cat_state(alpha_eff, "odd", lossless.dim))
        assert int(np.argmax(np.abs(result.target.data))) == 1
        assert result.fidelity >= 0.999

    def test_drive_rejects_leaked_input(self, lossless):
        with pytest.raises(ValueError):
            cq.drive(lossless, state=qc.fock_state(3, lossless.dim))

    def test_parity_conserved_during_drive(self, lossless):
        # the two-photon Hamiltonian commutes with parity
        result = cq.drive(lossless)
        assert abs(qc.parity_expectation(result.state) - 1.0) < 1e-6


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
        twice = PiecewiseConstantPropagator(stages).propagate_pure(state.data)
        full = cq.gate_x(lossless, math.pi, e_x).final_states["zero"].data
        assert abs(np.vdot(full, twice)) ** 2 >= 0.99

    def test_lossy_fidelity_matches_liouvillian(self, ratio_1e3):
        # one-jump expansion against the exact dense-superoperator route
        dim = ratio_1e3.dim
        e_x = ratio_1e3.two_photon_amplitude / 10
        res = cq.gate_x(ratio_1e3, math.pi / 2, e_x)
        h = cq._stabilized_h(ratio_1e3) + e_x * cq._single_photon_op(dim)
        zero, one = cq.logical_states(ratio_1e3)
        psi0 = zero.data
        target = (zero.data - 1j * one.data) / math.sqrt(2)
        rhos = evolve_constant(h, [(qc.annihilation(dim).data, ratio_1e3.kappa)],
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
        n_op = qc.number_operator(dim).data
        t_x = cq._x_rotation_duration(params, math.pi / 2, e_x)
        t_z = cq._z_rotation_duration(params, -math.pi / 2)
        return [(h_xp, t_x), (-params.kerr * (n_op @ n_op), t_z), (h_xm, t_x), (h_xp, t_x)]

    def test_multistage_one_jump_matches_liouvillian(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim).data
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        for c0, c1 in ((1, 0), (0, 1), (1, 1j)):
            psi0 = (c0 * zero.data + c1 * one.data) / np.linalg.norm([c0, c1])
            target = prop.propagate_pure(psi0)
            target /= np.linalg.norm(target)
            rho = np.outer(psi0, psi0.conj())
            for h, t in stages:
                rho = evolve_constant(h, [(a, ratio_1e3.kappa)], rho, [0.0, t])[-1]
            exact = float(np.real(np.vdot(target, rho @ target)))
            # the one-jump expansion drops two-jump terms, so it may only
            # undershoot, by about (kappa t)^2 / 2
            assert -1e-6 <= exact - prop.lossy_fidelity(psi0, target) <= 2e-4

    def test_reused_array_matches_copy(self, ratio_1e3):
        shared = self._sequence(ratio_1e3)
        h_z, t_z = shared[1]
        shared[2] = (h_z, 0.5 * t_z)            # one array at two durations
        copied = [(h.copy(), t) for h, t in shared]
        a = qc.annihilation(ratio_1e3.dim).data
        one_prop = PiecewiseConstantPropagator(shared, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        two_prop = PiecewiseConstantPropagator(copied, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        factors = one_prop.hermitian_factors()
        assert factors[0] is factors[3] and factors[1] is factors[2]
        psi0, target = cq.logical_states(ratio_1e3)
        for x, y in zip(one_prop.forward(psi0.data), two_prop.forward(psi0.data)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert one_prop.lossy_fidelity(psi0.data, target.data) == pytest.approx(
            two_prop.lossy_fidelity(psi0.data, target.data), abs=1e-12)

    def test_stacked_cases_match_single_calls(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim).data
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        psi0 = np.stack([zero.data, one.data, (zero.data + 1j * one.data) / math.sqrt(2)],
                        axis=1)
        targets = prop.propagate_pure(psi0)
        stacked = prop.lossy_fidelity(psi0, targets)
        assert stacked.shape == (3,)
        for i in range(3):
            single = prop.lossy_fidelity(psi0[:, i], targets[:, i])
            assert isinstance(single, float)
            assert abs(stacked[i] - single) <= 1e-14

    def test_clipped_excess_is_recorded(self, ratio_1e3):
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim).data
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, _ = cq.logical_states(ratio_1e3)
        target = prop.propagate_pure(zero.data)
        fid = prop.lossy_fidelity(zero.data, target)
        assert fid < 1.0 and prop.clip_excess == 0.0
        # an over-long target lifts the expansion about 3e-2 above 1
        assert prop.lossy_fidelity(zero.data, 1.02 * target) == 1.0
        assert prop.clip_excess == pytest.approx(1.02**2 * fid - 1.0, rel=1e-9)

    def test_unconverged_quadrature_names_the_stage(self, ratio_1e3, monkeypatch):
        monkeypatch.setattr(PiecewiseConstantPropagator, "NODES_PER_KT", 0)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MIN_NODES", 1)
        monkeypatch.setattr(PiecewiseConstantPropagator, "MAX_DOUBLINGS", 0)
        stages = self._sequence(ratio_1e3)
        a = qc.annihilation(ratio_1e3.dim).data
        prop = PiecewiseConstantPropagator(stages, [(a, ratio_1e3.kappa)], ratio_1e3.kerr)
        zero, one = cq.logical_states(ratio_1e3)
        with pytest.raises(IntegrationError, match=r"stage 0 .*\|I_1 - I_2\| = "):
            prop.lossy_fidelity(zero.data, prop.propagate_pure(zero.data))


class TestParityBlocks:
    DIM = 8

    @pytest.fixture(scope="class")
    def cnot_problem(self, ratio_1e3):
        e = ratio_1e3.two_photon_amplitude
        stages = cq._cnot_stages(ratio_1e3, e / 10, e / 15, self.DIM)
        a1, a2, _, _ = cq._two_qubit_ops(ratio_1e3, self.DIM)
        jumps = [(a1, ratio_1e3.kappa), (a2, ratio_1e3.kappa)]
        basis = cq._two_qubit_logical_basis(ratio_1e3, self.DIM)
        return stages, jumps, basis

    def test_stage_block_counts(self, cnot_problem):
        # X and G conserve the parity of the undriven cavity or the total
        # parity; Z conserves cavity 1's photon number and cavity 2's parity
        stages, _, _ = cnot_problem
        blocks = [coupled_blocks(h) for h, _ in stages]
        assert [len(b) for b in blocks] == [2, 2 * self.DIM, 2, 2, 2 * self.DIM, 2, 2]
        for b in blocks:
            assert np.array_equal(np.sort(np.concatenate(b)), np.arange(self.DIM**2))

    def test_matches_single_block_factorization(self, cnot_problem, ratio_1e3, monkeypatch):
        stages, jumps, basis = cnot_problem
        blocked = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        psi_blocked = blocked.forward(basis)
        fid_blocked = blocked.lossy_fidelity(basis, psi_blocked[-1])
        # the dense reference: every matrix is one block
        monkeypatch.setattr(dynamics, "coupled_blocks", lambda m: [np.arange(m.shape[0])])
        dense = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr)
        for x, y in zip(psi_blocked, dense.forward(basis)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.max(np.abs(fid_blocked - dense.lossy_fidelity(basis, psi_blocked[-1]))) \
            <= 1e-12

    def test_uncoupled_stages_split_per_cavity(self, cnot_problem):
        # only G moves both cavities at once; one subsystem never splits
        stages, _, _ = cnot_problem
        d = self.DIM
        split = [dynamics._kronecker_split(h, (d, d)) for h, _ in stages]
        assert [s is not None for s in split] == [True, True, True, False, True, True, True]
        for (h, _), s in zip(stages, split):
            assert dynamics._kronecker_split(h, (d * d,)) is None
            if s is not None:
                rebuilt = np.kron(s[0], np.eye(d)) + np.kron(np.eye(d), s[1])
                assert np.max(np.abs(rebuilt - h)) <= 1e-12
        # a cross-Kerr term moves neither cavity but couples them
        n = qc.number_operator(d).data
        assert dynamics._kronecker_split(stages[0][0] + 1e-3 * np.kron(n, n), (d, d)) is None

    def test_cnot_takes_the_per_cavity_route(self, ratio_1e3, monkeypatch):
        splits = []
        original = dynamics._kronecker_split

        def recording(m, dims):
            split = original(m, dims)
            splits.append(split is not None)
            return split

        monkeypatch.setattr(dynamics, "_kronecker_split", recording)
        e = ratio_1e3.two_photon_amplitude
        cq.cnot(ratio_1e3, e / 10, e / 15, dim_per_cavity=self.DIM)
        # five distinct stage arrays, each factored as H and as H_eff
        assert sorted(splits) == [False] * 2 + [True] * 8

    def test_kronecker_route_matches_blockwise(self, cnot_problem, ratio_1e3, monkeypatch):
        stages, jumps, basis = cnot_problem
        dims = (self.DIM, self.DIM)
        split = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr, dims)
        psi_split = split.forward(basis)
        fid_split = split.lossy_fidelity(basis, psi_split[-1])
        # the reference factors every stage over its parity blocks
        monkeypatch.setattr(dynamics, "_kronecker_split", lambda m, dims: None)
        blocked = PiecewiseConstantPropagator(stages, jumps, ratio_1e3.kerr, dims)
        for x, y in zip(psi_split, blocked.forward(basis)):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.max(np.abs(fid_split - blocked.lossy_fidelity(basis, psi_split[-1]))) \
            <= 1e-12
        # every stage's lossless and no-jump propagators agree
        for (h, t), (lam_s, v_s), (lam_b, v_b), eff_s, eff_b in zip(
                stages, split.hermitian_factors(), blocked.hermitian_factors(),
                split._effective_factors(), blocked._effective_factors()):
            u_s = v_s @ np.diag(np.exp(-1j * lam_s * t)) @ v_s.conj().T
            u_b = v_b @ np.diag(np.exp(-1j * lam_b * t)) @ v_b.conj().T
            assert np.max(np.abs(u_s - u_b)) <= 1e-12
            (lam_s, v_s, w_s, _), (lam_b, v_b, w_b, _) = eff_s, eff_b
            u_s = v_s @ np.diag(np.exp(-1j * lam_s * t)) @ w_s
            u_b = v_b @ np.diag(np.exp(-1j * lam_b * t)) @ w_b
            assert np.max(np.abs(u_s - u_b)) <= 1e-12


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
        a1, a2, _, _ = cq._two_qubit_ops(p, dim)
        basis = cq._two_qubit_logical_basis(p, dim)
        names = ("00", "10")
        psi0 = basis[:, [0, 2]]
        targets = basis @ cq._CNOT_IDEAL[:, [0, 2]]
        targets /= np.linalg.norm(targets, axis=0)
        rhos = np.stack([np.outer(psi0[:, i], psi0[:, i].conj()).reshape(-1, order="F")
                         for i in range(2)], axis=1)
        for h, t in cq._cnot_stages(p, e / drive_ratio, e / coupling_ratio, dim):
            lv = liouvillian(h, [(a1, p.kappa), (a2, p.kappa)])
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
        ops = [r.operation for r in gate_rows_1e3]
        assert ops == ["drive", "undrive", "X_0.5pi", "Z_0.5pi", "G_0.5pi", "CNOT"]

    def test_fidelities_in_range(self, gate_rows_1e3):
        for row in gate_rows_1e3:
            assert 0.9 < row.fidelity <= 1.0

    def test_monotone_in_loss_ratio(self, gate_rows_1e3, budgets_1e4_1e5):
        # every operation improves from K/kappa = 1e3 to 1e4 (fuller sweep is
        # covered by the acceptance suite)
        low = {r.operation: r.fidelity for r in gate_rows_1e3}
        mid = budgets_1e4_1e5[1e4].fidelities
        assert mid["x_half"] > low["X_0.5pi"]
        assert mid["cnot"] > low["CNOT"]

    def test_clip_excess_reported(self, gate_rows_1e3):
        for row in gate_rows_1e3:
            if row.operation in ("drive", "undrive"):
                assert row.clip_excess is None
            else:
                assert row.clip_excess >= 0.0

    def test_gates_trace_and_purity_preserving_lossless(self, lossless):
        e = lossless.two_photon_amplitude
        res = cq.gate_x(lossless, math.pi / 2, e / 10)
        for state in res.final_states.values():
            assert abs(state.norm() - 1.0) < 1e-8
            assert abs(state.purity() - 1.0) < 1e-8


class TestLinkProtocol:
    def test_lossless_bell_state_and_probability(self):
        res = cq.simulate_link_protocol(0.0)
        assert res.success_probability == pytest.approx(0.5, abs=1e-9)
        bell_plus = qc.QState((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
        bell_minus = qc.QState((2, 2), np.array([0, 1, -1, 0]) / math.sqrt(2))
        same = res.branches[(1, 1)][1]
        diff = res.branches[(1, 2)][1]
        assert qc.state_fidelity(same, bell_plus) == pytest.approx(1.0, abs=1e-9)
        assert qc.state_fidelity(diff, bell_minus) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 0.9])
    def test_heralded_fidelity_immune_to_loss(self, loss):
        res = cq.simulate_link_protocol(loss, detector_efficiency=0.9)
        eta = (1 - loss) * 0.9
        assert res.success_probability == pytest.approx(0.5 * eta**2, abs=1e-9)
        bell_plus = qc.QState((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
        fid = qc.state_fidelity(res.branches[(1, 1)][1], bell_plus)
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_single_step_threshold_contaminated(self):
        res = cq.simulate_link_protocol(0.5, detectors="threshold", two_step=False)
        state = res.branches[(1,)][1]
        both_ones = float(np.real(state.data[3, 3]))
        assert both_ones > 0.1  # |11> admixture survives one round
        bell_plus = qc.QState((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert qc.state_fidelity(state, bell_plus) < 1.0 - 1e-3

    def test_single_step_number_resolving_lossless_is_clean(self):
        res = cq.simulate_link_protocol(0.0, two_step=False)
        state = res.branches[(1,)][1]
        bell_plus = qc.QState((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
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
                assert np.max(np.abs(branch[1].data - state)) < 1e-12

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
