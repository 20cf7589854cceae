import gc
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from catlink import dynamics
from catlink import qcore as qc
from catlink.dynamics import (IntegrationError, KroneckerSum, PiecewiseConstantPropagator,
                              TimeDependentHamiltonian, evolve, evolve_constant,
                              integrate_rk45, liouvillian)


def _zero_h(dim, t1=1.0):
    return TimeDependentHamiltonian(np.zeros((dim, dim), dtype=complex), (), (0.0, t1))


def _exploding_rhs(t, y):
    # a discontinuous, rapidly exploding coefficient starves the step size
    return y / max(1.0 - t, 0.0) ** 2 if t < 1.0 else y * np.inf


class TestEvolve:
    def test_free_evolution_is_stationary(self):
        rho0 = qc.to_density_matrix(qc.coherent_state(0.7, 8))
        traj = evolve(_zero_h(8), [], rho0, n_samples=5)
        for state in traj.states:
            assert np.allclose(state, rho0, atol=1e-10)

    def test_amplitude_damping_matches_analytic(self):
        kappa, dim = 2.5, 6
        rho0 = qc.to_density_matrix(qc.fock_state(1, dim))
        traj = evolve(_zero_h(dim, 1.2), [(qc.annihilation(dim), kappa)], rho0,
                      n_samples=13)
        n_mean = np.array([qc.expectation(qc.number_operator(dim), s).real
                           for s in traj.states])
        expected = np.exp(-kappa * traj.times)
        assert np.max(np.abs(n_mean - expected)) < 1e-6

    def test_kerr_eigenstate_is_stationary(self):
        # coherent states are instantaneous eigenstates of the driven Kerr
        # Hamiltonian at E_p = K alpha^2
        kerr, alpha, dim = 1.0, math.sqrt(2), 20
        a = qc.annihilation(dim)
        ad = a.conj().T
        h0 = -kerr * (ad @ ad @ a @ a) + kerr * alpha**2 * (ad @ ad + a @ a)
        h = TimeDependentHamiltonian(h0, (), (0.0, 5.0 / kerr))
        traj = evolve(h, [], qc.coherent_state(alpha, dim), n_samples=3)
        assert traj.final_state.shape == (dim, dim)
        fid = qc.state_fidelity(traj.final_state, qc.coherent_state(alpha, dim))
        assert fid >= 1.0 - 1e-6

    @pytest.mark.parametrize("lossy", [False, True])
    def test_counts_rhs_evaluations(self, lossy, monkeypatch):
        from catlink import dynamics

        calls = []
        original = dynamics.integrate_rk45

        def counting(rhs, *args, **kwargs):
            return original(lambda t, y: calls.append(t) or rhs(t, y), *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_rk45", counting)
        dim = 6
        collapse = [(qc.annihilation(dim), 0.5)] if lossy else []
        traj = evolve(_zero_h(dim), collapse, qc.coherent_state(0.5, dim), n_samples=4)
        assert traj.rhs_evals == len(calls) > 0

    def test_trace_preservation_and_positivity(self):
        kappa, dim = 0.8, 10
        a = qc.annihilation(dim)
        h0 = 0.5 * (a + a.conj().T)
        h = TimeDependentHamiltonian(h0, (), (0.0, 3.0))
        rho0 = qc.to_density_matrix(qc.cat_state(1.0, "even", dim))
        traj = evolve(h, [(a, kappa)], rho0, n_samples=7)
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) < 1e-8
            assert np.linalg.eigvalsh(state).min() > -1e-7

    def test_unitary_limit_preserves_purity(self):
        dim = 10
        a = qc.annihilation(dim)
        h0 = 0.3 * (a + a.conj().T) + 0.1 * (a.conj().T @ a)
        h = TimeDependentHamiltonian(h0, (), (0.0, 4.0))
        rho0 = qc.to_density_matrix(qc.fock_state(1, dim))
        traj = evolve(h, [], rho0, n_samples=5)
        rho = traj.final_state
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-8

    def test_tolerance_convergence(self):
        kappa, dim = 0.5, 8
        a = qc.annihilation(dim)
        drive = (a + a.conj().T, lambda t: 0.4 * math.sin(2.0 * t))
        h = TimeDependentHamiltonian(0.2 * (a.conj().T @ a), (drive,), (0.0, 3.0))
        rho0 = qc.to_density_matrix(qc.fock_state(0, dim))
        target = qc.coherent_state(0.3, dim)
        fids = []
        for rtol in (1e-8, 5e-9):
            traj = evolve(h, [(a, kappa)], rho0, n_samples=2, rel_tol=rtol)
            fids.append(qc.state_fidelity(traj.final_state, target))
        assert abs(fids[0] - fids[1]) < 1e-8

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            evolve(_zero_h(4), [(qc.annihilation(4), -1.0)],
                   qc.to_density_matrix(qc.fock_state(0, 4)))

    @pytest.mark.parametrize("t_span", [(0.0, 0.0), (1.0, 0.5)])
    def test_empty_or_reversed_span_rejected(self, t_span):
        with pytest.raises(ValueError, match=re.escape(f"t_span {t_span}")):
            TimeDependentHamiltonian(np.zeros((2, 2)), (), t_span)

    def test_drive_operator_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TimeDependentHamiltonian(np.zeros((4, 4), dtype=complex),
                                     ((qc.annihilation(5), lambda t: 1.0),), (0.0, 1.0))

    def test_collapse_operator_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            evolve(_zero_h(4), [(qc.annihilation(5), 1.0)],
                   qc.to_density_matrix(qc.fock_state(0, 4)))

    def test_initial_state_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="initial state shape"):
            evolve(_zero_h(4), [], qc.fock_state(0, 5))

    def test_step_underflow_reports_time(self):
        with pytest.raises(IntegrationError) as err:
            integrate_rk45(_exploding_rhs, np.ones(1, dtype=complex), [0.0, 2.0],
                           rel_tol=1e-10)
        assert err.value.t >= 0.0

    def test_step_underflow_warns_nothing(self):
        # the blow-up overflows on its way to the step-size failure; it still
        # fails at the same time with every warning raised as an error
        def failure_time():
            with pytest.raises(IntegrationError) as err:
                integrate_rk45(_exploding_rhs, np.ones(1, dtype=complex), [0.0, 2.0],
                               rel_tol=1e-10)
            return err.value.t

        t = failure_time()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert failure_time() == t

    def test_no_solver_outlives_the_call(self):
        # the integrator keeps its state in local arrays that form no
        # reference cycle, so nothing is left for the cycle collector
        gc.collect()
        gc.disable()
        try:
            ys = integrate_rk45(lambda t, y: -1j * y, np.ones(3, dtype=complex),
                                np.linspace(0.0, 1.0, 17))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(ys) == 17
        assert np.allclose(ys[-1], np.exp(-1j), atol=1e-8)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rhs_sees_one_coefficient_per_interval(self, reverse, monkeypatch):
        # evolve integrates segment k of a piecewise-constant pulse over
        # [k dt, (k + 1) dt] alone, with that segment's value bound into the
        # right-hand side.  On the 2x2 problem H = u(t) sigma_x from |0><0|,
        # whose one coupled block is the whole vec(rho) in column order,
        # drho/dt = -i u [sigma_x, rho] has rho_10 entry -i u at rho = |0><0|,
        # so i rhs(t, |0><0|)[1] reads the coefficient back.  48 segments,
        # not a power of two, so k (T / n) and k T / n round differently
        seen = []
        ground = np.array([1.0, 0.0, 0.0, 0.0])

        def recording(rhs, y0, output_times, **kwargs):
            seen.append((output_times[0], output_times[-1],
                         {complex(1j * rhs(t, ground)[1]) for t in output_times}))
            return integrate_rk45(rhs, y0, output_times, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_rk45", recording)
        rng = np.random.default_rng(11)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for duration in rng.uniform(0.1, 100.0, 4):
            values = rng.uniform(-1.0, 1.0, 48).astype(complex)
            u = values[::-1] if reverse else values
            h = TimeDependentHamiltonian(np.zeros((2, 2)), ((sigma_x, u),), (0.0, duration))
            seen.clear()
            evolve(h, [], np.array([1.0, 0.0]), n_samples=2)
            dt = duration / 48
            assert [(lo, hi) for lo, hi, _ in seen] == \
                [(dt * k, dt * (k + 1) if k < 47 else duration) for k in range(48)]
            assert [values for _, _, values in seen] == [{v} for v in u]

    @staticmethod
    def _kerr_segments(n_seg, duration, seed):
        """A random two-quadrature two-photon drive on a dim-20 Kerr
        oscillator: (h0, channel operators, segment values per channel)."""
        rng = np.random.default_rng(seed)
        a = qc.annihilation(20)
        ad = a.conj().T
        ops = {"x": ad @ ad + a @ a, "y": 1j * (ad @ ad - a @ a)}
        values = {k: rng.uniform(-1.0, 1.0, n_seg).astype(complex) for k in ops}
        return -(ad @ ad @ a @ a), ops, values

    def test_lossy_piecewise_constant_matches_exact_stages(self):
        # a random 64-segment drive with loss at kappa/K = 1e-3, against expm
        # of each segment's Liouvillian
        kappa, n_seg, duration = 1e-3, 64, 2.0
        h0, ops, values = self._kerr_segments(n_seg, duration, seed=7)
        h = TimeDependentHamiltonian(h0, tuple((ops[k], u) for k, u in values.items()),
                                     (0.0, duration))
        a = qc.annihilation(20)
        rho0 = qc.to_density_matrix(qc.fock_state(0, 20))
        traj = evolve(h, [(a, kappa)], rho0, n_samples=2)

        rho = rho0
        for k in range(n_seg):
            hk = h0 + sum(values[c][k] * ops[c] for c in ops)
            rho = evolve_constant(hk, [(a, kappa)], rho, [0.0, duration / n_seg])[-1]
        assert np.max(np.abs(traj.final_state - rho)) < 1e-7

    def test_samples_inside_and_on_segment_edges(self):
        # 4 segments sampled 9 times: every other sample falls on a segment
        # edge, the rest inside a segment
        kappa, n_seg, duration = 1e-3, 4, 2.0
        h0, ops, values = self._kerr_segments(n_seg, duration, seed=3)
        h = TimeDependentHamiltonian(h0, tuple((ops[k], u) for k, u in values.items()),
                                     (0.0, duration))
        a = qc.annihilation(20)
        rho0 = qc.to_density_matrix(qc.fock_state(0, 20))
        traj = evolve(h, [(a, kappa)], rho0, n_samples=9)
        assert np.array_equal(traj.times, np.linspace(0.0, duration, 9))

        expected = [rho0]
        for k in range(n_seg):
            hk = h0 + sum(values[c][k] * ops[c] for c in ops)
            step = duration / n_seg / 2
            expected += evolve_constant(hk, [(a, kappa)], expected[-1], [0.0, step, 2 * step])[1:]
        assert len(traj.states) == len(expected) == 9
        for state, rho in zip(traj.states, expected):
            assert np.max(np.abs(state - rho)) < 1e-7

    @pytest.mark.parametrize("coefficients", [
        (np.ones(4), np.ones(3)),         # unequal segment counts
        (np.ones(4), 1.0),                # neither a function nor an array
        (np.ones(4), np.ones((2, 2))),    # not 1-D
        (np.ones(0),),                    # no segment
    ])
    def test_bad_coefficients_rejected(self, coefficients):
        op = np.eye(2)
        with pytest.raises(ValueError, match="segment"):
            TimeDependentHamiltonian(np.zeros((2, 2)), tuple((op, c) for c in coefficients),
                                     (0.0, 1.0))


def _scipy_dop853(rhs, y0, output_times, rel_tol, abs_tol):
    """The reference: ``scipy.integrate.DOP853`` restarted at each output
    time.  Returns (states, summed nfev, accepted steps), or the failure
    time in place of the states."""
    import scipy.integrate

    t, y = output_times[0], np.array(y0, dtype=complex)
    ys, nfev, steps = [y.copy()], 0, 0
    for stop in output_times[1:]:
        solver = scipy.integrate.DOP853(rhs, t, y, stop, rtol=rel_tol, atol=abs_tol)
        while solver.status == "running":
            # quiet as integrate_rk45 is where a solution blows up
            with np.errstate(over="ignore", invalid="ignore"):
                solver.step()
            steps += 1
        nfev += solver.nfev
        t, y = solver.t, solver.y
        if solver.status == "failed":
            return t, nfev, steps
        ys.append(y.copy())
    return ys, nfev, steps


class TestDop853:
    """``integrate_rk45`` takes scipy's DOP853 steps, bit for bit."""

    @staticmethod
    def _counted(rhs):
        calls = []
        return calls, lambda t, y: calls.append(t) or rhs(t, y)

    def _assert_matches_scipy(self, rhs, y0, output_times, rel_tol=1e-8, abs_tol=1e-12):
        # same states, and the right-hand side called as often at the same times
        calls, counted = self._counted(rhs)
        ys = integrate_rk45(counted, y0, output_times, rel_tol=rel_tol, abs_tol=abs_tol)
        ref_calls, ref_counted = self._counted(rhs)
        ref, nfev, steps = _scipy_dop853(ref_counted, y0, output_times, rel_tol, abs_tol)
        assert len(ys) == len(ref) == len(output_times)
        assert all(np.array_equal(a, b) for a, b in zip(ys, ref))
        assert len(calls) == nfev
        assert calls == ref_calls
        return nfev, steps

    @pytest.mark.parametrize("seed", range(6))
    def test_random_linear_systems(self, seed):
        # dy/dt = (1 + u sin(w t)) M y with a random complex M shifted to be
        # stable: the time dependence makes every stage time count
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m -= 0.5 * np.max(np.abs(np.linalg.eigvals(m))) * np.eye(n)
        u, w = rng.uniform(0.0, 0.5), rng.uniform(1.0, 10.0)
        y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        output_times = [0.0, *np.sort(rng.uniform(0.0, 3.0, 5)).tolist()]
        rel_tol = float(10.0 ** rng.uniform(-11, -5))
        self._assert_matches_scipy(lambda t, y: (1.0 + u * np.sin(w * t)) * (m @ y),
                                   y0, output_times, rel_tol, rel_tol * 1e-4)

    def test_rejected_steps(self):
        # a narrow kick at t = 1 that the growing steps overrun: each try
        # costs 12 calls and each interval 2 more, so the surplus over the
        # accepted steps counts the rejections
        def rhs(t, y):
            return -1j * (1.0 + 200.0 * math.exp(-((t - 1.0) / 0.01) ** 2)) * y

        nfev, steps = self._assert_matches_scipy(rhs, np.ones(2, dtype=complex),
                                                 [0.0, 0.5, 2.0, 3.0])
        assert (nfev - 2 * 3) // 12 > steps

    def test_last_step_time_is_t_plus_h(self):
        # y' = 0 grows each step tenfold, so the last step of [0.7, 76.3]
        # starts below 76.3 / 2 and t + (76.3 - t) rounds below 76.3: the
        # derivative at the new point is taken at t + h, as scipy takes it
        calls, counted = self._counted(lambda t, y: 0 * y)
        integrate_rk45(counted, np.ones(2, dtype=complex), [0.7, 76.3])
        assert calls[-1] != 76.3
        self._assert_matches_scipy(lambda t, y: 0 * y, np.ones(2, dtype=complex),
                                   [0.0, 0.7, 76.3])

    def test_step_underflow_at_scipys_time(self):
        with pytest.raises(IntegrationError,
                           match="Required step size is less than spacing between numbers") as err:
            integrate_rk45(_exploding_rhs, np.ones(1, dtype=complex), [0.0, 2.0],
                           rel_tol=1e-10)
        t, _, _ = _scipy_dop853(_exploding_rhs, np.ones(1, dtype=complex), [0.0, 2.0],
                                1e-10, 1e-12)
        assert err.value.t == t
        assert f"(t={t:.6e})" in str(err.value)

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        n = ref.N_STAGES
        assert np.array_equal(dynamics._DOP853_C, ref.C[:n])
        assert len(dynamics._DOP853_A) == n - 1
        assert all(np.array_equal(row, ref.A[s, :s])
                   for s, row in enumerate(dynamics._DOP853_A, start=1))
        assert not np.any(np.triu(ref.A[:n, :n]))
        assert np.array_equal(dynamics._DOP853_B, ref.B)
        assert np.array_equal(dynamics._DOP853_E5, ref.E5)
        assert np.array_equal(dynamics._DOP853_E3, ref.E3)

    def test_decreasing_output_times_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            integrate_rk45(lambda t, y: y, np.ones(1, dtype=complex), [0.0, 1.0, 0.5])


def _ramp_problem(dim, t1=2.0, single_photon=0.0):
    """The two-photon ramp -a^dag^2 a^2 + (t / t1) (a^dag^2 + a^2), which
    conserves photon-number parity, plus an optional constant single-photon
    drive (a + a^dag), which connects both parities."""
    a = qc.annihilation(dim)
    ad = a.conj().T
    static = -(ad @ ad @ a @ a) + single_photon * (a + ad)
    return TimeDependentHamiltonian(static, ((ad @ ad + a @ a, lambda t: t / t1),), (0.0, t1))


def _recording_sizes(monkeypatch) -> list[int]:
    """The length of every y0 that ``evolve`` hands ``integrate_rk45``."""
    sizes, original = [], dynamics.integrate_rk45

    def recording(rhs, y0, *args, **kwargs):
        sizes.append(y0.size)
        return original(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_rk45", recording)
    return sizes


class TestBatchAndSector:
    DIM = 10

    def test_parity_sector_matches_full_space_and_drops_stay_zero(self, monkeypatch):
        d = self.DIM
        h, a = _ramp_problem(d), qc.annihilation(d)
        rho0 = qc.to_density_matrix(qc.fock_state(0, d))
        sizes = _recording_sizes(monkeypatch)
        sector = evolve(h, [(a, 0.05)], rho0, n_samples=3)
        # photon loss keeps m - n even: half of the d^2 entries
        assert sizes == [d * d // 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "coupled_blocks", lambda *ms: [np.arange(ms[0].shape[0])])
            full = evolve(h, [(a, 0.05)], rho0, n_samples=3)
        assert sizes == [d * d // 2, d * d]
        odd = (np.arange(d)[:, None] + np.arange(d)[None, :]) % 2 == 1
        for x, y in zip(sector.states, full.states):
            assert not np.any(x[odd])
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.any(full.final_state)

    def test_pure_states_keep_their_parity_sector(self, monkeypatch):
        # without loss the ramp keeps the parity of m and of n apart: |1><1|
        # stays on the odd-odd entries, a quarter of the d^2
        d = self.DIM
        sizes = _recording_sizes(monkeypatch)
        traj = evolve(_ramp_problem(d), [], qc.fock_state(1, d), n_samples=2)
        assert sizes == [d * d // 4]
        assert not np.any(traj.final_state[0::2]) and not np.any(traj.final_state[:, 0::2])

    def test_single_photon_drive_integrates_the_whole_space(self, monkeypatch):
        d = self.DIM
        h, a = _ramp_problem(d, single_photon=0.3), qc.annihilation(d)
        sizes = _recording_sizes(monkeypatch)
        traj = evolve(h, [(a, 0.05)], qc.fock_state(0, d), n_samples=2)
        assert sizes == [d * d]
        odd = (np.arange(d)[:, None] + np.arange(d)[None, :]) % 2 == 1
        assert np.max(np.abs(traj.final_state[odd])) > 1e-3

    def test_batch_matches_separate_solves(self, monkeypatch):
        d = self.DIM
        h, a = _ramp_problem(d), qc.annihilation(d)
        states = [qc.fock_state(0, d), qc.to_density_matrix(qc.fock_state(1, d)),
                  qc.fock_state(0, d)]
        rates = [0.0, 0.02, 0.1]
        sizes = _recording_sizes(monkeypatch)
        batch = evolve(h, [(a, rates)], states, n_samples=4, rel_tol=1e-11)
        # one solve of three columns on the m - n even sector of each
        assert sizes == [3 * d * d // 2]
        assert len(batch) == 3 and len({traj.rhs_evals for traj in batch}) == 1
        for state, rate, traj in zip(states, rates, batch):
            alone = evolve(h, [(a, rate)], qc.to_density_matrix(state), n_samples=4,
                           rel_tol=1e-11)
            for x, y in zip(traj.states, alone.states):
                assert x.shape == (d, d)  # vector inputs come back as matrices
                assert np.max(np.abs(x - y)) <= 1e-9

    def test_rate_zero_jump_is_no_jump(self):
        d = self.DIM
        h, a = _ramp_problem(d), qc.annihilation(d)
        single = evolve(h, [(a, 0.0)], qc.fock_state(0, d))
        assert np.array_equal(single.final_state, evolve(h, [], [qc.fock_state(0, d)])[0]
                              .final_state)
        pair = [qc.fock_state(0, d), qc.fock_state(1, d)]
        for x, y in zip(evolve(h, [(a, [0.0, 0.0])], pair), evolve(h, [], pair)):
            assert np.array_equal(x.final_state, y.final_state)

    @pytest.mark.parametrize("rate, message", [([0.1, 0.2, 0.3], "one per state"),
                                               ([0.1, -0.2], "nonnegative")])
    def test_bad_rates_rejected(self, rate, message):
        d = self.DIM
        with pytest.raises(ValueError, match=message):
            evolve(_ramp_problem(d), [(qc.annihilation(d), rate)],
                   [qc.fock_state(0, d), qc.fock_state(1, d)])

    def test_empty_batch_and_zero_state_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            evolve(_ramp_problem(self.DIM), [], [])
        with pytest.raises(ValueError, match="is zero"):
            evolve(_ramp_problem(self.DIM), [], [qc.fock_state(0, self.DIM),
                                                 np.zeros(self.DIM)])


def _reference_blocks(matrices):
    """scipy's connected components of the joint pattern, ordered by their
    smallest index: the oracle for ``coupled_blocks``."""
    from scipy.sparse.csgraph import connected_components

    pattern = sum(abs(sp.csr_array(m)) for m in matrices)
    pattern.eliminate_zeros()
    n, labels = connected_components(pattern, directed=False)
    return sorted((np.flatnonzero(labels == k) for k in range(n)), key=lambda b: b[0])


class TestCoupledBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3), st.booleans(),
           st.lists(st.sampled_from(["dense", "csr_array", "csr_matrix"]), min_size=1,
                    max_size=3))
    def test_matches_scipy_connected_components(self, n, seed, density, symmetric, kinds):
        rng = np.random.default_rng(seed)
        matrices = []
        for kind in kinds:
            mask = rng.random((n, n)) < density
            if symmetric:
                mask |= mask.T
            values = np.where(mask, rng.choice([-1.5, 1.0, 2j], size=(n, n)), 0)
            # some indices touch nothing
            isolated = rng.random(n) < 0.2
            values[isolated] = 0
            values[:, isolated] = 0
            if kind != "dense":
                # explicitly stored zeros, which join nothing: converting to
                # CSR sums duplicates but keeps a zero that has no partner
                rows, cols = np.nonzero(values)
                zr, zc = np.nonzero(rng.random((n, n)) < density)
                coo = sp.coo_array((np.concatenate([values[rows, cols], np.zeros(zr.size)]),
                                    (np.concatenate([rows, zr]), np.concatenate([cols, zc]))),
                                   shape=(n, n))
                values = getattr(sp, kind)(coo.tocsr())
            matrices.append(values)
        blocks = dynamics.coupled_blocks(*matrices)
        expected = _reference_blocks(matrices)
        assert len(blocks) == len(expected)
        for got, want in zip(blocks, expected):
            assert np.array_equal(got, want)

    def test_explicit_zero_joins_nothing(self):
        m = sp.csr_array((np.zeros(1), ([0], [1])), shape=(3, 3))
        assert m.nnz == 1
        assert [b.tolist() for b in dynamics.coupled_blocks(m)] == [[0], [1], [2]]

    def test_long_shuffled_path_is_one_block(self):
        # a path whose labels must travel its whole length, in random order
        n = 500
        order = np.random.default_rng(0).permutation(n)
        m = np.zeros((n, n))
        m[order[:-1], order[1:]] = 1.0
        blocks = dynamics.coupled_blocks(m, np.eye(n))
        assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(n))

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="one shape"):
            dynamics.coupled_blocks(np.eye(3), np.eye(4))


def _random_op(rng, d, hermitian):
    x = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / 4
    return x + x.conj().T if hermitian else x


class TestPerCavityRoute:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(3, 6), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_dense_one_block_reference(self, d1, d2, n_stages, two_sided, seed):
        # random Kronecker-sum stages with one jump on each cavity, against
        # the same stages and jumps as full arrays with every stage factored
        # as one dense block; a jump on both cavities at once sends H_eff to
        # the block route
        rng = np.random.default_rng(seed)
        dims = (d1, d2)
        stages = [(KroneckerSum(_random_op(rng, d1, True), _random_op(rng, d2, True), dims),
                   rng.uniform(0.2, 1.5)) for _ in range(n_stages)]
        jumps = [(KroneckerSum(_random_op(rng, d1, False), None, dims), rng.uniform(0.01, 0.1)),
                 (KroneckerSum(None, _random_op(rng, d2, False), dims), rng.uniform(0.01, 0.1))]
        if two_sided:
            jumps.append((KroneckerSum(_random_op(rng, d1, False), _random_op(rng, d2, False),
                                       dims), rng.uniform(0.01, 0.1)))
        psi0 = _random_op(rng, d1 * d2, False)[:, :3]
        psi0 /= np.linalg.norm(psi0, axis=0)

        def run(stages, jumps):
            prop = PiecewiseConstantPropagator(stages, jumps, 1.0)
            states = prop.forward(psi0)
            target = states[-1] / np.linalg.norm(states[-1], axis=0)
            return prop, states, prop.lossy_fidelity(psi0, target)[0]

        split, states, fid = run(stages, jumps)
        assert all(isinstance(v, dynamics._KroneckerProduct)
                   for _, v, _, _ in split.factors(lossy=False))
        route = dynamics._BlockSparse if two_sided else dynamics._KroneckerProduct
        assert all(isinstance(v_eff, route) for _, v_eff, _, _ in split.factors(lossy=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "coupled_blocks", lambda m: [np.arange(m.shape[0])])
            mp.setattr(dynamics, "_COUPLED_MEMO", {})
            _, dense_states, dense_fid = run([(h.toarray(), t) for h, t in stages],
                                             [(op.toarray(), r) for op, r in jumps])
        for x, y in zip(states, dense_states):
            assert np.max(np.abs(x - y)) <= 1e-12
        assert np.max(np.abs(fid - dense_fid)) <= 1e-12


class TestConstantLiouvillian:
    def test_matches_rk45(self):
        kerr, kappa, alpha, dim = 1.0, 1e-2, 1.2, 14
        a = qc.annihilation(dim)
        ad = a.conj().T
        h0 = -kerr * (ad @ ad @ a @ a) + kerr * alpha**2 * (ad @ ad + a @ a)
        rho0 = qc.to_density_matrix(qc.cat_state(alpha, "even", dim))
        t1 = 2.0
        traj = evolve(TimeDependentHamiltonian(h0, (), (0.0, t1)),
                      [(a, kappa)], rho0, n_samples=2, rel_tol=1e-9)
        rhos = evolve_constant(h0, [(a, kappa)], rho0, [0.0, t1])
        assert np.max(np.abs(rhos[-1] - traj.final_state)) < 1e-7

    def test_liouvillian_traceless_action(self):
        dim = 4
        a = qc.annihilation(dim)
        lv = liouvillian(a.conj().T @ a, [(a, 0.3)])
        rho = qc.to_density_matrix(qc.coherent_state(0.5, dim))
        drho = (lv @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
        assert abs(np.trace(drho)) < 1e-12

    def test_liouvillian_matches_explicit_lindblad_form(self):
        dim = 5
        rng = np.random.default_rng(3)

        def random_matrix():
            return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

        h = random_matrix()
        h = h + h.conj().T
        jumps = [(random_matrix(), 0.7), (random_matrix(), 0.2)]
        rho = random_matrix()
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)

        expected = -1j * (h @ rho - rho @ h)
        for op, rate in jumps:
            ldl = op.conj().T @ op
            expected += rate * (op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))

        lv = liouvillian(h, jumps)
        assert sp.issparse(lv) and lv.format == "csr"
        drho = (lv @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
        assert np.max(np.abs(drho - expected)) < 1e-12
