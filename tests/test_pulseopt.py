import math

import numpy as np
import pytest
import scipy.linalg

from catlink import catqubit as cq
from catlink import pulseopt as po
from catlink import qcore as qc
from catlink.config import load_config
from catlink.catqubit import CatQubitParams


@pytest.fixture(scope="module")
def small_problem():
    """Cheap problem for structural checks: dim 20, 8 segments.  Its pulses
    leave below 1e-9 in the top two Fock levels; at dim 12 they leave 1e-4,
    which the re-score's truncation check rejects."""
    params = CatQubitParams(kerr=1.0, kappa=1e-3)
    return po.drive_problem(params, total_time=0.5, n_segments=8, amplitude_bound=10.0, dim=20)


class TestProblemSetup:
    def test_segment_minimum(self):
        params = CatQubitParams(kerr=1.0)
        with pytest.raises(ValueError):
            po.GrapeProblem(params=params, initial=qc.fock_state(0, 12),
                            target=qc.fock_state(1, 12), total_time=1.0,
                            n_segments=2, amplitude_bound=10.0)

    def test_states_must_be_normalized_vectors_of_one_length(self):
        params = CatQubitParams(kerr=1.0)
        vacuum = qc.fock_state(0, 12)
        for initial, target, match in [(vacuum, qc.fock_state(1, 14), "lengths differ"),
                                       (1.01 * vacuum, qc.fock_state(1, 12), "norm"),
                                       (vacuum, qc.to_density_matrix(vacuum), "pure state")]:
            with pytest.raises(ValueError, match=match):
                po.GrapeProblem(params=params, initial=initial, target=target,
                                total_time=1.0, n_segments=8, amplitude_bound=10.0)


class TestGradient:
    def test_matches_finite_differences(self, small_problem):
        prop = po._Propagation(small_problem)
        rng = np.random.default_rng(11)
        u = po._initial_guess(small_problem, seed=3)
        _, grad = prop.overlap_and_gradient(u)
        for _ in range(5):
            direction = rng.standard_normal(u.shape)
            direction /= np.linalg.norm(direction)
            eps = 1e-6
            fd = (prop.overlap_and_gradient(u + eps * direction)[0]
                  - prop.overlap_and_gradient(u - eps * direction)[0]) / (2 * eps)
            analytic = float(np.sum(grad * direction))
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestParitySector:
    @staticmethod
    def _full_space(problem, u):
        """|c|^2 and its gradient on the full space, with each segment's
        exponential and its Frechet derivative from scipy's expm."""
        dim, n = problem.dim, problem.n_segments
        dt = problem.total_time / n
        controls = (cq._two_photon_op(dim), cq._two_photon_orthogonal_op(dim))
        h0 = cq._kerr_op(dim, problem.params.kerr)
        props, derivs = [], []
        for k in range(n):
            h = -1j * dt * (h0 + u[0, k] * controls[0] + u[1, k] * controls[1])
            props.append(scipy.linalg.expm(h))
            derivs.append([scipy.linalg.expm_frechet(h, -1j * dt * c, compute_expm=False)
                           for c in controls])
        fwd = [problem.initial]
        for p in props:
            fwd.append(p @ fwd[-1])
        bwd = [problem.target]
        for p in reversed(props):
            bwd.append(p.conj().T @ bwd[-1])
        bwd = bwd[::-1]
        c = np.vdot(problem.target, fwd[-1])
        grad = np.array([[2.0 * np.real(np.conj(c) * np.vdot(bwd[k + 1], derivs[k][j] @ fwd[k]))
                          for k in range(n)] for j in range(2)])
        return abs(c) ** 2, grad

    @pytest.mark.parametrize("maker", [po.drive_problem, po.undrive_problem])
    def test_matches_full_space(self, maker):
        problem = maker(CatQubitParams(kerr=1.0), total_time=0.5, n_segments=8,
                        amplitude_bound=10.0, dim=16)
        prop = po._Propagation(problem)
        assert prop.psi0.size == 8  # the even sector
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = rng.uniform(-3.0, 3.0, (2, 8))
            fid, grad = prop.overlap_and_gradient(u)
            ref_fid, ref_grad = self._full_space(problem, u)
            assert abs(fid - ref_fid) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12

    def test_mixed_parity_keeps_full_space(self):
        dim = 12
        target = (qc.fock_state(0, dim) + qc.fock_state(1, dim)) / math.sqrt(2)
        problem = po.GrapeProblem(params=CatQubitParams(kerr=1.0),
                                  initial=qc.fock_state(0, dim),
                                  target=target, total_time=0.5,
                                  n_segments=8, amplitude_bound=10.0)
        assert po._Propagation(problem).psi0.size == dim


class TestOptimization:
    def test_identity_transfer_needs_no_pulse(self):
        params = CatQubitParams(kerr=1.0)
        prob = po.GrapeProblem(params=params, initial=qc.fock_state(0, 12),
                               target=qc.fock_state(0, 12), total_time=0.5,
                               n_segments=8, amplitude_bound=10.0)
        # the Kerr Hamiltonian annihilates the vacuum, so no drive at all
        # already transfers it perfectly
        assert po._Propagation(prob).overlap_and_gradient(np.zeros((2, 8)))[0] == \
            pytest.approx(1.0, abs=1e-12)

    def test_monotone_best_iterate_and_bound(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=40)
        assert res.fidelity >= res.iterations[0]
        bound = small_problem.amplitude_bound
        for channel in ("two_photon", "two_photon_orthogonal"):
            assert np.max(np.abs(res.schedule.channels[channel])) <= bound + 1e-12

    def test_schedule_holds_complex_segment_values(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=0)
        u = po._initial_guess(small_problem, seed=None)
        assert list(res.schedule.channels) == list(cq._CHANNEL_OPS)
        for channel, row in zip(res.schedule.channels.values(), u):
            assert channel.dtype == complex
            assert np.array_equal(channel, row)

    def test_objective_nondecreasing_over_accepted_steps(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=40)
        gains = np.diff(res.iterations)
        assert np.all(gains >= -1e-12)

    def test_evaluations_counted(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=40)
        assert res.evaluations >= res.n_iterations + 1  # the initial guess first
        assert po.grape_optimize(small_problem, max_iters=0).evaluations == 1

    def test_iteration_cap_reported_as_not_converged(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=2)
        assert res.n_iterations == 2
        assert not res.converged
        assert "ITERATIONS REACHED LIMIT" in res.stop_reason

    def test_seeded_restart_changes_trace_not_outcome(self, small_problem):
        base = po.grape_optimize(small_problem, max_iters=60)
        seeded = po.grape_optimize(small_problem, max_iters=60, seed=5)
        assert not np.array_equal(base.iterations, seeded.iterations)
        assert abs(base.fidelity - seeded.fidelity) < 0.05


class TestEvaluatePulse:
    def test_zero_pulse_on_vacuum(self):
        params = CatQubitParams(kerr=1.0)
        prob = po.GrapeProblem(params=params, initial=qc.fock_state(0, 12),
                               target=qc.fock_state(0, 12), total_time=0.5,
                               n_segments=8, amplitude_bound=10.0)
        sched = cq.PulseSchedule(0.5, {"two_photon": np.zeros(8, dtype=complex),
                                       "two_photon_orthogonal": np.zeros(8, dtype=complex)})
        assert po.evaluate_pulse(prob, sched, kappa=0.0) == pytest.approx(1.0, abs=1e-9)

    def test_cross_engine_consistency(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=30)
        reval = po.evaluate_pulse(small_problem, res.schedule, kappa=0.0)
        assert reval == pytest.approx(res.fidelity, abs=1e-6)

    def test_truncation_overflow_raises(self):
        # the dim-8 cat holds 2.4e-2 in its top two Fock levels
        problem = po.undrive_problem(CatQubitParams(kerr=1.0), total_time=0.5, n_segments=8,
                                     amplitude_bound=10.0, dim=8)
        res = po.grape_optimize(problem, max_iters=0)
        with pytest.raises(cq.TruncationOverflowError, match="top two Fock levels"):
            po.evaluate_pulse(problem, res.schedule, kappa=0.0)

    def test_fidelity_decreases_with_loss(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=60)
        fids = [po.evaluate_pulse(small_problem, res.schedule, kappa=k)
                for k in (0.0, 1e-3, 1e-2)]
        assert fids[0] > fids[1] > fids[2]


class TestFullProblem:
    def test_drive_reaches_target(self, grape_pair):
        result, ((_, schedule), _) = grape_pair
        assert schedule is result.schedule
        assert result.fidelity >= 0.999

    def test_reverse_undrives_with_the_drive_fidelity(self, grape_pair):
        # the drive's time reverse, with the imaginary quadrature negated, is
        # conj(U^dag): it takes |C+> back to |0> with the drive's own overlap
        result, (_, (undrive_prob, reverse)) = grape_pair
        u = np.real(np.stack([reverse.channels["two_photon"],
                              reverse.channels["two_photon_orthogonal"]]))
        fidelity = po._Propagation(undrive_prob).overlap_and_gradient(u)[0]
        assert abs(fidelity - result.fidelity) <= 1e-12

    def test_converges_well_under_the_cap(self, grape_pair):
        result, _ = grape_pair
        assert result.converged, result.stop_reason
        assert result.n_iterations <= load_config().get("grape", "max_iters") // 4

    def test_lossy_score_at_1e3(self, grape_pair):
        _, pulses = grape_pair
        for problem, schedule in pulses:
            assert po.evaluate_pulse(problem, schedule, kappa=1e-3) >= 0.999
