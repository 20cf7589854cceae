import math

import numpy as np
import pytest

from catlink import pulseopt as po
from catlink import qcore as qc
from catlink.config import load_config
from catlink.catqubit import CatQubitParams


@pytest.fixture(scope="module")
def small_problem():
    """Cheap problem for structural checks: dim 12, 8 segments."""
    params = CatQubitParams(kerr=1.0, kappa=1e-3)
    return po.drive_problem(params, n_segments=8, dim=12)


class TestProblemSetup:
    def test_segment_minimum(self):
        params = CatQubitParams(kerr=1.0)
        with pytest.raises(ValueError):
            po.GrapeProblem(params=params, initial=qc.fock_state(0, 12),
                            target=qc.fock_state(1, 12), total_time=1.0,
                            n_segments=2)

    def test_default_bound_tracks_kerr(self):
        params = CatQubitParams(kerr=3.0)
        prob = po.drive_problem(params)
        assert prob.amplitude_bound == pytest.approx(30.0)


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


class TestOptimization:
    def test_identity_transfer_needs_no_pulse(self):
        params = CatQubitParams(kerr=1.0)
        prob = po.GrapeProblem(params=params, initial=qc.fock_state(0, 12),
                               target=qc.fock_state(0, 12), total_time=0.5,
                               n_segments=8)
        res = po.grape_optimize(prob, max_iters=0,
                                initial_guess=np.zeros((2, 8)))
        # the Kerr Hamiltonian annihilates the vacuum, so the initial guess
        # is already perfect
        assert res.iterations[0] == pytest.approx(1.0, abs=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_monotone_best_iterate_and_bound(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=40)
        assert res.fidelity >= res.iterations[0]
        bound = small_problem.amplitude_bound
        for channel in ("two_photon", "two_photon_orthogonal"):
            assert np.max(np.abs(res.schedule.segment_values[channel])) <= bound + 1e-12

    def test_objective_nondecreasing_over_accepted_steps(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=40)
        gains = np.diff(res.iterations)
        assert np.all(gains >= -1e-12)

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
                               n_segments=8)
        from catlink.pulses import piecewise_constant
        sched = piecewise_constant(0.5, {"two_photon": np.zeros(8),
                                         "two_photon_orthogonal": np.zeros(8)})
        assert po.evaluate_pulse(prob, sched, kappa=0.0) == pytest.approx(1.0, abs=1e-9)

    def test_cross_engine_consistency(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=30)
        reval = po.evaluate_pulse(small_problem, res.schedule, kappa=0.0)
        assert reval == pytest.approx(res.fidelity, abs=1e-6)

    def test_fidelity_decreases_with_loss(self, small_problem):
        res = po.grape_optimize(small_problem, max_iters=60)
        fids = [po.evaluate_pulse(small_problem, res.schedule, kappa=k)
                for k in (0.0, 1e-3, 1e-2)]
        assert fids[0] > fids[1] > fids[2]


class TestFullProblem:
    def test_drive_reaches_target(self, grape_pair):
        (drive_prob, drive_res), (undrive_prob, undrive_res) = grape_pair
        assert drive_res.fidelity >= 0.999
        assert undrive_res.fidelity >= 0.999

    def test_converges_well_under_the_cap(self, grape_pair):
        for _, res in grape_pair:
            assert res.converged, res.stop_reason
            assert res.n_iterations <= load_config().get("grape", "max_iters") // 4

    def test_lossy_score_at_1e3(self, grape_pair):
        (drive_prob, drive_res), _ = grape_pair
        lossy = po.evaluate_pulse(drive_prob, drive_res.schedule, kappa=1e-3)
        assert lossy >= 0.999
