import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from catlink import repeater as rp
from catlink import scenarios as sn
from catlink.config import load_config


def _link(**kw):
    defaults = dict(length_km=50.0, attenuation_km=22.0, emission_probability=0.8,
                    detection_efficiency=0.9, operation_time_s=1e-4)
    defaults.update(kw)
    return rp.LinkParams(**defaults)


def _figure_curves(lengths, chain, link, **comparators):
    """The figure-6 curves under the default ``[comparators]`` values,
    overridden by keyword."""
    return sn.figure_rate_curves(lengths, chain, link,
                                 **{**load_config()["comparators"], **comparators})


class TestP0:
    def test_worked_example(self):
        # (1/2) e^(-50/22) 0.8 0.81
        expected = 0.5 * math.exp(-50 / 22) * 0.8 * 0.81
        assert rp.p0(_link()) == pytest.approx(expected, abs=1e-15)
        assert rp.p0(_link()) == pytest.approx(0.03337, abs=1e-4)

    def test_lossless_limit_is_half(self):
        link = _link(length_km=1e-9, emission_probability=1.0,
                     detection_efficiency=1.0)
        assert rp.p0(link) == pytest.approx(0.5, rel=1e-9)

    def test_monotone_in_length(self):
        vals = [rp.p0(_link(length_km=L)) for L in (10, 50, 200)]
        assert vals[0] > vals[1] > vals[2]

    def test_alternative_reading_flag(self):
        base = rp.p0(_link())
        squared = rp.p0(_link(per_round_emission=True))
        assert squared == pytest.approx(base * 0.8)


class TestMeanTime:
    def test_worked_example(self):
        # n=1, P0=0.1, P1=0.9, L0/c=0.25 ms, T_o=0.05 ms -> 5.00 ms
        # (attenuation off so p = 0.2 puts P0 at exactly one tenth)
        link = rp.LinkParams(length_km=50.0, attenuation_km=1e15,
                             emission_probability=0.2, detection_efficiency=1.0,
                             operation_time_s=0.05e-3)
        assert rp.p0(link) == pytest.approx(0.1, abs=1e-12)
        chain = rp.ChainParams(nesting_level=1, swap_probability=0.9)
        expected = 1.5 * (0.25e-3 + 0.05e-3) / (0.1 * 0.9)
        assert rp.mean_time(chain, link) == pytest.approx(expected, abs=1e-12)
        assert rp.mean_time(chain, link) == pytest.approx(5.0e-3, abs=1e-9)

    def test_no_swap_levels(self):
        link = _link()
        chain = rp.ChainParams(nesting_level=0)
        assert rp.mean_time(chain, link) == pytest.approx(
            rp.attempt_time(link) / rp.p0(link), rel=1e-12)

    def test_ideal_components_leave_lightcone_factor(self):
        # with P_i = 1 and T_o = 0, the formula reduces to
        # (3/2)^n (L0/c) / P0 exactly (the intrinsic heralding 1/2 stays in P0)
        link = rp.LinkParams(length_km=44.0, attenuation_km=1e12,
                             emission_probability=1.0, detection_efficiency=1.0,
                             operation_time_s=0.0)
        chain = rp.ChainParams(nesting_level=2, swap_probability=1.0)
        t = rp.mean_time(chain, link)
        assert rp.p0(link) == pytest.approx(0.5, rel=1e-9)
        assert t * rp.p0(link) == pytest.approx(1.5**2 * (44.0 / 2e5), rel=1e-9)

    def test_operation_time_enters_linearly(self):
        link_a = _link(operation_time_s=1e-4)
        link_b = _link(operation_time_s=2e-4)
        chain = rp.ChainParams(nesting_level=2, swap_probability=0.9)
        base = 50.0 / 2e5
        ratio = rp.mean_time(chain, link_b) / rp.mean_time(chain, link_a)
        assert ratio == pytest.approx((base + 2e-4) / (base + 1e-4), rel=1e-12)

    def test_multiplexing_linearity(self):
        link = _link()
        for m in (1, 7, 200):
            chain = rp.ChainParams(nesting_level=2, multiplexing=m,
                                   swap_probability=0.9)
            single = rp.ChainParams(nesting_level=2, multiplexing=1,
                                    swap_probability=0.9)
            assert rp.distribution_rate(chain, link) == pytest.approx(
                m * rp.distribution_rate(single, link), rel=1e-12)


class TestRateCurve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=200),
           st.sampled_from(("cat", "fock")),
           st.floats(min_value=1.0, max_value=2000.0),
           st.floats(min_value=1.0, max_value=2000.0))
    def test_rate_does_not_increase_with_distance(self, n, m, policy, length_a, length_b):
        chain = rp.ChainParams(nesting_level=n, multiplexing=m, storage_policy=policy)
        rate = rp.rate_curve(chain, _link())
        near, far = sorted((length_a, length_b))
        assert rate(near) >= rate(far)


class TestMonteCarlo:
    def test_geometric_closed_form_over_seeds(self):
        link = _link()
        chain = rp.ChainParams(nesting_level=0)
        expected = rp.mean_time(chain, link)
        for seed in range(10):
            mean, stderr = rp.monte_carlo_time(chain, link, trials=20_000, seed=seed)[-1]
            assert abs(mean - expected) < 3 * stderr

    def test_single_swap_ratio_window(self):
        # small P0 regime where the 3/2 approximation is good
        link = _link(length_km=150.0)
        chain = rp.ChainParams(nesting_level=1, swap_probability=1.0)
        mean, stderr = rp.monte_carlo_time(chain, link, trials=60_000, seed=3)[-1]
        ratio = rp.mean_time(chain, link) / mean
        assert 0.9 < ratio < 1.15

    def test_seed_determinism(self):
        link = _link()
        chain = rp.ChainParams(nesting_level=1, swap_probability=0.9)
        a = rp.monte_carlo_time(chain, link, trials=15_000, seed=11)
        b = rp.monte_carlo_time(chain, link, trials=15_000, seed=11)
        c = rp.monte_carlo_time(chain, link, trials=15_000, seed=12)
        assert a == b
        assert a != c

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            rp.monte_carlo_time(rp.ChainParams(), _link(), trials=100)

    @staticmethod
    def single_swap_mean(link, swap_probability):
        # E[max of two geometric(P0) slot counts] = 2/P0 - 1/(P0 (2 - P0)),
        # paid 1/P1 times on average
        q = rp.p0(link)
        return rp.attempt_time(link) * (2 / q - 1 / (q * (2 - q))) / swap_probability

    @staticmethod
    def numpy_geometric_estimate(link, trials, seed):
        # the oracle's exact-sum formula over numpy's own geometric draws
        k = np.random.default_rng(seed).geometric(rp.p0(link), trials)
        s1, s2, t_a = int(k.sum()), int(k @ k), rp.attempt_time(link)
        variance = (trials * s2 - s1 * s1) / (trials * (trials - 1))
        return (float(Fraction(t_a) * s1 / trials),
                t_a * math.sqrt(variance) / math.sqrt(trials))

    # 0.3 is the retry-heavy path: 70 % of first tries fail and resample
    @pytest.mark.parametrize("swap_probability", [0.81, 1.0, 0.3])
    def test_single_swap_exact_mean_over_seeds(self, swap_probability):
        link = _link()
        chain = rp.ChainParams(nesting_level=1, swap_probability=swap_probability)
        expected = self.single_swap_mean(link, swap_probability)
        for seed in range(5):
            mean, stderr = rp.monte_carlo_time(chain, link, trials=20_001, seed=seed)[-1]
            assert abs(mean - expected) < 4.5 * stderr

    def test_certain_swaps_never_retry_in_a_deep_tree(self):
        # at P = 1 no first try fails, so no node draws a retry
        link = _link()
        chain = rp.ChainParams(nesting_level=3, swap_probability=1.0)
        rows = rp.monte_carlo_time(chain, link, trials=20_001, seed=6)
        assert all(math.isfinite(mean) and math.isfinite(stderr) for mean, stderr in rows)
        mean, stderr = rows[1]
        assert abs(mean - self.single_swap_mean(link, 1.0)) < 4.5 * stderr

    def test_deep_tree_row_zero_is_the_no_swap_call_bitwise(self):
        # row 0 draws its leaves before the tree, so n does not touch it
        link = _link()
        deep = rp.monte_carlo_time(rp.ChainParams(nesting_level=3), link,
                                   trials=20_001, seed=7)
        assert deep[0] == rp.monte_carlo_time(rp.ChainParams(nesting_level=0), link,
                                              trials=20_001, seed=7)[0]

    @staticmethod
    def two_swap_mean(link, swap_probability):
        # exact E[T2] on a slot grid.  A level-1 node's slot count T1 is a
        # geometric(P) sum of iid M, the larger of two geometric(P0) leaves,
        # so its pmf is f1[t] = P fM[t] + (1 - P) sum_{s >= 1} fM[s] f1[t - s];
        # summed over the tail that is S1[t] = SM[t] + (1 - P) sum_{s=1..t}
        # fM[s] S1[t - s] for S1(t) = P(T1 > t), free of 1 - F cancellation.
        # T2 sums max of two iid T1 over geometric(P) tries, so
        # E[T2] = sum_{t >= 0} (1 - F1(t)^2) / P
        q, prob = 1.0 - rp.p0(link), swap_probability
        t = np.arange(int(60 / (-math.log(q) * prob)))
        tail_max = 1.0 - (1.0 - q**t) ** 2
        f_max = -np.diff(tail_max, prepend=1.0)
        tail = tail_max.copy()
        for k in range(1, t.size):
            tail[k] += (1 - prob) * (f_max[1:k + 1] @ tail[k - 1::-1])
        assert tail[-1] < 1e-15
        return rp.attempt_time(link) * (tail * (2.0 - tail)).sum() / prob

    @pytest.mark.parametrize("swap_probability", [0.81, 0.3])
    def test_two_swap_row_matches_exact_law_over_seeds(self, swap_probability):
        link = _link()
        chain = rp.ChainParams(nesting_level=2, swap_probability=swap_probability)
        expected = self.two_swap_mean(link, swap_probability)
        for seed in range(5):
            mean, stderr = rp.monte_carlo_time(chain, link, trials=20_001, seed=seed)[2]
            assert abs(mean - expected) < 4.5 * stderr, (seed, mean, expected)

    # 20,001 trials leave a partial last block; 2 blocks fill exactly
    @pytest.mark.parametrize("seed, trials", [(5, 20_001), (0, 2 * rp._MC_BLOCK)])
    def test_no_swap_matches_numpy_geometric_bitwise(self, seed, trials):
        link = _link()
        assert (rp.monte_carlo_time(rp.ChainParams(nesting_level=0), link,
                                    trials=trials, seed=seed)[-1]
                == self.numpy_geometric_estimate(link, trials, seed))

    def test_no_swap_mean_is_correctly_rounded_over_seeds(self):
        # the float product t_a * S1 / N misses the correctly rounded mean by
        # one ulp on about a quarter of these seeds
        link = _link()
        for seed in range(50):
            mean, _ = rp.monte_carlo_time(rp.ChainParams(nesting_level=0), link,
                                          trials=100_000, seed=seed)[-1]
            assert mean == self.numpy_geometric_estimate(link, 100_000, seed)[0], seed

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_swap_rounding_regime_matches_two_pass_moments(self, seed):
        # at 400 km the slot counts pass 1e6, so a block's sum of squares
        # passes 2^53 and rounds; the result must still agree with numpy's
        # two-pass mean and standard deviation of the same draws
        link = _link(length_km=400.0)
        trials = 20_001
        k = np.random.default_rng(seed).geometric(rp.p0(link), trials)
        assert np.median(k) > 1e6
        times = rp.attempt_time(link) * k
        ref_mean = np.mean(times)
        ref_stderr = np.std(times, ddof=1) / math.sqrt(trials)
        mean, stderr = rp.monte_carlo_time(rp.ChainParams(nesting_level=0), link,
                                           trials=trials, seed=seed)[-1]
        assert abs(mean - ref_mean) <= 1e-12 * ref_mean
        assert abs(stderr - ref_stderr) <= 1e-12 * ref_stderr

    @staticmethod
    def retry_loop_estimate(chain, link, trials, seed):
        # reference: regenerate both children and retry the swap until it succeeds
        rng = np.random.default_rng(seed)

        def sample(level, size):
            if level == 0:
                return rp.attempt_time(link) * rng.geometric(rp.p0(link), size=size)
            total = np.zeros(size)
            active = np.arange(size)
            while active.size:
                total[active] += np.maximum(sample(level - 1, active.size),
                                            sample(level - 1, active.size))
                active = active[rng.random(active.size) >= chain.swap_probability]
            return total

        times = sample(chain.nesting_level, trials)
        return float(times.mean()), float(times.std(ddof=1) / math.sqrt(trials))

    @pytest.mark.parametrize("nesting_level", [2, 3])
    def test_agrees_with_retry_loop_reference(self, nesting_level):
        # every row of the tree, each against the reference at its own level
        link = _link()
        chain = rp.ChainParams(nesting_level=nesting_level, swap_probability=0.7)
        rows = rp.monte_carlo_time(chain, link, trials=40_000, seed=8)
        assert len(rows) == nesting_level + 1
        for level in range(1, nesting_level + 1):
            mean, stderr = rows[level]
            ref_mean, ref_stderr = self.retry_loop_estimate(
                rp.ChainParams(nesting_level=level, swap_probability=0.7), link, 40_000,
                seed=9)
            assert abs(mean - ref_mean) < 4.5 * math.hypot(stderr, ref_stderr), level

    def test_lower_rows_of_a_deep_tree_match_closed_forms_over_seeds(self):
        # rows 0 and 1 of an n = 3 tree against the geometric mean and the
        # exact single-swap mean
        link = _link()
        chain = rp.ChainParams(nesting_level=3, swap_probability=0.81)
        expected = [rp.mean_time(rp.ChainParams(nesting_level=0), link),
                    self.single_swap_mean(link, 0.81)]
        for seed in range(5):
            rows = rp.monte_carlo_time(chain, link, trials=20_001, seed=seed)
            for (mean, stderr), want in zip(rows, expected):
                assert abs(mean - want) < 4.5 * stderr, (seed, mean, want)

    def test_certain_swap_node_follows_the_larger_leaf_law(self):
        # at swap probability 1 a level-1 node is one pair's larger leaf M,
        # P(M <= k) = (1 - q^k)^2 with q = 1 - P0; its mean and second moment
        # are sums of P(M > k) and (2k + 1) P(M > k) over k >= 0
        link = _link()
        q = 1.0 - rp.p0(link)
        k = np.arange(int(40 / -math.log(q)))
        tail = 1.0 - (1.0 - q**k) ** 2
        assert tail[-1] < 1e-15
        mean_slots, square_slots = tail.sum(), ((2 * k + 1) * tail).sum()
        t_a, trials = rp.attempt_time(link), 400_000
        chain = rp.ChainParams(nesting_level=1, swap_probability=1.0)
        mean, stderr = rp.monte_carlo_time(chain, link, trials=trials, seed=4)[-1]
        assert abs(mean - t_a * mean_slots) < 4.5 * stderr
        exact_std = t_a * math.sqrt(square_slots - mean_slots**2)
        assert stderr * math.sqrt(trials) == pytest.approx(exact_std, rel=0.01)

    def test_zero_success_probability_named(self):
        with pytest.raises(ValueError, match="p0 = 0.0"):
            rp.monte_carlo_time(rp.ChainParams(nesting_level=1),
                                _link(detection_efficiency=0.0), trials=10_000)

    def test_peak_memory_bounded_in_the_nesting_level(self):
        # a block holds at most _MC_LEAVES expected leaf draws, so n = 7, which
        # draws (2 / 0.81)^4 = 37 times the leaves of n = 3 per trial, peaks
        # near n = 3
        link = _link()
        rp.monte_carlo_time(rp.ChainParams(nesting_level=3), link, trials=10_000)  # warm numpy
        peaks = {}
        for n in (3, 7):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rp.monte_carlo_time(rp.ChainParams(nesting_level=n), link, trials=10_000)
                peaks[n] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peaks[7] <= 2 * peaks[3], peaks

    def test_level_past_the_leaf_budget_named_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(ValueError, match=r"\[chain\] nesting_level = 14 is past the "
                                             r"Monte-Carlo limit n <= 13 at swap probability "
                                             r"0.81"):
            rp.monte_carlo_time(rp.ChainParams(nesting_level=14), _link(), trials=10_000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_peak_memory_independent_of_trials(self, seed):
        # one block's arrays at a time: 2e6 trials must fit where 2e5 do
        link = _link()
        chain = rp.ChainParams(nesting_level=3)
        rp.monte_carlo_time(chain, link, trials=10_000, seed=seed)  # warm numpy
        for trials in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rp.monte_carlo_time(chain, link, trials=trials, seed=seed)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, trials


class TestResidualCoherence:
    def test_zero_wait(self):
        chain = rp.ChainParams(storage_policy="cat", kappa_eff=12.0)
        assert rp.residual_coherence(chain, 0.0) == 1.0

    def test_fock_policy_arithmetic(self):
        chain = rp.ChainParams(storage_policy="fock", kappa=0.1)
        assert rp.residual_coherence(chain, 1.0) == pytest.approx(
            math.exp(-0.1), abs=1e-12)
        assert rp.residual_coherence(chain, 1.0) == pytest.approx(0.9048, abs=1e-4)

    def test_cat_is_fock_to_the_fourth_at_root_two(self):
        kappa = 0.37
        chain_fock = rp.ChainParams(storage_policy="fock", kappa=kappa)
        chain_cat = rp.ChainParams(storage_policy="cat", kappa_eff=4 * kappa)
        t = 0.8
        assert rp.residual_coherence(chain_cat, t) == pytest.approx(
            rp.residual_coherence(chain_fock, t) ** 4, rel=1e-10)

    def test_transfer_policy(self):
        chain = rp.ChainParams(storage_policy="transfer", transfer_lifetime_s=10.0)
        assert rp.residual_coherence(chain, 2.0) == pytest.approx(math.exp(-0.2))

    @pytest.mark.parametrize("lifetime", [0.0, -1.0])
    def test_nonpositive_transfer_lifetime_rejected(self, lifetime):
        with pytest.raises(ValueError, match="transfer_lifetime_s"):
            rp.ChainParams(storage_policy="transfer", transfer_lifetime_s=lifetime)

    @pytest.mark.parametrize("speed", [0.0, -2e5, math.nan])
    def test_nonpositive_fiber_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="fiber_speed_km_s"):
            _link(fiber_speed_km_s=speed)


class TestFidelityBudget:
    def test_unit_fidelities(self):
        ops = {k: 1.0 for k in rp.OPERATION_INVENTORY}
        assert rp.elementary_fidelity(ops, "cat") == 1.0

    def test_uniform_fidelity_inventory_count(self):
        ops = {k: 0.999 for k in rp.OPERATION_INVENTORY}
        expected = 0.999**22  # 6+2+4+4+4+2 operations
        assert rp.elementary_fidelity(ops, "cat") == pytest.approx(expected, abs=1e-12)
        assert rp.elementary_fidelity(ops, "cat") == pytest.approx(0.9782, abs=1e-4)

    def test_fock_policy_adds_four_operations(self):
        ops = {k: 0.999 for k in rp.OPERATION_INVENTORY}
        assert rp.elementary_fidelity(ops, "fock") == pytest.approx(
            0.999**26, abs=1e-12)

    def test_operation_counts(self):
        assert rp.operation_counts("cat") == rp.OPERATION_INVENTORY
        for policy in ("fock", "transfer"):
            counts = rp.operation_counts(policy)
            assert counts["drive"] == rp.OPERATION_INVENTORY["drive"] + 2
            assert counts["undrive"] == rp.OPERATION_INVENTORY["undrive"] + 2
            assert sum(counts.values()) == 26

    def test_missing_key_rejected(self):
        ops = {k: 0.999 for k in rp.OPERATION_INVENTORY}
        del ops["cnot"]
        with pytest.raises(KeyError):
            rp.elementary_fidelity(ops, "cat")

    def test_final_fidelity_worked_example(self):
        # n=1: 0.99^2 * 0.99 * 0.95
        val = rp.final_fidelity(0.99, 0.99, 1, 0.95)
        assert val == pytest.approx(0.99**2 * 0.99 * 0.95, abs=1e-15)
        assert val == pytest.approx(0.92178, abs=1e-5)

    def test_perfect_chain(self):
        assert rp.final_fidelity(1.0, 1.0, 3, 1.0) == 1.0

    def test_monotone_in_nesting(self):
        vals = [rp.final_fidelity(0.99, 0.995, n, 1.0) for n in range(4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_swap_fidelity_composition(self):
        ops = {"cnot": 0.99, "x_half": 0.999, "z_half": 0.9995, "x_pi": 0.998}
        expected = 0.99 * (0.999**2 * 0.9995) * (0.998 * 0.9995**2)
        assert rp.swap_fidelity(ops) == pytest.approx(expected, rel=1e-12)


class TestComparators:
    def test_direct_transmission_values(self):
        assert rp.direct_transmission_rate(0.0) == pytest.approx(1e9)
        assert rp.direct_transmission_rate(244.0) == pytest.approx(1.53e4, rel=0.02)

    def test_halving_distance(self):
        half_distance = 22.0 * math.log(2)
        r1 = rp.direct_transmission_rate(100.0)
        r2 = rp.direct_transmission_rate(100.0 + half_distance)
        assert r2 == pytest.approx(r1 / 2, rel=1e-9)

    def test_dlcz_ideal_limit_reduces_to_half_swaps(self):
        # unit efficiencies: swap probability per level collapses to 1/2
        curves = _figure_curves([100.0], rp.ChainParams(nesting_level=2), _link(),
                                dlcz_generation_probability=1.0,
                                dlcz_memory_efficiency=1.0, dlcz_detection_efficiency=1.0)
        link = rp.LinkParams(length_km=100.0 / 4, emission_probability=1.0,
                             detection_efficiency=1.0, operation_time_s=0.0)
        chain = rp.ChainParams(nesting_level=2, swap_probability=0.5)
        assert curves["dlcz_m1"][0] == pytest.approx(rp.distribution_rate(chain, link),
                                                     rel=1e-12)

    def test_re_slower_than_cat_at_equal_parameters(self):
        # the same chain and link but for the local time: 2e-5 s for cat, 1e-4 s for RE
        curves = _figure_curves([300.0, 500.0, 800.0], rp.ChainParams(nesting_level=3),
                                _link(operation_time_s=2e-5), re_operation_time_s=1e-4)
        assert (curves["cat_m1"] > curves["re_m1"]).all()

    def test_fidelity_ceilings_attached(self):
        assert rp.DLCZ_FIDELITY_CEILING == 0.75
        assert rp.RE_FIDELITY_CEILING == 0.80

    def test_re_outrates_dlcz_at_400_km(self):
        curves = _figure_curves([400.0], rp.ChainParams(nesting_level=3), _link())
        assert curves["re_m200"][0] > curves["dlcz_m200"][0]


class TestCrossover:
    def test_solves_analytic_crossing(self):
        scheme = lambda L: 100.0 * math.exp(-L / 200.0)
        reference = lambda L: 1e4 * math.exp(-L / 50.0)
        # equal when L (1/50 - 1/200) = ln(1e4/100) => L = ln(100)/0.015
        expected = math.log(100.0) / (1 / 50 - 1 / 200)
        found = rp.crossover(scheme, reference, bracket=(50, 1000))
        assert found == pytest.approx(expected, abs=0.1)

    def test_residual_gap_small(self):
        scheme = lambda L: 100.0 * math.exp(-L / 200.0)
        reference = lambda L: 1e4 * math.exp(-L / 50.0)
        found = rp.crossover(scheme, reference, bracket=(50, 1000))
        assert abs(scheme(found) - reference(found)) / reference(found) < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 200)), st.data())
    def test_independent_of_bracket(self, m, data):
        # any bracket inside the configured [60, 1500] km that contains the
        # root gives the default bracket's distance to within the tolerance
        chain = rp.ChainParams(nesting_level=3, multiplexing=m, storage_policy="cat")
        scheme = rp.rate_curve(chain, _link(operation_time_s=6e-5))
        root = scipy.optimize.brentq(
            lambda L: math.log(scheme(L)) - math.log(rp.direct_transmission_rate(L)),
            60.0, 1500.0, xtol=1e-12)
        lo = data.draw(st.floats(min_value=60.0, max_value=root, exclude_max=True))
        hi = data.draw(st.floats(min_value=root, max_value=1500.0, exclude_min=True))
        reference = rp.crossover(scheme, rp.direct_transmission_rate, bracket=(60.0, 1500.0))
        found = rp.crossover(scheme, rp.direct_transmission_rate, bracket=(lo, hi))
        assert found == pytest.approx(reference, abs=rp.CROSSOVER_TOL_KM)

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError):
            rp.crossover(lambda L: 1.0, lambda L: 2.0, bracket=(10, 20))

    @pytest.mark.parametrize("zero_curve", ["scheme", "reference"])
    def test_rate_that_is_not_positive_named(self, zero_curve):
        curves = {"scheme": lambda L: 1.0, "reference": lambda L: 2.0}
        curves[zero_curve] = lambda L: 0.0
        with pytest.raises(ValueError, match=f"{zero_curve} rate 0.0 /s at 10.0 km"):
            rp.crossover(curves["scheme"], curves["reference"], bracket=(10, 20))

    def test_zero_emission_probability_named(self):
        scheme = rp.rate_curve(rp.ChainParams(nesting_level=3, multiplexing=1),
                               _link(emission_probability=0.0))
        with pytest.raises(ValueError, match="scheme rate 0.0 /s at 60.0 km"):
            rp.crossover(scheme, rp.direct_transmission_rate, bracket=(60.0, 1500.0))
