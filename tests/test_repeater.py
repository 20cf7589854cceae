import math

import numpy as np
import pytest

from catlink import repeater as rp


def _link(**kw):
    defaults = dict(length_km=50.0, attenuation_km=22.0, emission_probability=0.8,
                    detection_efficiency=0.9, operation_time_s=1e-4)
    defaults.update(kw)
    return rp.LinkParams(**defaults)


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


class TestMonteCarlo:
    def test_geometric_closed_form_over_seeds(self):
        link = _link()
        chain = rp.ChainParams(nesting_level=0)
        expected = rp.mean_time(chain, link)
        for seed in range(10):
            mean, stderr = rp.monte_carlo_time(chain, link, trials=20_000, seed=seed)
            assert abs(mean - expected) < 3 * stderr

    def test_single_swap_ratio_window(self):
        # small P0 regime where the 3/2 approximation is good
        link = _link(length_km=150.0)
        chain = rp.ChainParams(nesting_level=1, swap_probability=1.0)
        mean, stderr = rp.monte_carlo_time(chain, link, trials=60_000, seed=3)
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
        fn = rp.dlcz_rate_curve(nesting_level=2, generation_probability=1.0,
                                memory_efficiency=1.0, detection_efficiency=1.0)
        link = rp.LinkParams(length_km=100.0 / 4, emission_probability=1.0,
                             detection_efficiency=1.0, operation_time_s=0.0)
        chain = rp.ChainParams(nesting_level=2, swap_probability=0.5)
        assert fn(100.0) == pytest.approx(rp.distribution_rate(chain, link), rel=1e-12)

    def test_re_slower_than_cat_at_equal_parameters(self):
        re_fn = rp.re_rate_curve(operation_time_s=1e-4)
        cat_like = rp.re_rate_curve(operation_time_s=2e-5)
        for L in (300.0, 500.0, 800.0):
            assert cat_like(L) > re_fn(L)

    def test_fidelity_ceilings_attached(self):
        assert rp.DLCZ_FIDELITY_CEILING == 0.75
        assert rp.RE_FIDELITY_CEILING == 0.80

    def test_re_outrates_dlcz_at_400_km(self):
        dlcz = rp.dlcz_rate_curve(nesting_level=3, multiplexing=200)
        re = rp.re_rate_curve(nesting_level=3, multiplexing=200)
        assert re(400.0) > dlcz(400.0)


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

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError):
            rp.crossover(lambda L: 1.0, lambda L: 2.0, bracket=(10, 20))
