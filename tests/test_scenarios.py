import math

import pytest

from catlink import catqubit as cq
from catlink import cli
from catlink import repeater as rp
from catlink import scenarios as sn
from catlink.config import ConfigError, load_config


class TestOperationBudget:
    def test_known_rows_have_defaults(self):
        for ratio in (1e3, 1e4, 1e5):
            assert ratio in sn.TABLE_ROW_DEFAULTS

    def test_unknown_ratio_needs_explicit_rates(self):
        config = load_config().with_overrides({("catqubit", "loss_ratios"): "3e3",
                                               ("catqubit", "drive_ratios"): "10",
                                               ("catqubit", "coupling_ratios"): "15"})
        with pytest.raises(ConfigError, match="kerr_hz"):
            cli._row_params(config)

    def test_budget_contents(self, budgets_1e4_1e5):
        budget = budgets_1e4_1e5[1e5]
        for op in ("drive", "undrive", "x_half", "x_pi", "z_half", "cnot",
                   "transduction"):
            assert 0.9 < budget.fidelities[op] <= 1.0
            assert budget.durations_s[op] > 0

    def test_operation_time_scales_with_policy(self, budgets_1e4_1e5):
        budget = budgets_1e4_1e5[1e5]
        cat = budget.operation_time("cat")
        fock = budget.operation_time("fock")
        assert fock > cat  # extra drive/undrive pair per node
        assert 1e-5 < cat < 1e-3

    def test_adiabatic_drive_method(self):
        kerr = sn.TABLE_ROW_DEFAULTS[1e3]
        params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e3)
        budget = sn.operation_budget(params, 10.0, 15.0, "adiabatic",
                                     cli._grape_settings(load_config()))
        assert budget.fidelities["drive"] == pytest.approx(0.9962, abs=0.002)
        assert budget.durations_s["drive"] == pytest.approx(7.2 / kerr)


class TestScenarioTable:
    def test_fixed_length_evaluation(self, budgets_1e4_1e5, chain_and_link):
        budget = budgets_1e4_1e5[1e5]
        chain, link = chain_and_link(budget, nesting_level=0, multiplexing=1,
                                     storage_policy="fock")
        rep = rp.evaluate_chain(50.0, chain, link, budget.fidelities)
        assert rep.length_km == 50.0
        assert rep.crossover_km is None
        # a single 50 km link beats the purification bound comfortably
        assert rep.final_fidelity > 0.5
        assert rep.rate_per_s == pytest.approx(1.0 / rep.mean_time_s, rel=1e-12)

    def test_report_invariants(self, budgets_1e4_1e5, chain_and_link):
        budget = budgets_1e4_1e5[1e5]
        chain, link = chain_and_link(budget, nesting_level=2, multiplexing=200,
                                     storage_policy="fock")
        cross = rp.crossover(rp.rate_curve(chain, link), rp.direct_transmission_rate,
                             bracket=(60.0, 1500.0))
        rep = rp.evaluate_chain(cross, chain, link, budget.fidelities, crossover_km=cross)
        assert rep.final_fidelity <= min(rep.elementary_fidelity, rep.swap_fidelity)
        assert rep.rate_per_s == pytest.approx(
            rep.multiplexing / rep.mean_time_s, rel=1e-12)

    def test_comparator_ordering_over_range(self, budgets_1e4_1e5, chain_and_link):
        # the cat scheme outrates the two comparators between 300 and 800 km
        budget = budgets_1e4_1e5[1e5]
        for m in (1, 200):
            cat = rp.rate_curve(*chain_and_link(budget, nesting_level=3, multiplexing=m,
                                                storage_policy="cat"))
            dlcz = rp.dlcz_rate_curve(nesting_level=3, multiplexing=m)
            re = rp.re_rate_curve(nesting_level=3, multiplexing=m)
            for L in (300.0, 450.0, 600.0, 800.0):
                assert cat(L) > dlcz(L)
                assert cat(L) > re(L)


class TestFigureCurves:
    @pytest.fixture()
    def curves_at(self, budgets_1e4_1e5, chain_and_link):
        chain, link = chain_and_link(budgets_1e4_1e5[1e5], nesting_level=3,
                                     storage_policy="cat")
        return lambda lengths: sn.figure_rate_curves(lengths, chain, link,
                                                     **load_config()["comparators"])

    def test_curve_inventory(self, curves_at):
        curves = curves_at([200.0, 400.0])
        assert set(curves) == {"L_km", "direct_1GHz", "cat_m1", "cat_m200",
                               "re_m1", "re_m200", "dlcz_m1", "dlcz_m200"}
        for key, arr in curves.items():
            assert len(arr) == 2

    def test_direct_reference_value(self, curves_at):
        curves = curves_at([220.0])
        assert curves["direct_1GHz"][0] == pytest.approx(1e9 * math.exp(-10.0))
