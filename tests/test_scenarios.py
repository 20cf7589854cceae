import math
from dataclasses import replace

import pytest

from catlink import catqubit as cq
from catlink import cli
from catlink import repeater as rp
from catlink import scenarios as sn
from catlink.config import ConfigError, load_config
from catlink.dynamics import PiecewiseConstantPropagator


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

    def test_operation_time_scales_with_policy(self):
        durations = sn.operation_durations(_default_row(1e5), 45.0, 55.0, 0.5)
        cat = sn.operation_time(durations, "cat")
        fock = sn.operation_time(durations, "fock")
        assert fock > cat  # extra drive/undrive pair per node
        assert 1e-5 < cat < 1e-3

    @pytest.mark.parametrize("policy", ["fock", "transfer"])
    def test_fock_storage_adds_one_drive_and_undrive_per_node(self, policy):
        # dyadic durations keep the sums exact
        durations = {op: 2.0 ** -(i + 10) for i, op in enumerate(rp.OPERATION_INVENTORY)}
        assert sn.operation_time(durations, policy) == \
            sn.operation_time(durations, "cat") + durations["drive"] + durations["undrive"]

    def test_adiabatic_drive_method(self):
        kerr = sn.TABLE_ROW_DEFAULTS[1e3]
        params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e3)
        budget = sn.operation_budget(params, 10.0, 15.0, "adiabatic",
                                     cli._grape_settings(load_config()))
        assert budget.fidelities["drive"] == pytest.approx(0.9962, abs=0.002)

    def test_adiabatic_overflow_names_its_row(self):
        # the budget's ramps are batches of one row, whose errors name it
        params = replace(_default_row(1e5), dim=8)
        with pytest.raises(cq.TruncationOverflowError,
                           match=r"^K/kappa = 100000 row, drive: population "):
            sn.operation_budget(params, 45.0, 55.0, "adiabatic",
                                cli._grape_settings(load_config()))


def _default_row(ratio):
    kerr = sn.TABLE_ROW_DEFAULTS[ratio]
    return cq.CatQubitParams(kerr=kerr, kappa=kerr / ratio)


class TestOperationDurations:
    # the default config's rows, with the default [grape] pulse length
    @pytest.mark.parametrize("row", cli._row_params(load_config()),
                             ids=lambda row: f"{row[0]:g}")
    @pytest.mark.parametrize("drive_method", ["grape", "adiabatic"])
    def test_equal_to_the_simulated_records_bitwise(self, row, drive_method):
        _, params, drive_ratio, coupling_ratio = row
        e_x = params.two_photon_amplitude / drive_ratio
        e_c = params.two_photon_amplitude / coupling_ratio
        if drive_method == "grape":
            ramp_kt = load_config().get("grape", "duration_kt")
            ramp = ramp_kt / params.kerr
        else:
            ramp_kt = cq.DRIVE_RAMP_KT
            ramp = cq.adiabatic_drive_pulse(params, duration_kt=ramp_kt).duration
        records = {
            "drive": ramp, "undrive": ramp,
            "x_half": cq.gate_x(params, math.pi / 2, e_x).duration_s,
            "x_pi": cq.gate_x(params, math.pi, e_x).duration_s,
            "z_half": cq.gate_z(params, math.pi / 2).duration_s,
            # the CNOT's stages without their simulation: the propagator's sum
            "cnot": PiecewiseConstantPropagator(
                cq._cnot_stages(params, e_x, e_c, cq.TWO_QUBIT_DIM)).duration,
            "transduction": sn.TRANSDUCTION_TIME_S}
        durations = sn.operation_durations(params, drive_ratio, coupling_ratio, ramp_kt)
        assert durations == records
        assert all(type(t) is float for t in durations.values())

    def test_cnot_record_is_the_stage_sum(self):
        params = _default_row(1e3)
        e_x, e_c = params.two_photon_amplitude / 10.0, params.two_photon_amplitude / 15.0
        assert cq.cnot(params, e_x, e_c, 8).duration_s == \
            sn.operation_durations(params, 10.0, 15.0, 0.5)["cnot"]

    def test_documented_time_rounds_the_derived_one(self):
        derived = sn.operation_time(sn.operation_durations(_default_row(1e5), 45.0, 55.0,
                                                           0.5), "cat")
        assert derived == pytest.approx(5.845e-5, abs=5e-9)
        assert float(f"{derived:.0e}") == sn.DOCUMENTED_OPERATION_TIME_S


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
        chain, link = chain_and_link(budgets_1e4_1e5[1e5], nesting_level=3,
                                     storage_policy="cat")
        curves = sn.figure_rate_curves([300.0, 450.0, 600.0, 800.0], chain, link,
                                       **load_config()["comparators"])
        for m in ("m1", "m200"):
            assert (curves[f"cat_{m}"] > curves[f"dlcz_{m}"]).all()
            assert (curves[f"cat_{m}"] > curves[f"re_{m}"]).all()


class TestFigureCurves:
    @pytest.fixture()
    def curves_at(self, budgets_1e4_1e5, chain_and_link):
        chain, link = chain_and_link(budgets_1e4_1e5[1e5], nesting_level=3,
                                     storage_policy="cat")
        return lambda lengths: sn.figure_rate_curves(lengths, chain, link,
                                                     **load_config()["comparators"])

    def test_curve_inventory(self, curves_at):
        curves = curves_at([200.0, 400.0])
        assert set(curves) == {"L_km", "direct", "cat_m1", "cat_m200",
                               "re_m1", "re_m200", "dlcz_m1", "dlcz_m200"}
        for key, arr in curves.items():
            assert len(arr) == 2

    def test_direct_reference_value(self, curves_at):
        curves = curves_at([220.0])
        assert curves["direct"][0] == pytest.approx(1e9 * math.exp(-10.0))

    def test_direct_follows_source_rate(self, budgets_1e4_1e5, chain_and_link):
        chain, link = chain_and_link(budgets_1e4_1e5[1e5], nesting_level=3,
                                     storage_policy="cat")
        comparators = load_config()["comparators"]
        base = sn.figure_rate_curves([220.0, 400.0], chain, link, **comparators)
        doubled = sn.figure_rate_curves([220.0, 400.0], chain, link,
                                        **{**comparators, "source_rate_hz": 2e9})
        assert doubled["direct"] == pytest.approx(2.0 * base["direct"], rel=1e-12)
        assert doubled["cat_m200"] == pytest.approx(base["cat_m200"], rel=1e-12)
