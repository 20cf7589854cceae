import math

import numpy as np
import pytest

from catlink import transducer as td

TP = 2 * math.pi


@pytest.fixture(scope="module")
def reference_result():
    return td.spin_transfer_efficiency(td.TransducerParams())


@pytest.fixture(scope="module")
def dephasing_result():
    return td.spin_transfer_efficiency(td.TransducerParams(gamma2_model="dephasing"))


class TestTransferEfficiency:
    def test_ideal_resonant_swap(self):
        params = td.TransducerParams(natural_linewidth=0.0, spin_decay=0.0,
                                     spin_dephasing=0.0, cavity_decay=0.0)
        res = td.spin_transfer_efficiency(params)
        assert res.efficiency == pytest.approx(1.0, abs=1e-6)

    def test_reference_parameters_hit_anchor(self, reference_result):
        assert reference_result.efficiency == pytest.approx(0.9904, abs=0.005)
        assert reference_result.converged

    def test_probability_conservation(self, reference_result):
        total = (reference_result.efficiency + reference_result.cavity_population
                 + reference_result.lost_population)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_probability_conservation_dephasing(self, dephasing_result):
        # the loss model defines its sink as 1 - spin - cavity, but the
        # density matrix of the dephasing model integrates the sink itself
        total = (dephasing_result.efficiency + dephasing_result.cavity_population
                 + dephasing_result.lost_population)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bin_drift_reported(self, reference_result):
        assert 0.0 <= reference_result.bin_drift < 1e-3

    def test_monotone_in_inhomogeneous_linewidth(self):
        etas = []
        for linewidth in (TP * 5e6, TP * 10e6, TP * 20e6):
            p = td.TransducerParams(natural_linewidth=linewidth)
            etas.append(td.spin_transfer_efficiency(p).efficiency)
        assert etas[0] > etas[1] > etas[2]

    def test_scale_invariance(self, reference_result):
        p1 = td.TransducerParams()
        s = 2.9
        p2 = td.TransducerParams(ensemble_coupling=p1.ensemble_coupling * s,
                                 natural_linewidth=p1.natural_linewidth * s,
                                 spin_decay=p1.spin_decay * s,
                                 spin_dephasing=p1.spin_dephasing * s,
                                 cavity_decay=p1.cavity_decay * s)
        res = td.spin_transfer_efficiency(p2)
        assert res.efficiency == pytest.approx(reference_result.efficiency, abs=1e-9)

    def test_lineshape_delta_reported_not_asserted(self, reference_result, capsys):
        gauss = td.spin_transfer_efficiency(td.TransducerParams(lineshape="gaussian"))
        delta = gauss.efficiency - reference_result.efficiency
        print(f"lineshape delta (gaussian - lorentzian): {delta:+.5f}")
        assert 0.0 <= gauss.efficiency <= 1.0

    def test_transfer_time(self):
        p = td.TransducerParams()
        assert p.transfer_time == pytest.approx(math.pi / (2 * p.ensemble_coupling))

    def test_dephasing_variant_available(self, dephasing_result):
        # pure dephasing conserves spin population, so it scores higher
        assert dephasing_result.efficiency > 0.99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            td.TransducerParams(n_bins=50)
        with pytest.raises(ValueError):
            td.TransducerParams(n_bins=200)
        with pytest.raises(ValueError):
            td.TransducerParams(lineshape="boxcar")
        with pytest.raises(ValueError):
            td.TransducerParams(echo_efficiency=1.2)

    @pytest.mark.parametrize("field, value", [("span_fwhm", 0.0), ("span_fwhm", -5.0),
                                              ("natural_linewidth", -TP * 1e6)])
    def test_nonphysical_grid_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            td.TransducerParams(**{field: value})


class TestAmplitudeSolver:
    @pytest.mark.parametrize("lineshape", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("n_bins", [51, 101])
    def test_matches_density_matrix(self, lineshape, n_bins):
        p = td.TransducerParams(n_bins=n_bins, lineshape=lineshape)
        amplitudes = td._transfer_amplitudes(p)
        density = td._transfer_density_matrix(p)
        assert amplitudes == pytest.approx(density, abs=1e-8)

    def test_common_decay_closed_form(self):
        # no inhomogeneous broadening and equal cavity and spin decay: H_eff
        # is the lossless swap plus -i gamma / 2 on every amplitude
        gamma = TP * 50e3
        p = td.TransducerParams(natural_linewidth=0.0, spin_decay=TP * 10e3,
                                spin_dephasing=TP * 40e3, cavity_decay=gamma)
        res = td.spin_transfer_efficiency(p)
        assert res.efficiency == pytest.approx(math.exp(-gamma * p.transfer_time),
                                               abs=1e-8)
        assert res.cavity_population == pytest.approx(0.0, abs=1e-8)


class TestDensityMatrixSolver:
    def test_arrowhead_commutator_matches_dense(self):
        rng = np.random.default_rng(5)
        d = 13
        h = np.diag(rng.normal(size=d)).astype(complex)
        h[0, 1:] = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
        h[1:, 0] = rng.normal(size=d - 1) - 1j * rng.normal(size=d - 1)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        fast = td._arrowhead_commutator(h)(rho)
        assert np.max(np.abs(fast - (h @ rho - rho @ h))) <= 1e-12


class TestBudget:
    def test_unit_factors(self):
        p = td.TransducerParams(echo_efficiency=1.0, coupling_efficiency=1.0)
        transfer = td.TransferResult(efficiency=1.0, cavity_population=0.0,
                                     lost_population=0.0, converged=True, bin_drift=0.0)
        assert td.transduction_budget(p, transfer) == 1.0

    def test_product_arithmetic(self):
        p = td.TransducerParams(echo_efficiency=0.90, coupling_efficiency=0.95)
        transfer = td.TransferResult(efficiency=0.9904, cavity_population=0.0,
                                     lost_population=0.0096, converged=True,
                                     bin_drift=0.0)
        assert td.transduction_budget(p, transfer) == pytest.approx(0.8468, abs=1e-4)

    def test_defaults_land_at_point_eight(self, reference_result):
        budget = td.transduction_budget(td.TransducerParams(), reference_result)
        assert budget == pytest.approx(0.80, abs=0.005)
