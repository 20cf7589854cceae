import math

import numpy as np
import pytest

from catlink import device as dv
from catlink import qcore as qc
from catlink.catqubit import CatQubitParams, _stabilized_h
from catlink.dynamics import evolve_constant

TP = 2 * math.pi

BASE = dict(cavity_freq=TP * 5e9, qubit_freq=TP * 6.5e9, anharmonicity=TP * 250e6,
            cavity_decay=TP * 0.32, qubit_decay=TP * 1.6e3)


class TestDispersiveKerr:
    def test_fit_needs_its_top_level(self):
        # the fit reads |N_FIT_LEVELS, 0>, so one level fewer cannot hold it
        params = dv.DeviceParams(coupling=TP * 75e6, **BASE)
        with pytest.raises(ValueError, match="needs cavity_levels >= 6, got 5"):
            dv.dispersive_kerr(params, cavity_levels=dv.N_FIT_LEVELS)
        assert dv.dispersive_kerr(params, cavity_levels=dv.N_FIT_LEVELS + 1).kerr > 0

    def test_uncoupled_modes_have_no_kerr(self):
        fit = dv.dispersive_kerr(dv.DeviceParams(coupling=0.0, **BASE))
        assert abs(fit.kerr) < 1e-6 * BASE["anharmonicity"]

    def test_linear_ancilla_inherits_nothing(self):
        params = dict(BASE, anharmonicity=0.0)
        fit = dv.dispersive_kerr(dv.DeviceParams(coupling=TP * 100e6, **params))
        assert abs(fit.kerr) < 1e-10 * BASE["anharmonicity"]

    def test_quartic_scaling_in_coupling(self):
        detuning = TP * 1.5e9
        k1 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.05 * detuning, **BASE)).kerr
        k2 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.025 * detuning, **BASE)).kerr
        assert k1 / k2 == pytest.approx(16.0, rel=0.25)

    def test_spacing_fit_residual_small(self):
        # the Kerr-model trend holds to < 1% in the weakly anharmonic regime
        # the model assumes (higher K_q / detuning adds level-dependent
        # corrections that show up as residual, not as a bad fit)
        weak = dict(BASE, anharmonicity=TP * 100e6, qubit_freq=TP * 8e9)
        detuning = TP * 3e9
        fit = dv.dispersive_kerr(dv.DeviceParams(coupling=0.1 * detuning, **weak))
        assert fit.residual < 0.01 * abs(fit.kerr)

    def test_global_frequency_shift_invariance(self):
        detuning = TP * 1.5e9
        shift = TP * 0.7e9
        k1 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.05 * detuning, **BASE)).kerr
        shifted = dict(BASE)
        shifted["cavity_freq"] += shift
        shifted["qubit_freq"] += shift
        k2 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.05 * detuning, **shifted)).kerr
        assert k2 == pytest.approx(k1, rel=1e-8)

    def test_dispersive_violation_rejected(self):
        with pytest.raises(ValueError):
            dv.dispersive_kerr(dv.DeviceParams(coupling=0.5 * TP * 1.5e9, **BASE))

    def test_ambiguous_dressed_state_rejected(self):
        # g/Delta = 0.25 passes check_dispersive but mixes |4, 0> too strongly
        with pytest.raises(ValueError, match="ambiguous for level 4"):
            dv.dispersive_kerr(dv.DeviceParams(coupling=0.25 * TP * 1.5e9, **BASE))

    def test_truncation_convergence(self):
        detuning = TP * 1.5e9
        params = dv.DeviceParams(coupling=0.08 * detuning, **BASE)
        k1 = dv.dispersive_kerr(params, cavity_levels=12, qubit_levels=5).kerr
        k2 = dv.dispersive_kerr(params, cavity_levels=14, qubit_levels=7).kerr
        assert k2 == pytest.approx(k1, rel=5e-3)


class TestPurcellKappa:
    def test_uncoupled_limit(self):
        assert dv.purcell_kappa(1.0, 100.0, 0.0, 10.0) == 1.0

    def test_full_hybridization_limit(self):
        assert dv.purcell_kappa(1.0, 100.0, 10.0, 10.0) == 100.0

    def test_small_shift_when_qubit_dominated(self):
        # ten-fold worse bare cavity barely moves kappa when the ancilla
        # channel dominates
        gamma = TP * 1.6e3
        ratio2 = 0.0243
        k_small = dv.purcell_kappa(TP * 0.32, gamma, math.sqrt(ratio2), 1.0)
        k_large = dv.purcell_kappa(TP * 3.2, gamma, math.sqrt(ratio2), 1.0)
        assert abs(k_large - k_small) / k_small < 0.05 * 1.6

    def test_monotone_in_qubit_decay_and_coupling(self):
        base = dv.purcell_kappa(1.0, 50.0, 1.0, 10.0)
        assert dv.purcell_kappa(1.0, 80.0, 1.0, 10.0) > base
        assert dv.purcell_kappa(1.0, 50.0, 2.0, 10.0) > base

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            dv.purcell_kappa(1.0, 10.0, 1.0, 0.0)


class TestKappaEff:
    def test_cat_decoherence_rate(self):
        rate = dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=math.sqrt(2))
        assert rate / 1e-3 == pytest.approx(4.0, rel=0.10)

    def test_matches_exact_propagation(self):
        # the antisymmetric coherence propagated by expm decays at the mode's
        # rate between every pair of samples
        kerr, kappa, alpha, dim = 1.0, 1e-3, math.sqrt(2), 20
        rate = dv.kappa_eff(kerr, kappa, alpha)
        h = _stabilized_h(CatQubitParams(kerr=kerr, kappa=kappa, alpha=alpha, dim=dim))
        plus = qc.cat_state(alpha, "even", dim)
        minus = qc.cat_state(alpha, "odd", dim)
        rho0 = 0.5 * (np.outer(plus, minus.conj()) - np.outer(minus, plus.conj()))
        times = np.array([0.0, 0.5, 1.0, 1.5]) / rate
        rhos = evolve_constant(h, [(qc.annihilation(dim), kappa)], rho0, times)
        coherence = np.array([0.5 * (np.vdot(plus, r @ minus) - np.vdot(minus, r @ plus))
                              for r in rhos])
        rates = -np.log(np.abs(coherence[1:] / coherence[:-1])) / np.diff(times)
        assert rates == pytest.approx(np.full(3, rate), rel=1e-6)

    def test_default_row_is_one_mode_to_1e_6(self, monkeypatch):
        # the [device] defaults: g = 75 MHz, gamma = 1.6 kHz, alpha = sqrt(2)
        monkeypatch.setattr(dv, "MODE_LEFTOVER_LIMIT", 1e-6)
        d = dv.derive_device(dv.DeviceParams(coupling=TP * 75e6, **BASE))
        assert d.kappa_eff / d.kappa == pytest.approx(4.0, rel=1e-3)

    def test_cat_too_large_for_truncation_refused(self):
        # at alpha = 2.5 a Fock truncation of 20 spreads the coherence over
        # several modes (6 %), and the rate would be 1 % off
        with pytest.raises(ValueError, match="K = 1, kappa = 0.001, alpha = 2.5: no single"):
            dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=2.5)

    def test_zero_kerr_refused_by_name(self):
        with pytest.raises(ValueError, match="K = 0, kappa = 0.001, alpha = 1.41421: K must"):
            dv.kappa_eff(kerr=0.0, kappa=1e-3)

    def test_monotone_in_alpha(self):
        small = dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=0.5)
        large = dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=math.sqrt(2))
        assert small < large

    def test_lossless_limit(self):
        assert dv.kappa_eff(kerr=1.0, kappa=0.0) == 0.0


class TestDeviceTable:
    def test_row_count_preserved(self):
        detuning = TP * 1.5e9
        rows = [dv.DeviceParams(coupling=f * detuning, **BASE)
                for f in (0.05, 0.1, 0.15)]
        out = [dv.derive_device(r) for r in rows]
        assert len(out) == 3
        for d in out:
            assert d.kerr is not None and d.kappa is not None and d.kappa_eff is not None

    def test_ratio_span_reaches_1e3_to_1e5(self):
        # sweep over the cited parameter ranges: coupling fractions and
        # ancilla lifetimes (down to the improved-ancilla regime)
        detuning = TP * 1.5e9
        ratios = []
        for frac in (0.05, 0.1, 0.2):
            for gamma in (TP * 1.6e4, TP * 1.6e3, TP * 1.6e2, TP * 50.0):
                p = dict(BASE, qubit_decay=gamma)
                d = dv.derive_device(dv.DeviceParams(coupling=frac * detuning, **p))
                ratios.append(d.kerr / d.kappa)
        assert min(ratios) < 1e3
        assert max(ratios) > 1e5

    def test_equal_decays_reach_1e7_scale(self):
        # with the ancilla as long-lived as the bare cavity, the ratio climbs
        # toward the 1e7 scale (order of magnitude) at strong dispersive
        # coupling
        detuning = TP * 1.5e9
        p = dict(BASE, qubit_decay=BASE["cavity_decay"])
        d = dv.derive_device(dv.DeviceParams(coupling=0.2 * detuning, **p))
        assert d.kerr / d.kappa > 1e6
