"""Acceptance suite: one test per criterion, each printing pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs as well.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from catlink import catqubit as cq
from catlink import device as dv
from catlink import pulseopt as po
from catlink import qcore
from catlink import repeater as rp
from catlink import scenarios as sn
from catlink import transducer as td
from catlink.dynamics import TimeDependentHamiltonian, evolve


def check(criterion: str, label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def test_criterion_1_formula_exact_reproductions():
    t0 = time.time()
    results = []

    link = rp.LinkParams(length_km=50.0)
    val = rp.p0(link)
    expected = 0.5 * math.exp(-50 / 22) * 0.8 * 0.81
    results.append(check("1", "P0(50 km)", abs(val - expected) < 1e-15
                         and abs(val - 0.03337) < 1e-4,
                         f"{val:.6f} vs 0.03337"))

    link = rp.LinkParams(length_km=50.0, attenuation_km=1e15,
                         emission_probability=0.2, detection_efficiency=1.0,
                         operation_time_s=0.05e-3)
    chain = rp.ChainParams(nesting_level=1, swap_probability=0.9)
    t_mean = rp.mean_time(chain, link)
    results.append(check("1", "<T> n=1 example", abs(t_mean - 5.0e-3) < 1e-9,
                         f"{t_mean*1e3:.6f} ms vs 5.00 ms"))

    f_tot = rp.final_fidelity(0.99, 0.99, 1, 0.95)
    results.append(check("1", "F_tot example", abs(f_tot - 0.92178405) < 1e-8,
                         f"{f_tot:.6f} vs 0.92178"))

    c_r = rp.residual_coherence(rp.ChainParams(storage_policy="fock", kappa=0.1), 1.0)
    results.append(check("1", "C_R fock example",
                         abs(c_r - math.exp(-0.1)) < 1e-15,
                         f"{c_r:.6f} vs 0.9048"))

    rate = rp.direct_transmission_rate(244.0)
    results.append(check("1", "direct transmission 244 km",
                         abs(rate - 1.53e4) / 1.53e4 < 0.02,
                         f"{rate:.1f}/s vs 1.53e4"))
    elapsed = time.time() - t0
    results.append(check("1", "runtime", elapsed < 5.0, f"{elapsed:.2f} s"))
    assert all(results)


# (name, nesting level, multiplexing, storage policy) of the two headline chains
_CROSSOVER_CHAINS = [("m1", 3, 1, "transfer"), ("m200", 3, 200, "cat")]


def _at_crossover(chain, link, budget):
    """The chain's report at its crossover with the 1 GHz direct source."""
    cross = rp.crossover(rp.rate_curve(chain, link), rp.direct_transmission_rate,
                         bracket=(60.0, 1500.0))
    return rp.evaluate_chain(cross, chain, link, budget.fidelities, crossover_km=cross)


def test_criterion_2_crossover_points():
    t0 = time.time()
    results = []
    for (name, nesting_level, multiplexing, storage_policy), target in zip(
            _CROSSOVER_CHAINS, (387.0, 244.0)):
        chain_kappa = sn.TABLE_ROW_DEFAULTS[1e5] / 1e5
        link = rp.LinkParams(length_km=100.0,
                             operation_time_s=sn.DOCUMENTED_OPERATION_TIME_S)
        chain = rp.ChainParams(nesting_level=nesting_level,
                               multiplexing=multiplexing,
                               swap_probability=0.9**2,
                               storage_policy=storage_policy,
                               kappa=chain_kappa, kappa_eff=4 * chain_kappa)
        found = rp.crossover(rp.rate_curve(chain, link), rp.direct_transmission_rate,
                             bracket=(60, 1500))
        ok = abs(found - target) <= 0.15 * target
        results.append(check("2", f"crossover {name}", ok,
                             f"{found:.1f} km vs {target:.0f} +/- {0.15*target:.1f}"))
    elapsed = time.time() - t0
    results.append(check("2", "runtime", elapsed < 10.0, f"{elapsed:.2f} s"))
    assert all(results)


def test_criterion_3_final_fidelities(budgets_1e4_1e5, chain_and_link):
    t0 = time.time()
    budget = budgets_1e4_1e5[1e5]
    reports = [_at_crossover(*chain_and_link(budget, nesting_level=n, multiplexing=m,
                                             storage_policy=policy), budget)
               for _, n, m, policy in _CROSSOVER_CHAINS]
    results = []
    for rep, (name, target) in zip(reports, (("m=1", 0.91), ("m=200", 0.92))):
        ok = abs(rep.final_fidelity - target) <= 0.03
        results.append(check("3", f"F_tot {name} at {rep.crossover_km:.0f} km", ok,
                             f"{rep.final_fidelity:.4f} vs {target} +/- 0.03"))
    elapsed = time.time() - t0
    results.append(check("3", "runtime (excl. shared budget fixture)",
                         elapsed < 300.0, f"{elapsed:.1f} s"))
    assert all(results)


def test_criterion_4_supplement_scenarios(budgets_1e4_1e5, chain_and_link):
    results = []
    reports = [_at_crossover(*chain_and_link(budgets_1e4_1e5[ratio], nesting_level=2,
                                             multiplexing=200, storage_policy="fock"),
                             budgets_1e4_1e5[ratio])
               for ratio in (1e4, 1e5)]
    for rep, (cross_target, fid_target) in zip(reports, ((291.0, 0.6531),
                                                         (292.0, 0.9401))):
        ok_cross = abs(rep.crossover_km - cross_target) <= 0.15 * cross_target
        ok_fid = abs(rep.final_fidelity - fid_target) <= 0.05
        results.append(check("4", f"{rep.nesting_level=} crossover", ok_cross,
                             f"{rep.crossover_km:.1f} km vs {cross_target}"))
        results.append(check("4", "final fidelity", ok_fid,
                             f"{rep.final_fidelity:.4f} vs {fid_target} +/- 0.05"))

    # n=1 crossovers only depend on the rate model
    budget = budgets_1e4_1e5[1e5]
    for m, target in ((1, 700.0), (200, 450.0)):
        rep = _at_crossover(*chain_and_link(
            budget, operation_time_s=sn.DOCUMENTED_OPERATION_TIME_S, nesting_level=1,
            multiplexing=m, storage_policy="transfer"), budget)
        ok = abs(rep.crossover_km - target) <= 0.15 * target
        results.append(check("4", f"n=1 crossover m={m}", ok,
                             f"{rep.crossover_km:.1f} km vs ~{target:.0f}"))
    assert all(results)


def test_criterion_5_gate_dynamics_anchors(grape_pair):
    t0 = time.time()
    results = []
    kerr = sn.TABLE_ROW_DEFAULTS[1e3]
    params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e3)
    drive_fid = cq.drive(params).fidelity
    results.append(check("5", "adiabatic drive at 1e3",
                         abs(drive_fid - 0.9962) <= 0.002,
                         f"{drive_fid:.5f} vs 0.9962 +/- 0.002"))

    (drive_prob, drive_res), (undrive_prob, undrive_res) = grape_pair
    lossy_drive = po.evaluate_pulse(drive_prob, drive_res.schedule, kappa=1e-3)
    lossy_undrive = po.evaluate_pulse(undrive_prob, undrive_res.schedule, kappa=1e-3)
    results.append(check("5", "GRAPE drive 0.5/K", lossy_drive >= 0.999,
                         f"{lossy_drive:.5f} (optimized {drive_res.fidelity:.5f})"))
    results.append(check("5", "GRAPE undrive 0.5/K", lossy_undrive >= 0.999,
                         f"{lossy_undrive:.5f} (optimized {undrive_res.fidelity:.5f})"))
    elapsed = time.time() - t0
    results.append(check("5", "runtime (excl. shared optimization fixture)",
                         elapsed < 600.0, f"{elapsed:.1f} s"))
    assert all(results)


def test_criterion_6_transduction_anchor():
    t0 = time.time()
    result = td.spin_transfer_efficiency(td.TransducerParams(n_bins=201))
    elapsed = time.time() - t0
    results = [
        check("6", "transfer efficiency", abs(result.efficiency - 0.9904) <= 0.005,
              f"{result.efficiency:.5f} vs 0.9904 +/- 0.005"),
        check("6", "bin convergence", result.converged,
              "doubling n_bins moves eta < 0.1 pp"),
        check("6", "runtime", elapsed < 60.0, f"{elapsed:.1f} s"),
    ]
    assert all(results)


def test_criterion_7_device_anchors():
    results = []
    fit = dv.kappa_eff(kerr=1.0, kappa=1e-3, alpha=math.sqrt(2))
    ratio = fit.kappa_eff / 1e-3
    results.append(check("7", "kappa_eff / kappa", abs(ratio - 4.0) <= 0.4,
                         f"{ratio:.4f} vs 4 +/- 10%"))

    tp = 2 * math.pi
    base = dict(cavity_freq=tp * 5e9, qubit_freq=tp * 6.5e9,
                anharmonicity=tp * 250e6, cavity_decay=tp * 0.32,
                qubit_decay=tp * 1.6e3)
    detuning = tp * 1.5e9
    k1 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.05 * detuning, **base)).kerr
    k2 = dv.dispersive_kerr(dv.DeviceParams(coupling=0.025 * detuning, **base)).kerr
    results.append(check("7", "quartic coupling scaling",
                         abs(k1 / k2 - 16.0) <= 4.0, f"ratio {k1/k2:.2f} vs 16 +/- 25%"))

    # gamma-dominated regime: (g/D)^2 gamma >> kappa_c
    gamma = tp * 1.6e3
    ratio2 = 0.06
    k_small = dv.purcell_kappa(tp * 0.32, gamma, math.sqrt(ratio2), 1.0)
    k_large = dv.purcell_kappa(tp * 3.2, gamma, math.sqrt(ratio2), 1.0)
    shift = abs(k_large - k_small) / k_small
    results.append(check("7", "kappa shift under 10x kappa_c", shift <= 0.05,
                         f"{shift*100:.2f}% (<= 5%)"))
    assert all(results)


def test_criterion_8_monte_carlo_oracle():
    t0 = time.time()
    results = []
    link = rp.LinkParams(length_km=50.0, operation_time_s=1e-4)

    chain0 = rp.ChainParams(nesting_level=0)
    expected = rp.mean_time(chain0, link)
    worst = 0.0
    for seed in range(10):
        mean, stderr = rp.monte_carlo_time(chain0, link, trials=20_000, seed=seed)
        worst = max(worst, abs(mean - expected) / (3 * stderr))
    results.append(check("8", "n=0 geometric closed form (10 seeds)", worst < 1.0,
                         f"worst deviation {worst:.2f} of 3 sigma"))

    small_p0 = rp.LinkParams(length_km=120.0, operation_time_s=1e-4)
    for n in (1, 2, 3):
        chain = rp.ChainParams(nesting_level=n, swap_probability=0.81)
        mean, _ = rp.monte_carlo_time(chain, small_p0, trials=100_000, seed=n)
        formula = rp.mean_time(chain, small_p0)
        rel = abs(formula - mean) / mean
        results.append(check("8", f"(3/2)^n approximation n={n}", rel <= 0.25,
                             f"formula/MC = {formula/mean:.3f}"))
    elapsed = time.time() - t0
    results.append(check("8", "runtime", elapsed < 60.0, f"{elapsed:.1f} s"))
    assert all(results)


def test_criterion_9_protocol_verifier():
    results = []
    res = cq.simulate_link_protocol(0.0)
    bell_plus = qcore.QState((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
    bell_minus = qcore.QState((2, 2), np.array([0, 1, -1, 0]) / math.sqrt(2))
    fid_same = qcore.state_fidelity(res.branches[(1, 1)][1], bell_plus)
    fid_diff = qcore.state_fidelity(res.branches[(1, 2)][1], bell_minus)
    results.append(check("9", "lossless Bell fidelity",
                         abs(fid_same - 1) < 1e-9 and abs(fid_diff - 1) < 1e-9,
                         f"same {fid_same:.12f}, different {fid_diff:.12f}"))
    results.append(check("9", "success probability one half",
                         abs(res.success_probability - 0.5) < 1e-9,
                         f"{res.success_probability:.12f}"))

    fids = []
    for loss in (0.0, 0.5, 0.9):
        r = cq.simulate_link_protocol(loss)
        fids.append(qcore.state_fidelity(r.branches[(1, 1)][1], bell_plus))
    spread = max(fids) - min(fids)
    results.append(check("9", "loss-independent heralded fidelity", spread < 1e-9,
                         f"spread {spread:.2e} over loss 0/0.5/0.9"))
    assert all(results)


def test_criterion_10_property_suites(tmp_path):
    t0 = time.time()
    results = []

    # qcore: normalization, orthogonality, truncated commutator
    ok = True
    for alpha in (0.5, math.sqrt(2), 2.0):
        for parity in ("even", "odd"):
            ok &= abs(qcore.cat_state(alpha, parity, 24).norm() - 1) < 1e-10
    plus = qcore.cat_state(math.sqrt(2), "even", 20)
    minus = qcore.cat_state(math.sqrt(2), "odd", 20)
    ok &= abs(np.vdot(plus.data, minus.data)) < 1e-10
    a = qcore.annihilation(16)
    comm = (a @ a.dag() - a.dag() @ a).data
    ok &= np.max(np.abs(comm[:15, :15] - np.eye(15))) < 1e-12
    results.append(check("10", "qcore invariants", ok, "norm/orthogonality/commutator"))

    # dynamics: trace, positivity, tolerance convergence
    dim = 10
    a10 = qcore.annihilation(dim)
    h = TimeDependentHamiltonian(qcore.QOperator((dim,), 0.4 * (a10 + a10.dag()).data),
                                 (), (0.0, 2.0))
    rho0 = qcore.to_density_matrix(qcore.cat_state(1.0, "even", dim))
    fids = []
    for rtol in (1e-8, 5e-9):
        traj = evolve(h, [(a10, 0.3)], rho0, n_samples=5, rel_tol=rtol)
        ok = all(abs(s.norm() - 1) < 1e-8 for s in traj.states)
        ok &= all(np.linalg.eigvalsh(s.data).min() > -1e-7 for s in traj.states)
        fids.append(qcore.state_fidelity(traj.final_state,
                                         qcore.coherent_state(0.2, dim)))
    ok &= abs(fids[0] - fids[1]) < 1e-8
    results.append(check("10", "dynamics invariants", ok,
                         f"trace/positivity ok, tolerance shift {abs(fids[0]-fids[1]):.2e}"))

    # GRAPE gradient against central finite differences
    params = cq.CatQubitParams(kerr=1.0, kappa=1e-3)
    problem = po.drive_problem(params, n_segments=8, dim=12)
    prop = po._Propagation(problem)
    u = po._initial_guess(problem, seed=2)
    _, grad = prop.overlap_and_gradient(u)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        d = rng.standard_normal(u.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6
        fd = (prop.overlap_and_gradient(u + eps * d)[0]
              - prop.overlap_and_gradient(u - eps * d)[0]) / (2 * eps)
        an = float(np.sum(grad * d))
        worst = max(worst, abs(an - fd) / max(abs(fd), 1e-12))
    results.append(check("10", "GRAPE gradient vs finite differences", worst < 1e-4,
                         f"worst rel deviation {worst:.2e}"))

    # multiplexing linearity
    link = rp.LinkParams(length_km=50.0)
    single = rp.ChainParams(nesting_level=2, multiplexing=1, swap_probability=0.81)
    multi = rp.ChainParams(nesting_level=2, multiplexing=200, swap_probability=0.81)
    lin = rp.distribution_rate(multi, link) / rp.distribution_rate(single, link)
    results.append(check("10", "multiplexing linearity", abs(lin - 200.0) < 1e-9,
                         f"factor {lin:.12f}"))

    # determinism: byte-identical rerun of a seeded command
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = subprocess.run([sys.executable, "-m", "catlink.cli", "mc",
                            "--out", str(out), "--trials", "15000", "--seed", "4"],
                           capture_output=True, text=True,
                           env={**os.environ, "CATLINK_CONFIG": ""})
        assert r.returncode == 0
        outs.append((out / "mc" / "mc.csv").read_bytes())
    results.append(check("10", "byte-identical rerun", outs[0] == outs[1],
                         f"{len(outs[0])} bytes"))

    elapsed = time.time() - t0
    results.append(check("10", "runtime", elapsed < 120.0, f"{elapsed:.1f} s"))
    assert all(results)
