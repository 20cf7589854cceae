"""Entanglement distribution: rates, fidelities, and crossover distances.

Evaluates the full repeater pipeline at the best cavity quality
(K/kappa = 1e5): simulates the gate inventory for the fidelity budget, takes
the local-operation time from the closed-form operation durations, solves for
the distances where the repeater overtakes direct transmission, and checks
the analytic waiting-time formula against the Monte-Carlo protocol
simulation at every nesting level of one sampled tree.  Takes about two seconds on one core, most of it
simulating the gate inventory.
"""

from catlink import catqubit as cq
from catlink import repeater as rp
from catlink import scenarios as sn

# -- the analytic rate model ---------------------------------------------------
link = rp.LinkParams(length_km=50.0, operation_time_s=1e-4)
print(f"elementary link: P0 = {rp.p0(link):.5f} per attempt "
      f"({rp.attempt_time(link) * 1e3:.2f} ms per attempt)")

chain = rp.ChainParams(nesting_level=3, swap_probability=0.81)
print(f"n=3 chain mean time: {rp.mean_time(chain, link):.3f} s "
      f"({rp.distribution_rate(chain, link):.2f} pairs/s)")

# one sampled n=3 tree gives the oracle's row at every level 0..3
print("Monte-Carlo oracle, one tree:")
for n, (mc_mean, mc_err) in enumerate(rp.monte_carlo_time(chain, link, trials=100_000,
                                                          seed=1)):
    formula = rp.mean_time(rp.ChainParams(nesting_level=n, swap_probability=0.81), link)
    print(f"  n={n}: {mc_mean:.4f} +/- {mc_err:.1e} s (formula/MC = {formula / mc_mean:.3f})")

# -- the full pipeline at the crossover points ----------------------------------
print("\nsimulating the gate inventory at K/kappa = 1e5 (GRAPE drive)...")
kerr = sn.TABLE_ROW_DEFAULTS[1e5]
params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e5)
grape = sn.GrapeSettings(duration_kt=0.5, n_segments=64, amplitude_bound_k=10.0,
                         max_iters=400, seed=None)
budget = sn.operation_budget(params, drive_ratio=45.0, coupling_ratio=55.0,
                             drive_method="grape", grape=grape)
# each operation's duration in closed form; no simulation needed
durations = sn.operation_durations(params, drive_ratio=45.0, coupling_ratio=55.0,
                                   ramp_kt=grape.duration_kt)

chains = {}
for name, m, policy in (("m=1, transfer storage", 1, "transfer"),
                        ("m=200, cat storage", 200, "cat")):
    chain = rp.ChainParams(nesting_level=3, multiplexing=m, storage_policy=policy,
                           kappa=params.kappa,
                           kappa_eff=2.0 * params.kappa * params.alpha**2)
    # the local-operation time is the serial duration of one node's operations
    link = rp.LinkParams(length_km=50.0,
                         operation_time_s=sn.operation_time(durations, policy))
    chains[name] = chain, link
    cross = rp.crossover(rp.rate_curve(chain, link), rp.direct_transmission_rate,
                         bracket=(60.0, 1500.0))
    rep = rp.evaluate_chain(cross, chain, link, budget.fidelities, crossover_km=cross)
    print(f"\n{name}:")
    print(f"  crossover with a 1 GHz direct source: {rep.crossover_km:.1f} km")
    print(f"  rate there     : {rep.rate_per_s:.3g} pairs/s")
    print(f"  F_elem/F_swap  : {rep.elementary_fidelity:.4f} / {rep.swap_fidelity:.4f}")
    print(f"  residual C_R   : {rep.residual_coherence:.4f}")
    print(f"  final fidelity : {rep.final_fidelity:.4f}")

print("\nper-operation fidelities feeding the budget:")
for op in ("drive", "undrive", "x_half", "x_pi", "z_half", "cnot", "transduction"):
    print(f"  {op:12s} {budget.fidelities[op]:.6f}")

# -- comparators -----------------------------------------------------------------
print("\nrate comparison at 400 km (n=3):")
# the comparators are the same rate model on the cat chain's fiber: a
# rare-earth ion with a 0.1 ms local time, and DLCZ ensembles
curves = sn.figure_rate_curves([400.0], *chains["m=200, cat storage"],
                               source_rate_hz=1e9, dlcz_generation_probability=0.01,
                               dlcz_memory_efficiency=0.9, dlcz_detection_efficiency=0.9,
                               re_operation_time_s=1e-4)
print(f"  cat scheme (m=200) : {curves['cat_m200'][0]:10.3g} pairs/s")
print(f"  rare-earth (m=200) : {curves['re_m200'][0]:10.3g} pairs/s "
      f"(fidelity ceiling ~{rp.RE_FIDELITY_CEILING})")
print(f"  DLCZ (m=200)       : {curves['dlcz_m200'][0]:10.3g} pairs/s "
      f"(fidelity ceiling ~{rp.DLCZ_FIDELITY_CEILING})")
print(f"  direct 1 GHz       : {curves['direct'][0]:10.3g} pairs/s")
