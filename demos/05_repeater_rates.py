"""Entanglement distribution: rates, fidelities, and crossover distances.

Evaluates the full repeater pipeline at the best cavity quality
(K/kappa = 1e5): simulates the gate inventory, assembles the fidelity
budget, solves for the distances where the repeater overtakes direct
transmission, and checks the analytic waiting-time formula against the
Monte-Carlo protocol simulation.  Takes about 12 s on one core, most of it
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

mc_mean, mc_err = rp.monte_carlo_time(chain, link, trials=100_000, seed=1)
print(f"Monte-Carlo oracle:  {mc_mean:.3f} +/- {mc_err:.3f} s "
      f"(formula/MC = {rp.mean_time(chain, link) / mc_mean:.3f})")

# -- the full pipeline at the crossover points ----------------------------------
print("\nsimulating the gate inventory at K/kappa = 1e5 (GRAPE drive)...")
kerr = sn.TABLE_ROW_DEFAULTS[1e5]
params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e5)
grape = sn.GrapeSettings(duration_kt=0.5, n_segments=64, amplitude_bound_k=10.0,
                         max_iters=400, seed=None)
budget = sn.operation_budget(params, drive_ratio=45.0, coupling_ratio=55.0,
                             drive_method="grape", grape=grape)

chains = {}
for name, m, policy in (("m=1, transfer storage", 1, "transfer"),
                        ("m=200, cat storage", 200, "cat")):
    chain = rp.ChainParams(nesting_level=3, multiplexing=m, storage_policy=policy,
                           kappa=params.kappa,
                           kappa_eff=2.0 * params.kappa * params.alpha**2)
    # the local-operation time is the serial duration of one node's operations
    link = rp.LinkParams(length_km=50.0, operation_time_s=budget.operation_time(policy))
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
cat = rp.rate_curve(*chains["m=200, cat storage"])
dlcz = rp.dlcz_rate_curve(nesting_level=3, multiplexing=200)
re = rp.re_rate_curve(nesting_level=3, multiplexing=200)
print(f"  cat scheme (m=200) : {cat(400.0):10.3g} pairs/s")
print(f"  rare-earth (m=200) : {re(400.0):10.3g} pairs/s "
      f"(fidelity ceiling ~{rp.RE_FIDELITY_CEILING})")
print(f"  DLCZ (m=200)       : {dlcz(400.0):10.3g} pairs/s "
      f"(fidelity ceiling ~{rp.DLCZ_FIDELITY_CEILING})")
print(f"  direct 1 GHz       : {rp.direct_transmission_rate(400.0):10.3g} pairs/s")
