"""End-to-end repeater scenarios: gate budget, rates, and crossovers.

Bridges the gate simulations, the pulse optimizer and the rate model into
the tables the toolkit emits: per-loss-ratio operation fidelities, the
derived local-operation time, rate-versus-distance curves with comparator
overlays, and crossover solving with the full fidelity budget evaluated at
the crossover distance.

Absolute Kerr and loss rates per loss ratio are configuration inputs.  The
defaults below are calibrated anchors: the 1e3 row pins K through the
0.04 ms adiabatic drive duration; the 1e4 and 1e5 rows use a common K with
the ancilla lifetime scaling kappa, chosen so the reported crossover
fidelities of the reference scenarios are reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import catqubit as cq
from . import pulseopt as po
from .repeater import (ChainParams, LinkParams, RateFidelityReport, crossover,
                       direct_transmission_rate, distribution_rate,
                       dlcz_rate_curve, evaluate_chain, re_rate_curve,
                       OPERATION_INVENTORY, STORAGE_EXTRA_OPS)

__all__ = [
    "TABLE_ROW_DEFAULTS",
    "TRANSDUCTION_FIDELITY",
    "TRANSDUCTION_TIME_S",
    "OperationBudget",
    "operation_budget",
    "Scenario",
    "scenario_table",
    "cat_rate_curve",
    "figure_rate_curves",
]

# (kerr, kappa) in rad/s and 1/s per loss ratio K/kappa.
TABLE_ROW_DEFAULTS: dict[float, tuple[float, float]] = {
    1e3: (1.8e5, 1.8e2),
    1e4: (2.46e6, 2.46e2),
    1e5: (2.46e6, 2.46e1),
}

TRANSDUCTION_FIDELITY = 0.9995
TRANSDUCTION_TIME_S = 1e-5      # full conversion sequence, config knob

# Serial per-node local-operation time at the 1e5 row defaults (cat storage),
# rounded from OperationBudget.operation_time; used where a fixed documented
# value is preferable to re-simulating the gate inventory.
DOCUMENTED_OPERATION_TIME_S = 6e-5

# L-BFGS-B iteration cap for the budget's GRAPE drive and undrive pulses.
GRAPE_MAX_ITERS = 400


@dataclass(frozen=True)
class OperationBudget:
    """Per-operation fidelities and durations for one cavity configuration."""

    params: cq.CatQubitParams
    fidelities: dict[str, float]
    durations_s: dict[str, float]

    def operation_time(self, storage_policy: str = "cat",
                       transduction_time_s: float = TRANSDUCTION_TIME_S) -> float:
        """Serial duration of one node's local operations per attempt.

        Half the link inventory runs at each node; transduction contributes a
        configured conversion time per use.
        """
        counts = dict(OPERATION_INVENTORY)
        for op, extra in STORAGE_EXTRA_OPS[storage_policy].items():
            counts[op] += extra
        total = 0.0
        for op, count in counts.items():
            per_node = count / 2
            dur = transduction_time_s if op == "transduction" else self.durations_s[op]
            total += per_node * dur
        return total


@lru_cache(maxsize=8)
def _grape_cache(alpha: float):
    """Drive and undrive problems at K = 1 with their optimized schedules,
    computed once per cat amplitude."""
    params = cq.CatQubitParams(kerr=1.0, kappa=0.0, alpha=alpha)
    return tuple((prob, po.grape_optimize(prob, max_iters=GRAPE_MAX_ITERS))
                 for prob in (po.drive_problem(params), po.undrive_problem(params)))


def operation_budget(loss_ratio: float,
                     kerr: Optional[float] = None,
                     kappa: Optional[float] = None,
                     alpha: float = math.sqrt(2.0),
                     drive_method: str = "grape",
                     amplitude_ratios: Optional[tuple[float, float]] = None) -> OperationBudget:
    """Simulate the full operation inventory at one loss ratio.

    ``drive_method`` selects GRAPE-shaped (0.5/K, the tabulated choice) or
    adiabatic driving.  Amplitude ratios default to the conventional values
    for the ratio (nearest standard row when in between).
    """
    if kerr is None or kappa is None:
        try:
            kerr_d, kappa_d = TABLE_ROW_DEFAULTS[loss_ratio]
        except KeyError:
            raise KeyError(
                f"no default rates for K/kappa = {loss_ratio:g}; pass kerr and kappa"
            ) from None
        kerr = kerr if kerr is not None else kerr_d
        kappa = kappa if kappa is not None else kappa_d
    if amplitude_ratios is None:
        nearest = min(cq.DEFAULT_AMPLITUDE_RATIOS,
                      key=lambda r: abs(math.log10(r) - math.log10(loss_ratio)))
        amplitude_ratios = cq.DEFAULT_AMPLITUDE_RATIOS[nearest]
    x_ratio, c_ratio = amplitude_ratios

    params = cq.CatQubitParams(kerr=kerr, kappa=kappa, alpha=alpha)
    ep0 = params.two_photon_amplitude
    e_x, e_c = ep0 / x_ratio, ep0 / c_ratio

    fids: dict[str, float] = {}
    durs: dict[str, float] = {}

    if drive_method == "grape":
        (dp, rd), (up, ru) = _grape_cache(alpha)
        scaled_kappa = kappa / kerr  # problems are built at K = 1
        fids["drive"] = po.evaluate_pulse(dp, rd.schedule, kappa=scaled_kappa)
        fids["undrive"] = po.evaluate_pulse(up, ru.schedule, kappa=scaled_kappa)
        durs["drive"] = durs["undrive"] = 0.5 / kerr
    elif drive_method == "adiabatic":
        d = cq.drive(params)
        u = cq.undrive(params)
        fids["drive"], fids["undrive"] = d.fidelity, u.fidelity
        durs["drive"] = durs["undrive"] = d.duration_s
    else:
        raise ValueError("drive_method must be 'grape' or 'adiabatic'")

    for op, result in (("x_half", cq.gate_x(params, math.pi / 2, e_x)),
                       ("x_pi", cq.gate_x(params, math.pi, e_x)),
                       ("z_half", cq.gate_z(params, math.pi / 2)),
                       ("cnot", cq.cnot(params, e_x, e_c))):
        fids[op] = result.fidelity
        durs[op] = result.duration_s
    fids["transduction"] = TRANSDUCTION_FIDELITY
    durs["transduction"] = TRANSDUCTION_TIME_S
    return OperationBudget(params=params, fidelities=fids, durations_s=durs)


@dataclass(frozen=True)
class Scenario:
    """One repeater configuration to evaluate against direct transmission."""

    name: str
    loss_ratio: float
    nesting_level: int
    multiplexing: int
    storage_policy: str = "fock"
    kerr: Optional[float] = None
    kappa: Optional[float] = None
    emission_probability: float = 0.8
    detection_efficiency: float = 0.9
    swap_probability: float = 0.81
    attenuation_km: float = 22.0
    transfer_lifetime_s: float = 10.0
    operation_time_s: Optional[float] = None   # None: derive from the budget
    source_rate: float = 1e9
    bracket_km: tuple[float, float] = (60.0, 1500.0)
    length_km: Optional[float] = None          # None: evaluate at the crossover


def _resolve_rates(scenario: Scenario) -> tuple[float, float]:
    if scenario.kerr is not None and scenario.kappa is not None:
        return scenario.kerr, scenario.kappa
    kerr, kappa = TABLE_ROW_DEFAULTS[scenario.loss_ratio]
    return (scenario.kerr if scenario.kerr is not None else kerr,
            scenario.kappa if scenario.kappa is not None else kappa)


def _chain_and_link(scenario: Scenario, budget: OperationBudget) -> tuple[ChainParams, LinkParams]:
    kerr, kappa = _resolve_rates(scenario)
    t_o = scenario.operation_time_s
    if t_o is None:
        t_o = budget.operation_time(scenario.storage_policy)
    link = LinkParams(length_km=100.0,  # placeholder; evaluate_chain replaces it
                      attenuation_km=scenario.attenuation_km,
                      emission_probability=scenario.emission_probability,
                      detection_efficiency=scenario.detection_efficiency,
                      operation_time_s=t_o)
    chain = ChainParams(nesting_level=scenario.nesting_level,
                        multiplexing=scenario.multiplexing,
                        swap_probability=scenario.swap_probability,
                        storage_policy=scenario.storage_policy,
                        transfer_lifetime_s=scenario.transfer_lifetime_s,
                        kappa=kappa,
                        kappa_eff=2.0 * kappa * budget.params.alpha**2)
    return chain, link


def cat_rate_curve(scenario: Scenario, budget: OperationBudget) -> Callable[[float], float]:
    chain, link = _chain_and_link(scenario, budget)

    def rate(length_km: float) -> float:
        return distribution_rate(chain, replace(link, length_km=length_km / 2**chain.nesting_level))

    return rate


def scenario_table(scenarios: Sequence[Scenario],
                   budgets: Optional[dict[float, OperationBudget]] = None,
                   drive_method: str = "grape") -> list[RateFidelityReport]:
    """Evaluate each scenario at its crossover distance (or a fixed length).

    ``budgets`` caches operation budgets by loss ratio across scenarios; they
    are computed on demand when absent.
    """
    budgets = {} if budgets is None else budgets
    reports = []
    for sc in scenarios:
        if sc.loss_ratio not in budgets:
            kerr, kappa = _resolve_rates(sc)
            budgets[sc.loss_ratio] = operation_budget(
                sc.loss_ratio, kerr=kerr, kappa=kappa, drive_method=drive_method)
        budget = budgets[sc.loss_ratio]
        chain, link = _chain_and_link(sc, budget)
        rate_fn = cat_rate_curve(sc, budget)
        if sc.length_km is not None:
            length = sc.length_km
            cross = None
        else:
            cross = crossover(rate_fn,
                              lambda L: direct_transmission_rate(L, sc.source_rate,
                                                                 sc.attenuation_km),
                              bracket=sc.bracket_km)
            length = cross
        reports.append(evaluate_chain(length, chain, link, budget.fidelities,
                                      crossover_km=cross))
    return reports


def figure_rate_curves(lengths_km: Sequence[float],
                       loss_ratio: float = 1e5,
                       nesting_level: int = 3,
                       budget: Optional[OperationBudget] = None,
                       drive_method: str = "grape") -> dict[str, np.ndarray]:
    """Seven rate-versus-distance curves: direct transmission, the cat scheme
    and the rare-earth comparator (multiplexed and not), and DLCZ
    (multiplexed and not)."""
    if budget is None:
        budget = operation_budget(loss_ratio, drive_method=drive_method)
    lengths = np.asarray(list(lengths_km), dtype=float)
    out: dict[str, np.ndarray] = {"L_km": lengths}

    out["direct_1GHz"] = np.array([direct_transmission_rate(L) for L in lengths])
    for m, tag in ((200, "m200"), (1, "m1")):
        sc = Scenario(name=f"cat_{tag}", loss_ratio=loss_ratio,
                      nesting_level=nesting_level, multiplexing=m,
                      storage_policy="cat")
        rate_fn = cat_rate_curve(sc, budget)
        out[f"cat_{tag}"] = np.array([rate_fn(L) for L in lengths])
        re_fn = re_rate_curve(nesting_level=nesting_level, multiplexing=m)
        out[f"re_{tag}"] = np.array([re_fn(L) for L in lengths])
        dlcz_fn = dlcz_rate_curve(nesting_level=nesting_level, multiplexing=m)
        out[f"dlcz_{tag}"] = np.array([dlcz_fn(L) for L in lengths])
    return out
