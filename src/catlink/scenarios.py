"""Operation durations, the operation budget and the figure-6 rate curves.

``operation_durations`` gives the elementary link's operation inventory
(drive, undrive, X, Z and CNOT gates, plus a fixed transduction entry) its
closed-form durations, and ``operation_time`` sums one node's share into the
local-operation time; ``operation_budget`` simulates the inventory's
fidelities for the rate model.  The command-line front end builds the chains
and the link from the resolved config and hands them straight to
``catlink.repeater``; ``figure_rate_curves`` lays the cat scheme's curves
next to direct transmission and the DLCZ and rare-earth comparators, all
``rate_curve`` on the configured chain and link.

Absolute Kerr rates per loss ratio are configuration inputs
(``[catqubit] kerr_hz``).  The defaults below are calibrated anchors: the
1e3 row pins K through the 0.04 ms adiabatic drive duration; the 1e4 and 1e5
rows use a common K with the ancilla lifetime scaling kappa = K / ratio,
chosen so the reported crossover fidelities of the reference scenarios are
reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import catqubit as cq
from . import pulseopt as po
# ``crossover`` is not used here: the benchmark's tracer self-test
# (perfbench/test_perfbench.py) reaches it as ``scenarios.crossover``.
from .repeater import crossover  # noqa: F401
from .repeater import (ChainParams, LinkParams, direct_transmission_rate, operation_counts,
                       rate_curve)

__all__ = [
    "TABLE_ROW_DEFAULTS",
    "TRANSDUCTION_FIDELITY",
    "TRANSDUCTION_TIME_S",
    "GrapeSettings",
    "OperationBudget",
    "grape_pair",
    "operation_durations",
    "operation_time",
    "operation_budget",
    "figure_rate_curves",
]

# Kerr rate K in rad/s per loss ratio K/kappa, used when [catqubit] kerr_hz
# is empty.
TABLE_ROW_DEFAULTS: dict[float, float] = {
    1e3: 1.8e5,
    1e4: 2.46e6,
    1e5: 2.46e6,
}

TRANSDUCTION_FIDELITY = 0.9995
TRANSDUCTION_TIME_S = 1e-5      # full conversion sequence; a constant, no config key

# The paper's documented per-node local-operation time: the derived
# ``operation_time`` at the 1e5 row defaults with cat storage (5.845e-5 s),
# rounded to one significant figure.
DOCUMENTED_OPERATION_TIME_S = 6e-5


class GrapeSettings(NamedTuple):
    """The ``[grape]`` pulse settings, in units of K."""

    duration_kt: float
    n_segments: int
    amplitude_bound_k: float
    max_iters: int
    seed: Optional[int]


@dataclass(frozen=True)
class OperationBudget:
    """Simulated per-operation fidelities for one cavity configuration.

    ``grape`` holds the optimizer result of the drive pulse, whose time
    reverse is the undrive, None when the ramps are adiabatic; ``ramps``
    holds the adiabatic drive's and undrive's records by operation, None
    with GRAPE.
    """

    params: cq.CatQubitParams
    fidelities: dict[str, float]
    grape: Optional[po.GrapeResult] = None
    ramps: Optional[dict[str, cq.DriveResult]] = None


def operation_durations(params: cq.CatQubitParams, drive_ratio: float,
                        coupling_ratio: float, ramp_kt: float) -> dict[str, float]:
    """Closed-form duration of each inventory operation in seconds, equal bit
    for bit to the simulated record's; the ramps last ``ramp_kt / K``."""
    ep0 = params.two_photon_amplitude
    e_x, e_c = ep0 / drive_ratio, ep0 / coupling_ratio
    return {"drive": ramp_kt / params.kerr, "undrive": ramp_kt / params.kerr,
            "x_half": cq._x_rotation_duration(params, math.pi / 2, e_x),
            "x_pi": cq._x_rotation_duration(params, math.pi, e_x),
            "z_half": cq._z_rotation_duration(params, math.pi / 2),
            "cnot": sum(cq._cnot_stage_durations(params, e_x, e_c)),
            "transduction": TRANSDUCTION_TIME_S}


def operation_time(durations: dict[str, float], storage_policy: str) -> float:
    """Serial duration of one node's local operations per attempt; half the
    link inventory runs at each node."""
    total = 0.0
    for op, count in operation_counts(storage_policy).items():
        total += count / 2 * durations[op]
    return total


@lru_cache(maxsize=8)
def grape_pair(alpha: float, settings: GrapeSettings):
    """(result, ((drive problem, schedule), (undrive problem, its time reverse))):
    the drive optimized at K = 1, once per amplitude and settings.

    The optimizer never reads kappa; re-score a schedule under loss with
    ``pulseopt.evaluate_pulse(problem, schedule, kappa=kappa / K)``.
    """
    params = cq.CatQubitParams(kerr=1.0, alpha=alpha)
    drive, undrive = (maker(params, total_time=settings.duration_kt,
                            n_segments=settings.n_segments,
                            amplitude_bound=settings.amplitude_bound_k)
                      for maker in (po.drive_problem, po.undrive_problem))
    result = po.grape_optimize(drive, max_iters=settings.max_iters, seed=settings.seed)
    return result, ((drive, result.schedule), (undrive, cq.time_reversed(result.schedule)))


def operation_budget(params: cq.CatQubitParams, drive_ratio: float,
                     coupling_ratio: float, drive_method: str,
                     grape: GrapeSettings,
                     drive_duration_kt: float = cq.DRIVE_RAMP_KT,
                     two_qubit_dim: int = cq.TWO_QUBIT_DIM) -> OperationBudget:
    """Simulate each inventory operation's fidelity for one configuration.

    ``drive_ratio`` and ``coupling_ratio`` divide the two-photon amplitude
    E_p0 into the single-photon drive and the cavity coupling.
    ``drive_method`` selects GRAPE-shaped driving (``grape`` sets the pulse)
    or the adiabatic ramp of ``drive_duration_kt``.
    """
    ep0 = params.two_photon_amplitude
    e_x, e_c = ep0 / drive_ratio, ep0 / coupling_ratio

    fids: dict[str, float] = {}
    grape_result = ramps = None

    if drive_method == "grape":
        grape_result, pulses = grape_pair(params.alpha, grape)
        scaled_kappa = params.kappa / params.kerr  # problems are built at K = 1
        for op, (problem, schedule) in zip(("drive", "undrive"), pulses):
            fids[op] = po.evaluate_pulse(problem, schedule, kappa=scaled_kappa)
    elif drive_method == "adiabatic":
        ramps = {"drive": cq.drive([params], drive_duration_kt)[0],
                 "undrive": cq.undrive([params], drive_duration_kt)[0]}
        fids.update((op, r.fidelity) for op, r in ramps.items())
    else:
        raise ValueError("drive_method must be 'grape' or 'adiabatic'")

    for op, result in (("x_half", cq.gate_x(params, math.pi / 2, e_x)),
                       ("x_pi", cq.gate_x(params, math.pi, e_x)),
                       ("z_half", cq.gate_z(params, math.pi / 2)),
                       ("cnot", cq.cnot(params, e_x, e_c, two_qubit_dim))):
        fids[op] = result.fidelity
    fids["transduction"] = TRANSDUCTION_FIDELITY
    return OperationBudget(params=params, fidelities=fids, grape=grape_result, ramps=ramps)


def figure_rate_curves(lengths_km: Sequence[float], chain: ChainParams,
                       link: LinkParams, source_rate_hz: float,
                       dlcz_generation_probability: float,
                       dlcz_memory_efficiency: float,
                       dlcz_detection_efficiency: float,
                       re_operation_time_s: float) -> dict[str, np.ndarray]:
    """Seven rate-versus-distance curves: direct transmission from a source
    at ``source_rate_hz`` (key ``direct``), and at m = 200 and m = 1 the cat
    scheme, the rare-earth comparator and DLCZ.

    All but ``direct`` are ``rate_curve`` on ``chain``'s nesting level over
    ``link``'s fiber; cat takes ``chain`` and ``link`` as given.  The
    comparators are simplified (the exact prefactors live in their own
    literature) and apply the emission probability once per link.  The
    rare-earth scheme (one ion per node) is the cat link with the local time
    ``re_operation_time_s``.  DLCZ has the ensemble's generation probability
    and detection efficiency, no local time, and linear-optics swapping
    capped at one half, P_i = (1/2) eta_m^2.  The keyword names are the
    ``[comparators]`` config keys.
    """
    lengths = np.asarray(list(lengths_km), dtype=float)
    out: dict[str, np.ndarray] = {"L_km": lengths}
    out["direct"] = np.array([direct_transmission_rate(L, source_rate_hz,
                                                       link.attenuation_km)
                              for L in lengths])
    re_link = replace(link, operation_time_s=re_operation_time_s, per_round_emission=False)
    dlcz_link = replace(re_link, emission_probability=dlcz_generation_probability,
                        detection_efficiency=dlcz_detection_efficiency,
                        operation_time_s=0.0)
    for m, tag in ((200, "m200"), (1, "m1")):
        chain_m = replace(chain, multiplexing=m)
        dlcz_chain = replace(chain_m, swap_probability=0.5 * dlcz_memory_efficiency**2)
        for name, fn in (("cat", rate_curve(chain_m, link)),
                         ("re", rate_curve(chain_m, re_link)),
                         ("dlcz", rate_curve(dlcz_chain, dlcz_link))):
            out[f"{name}_{tag}"] = np.array([fn(L) for L in lengths])
    return out
