"""Operation budget and the figure-6 rate curves.

``operation_budget`` simulates the elementary link's operation inventory
(drive, undrive, X, Z and CNOT gates, plus a fixed transduction entry) for
one resolved cat-qubit configuration.  The rate model reads the fidelities
for its fidelity budget and the durations for the derived local-operation
time.  The command-line front end builds the cavity parameters, the chains
and the link from the resolved config and hands them straight to
``catlink.repeater``; ``figure_rate_curves`` lays the cat scheme's curves
next to direct transmission and the DLCZ and rare-earth comparators.

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
from .repeater import (ChainParams, LinkParams, OPERATION_INVENTORY,  # noqa: F401
                       STORAGE_EXTRA_OPS, crossover, direct_transmission_rate,
                       dlcz_rate_curve, rate_curve, re_rate_curve)

__all__ = [
    "TABLE_ROW_DEFAULTS",
    "TRANSDUCTION_FIDELITY",
    "TRANSDUCTION_TIME_S",
    "GrapeSettings",
    "OperationBudget",
    "grape_pair",
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

# Serial per-node local-operation time at the 1e5 row defaults (cat storage),
# rounded from OperationBudget.operation_time; used where a fixed documented
# value is preferable to re-simulating the gate inventory.
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
def grape_pair(alpha: float, settings: GrapeSettings):
    """Lossless drive and undrive problems at K = 1 with their optimized
    schedules, computed once per amplitude and settings.

    The optimizer never reads kappa; re-score a schedule under loss with
    ``pulseopt.evaluate_pulse(problem, schedule, kappa=kappa / K)``.
    """
    params = cq.CatQubitParams(kerr=1.0, alpha=alpha)
    return tuple(
        (prob, po.grape_optimize(prob, max_iters=settings.max_iters, seed=settings.seed))
        for prob in (maker(params, total_time=settings.duration_kt,
                           n_segments=settings.n_segments,
                           amplitude_bound=settings.amplitude_bound_k)
                     for maker in (po.drive_problem, po.undrive_problem)))


def operation_budget(params: cq.CatQubitParams, drive_ratio: float,
                     coupling_ratio: float, drive_method: str,
                     grape: GrapeSettings,
                     drive_duration_kt: float = cq.DRIVE_RAMP_KT,
                     two_qubit_dim: int = cq.TWO_QUBIT_DIM) -> OperationBudget:
    """Simulate the full operation inventory for one cavity configuration.

    ``drive_ratio`` and ``coupling_ratio`` divide the two-photon amplitude
    E_p0 into the single-photon drive and the cavity coupling.
    ``drive_method`` selects GRAPE-shaped driving (``grape`` sets the pulse)
    or the adiabatic ramp of ``drive_duration_kt``.
    """
    ep0 = params.two_photon_amplitude
    e_x, e_c = ep0 / drive_ratio, ep0 / coupling_ratio

    fids: dict[str, float] = {}
    durs: dict[str, float] = {}

    if drive_method == "grape":
        (dp, rd), (up, ru) = grape_pair(params.alpha, grape)
        scaled_kappa = params.kappa / params.kerr  # problems are built at K = 1
        fids["drive"] = po.evaluate_pulse(dp, rd.schedule, kappa=scaled_kappa)
        fids["undrive"] = po.evaluate_pulse(up, ru.schedule, kappa=scaled_kappa)
        durs["drive"] = durs["undrive"] = grape.duration_kt / params.kerr
    elif drive_method == "adiabatic":
        pulse = cq.adiabatic_drive_pulse(params, duration_kt=drive_duration_kt)
        d = cq.drive(params, pulse)
        u = cq.undrive(params, pulse)
        fids["drive"], fids["undrive"] = d.fidelity, u.fidelity
        durs["drive"] = durs["undrive"] = d.duration_s
    else:
        raise ValueError("drive_method must be 'grape' or 'adiabatic'")

    for op, result in (("x_half", cq.gate_x(params, math.pi / 2, e_x)),
                       ("x_pi", cq.gate_x(params, math.pi, e_x)),
                       ("z_half", cq.gate_z(params, math.pi / 2)),
                       ("cnot", cq.cnot(params, e_x, e_c, two_qubit_dim))):
        fids[op] = result.fidelity
        durs[op] = result.duration_s
    fids["transduction"] = TRANSDUCTION_FIDELITY
    durs["transduction"] = TRANSDUCTION_TIME_S
    return OperationBudget(params=params, fidelities=fids, durations_s=durs)


def figure_rate_curves(lengths_km: Sequence[float], chain: ChainParams,
                       link: LinkParams, source_rate_hz: float,
                       dlcz_generation_probability: float,
                       dlcz_memory_efficiency: float,
                       dlcz_detection_efficiency: float,
                       re_operation_time_s: float) -> dict[str, np.ndarray]:
    """Seven rate-versus-distance curves: direct transmission, the cat scheme
    and the rare-earth comparator (multiplexed and not), and DLCZ
    (multiplexed and not).

    The cat curves store in the cat basis at m = 200 and m = 1 on ``chain``'s
    nesting level, swap probability and decay rates, over ``link``.  The
    comparators share the chain's nesting level and the link's fiber; the
    keyword names are the ``[comparators]`` config keys.
    """
    lengths = np.asarray(list(lengths_km), dtype=float)
    n = chain.nesting_level
    out: dict[str, np.ndarray] = {"L_km": lengths}
    out["direct_1GHz"] = np.array([direct_transmission_rate(L, source_rate_hz,
                                                            link.attenuation_km)
                                   for L in lengths])
    for m, tag in ((200, "m200"), (1, "m1")):
        cat = rate_curve(replace(chain, multiplexing=m, storage_policy="cat"), link)
        re = re_rate_curve(nesting_level=n, multiplexing=m,
                           emission_probability=link.emission_probability,
                           detection_efficiency=link.detection_efficiency,
                           swap_probability=chain.swap_probability,
                           attenuation_km=link.attenuation_km,
                           operation_time_s=re_operation_time_s)
        dlcz = dlcz_rate_curve(nesting_level=n, multiplexing=m,
                               generation_probability=dlcz_generation_probability,
                               memory_efficiency=dlcz_memory_efficiency,
                               detection_efficiency=dlcz_detection_efficiency,
                               attenuation_km=link.attenuation_km)
        for name, fn in (("cat", cat), ("re", re), ("dlcz", dlcz)):
            out[f"{name}_{tag}"] = np.array([fn(L) for L in lengths])
    return out
