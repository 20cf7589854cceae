"""Entanglement-distribution rates, fidelity budget, and comparators.

The analytic model: an elementary link of length L0 succeeds per attempt
with probability P0 = (1/2) exp(-L0/L_att) p eta_o^2, each attempt costing
L0/c + T_o; nesting level i swaps succeed with probability P_i, and waiting
for two neighbouring links multiplies the mean time by ~3/2 per level,

    <T> = (3/2)^n (L0/c + T_o) / (P0 P1 ... Pn).

A seeded Monte-Carlo simulation of the hierarchical protocol provides the
brute-force oracle for that approximation.  The final-state fidelity budget
multiplies per-operation fidelities over the elementary-link inventory and
the swap chain and applies the residual storage coherence,

    F_tot = F_elem^l  F_swap^(l-1)  C_R,      l = 2^n.

Spectral multiplexing with m parallel channel sets multiplies the rate by m
(and shortens the storage wait accordingly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LinkParams",
    "ChainParams",
    "RateFidelityReport",
    "OPERATION_INVENTORY",
    "STORAGE_EXTRA_OPS",
    "p0",
    "mean_time",
    "distribution_rate",
    "monte_carlo_time",
    "residual_coherence",
    "elementary_fidelity",
    "swap_fidelity",
    "final_fidelity",
    "direct_transmission_rate",
    "rate_curve",
    "dlcz_rate_curve",
    "re_rate_curve",
    "DLCZ_FIDELITY_CEILING",
    "RE_FIDELITY_CEILING",
    "crossover",
    "evaluate_chain",
]

SPEED_OF_LIGHT_FIBER = 2.0e5          # km/s
DLCZ_FIDELITY_CEILING = 0.75          # reported upper bound, not computed here
RE_FIDELITY_CEILING = 0.80


@dataclass(frozen=True)
class LinkParams:
    """Elementary-link configuration."""

    length_km: float                       # L0
    attenuation_km: float = 22.0           # L_att
    emission_probability: float = 0.8      # p (transduction budget)
    detection_efficiency: float = 0.9      # eta_o
    operation_time_s: float = 1e-4         # T_o
    fiber_speed_km_s: float = SPEED_OF_LIGHT_FIBER
    # The success probability applies p and eta_o^2 once; setting this flag
    # squares the emission probability instead (the alternative reading in
    # which each protocol round pays it separately).  Reports carry the flag.
    per_round_emission: bool = False

    def __post_init__(self):
        if self.length_km <= 0 or self.attenuation_km <= 0:
            raise ValueError("lengths must be positive")
        for name in ("emission_probability", "detection_efficiency"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.operation_time_s < 0:
            raise ValueError("operation_time_s must be nonnegative")


@dataclass(frozen=True)
class ChainParams:
    """Repeater-chain configuration on top of an elementary link."""

    nesting_level: int = 0                 # n; total length L = 2^n L0
    multiplexing: int = 1                  # m
    swap_probability: float = 0.81         # P_i = eta_m^2 per level
    storage_policy: str = "fock"           # cat | fock | transfer
    transfer_lifetime_s: float = 10.0      # for the transfer policy
    kappa: float = 0.0                     # single-photon loss of storage cavity
    kappa_eff: float = 0.0                 # cat-coherence decay rate

    def __post_init__(self):
        if self.nesting_level < 0:
            raise ValueError("nesting_level must be >= 0")
        if self.multiplexing < 1:
            raise ValueError("multiplexing must be >= 1")
        if not 0.0 < self.swap_probability <= 1.0:
            raise ValueError("swap_probability must lie in (0, 1]")
        if self.storage_policy not in ("cat", "fock", "transfer"):
            raise ValueError("storage_policy must be cat, fock or transfer")


@dataclass(frozen=True)
class RateFidelityReport:
    """Row type for every emitted rate/fidelity table."""

    length_km: float
    nesting_level: int
    multiplexing: int
    p0: float
    mean_time_s: float
    rate_per_s: float
    residual_coherence: float
    elementary_fidelity: float
    swap_fidelity: float
    final_fidelity: float
    storage_policy: str
    crossover_km: Optional[float] = None


# -- rate formulas ------------------------------------------------------------


def p0(link: LinkParams) -> float:
    """Per-attempt success probability of heralded link generation,
    (1/2) e^(-L0/L_att) p eta_o^2."""
    eta_t = math.exp(-link.length_km / link.attenuation_km)
    p = link.emission_probability
    if link.per_round_emission:
        p = p * p
    return 0.5 * eta_t * p * link.detection_efficiency**2


def attempt_time(link: LinkParams) -> float:
    return link.length_km / link.fiber_speed_km_s + link.operation_time_s


def mean_time(chain: ChainParams, link: LinkParams) -> float:
    """Average entanglement-distribution time for one channel set,
    (3/2)^n (L0/c + T_o) / (P0 P1 ... Pn)."""
    prob = p0(link) * chain.swap_probability**chain.nesting_level
    if prob == 0:
        return math.inf
    return 1.5**chain.nesting_level * attempt_time(link) / prob


def distribution_rate(chain: ChainParams, link: LinkParams) -> float:
    """Entanglement-distribution rate; m channel sets run in parallel."""
    return chain.multiplexing / mean_time(chain, link)


def rate_curve(chain: ChainParams, link: LinkParams) -> Callable[[float], float]:
    """Distribution rate as a function of the total length 2^n L0.

    ``link.length_km`` is ignored; each call splits the total length into
    2^n elementary links.
    """
    def rate(total_length_km: float) -> float:
        return distribution_rate(
            chain, replace(link, length_km=total_length_km / 2**chain.nesting_level))

    return rate


def monte_carlo_time(chain: ChainParams, link: LinkParams, trials: int = 100_000,
                     seed: int = 0) -> tuple[float, float]:
    """Brute-force oracle for the mean distribution time of one channel set.

    Per attempt slot (duration L0/c + T_o) a link succeeds with probability
    P0; a swap at level i waits for both children, then succeeds with
    probability P_i, a failure discarding and regenerating both child pairs.
    Returns (sample mean, standard error) over seeded trials.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a stable mean")
    rng = np.random.default_rng(seed)
    slot = attempt_time(link)
    prob0 = p0(link)

    def sample(level: int, size: int) -> np.ndarray:
        if level == 0:
            return slot * rng.geometric(prob0, size=size)
        total = np.zeros(size)
        active = np.arange(size)
        while active.size:
            pair_time = np.maximum(sample(level - 1, active.size),
                                   sample(level - 1, active.size))
            total[active] += pair_time
            success = rng.random(active.size) < chain.swap_probability
            active = active[~success]
        return total

    times = sample(chain.nesting_level, int(trials))
    return float(times.mean()), float(times.std(ddof=1) / math.sqrt(trials))


# -- fidelity budget ----------------------------------------------------------

# per elementary link (both nodes, both protocol rounds)
OPERATION_INVENTORY = {
    "drive": 6,
    "x_half": 2,
    "cnot": 4,
    "undrive": 4,
    "transduction": 4,
    "x_pi": 2,
}

# storing in the Fock basis (in the same or a transfer cavity) inter-converts
# the two storage qubits once: two extra undrive + two extra drive operations
STORAGE_EXTRA_OPS = {
    "cat": {},
    "fock": {"drive": 2, "undrive": 2},
    "transfer": {"drive": 2, "undrive": 2},
}


def residual_coherence(chain: ChainParams, wait_time_s: float) -> float:
    """Storage coherence left after the waiting time, by policy.

    cat: exp(-kappa_eff T); fock: exp(-kappa T); transfer: exp(-T/lifetime).
    """
    t = float(wait_time_s)
    if t < 0:
        raise ValueError("wait time must be nonnegative")
    if chain.storage_policy == "cat":
        return math.exp(-chain.kappa_eff * t)
    if chain.storage_policy == "fock":
        return math.exp(-chain.kappa * t)
    return math.exp(-t / chain.transfer_lifetime_s)


def elementary_fidelity(op_fidelities: dict[str, float],
                        storage_policy: str = "cat") -> float:
    """Product of per-operation fidelities over the link inventory.

    ``op_fidelities`` must contain every key of ``OPERATION_INVENTORY``;
    Fock/transfer storage adds two more drive and undrive operations.
    """
    counts = dict(OPERATION_INVENTORY)
    for op, extra in STORAGE_EXTRA_OPS[storage_policy].items():
        counts[op] += extra
    fid = 1.0
    for op, count in counts.items():
        if op not in op_fidelities:
            raise KeyError(f"missing fidelity for operation {op!r}")
        fid *= op_fidelities[op] ** count
    return fid


def swap_fidelity(op_fidelities: dict[str, float]) -> float:
    """Bell-state-measurement fidelity: CNOT, a Hadamard (three rotations),
    and a worst-case X-Z correction at the receiver."""
    for key in ("cnot", "x_half", "z_half", "x_pi"):
        if key not in op_fidelities:
            raise KeyError(f"missing fidelity for operation {key!r}")
    hadamard = op_fidelities["x_half"] ** 2 * op_fidelities["z_half"]
    z_pi = op_fidelities["z_half"] ** 2
    correction = op_fidelities["x_pi"] * z_pi
    return op_fidelities["cnot"] * hadamard * correction


def final_fidelity(f_elem: float, f_swap: float, nesting_level: int,
                   residual: float) -> float:
    """F_tot = F_elem^l F_swap^(l-1) C_R with l = 2^n links."""
    links = 2**nesting_level
    return f_elem**links * f_swap ** (links - 1) * residual


# -- comparators ---------------------------------------------------------------


def direct_transmission_rate(length_km: float, source_rate: float = 1e9,
                             attenuation_km: float = 22.0,
                             detection_efficiency: Optional[float] = None) -> float:
    """Entangled-photon source firing down a fiber: rate * e^(-L/L_att).

    Detector efficiency is excluded by default (the reference is quoted for
    the source alone); pass a value to weight by eta_o^2.
    """
    if length_km < 0:
        raise ValueError("length must be nonnegative")
    rate = source_rate * math.exp(-length_km / attenuation_km)
    if detection_efficiency is not None:
        rate *= detection_efficiency**2
    return rate


def dlcz_rate_curve(nesting_level: int = 3, multiplexing: int = 1,
                    generation_probability: float = 0.01,
                    memory_efficiency: float = 0.9,
                    detection_efficiency: float = 0.9,
                    attenuation_km: float = 22.0,
                    operation_time_s: float = 0.0) -> Callable[[float], float]:
    """Simplified DLCZ comparator with the linear-optics swap bound.

    Uses the same structural rate formula with P0 built from the single
    photon generation probability and detection, and P_i = (1/2) eta_m^2
    (swapping is capped at one half).  Labeled simplified: the reference
    protocol's exact prefactors live in its own literature.
    """
    # rate_curve sets the elementary length; 1 km is a placeholder
    link = LinkParams(length_km=1.0, attenuation_km=attenuation_km,
                      emission_probability=generation_probability,
                      detection_efficiency=detection_efficiency,
                      operation_time_s=operation_time_s)
    chain = ChainParams(nesting_level=nesting_level, multiplexing=multiplexing,
                        swap_probability=0.5 * memory_efficiency**2)
    return rate_curve(chain, link)


def re_rate_curve(nesting_level: int = 3, multiplexing: int = 1,
                  emission_probability: float = 0.8,
                  detection_efficiency: float = 0.9,
                  swap_probability: float = 0.81,
                  attenuation_km: float = 22.0,
                  operation_time_s: float = 1e-4) -> Callable[[float], float]:
    """Single rare-earth-ion comparator: cat-scheme link model with a 0.1 ms
    local operation time and deterministic-gate swapping."""
    link = LinkParams(length_km=1.0, attenuation_km=attenuation_km,
                      emission_probability=emission_probability,
                      detection_efficiency=detection_efficiency,
                      operation_time_s=operation_time_s)
    chain = ChainParams(nesting_level=nesting_level, multiplexing=multiplexing,
                        swap_probability=swap_probability)
    return rate_curve(chain, link)


def crossover(scheme_rate: Callable[[float], float],
              reference_rate: Callable[[float], float],
              bracket: tuple[float, float] = (50.0, 1500.0),
              tol_km: float = 0.1) -> float:
    """Distance where the scheme's rate meets the reference rate (bisection).

    Requires the sign of (scheme - reference) to differ at the bracket ends;
    refined to ``tol_km``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def gap(length: float) -> float:
        return math.log(scheme_rate(length)) - math.log(reference_rate(length))

    glo, ghi = gap(lo), gap(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if glo * ghi > 0:
        raise ValueError(
            f"no crossover inside bracket [{lo}, {hi}] km (gap {glo:.3g} to {ghi:.3g})")
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        if gm == 0:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


# -- full chain evaluation ------------------------------------------------------


def evaluate_chain(total_length_km: float, chain: ChainParams, link_template: LinkParams,
                   op_fidelities: dict[str, float],
                   crossover_km: Optional[float] = None) -> RateFidelityReport:
    """Rate, residual coherence and fidelity budget at one total distance.

    ``link_template.length_km`` is ignored; the elementary link is the total
    length divided by 2^n.  The storage wait time is the mean delivery
    interval of the multiplexed array, <T> / m.
    """
    link = replace(link_template, length_km=total_length_km / 2**chain.nesting_level)
    t_mean = mean_time(chain, link)
    rate = chain.multiplexing / t_mean
    wait = t_mean / chain.multiplexing
    c_r = residual_coherence(chain, wait)
    f_elem = elementary_fidelity(op_fidelities, chain.storage_policy)
    f_swap = swap_fidelity(op_fidelities)
    f_tot = final_fidelity(f_elem, f_swap, chain.nesting_level, c_r)
    return RateFidelityReport(
        length_km=total_length_km,
        nesting_level=chain.nesting_level,
        multiplexing=chain.multiplexing,
        p0=p0(link),
        mean_time_s=t_mean,
        rate_per_s=rate,
        residual_coherence=c_r,
        elementary_fidelity=f_elem,
        swap_fidelity=f_swap,
        final_fidelity=f_tot,
        storage_policy=chain.storage_policy,
        crossover_km=crossover_km,
    )
