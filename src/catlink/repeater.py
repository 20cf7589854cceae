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
    "operation_counts",
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
    "DLCZ_FIDELITY_CEILING",
    "RE_FIDELITY_CEILING",
    "crossover",
    "evaluate_chain",
]

SPEED_OF_LIGHT_FIBER = 2.0e5          # km/s
DLCZ_FIDELITY_CEILING = 0.75          # reported upper bound, not computed here
RE_FIDELITY_CEILING = 0.80
CROSSOVER_TOL_KM = 0.1                # bisection stops below this bracket width


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
        if not self.fiber_speed_km_s > 0:
            raise ValueError("fiber_speed_km_s must be positive")


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
        if not self.transfer_lifetime_s > 0:
            raise ValueError(
                f"transfer_lifetime_s must be positive, got {self.transfer_lifetime_s}")


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


_MC_BLOCK = 8192                      # trials sampled per block, at most
_MC_LEAVES = 2**17                    # expected leaf draws per block, at most


def monte_carlo_time(chain: ChainParams, link: LinkParams, trials: int,
                     seed: int = 0) -> list[tuple[float, float]]:
    """Brute-force oracle for the mean distribution time of one channel set.

    Per attempt slot (duration L0/c + T_o) a link succeeds with probability
    P0; a swap at level i waits for both children, then succeeds with
    probability P_i, a failure discarding and regenerating both child pairs.
    Returns one (sample mean, standard error) row per level 0..n, each over
    ``trials`` seeded samples; callers that want level n alone take ``[-1]``.

    All rows come from one tree of ``trials`` level-n trials.  A block of
    level-i nodes draws its swap tries before its children: every node makes
    a first try, succeeding with probability P_i, and only the nodes whose
    first try failed draw geometric(P_i) more, so a node's try count is 1
    with probability P_i and else 1 + geometric(P_i), the exact law.  The
    children of all first tries come first, node by node, then those of the
    retries.  Swap outcomes do not depend on child times, so a level-i
    node's children are iid level-(i - 1) nodes whatever its number of
    tries.  Row i < n is therefore the estimate over the first ``trials``
    level-i nodes the tree generates, in generation order: which nodes come
    first is set by the swap tries above them, never by their times.  Each
    level-n trial holds at least 2^(n - i) level-i nodes, so every row has
    exactly ``trials`` samples.  Row 0 draws its own ``trials`` leaves from
    the same generator before the tree (for n = 0 they are the tree).  The
    rows of one call are correlated, but each is unbiased and its standard
    error is valid on its own.

    A leaf's slot count is geometric(P0), drawn by exponential inversion,
    ceil(E / r) with r = -log(1 - P0), numpy's own method for P0 < 1/3.  A
    level-1 try only uses the larger of its two leaves, and ceil is
    monotone, so it draws that one directly: the larger of two Exp(1) has
    CDF (1 - e^(-x))^2, giving ceil(-log(1 - sqrt(U)) / r) for uniform U,
    clamped to at least 1 (the generalized inverse at U = 0).  This law is
    exact.  A level-i node then sums max(left, right) over the children of
    all its tries.

    Trials run in blocks, counted in attempt slots: at most ``_MC_BLOCK``
    trials and ``_MC_LEAVES`` expected leaves, (2 / P)^n per level-n trial,
    counting the two leaves each level-1 pair stands for; a level whose one
    trial is past that budget raises before sampling.  Memory is set by the
    leaf budget, not by ``trials`` or n: each block adds each row's slot sum
    S1 and sum of squares S2 to Python integers and is dropped.  A row's
    mean is t_a S1 / N, rounded once from exact integers, and its standard
    error t_a sqrt((N S2 - S1^2) / (N (N - 1))) / sqrt(N), with t_a the
    attempt time and the numerator in exact integer arithmetic.  An array's
    float64 sums are exact while its S2 stays below 2^53, that is for slot
    counts up to about 1e6; above that S2 rounds at 1e-16 relative.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a stable mean")
    prob0 = p0(link)
    if prob0 <= 0:
        raise ValueError(f"link success probability p0 = {prob0} must be positive")
    n, growth = chain.nesting_level, 2.0 / chain.swap_probability
    if growth**n > _MC_LEAVES:
        limit = int(math.log(_MC_LEAVES) / math.log(growth))
        raise ValueError(f"[chain] nesting_level = {n} is past the Monte-Carlo limit "
                         f"n <= {limit} at swap probability {chain.swap_probability}")
    block = min(_MC_BLOCK, int(_MC_LEAVES / growth**n))
    rng = np.random.default_rng(seed)
    leaf_rate = -math.log1p(-prob0)
    trials = int(trials)
    counts, s1, s2 = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)

    def tally(level: int, k: np.ndarray) -> None:
        k = k[:trials - counts[level]]
        counts[level] += k.size
        s1[level] += int(k.sum())
        s2[level] += int(k @ k)

    def slots(level: int, size: int) -> np.ndarray:
        if level == 0:
            leaves = rng.standard_exponential(size)
            leaves /= leaf_rate
            return np.ceil(leaves, out=leaves)
        # pair k < size is node k's first try; a node whose first try failed
        # retries geometric(P) more times, its pairs after all the first ones,
        # and starts[j] indexes failed node j's first retry among them
        failed = np.flatnonzero(rng.random(size) >= chain.swap_probability)
        retries = rng.geometric(chain.swap_probability, size=failed.size)
        n_tries = size + int(retries.sum())
        starts = np.cumsum(retries) - retries
        if level == 1:
            # ceil(-log1p(-sqrt(U)) / r), the larger leaf of each pair
            pairs = rng.random(n_tries)
            np.sqrt(pairs, out=pairs)
            np.negative(pairs, out=pairs)
            np.log1p(pairs, out=pairs)
            pairs /= -leaf_rate
            np.ceil(pairs, out=pairs)
            np.maximum(pairs, 1.0, out=pairs)
        else:
            children = slots(level - 1, 2 * n_tries)
            tally(level - 1, children)
            pairs = np.maximum(children[0::2], children[1::2], out=children[0::2])
        nodes = pairs[:size]
        nodes[failed] += np.add.reduceat(pairs[size:], starts)
        return nodes

    for start in range(0, trials, _MC_BLOCK):
        tally(0, slots(0, min(_MC_BLOCK, trials - start)))
    if n:
        for start in range(0, trials, block):
            tally(n, slots(n, min(block, trials - start)))
    t_a = attempt_time(link)
    num, den = t_a.as_integer_ratio()
    rows = []
    for total, squares in zip(s1, s2):
        variance = (trials * squares - total * total) / (trials * (trials - 1))
        rows.append((num * total / (den * trials),
                     t_a * math.sqrt(variance) / math.sqrt(trials)))
    return rows


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


def operation_counts(storage_policy: str) -> dict[str, int]:
    """Operations per elementary link under a storage policy: the link
    inventory plus the policy's extra drive and undrive operations."""
    counts = dict(OPERATION_INVENTORY)
    for op, extra in STORAGE_EXTRA_OPS[storage_policy].items():
        counts[op] += extra
    return counts


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


def elementary_fidelity(op_fidelities: dict[str, float], storage_policy: str) -> float:
    """Product of per-operation fidelities over the link inventory.

    ``op_fidelities`` must contain every key of ``OPERATION_INVENTORY``;
    Fock/transfer storage adds two more drive and undrive operations.
    """
    fid = 1.0
    for op, count in operation_counts(storage_policy).items():
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
                             attenuation_km: float = 22.0) -> float:
    """Entangled-photon source firing down a fiber: rate * e^(-L/L_att).

    Detector efficiency is excluded: the reference is quoted for the source
    alone.
    """
    if length_km < 0:
        raise ValueError("length must be nonnegative")
    return source_rate * math.exp(-length_km / attenuation_km)


def crossover(scheme_rate: Callable[[float], float],
              reference_rate: Callable[[float], float],
              bracket: tuple[float, float]) -> float:
    """Distance where the scheme's rate meets the reference rate (bisection).

    Requires the sign of (scheme - reference) to differ at the bracket ends;
    refined to ``CROSSOVER_TOL_KM``.  The curves are compared in log space,
    so a rate that is not positive raises ``ValueError`` naming the curve
    and the length.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def log_rate(curve: Callable[[float], float], name: str, length: float) -> float:
        rate = curve(length)
        if not rate > 0:
            raise ValueError(f"{name} rate {rate!r} /s at {length} km is not positive")
        return math.log(rate)

    def gap(length: float) -> float:
        return (log_rate(scheme_rate, "scheme", length)
                - log_rate(reference_rate, "reference", length))

    glo, ghi = gap(lo), gap(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if glo * ghi > 0:
        raise ValueError(
            f"no crossover inside bracket [{lo}, {hi}] km (gap {glo:.3g} to {ghi:.3g})")
    while hi - lo > CROSSOVER_TOL_KM:
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
