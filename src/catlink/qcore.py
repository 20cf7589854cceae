"""Dense linear algebra on truncated Fock spaces.

Operators and states are plain complex numpy arrays.  An operator is a square
matrix; a state is a one-dimensional vector (pure) or a square density matrix
(mixed), told apart by ``ndim``.  A composite space is the ``np.kron`` chain
of its parts, and the one function that needs the subsystem sizes,
``partial_trace``, takes them as an argument.  The state constructors here
return normalized vectors; ``check_pure`` is the check for a vector that
arrives from a caller.  Problem sizes in this package are small enough
(composite dimension of a few hundred) that dense storage is both simpler and
faster than sparse machinery.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "annihilation",
    "creation",
    "number_operator",
    "identity",
    "parity_operator",
    "fock_state",
    "coherent_state",
    "cat_state",
    "check_pure",
    "tensor",
    "partial_trace",
    "state_fidelity",
    "parity_expectation",
    "expectation",
    "to_density_matrix",
]

NORM_TOL = 1e-10


def check_pure(state: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``state`` is a vector of norm 1 to within
    ``NORM_TOL``; ``what`` names it in the message."""
    if np.ndim(state) != 1:
        raise ValueError(f"{what} must be a pure state vector, got shape {np.shape(state)}")
    nrm = float(np.linalg.norm(state))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"{what} norm {nrm} deviates from 1")


# -- elementary constructions ---------------------------------------------


def annihilation(dim: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``dim`` Fock levels.

    Entries sqrt(k) on the (k-1, k) superdiagonal.  Requires ``dim >= 2``.
    """
    if dim < 2:
        raise ValueError("annihilation requires dim >= 2")
    data = np.zeros((dim, dim), dtype=complex)
    ks = np.arange(1, dim)
    data[ks - 1, ks] = np.sqrt(ks)
    return data


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=complex))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def parity_operator(dim: int) -> np.ndarray:
    """Photon-number parity exp(i pi a^dag a) = diag((-1)^n)."""
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def fock_state(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside truncation {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state, renormalized after truncation.

    The truncation is adequate when roughly ``|alpha|^2 + 6|alpha| + 10 <=
    dim``; the renormalization absorbs the (documented) truncation error so
    that the returned state is exactly normalized.
    """
    alpha = complex(alpha)
    if alpha == 0:
        return fock_state(0, dim)
    n = np.arange(dim)
    # alpha^n / sqrt(n!) computed in log space to stay stable at large n
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    mag = np.exp(n * np.log(abs(alpha)) - 0.5 * log_fact)
    phase = np.exp(1j * np.angle(alpha) * n)
    vec = mag * phase
    return vec / np.linalg.norm(vec)


def cat_state(alpha: complex, parity: str, dim: int) -> np.ndarray:
    """Even or odd cat state N(|alpha> +/- |-alpha>), exactly normalized.

    ``parity`` is "even" (+) or "odd" (-); the Fock amplitudes of the other
    parity are exactly zero.  An odd cat with alpha = 0 is the zero vector
    and raises ``ValueError``.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    sign = 1.0 if parity == "even" else -1.0
    if alpha == 0 and parity == "odd":
        raise ValueError("odd cat state with alpha = 0 is degenerate (zero vector)")
    vec = coherent_state(alpha, dim) + sign * coherent_state(-alpha, dim)
    # the two coherent states cancel there only up to rounding
    vec[1 if parity == "even" else 0::2] = 0.0
    return vec / np.linalg.norm(vec)


# -- composition and reduction ---------------------------------------------


def tensor(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker composition of operators or states: the ``np.kron`` chain of
    ``parts``, which must be all vectors or all matrices."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor of an empty sequence")
    if len({np.ndim(p) for p in parts}) > 1:
        raise ValueError("cannot tensor state vectors with matrices")
    return functools.reduce(np.kron, parts)


def partial_trace(rho: np.ndarray, keep: Iterable[int], dims: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` are the subsystem sizes of ``rho``, whose dimension must be their
    product; ``keep`` indices refer to positions in ``dims`` and are returned
    in ascending order.  Pure inputs are promoted to density matrices first.
    """
    dims = tuple(int(d) for d in dims)
    if np.shape(rho)[0] != math.prod(dims):
        raise ValueError(f"state shape {np.shape(rho)} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep:
        raise ValueError("keep set must not be empty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    mat = to_density_matrix(rho).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for count, idx in enumerate(traced):
        ax = idx - sum(1 for t in traced[:count] if t < idx)
        mat = np.trace(mat, axis1=ax, axis2=ax + (n - count))
        # after tracing one axis pair the effective subsystem count drops
    dim = math.prod(dims[k] for k in keep)
    return mat.reshape(dim, dim)


def state_fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Squared-overlap fidelity <psi|rho|psi> against a pure target.

    Used uniformly as the fidelity convention throughout the package.
    """
    if np.ndim(target) != 1:
        raise ValueError("target state must be pure")
    if np.shape(rho)[0] != len(target):
        raise ValueError(f"state shape {np.shape(rho)} does not match target "
                         f"length {len(target)}")
    if np.ndim(rho) == 1:
        val = abs(np.vdot(target, rho)) ** 2
    else:
        val = float(np.real(np.vdot(target, rho @ target)))
    return float(min(max(val, 0.0), 1.0 + 1e-9))


def expectation(op: np.ndarray, state: np.ndarray) -> complex:
    """<psi|op|psi> for a pure state, Tr(op rho) for a density matrix."""
    dim = len(state)
    if np.shape(op) != (dim, dim):
        raise ValueError(f"operator shape {np.shape(op)} does not match state "
                         f"shape {np.shape(state)}")
    if np.ndim(state) == 1:
        return complex(np.vdot(state, op @ state))
    return complex(np.trace(op @ state))


def parity_expectation(rho: np.ndarray) -> float:
    """Tr(rho exp(i pi a^dag a)) for a single-cavity state."""
    return float(np.real(expectation(parity_operator(len(rho)), rho)))


def to_density_matrix(state: np.ndarray) -> np.ndarray:
    if np.ndim(state) == 2:
        return state
    return np.outer(state, state.conj())
