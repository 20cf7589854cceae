"""Dense linear algebra on truncated Fock spaces.

States are thin immutable wrappers around dense complex numpy arrays, tagged
with per-subsystem truncation sizes so that composite-space bookkeeping
(tensor products, partial traces) stays explicit, and checked for
normalization.  Operators are plain square complex ``ndarray``s: every caller
works with the matrix itself, and a state's ``dim`` is all an operator has
to agree with.  Problem sizes in this package are small enough (composite
dimension of a few hundred) that dense storage is both simpler and faster
than sparse machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "QState",
    "annihilation",
    "creation",
    "number_operator",
    "identity",
    "parity_operator",
    "fock_state",
    "coherent_state",
    "cat_state",
    "tensor",
    "partial_trace",
    "state_fidelity",
    "parity_expectation",
    "expectation",
    "to_density_matrix",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class QState:
    """Pure state vector or density matrix over a truncated Fock space.

    ``kind`` is inferred from the array rank: one-dimensional data is a pure
    state, two-dimensional data a density matrix.  Pure vectors must be
    normalized to within ``NORM_TOL`` unless constructed with
    ``normalize=False`` (used internally for unnormalized intermediates such
    as heralded branches).
    """

    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)
    normalize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        # a private copy, so freezing it below leaves the caller's array writeable
        arr = np.array(self.data, dtype=complex, order="C")
        dim = math.prod(self.dims)
        if arr.ndim == 1:
            if arr.shape != (dim,):
                raise ValueError(f"state vector length {arr.shape} != {dim}")
        elif arr.ndim == 2:
            if arr.shape != (dim, dim):
                raise ValueError(f"density matrix shape {arr.shape} != ({dim}, {dim})")
        else:
            raise ValueError("state data must be a vector or a square matrix")
        if self.normalize:
            if arr.ndim == 1:
                nrm = float(np.linalg.norm(arr))
                if abs(nrm - 1.0) > NORM_TOL:
                    raise ValueError(f"pure state norm {nrm} deviates from 1")
            else:
                tr = complex(np.trace(arr))
                if abs(tr - 1.0) > NORM_TOL:
                    raise ValueError(f"density matrix trace {tr} deviates from 1")
                herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
                if herm_dev > 1e-8:
                    raise ValueError(
                        f"density matrix is not Hermitian (deviation {herm_dev:.3e})"
                    )
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def kind(self) -> str:
        return "pure" if self.data.ndim == 1 else "mixed"

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def norm(self) -> float:
        if self.kind == "pure":
            return float(np.linalg.norm(self.data))
        return float(np.real(np.trace(self.data)))

    def density_matrix(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.asarray(self.data)


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


def fock_state(n: int, dim: int) -> QState:
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside truncation {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return QState((dim,), vec)


def coherent_state(alpha: complex, dim: int) -> QState:
    """Truncated coherent state, renormalized after truncation.

    The truncation is adequate when roughly ``|alpha|^2 + 6|alpha| + 10 <=
    dim``; the renormalization absorbs the (documented) truncation error so
    that the returned state is exactly normalized.
    """
    alpha = complex(alpha)
    n = np.arange(dim)
    # alpha^n / sqrt(n!) computed in log space to stay stable at large n
    with np.errstate(divide="ignore"):
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    if alpha == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return QState((dim,), vec)
    mag = np.exp(n * np.log(abs(alpha)) - 0.5 * log_fact)
    phase = np.exp(1j * np.angle(alpha) * n)
    vec = mag * phase
    vec = vec / np.linalg.norm(vec)
    return QState((dim,), vec)


def cat_state(alpha: complex, parity: str, dim: int) -> QState:
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
    plus = coherent_state(alpha, dim).data
    minus = coherent_state(-alpha, dim).data
    vec = plus + sign * minus
    # the two coherent states cancel there only up to rounding
    vec[1 if parity == "even" else 0::2] = 0.0
    nrm = np.linalg.norm(vec)
    return QState((dim,), vec / nrm)


# -- composition and reduction ---------------------------------------------


def tensor(parts: Sequence[Union[np.ndarray, QState]]):
    """Kronecker composition of operator arrays or of states (not mixed
    kinds); operators compose to the ``np.kron`` chain of their arrays."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor of an empty sequence")
    is_state = [isinstance(p, QState) for p in parts]
    if not any(is_state):
        return functools.reduce(np.kron, parts)
    if not all(is_state):
        raise ValueError("tensor arguments must be all operators or all states")
    if len({p.kind for p in parts}) > 1:
        raise ValueError("cannot tensor pure states with density matrices")
    data = functools.reduce(np.kron, [p.data for p in parts])
    dims = sum((p.dims for p in parts), ())
    return QState(dims, data, normalize=False)


def partial_trace(rho: QState, keep: Iterable[int]) -> QState:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` indices refer to positions in ``rho.dims`` and are returned in
    ascending order.  Pure inputs are promoted to density matrices first.
    """
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep set must not be empty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    mat = rho.density_matrix().reshape(rho.dims + rho.dims)
    traced = [i for i in range(n) if i not in keep]
    for count, idx in enumerate(traced):
        ax = idx - sum(1 for t in traced[:count] if t < idx)
        mat = np.trace(mat, axis1=ax, axis2=ax + (n - count))
        # after tracing one axis pair the effective subsystem count drops
    kept_dims = tuple(rho.dims[k] for k in keep)
    dim = math.prod(kept_dims)
    return QState(kept_dims, mat.reshape(dim, dim), normalize=False)


def state_fidelity(rho: QState, target: QState) -> float:
    """Squared-overlap fidelity <psi|rho|psi> against a pure target.

    Used uniformly as the fidelity convention throughout the package.
    """
    if target.kind != "pure":
        raise ValueError("target state must be pure")
    if rho.dims != target.dims:
        raise ValueError(f"dims mismatch: {rho.dims} vs {target.dims}")
    psi = target.data
    if rho.kind == "pure":
        val = abs(np.vdot(psi, rho.data)) ** 2
    else:
        val = float(np.real(np.vdot(psi, rho.data @ psi)))
    return float(min(max(val, 0.0), 1.0 + 1e-9))


def expectation(op: np.ndarray, state: QState) -> complex:
    """<psi|op|psi> for a pure state, Tr(op rho) for a density matrix."""
    if np.shape(op) != (state.dim, state.dim):
        raise ValueError(f"operator shape {np.shape(op)} does not match state "
                         f"dims {state.dims}")
    if state.kind == "pure":
        return complex(np.vdot(state.data, op @ state.data))
    return complex(np.trace(op @ state.data))


def parity_expectation(rho: QState) -> float:
    """Tr(rho exp(i pi a^dag a)) for a single-subsystem state."""
    if len(rho.dims) != 1:
        raise ValueError("parity_expectation expects a single subsystem")
    return float(np.real(expectation(parity_operator(rho.dims[0]), rho)))


def to_density_matrix(state: QState) -> QState:
    if state.kind == "mixed":
        return state
    return QState(state.dims, state.density_matrix(), normalize=False)
