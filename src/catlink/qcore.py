"""Dense linear algebra on truncated Fock spaces.

Operators and states are thin immutable wrappers around dense complex numpy
arrays, tagged with per-subsystem truncation sizes so that composite-space
bookkeeping (tensor products, partial traces) stays explicit.  Problem sizes
in this package are small enough (composite dimension of a few hundred) that
dense storage is both simpler and faster than sparse machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "QOperator",
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

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10


def _as_complex_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    arr = np.ascontiguousarray(arr)
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class QOperator:
    """Dense operator on a (possibly composite) truncated Fock space.

    Parameters
    ----------
    dims : sequence of int
        Per-subsystem truncation sizes.  The matrix dimension must equal
        their product.
    data : array_like
        Square complex matrix.
    """

    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        arr = _as_complex_array(self.data)
        dim = math.prod(self.dims)
        if arr.shape != (dim, dim):
            raise ValueError(
                f"operator data has shape {arr.shape}, expected ({dim}, {dim}) "
                f"from dims {self.dims}"
            )
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def dag(self) -> "QOperator":
        return QOperator(self.dims, self.data.conj().T)

    def assert_hermitian(self) -> "QOperator":
        dev = float(np.max(np.abs(self.data - self.data.conj().T)))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"operator is not Hermitian (max deviation {dev:.3e})")
        return self

    # -- simple operator algebra ------------------------------------------

    def _check_compatible(self, other: "QOperator"):
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")

    def __add__(self, other: "QOperator") -> "QOperator":
        self._check_compatible(other)
        return QOperator(self.dims, self.data + other.data)

    def __sub__(self, other: "QOperator") -> "QOperator":
        self._check_compatible(other)
        return QOperator(self.dims, self.data - other.data)

    def __neg__(self) -> "QOperator":
        return QOperator(self.dims, -self.data)

    def __mul__(self, scalar: complex) -> "QOperator":
        return QOperator(self.dims, self.data * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: Union["QOperator", "QState"]):
        if isinstance(other, QOperator):
            self._check_compatible(other)
            return QOperator(self.dims, self.data @ other.data)
        if isinstance(other, QState):
            if self.dims != other.dims:
                raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
            if other.kind == "pure":
                return QState(other.dims, self.data @ other.data, normalize=False)
            return QState(other.dims, self.data @ other.data @ self.data.conj().T,
                          normalize=False)
        return NotImplemented


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
        arr = _as_complex_array(self.data)
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
        object.__setattr__(self, "data", _freeze(arr))

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

    def purity(self) -> float:
        rho = self.density_matrix()
        return float(np.real(np.trace(rho @ rho)))

    def validate(self) -> "QState":
        """Full consistency check, including eigenvalue positivity (down to
        -1e-9) for density matrices.  Intended for tests; O(dim^3) for mixed
        states."""
        if self.kind == "pure":
            nrm = self.norm()
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"pure state norm {nrm} deviates from 1")
        else:
            tr = self.norm()
            if abs(tr - 1.0) > NORM_TOL:
                raise ValueError(f"trace {tr} deviates from 1")
            evals = np.linalg.eigvalsh(self.data)
            if evals.min() < -1e-9:
                raise ValueError(f"negative eigenvalue {evals.min():.3e}")
        return self


# -- elementary constructions ---------------------------------------------


def annihilation(dim: int) -> QOperator:
    """Bosonic annihilation operator truncated to ``dim`` Fock levels.

    Entries sqrt(k) on the (k-1, k) superdiagonal.  Requires ``dim >= 2``.
    """
    if dim < 2:
        raise ValueError("annihilation requires dim >= 2")
    data = np.zeros((dim, dim), dtype=complex)
    ks = np.arange(1, dim)
    data[ks - 1, ks] = np.sqrt(ks)
    return QOperator((dim,), data)


def creation(dim: int) -> QOperator:
    return annihilation(dim).dag()


def number_operator(dim: int) -> QOperator:
    return QOperator((dim,), np.diag(np.arange(dim, dtype=complex)))


def identity(dims: Union[int, Sequence[int]]) -> QOperator:
    if isinstance(dims, int):
        dims = (dims,)
    dim = math.prod(dims)
    return QOperator(tuple(dims), np.eye(dim, dtype=complex))


def parity_operator(dim: int) -> QOperator:
    """Photon-number parity exp(i pi a^dag a) = diag((-1)^n)."""
    return QOperator((dim,), np.diag((-1.0 + 0j) ** np.arange(dim)))


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


def tensor(parts: Sequence[Union[QOperator, QState]]):
    """Kronecker composition of operators or of states (not mixed kinds)."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor of an empty sequence")
    if all(isinstance(p, QOperator) for p in parts):
        data = parts[0].data
        dims: tuple[int, ...] = parts[0].dims
        for p in parts[1:]:
            data = np.kron(data, p.data)
            dims = dims + p.dims
        return QOperator(dims, data)
    if all(isinstance(p, QState) for p in parts):
        kinds = {p.kind for p in parts}
        if len(kinds) > 1:
            raise ValueError("cannot tensor pure states with density matrices")
        data = parts[0].data
        dims = parts[0].dims
        for p in parts[1:]:
            data = np.kron(data, p.data)
            dims = dims + p.dims
        return QState(dims, data, normalize=False)
    raise ValueError("tensor arguments must be all operators or all states")


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


def expectation(op: QOperator, state: QState) -> complex:
    if op.dims != state.dims:
        raise ValueError(f"dims mismatch: {op.dims} vs {state.dims}")
    if state.kind == "pure":
        return complex(np.vdot(state.data, op.data @ state.data))
    return complex(np.trace(op.data @ state.data))


def parity_expectation(rho: QState) -> float:
    """Tr(rho exp(i pi a^dag a)) for a single-subsystem state."""
    if len(rho.dims) != 1:
        raise ValueError("parity_expectation expects a single subsystem")
    return float(np.real(expectation(parity_operator(rho.dims[0]), rho)))


def to_density_matrix(state: QState) -> QState:
    if state.kind == "mixed":
        return state
    return QState(state.dims, state.density_matrix(), normalize=False)
