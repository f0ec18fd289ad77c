"""The dense d x d Fock-space matrices: the oracle of `fock.Band`.

The package stores every ladder operator by its diagonals.  These are
the dense builders, the commutator, the guarded leading block and the
`eigh` spectra that it used to export, kept as they were so that the
tests can check the band operators and the suites against full matrix
arithmetic.  q and p are built from the ladder formula (A ± A†)/..., so
the oracle does not go through `Band`.  Also kept: the two-operation
product and the 1-norm of the replaced tridiagonal type, which
`Band.position/momentum` must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ccrlab.fock import Band, _check_dim


def _check_square(M: np.ndarray) -> int:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M.shape[0]


def build_annihilator(dim: int) -> np.ndarray:
    """Ladder-down matrix: A e_n = sqrt(n) e_{n-1}."""
    _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def build_creator(dim: int) -> np.ndarray:
    """Exact conjugate transpose of build_annihilator(dim)."""
    return build_annihilator(dim).conj().T.copy()


def build_position(dim: int) -> np.ndarray:
    """q = (a + a†)/sqrt(2): real symmetric tridiagonal."""
    A = build_annihilator(dim)
    return (A + A.conj().T) / math.sqrt(2)


def build_momentum(dim: int) -> np.ndarray:
    """p = (a - a†)/(i sqrt(2)): Hermitian, purely imaginary off-diagonal."""
    A = build_annihilator(dim)
    return (A - A.conj().T) / (1j * math.sqrt(2))


def _operator_dim(A: np.ndarray | Band) -> int:
    """The dimension of a `Band` or of a finite square array."""
    return A.dim if isinstance(A, Band) else _check_square(A)


def build_number(dim: int) -> np.ndarray:
    """N = a†a."""
    A = build_annihilator(dim)
    return A.conj().T @ A


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """AB - BA; raises on dimension mismatch."""
    da, db = _check_square(A), _check_square(B)
    if da != db:
        raise ValueError(f"dimension mismatch: {da} vs {db}")
    return A @ B - B @ A


def truncation_safe_projection(M: np.ndarray, guard: int) -> np.ndarray:
    """Leading (dim-guard) x (dim-guard) block, where truncated identities
    are exact; guard must satisfy 0 <= guard < dim."""
    dim = _check_square(M)
    if not 0 <= guard < dim:
        raise ValueError(f"guard must satisfy 0 <= guard < dim={dim}, got {guard}")
    g = dim - guard
    return np.array(M[:g, :g])


def number_spectrum(dim: int) -> np.ndarray:
    """Eigenvalues of a†a, sorted ascending (ideally {0, ..., dim-1})."""
    _check_dim(dim)
    return np.sort(np.linalg.eigvalsh(build_number(dim)))


def number_eigensystem(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors as columns) of a†a, ascending."""
    _check_dim(dim)
    return np.linalg.eigh(build_number(dim))


def oscillator_spectrum(dim: int) -> np.ndarray:
    """Eigenvalues of q^2 + p^2, sorted.  The untruncated values are the
    odd integers {2n+1}; truncation injects one artifact value dim-1."""
    _check_dim(dim, minimum=2)
    q, p = build_position(dim), build_momentum(dim)
    return np.sort(np.linalg.eigvalsh(q @ q + p @ p))


def band_of(M: np.ndarray) -> Band:
    """M as a Band with every one of its 2d - 1 diagonals, zero or not."""
    d = _check_square(M)
    return Band(d, {k: np.diagonal(M, k).copy() for k in range(1 - d, d)})


def tridiagonal_apply(lower: np.ndarray, upper: np.ndarray, F: np.ndarray) -> np.ndarray:
    """(T F)_n = lower[n-1] F_{n-1} + upper[n] F_{n+1}, by the two numpy
    operations of the replaced tridiagonal type, in its order."""
    F = np.asarray(F)
    lower, upper = (lower, upper) if F.ndim == 1 else (lower[:, None], upper[:, None])
    out = np.empty(F.shape, np.result_type(lower, F))
    out[0] = 0.0
    np.multiply(lower, F[:-1], out=out[1:])
    out[:-1] += upper * F[1:]
    return out


def tridiagonal_norm1(lower: np.ndarray, upper: np.ndarray) -> float:
    """max_j sum_i |T_ij| in the replaced type's summation order."""
    sums = np.zeros(lower.size + 1)
    sums[1:] += np.abs(upper)
    sums[:-1] += np.abs(lower)
    return float(sums.max())
