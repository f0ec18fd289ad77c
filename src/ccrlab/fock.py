"""Truncated Fock-space operators: ladder matrices, q/p, spectra, states.

Matrices are dense complex numpy arrays in the orthonormal number basis
{e_n}; `Tridiagonal` stores q and p by their two off-diagonals for the
kernels that only apply them.  Truncating to `dim` modes corrupts the
top rows/columns of every operator identity; that artifact is surfaced
(never hidden) through `truncation_safe_projection` and guard-band
parameters downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORMALIZED = "normalized"
UNNORMALIZED = "unnormalized"  # basis psi_n = (a†)^n psi_0 with ||psi_n||^2 = n!

_EXACT_FACTORIAL_MAX = 20


def sqrt_factorial(n: int) -> float:
    """sqrt(n!) — exact integer factorial for n <= 20, log-space beyond."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= _EXACT_FACTORIAL_MAX:
        return math.sqrt(math.factorial(n))
    return math.exp(0.5 * math.lgamma(n + 1))


def factorial_float(n: int) -> float:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= _EXACT_FACTORIAL_MAX:
        return float(math.factorial(n))
    return math.exp(math.lgamma(n + 1))


def _check_dim(dim: int, minimum: int = 1) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < minimum:
        raise ValueError(f"invalid dimension {dim!r}: need integer >= {minimum}")


def _check_square(M: np.ndarray) -> int:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M.shape[0]


def _ladder_offdiagonal(dim: int) -> np.ndarray:
    """sqrt(n)/sqrt2 for n = 1..dim-1: the off-diagonals of q and, up to
    a factor -+i, of p.  Multiplying by 1/sqrt2, not dividing, rounds as
    numpy's complex-by-real division does, bit for bit."""
    _check_dim(dim)
    return np.sqrt(np.arange(1, dim)) * (1.0 / math.sqrt(2))


def build_annihilator(dim: int) -> np.ndarray:
    """Ladder-down matrix: A e_n = sqrt(n) e_{n-1}."""
    _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def build_creator(dim: int) -> np.ndarray:
    """Exact conjugate transpose of build_annihilator(dim)."""
    return build_annihilator(dim).conj().T.copy()


def build_position(dim: int) -> np.ndarray:
    """q = (a + a†)/sqrt(2): real symmetric tridiagonal."""
    return Tridiagonal.position(dim).to_dense()


def build_momentum(dim: int) -> np.ndarray:
    """p = (a - a†)/(i sqrt(2)): Hermitian, purely imaginary off-diagonal."""
    return Tridiagonal.momentum(dim).to_dense()


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """A dim x dim operator with zero main diagonal, stored by its two
    off-diagonals: (T x)_n = lower[n-1] x_{n-1} + upper[n] x_{n+1}.

    It supports what the exponential kernel needs: scalar multiples,
    `@` on a vector or column block in O(dim) per column, and the
    1-norm.  len() is the dimension, as for a square array.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower, upper = np.asarray(self.lower), np.asarray(self.upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(f"off-diagonals must be 1-d of equal length, got {lower.shape} and {upper.shape}")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("tridiagonal operator has non-finite entries")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def position(cls, dim: int) -> "Tridiagonal":
        """q = (a + a†)/sqrt(2)."""
        off = _ladder_offdiagonal(dim)
        return cls(off, off)

    @classmethod
    def momentum(cls, dim: int) -> "Tridiagonal":
        """p = (a - a†)/(i sqrt(2))."""
        off = _ladder_offdiagonal(dim)
        return cls(1j * off, -1j * off)

    def __len__(self) -> int:
        return self.lower.size + 1

    def __mul__(self, c) -> "Tridiagonal":
        return Tridiagonal(c * self.lower, c * self.upper)

    __rmul__ = __mul__

    def __matmul__(self, F) -> np.ndarray:
        F = np.asarray(F)
        if F.ndim not in (1, 2) or F.shape[0] != len(self):
            raise ValueError(f"cannot apply a {len(self)}-dim operator to shape {F.shape}")
        lower, upper = (self.lower, self.upper) if F.ndim == 1 else (self.lower[:, None], self.upper[:, None])
        out = np.empty(F.shape, np.result_type(lower, F))
        out[0] = 0.0
        np.multiply(lower, F[:-1], out=out[1:])
        out[:-1] += upper * F[1:]
        return out

    def norm1(self) -> float:
        """max_j sum_i |T_ij|: column j holds upper[j-1] and lower[j]."""
        sums = np.zeros(len(self))
        sums[1:] += np.abs(self.upper)
        sums[:-1] += np.abs(self.lower)
        return float(sums.max())

    def to_dense(self) -> np.ndarray:
        """The dense complex dim x dim matrix."""
        out = np.zeros((len(self), len(self)), dtype=complex)
        n = np.arange(self.lower.size)
        out[n + 1, n] = self.lower
        out[n, n + 1] = self.upper
        return out


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


@dataclass(frozen=True)
class FockState:
    """Finite coefficient vector over the number basis.

    convention:
      "normalized"   — coefficients over orthonormal e_n.
      "unnormalized" — coefficients over psi_n = (a†)^n psi_0, whose
                       squared norm is n!; conversion multiplies
                       coefficient n by sqrt(n!).
    """

    coeffs: np.ndarray
    convention: str = NORMALIZED

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        if self.convention not in (NORMALIZED, UNNORMALIZED):
            raise ValueError(f"unknown convention {self.convention!r}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis_state(cls, n: int, convention: str = NORMALIZED) -> "FockState":
        if n < 0:
            raise ValueError("mode index must be nonnegative")
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        return cls(c, convention)

    @property
    def support(self) -> int:
        """Largest mode with a nonzero coefficient (-1 for the zero vector)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def to_normalized(self) -> "FockState":
        if self.convention == NORMALIZED:
            return self
        scale = np.array([sqrt_factorial(n) for n in range(self.coeffs.size)])
        return FockState(self.coeffs * scale, NORMALIZED)

    def to_unnormalized(self) -> "FockState":
        if self.convention == UNNORMALIZED:
            return self
        scale = np.array([sqrt_factorial(n) for n in range(self.coeffs.size)])
        return FockState(self.coeffs / scale, UNNORMALIZED)

    def vector(self, dim: int) -> np.ndarray:
        """Normalized-convention coefficients padded/validated to dim."""
        _check_dim(dim)
        c = self.to_normalized().coeffs
        if self.support >= dim:
            raise ValueError(
                f"state supported on mode {self.support} exceeds dimension {dim}"
            )
        out = np.zeros(dim, dtype=complex)
        out[: min(c.size, dim)] = c[:dim]
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_normalized().coeffs))


def inner_product(x: FockState, y: FockState) -> complex:
    """Hermitian inner product <x, y> (conjugate-linear in x).

    In the unnormalized convention <psi_m, psi_n> = delta_mn * n!.
    Mixed conventions are auto-converted.
    """
    if x.convention == y.convention == UNNORMALIZED:
        n = max(x.coeffs.size, y.coeffs.size)
        xa = np.zeros(n, complex)
        ya = np.zeros(n, complex)
        xa[: x.coeffs.size] = x.coeffs
        ya[: y.coeffs.size] = y.coeffs
        w = np.array([factorial_float(k) for k in range(n)])
        return complex(np.sum(np.conj(xa) * ya * w))
    xv = x.to_normalized().coeffs
    yv = y.to_normalized().coeffs
    n = max(xv.size, yv.size)
    xa = np.zeros(n, complex)
    ya = np.zeros(n, complex)
    xa[: xv.size] = xv
    ya[: yv.size] = yv
    return complex(np.vdot(xa, ya))
