"""Truncated Fock-space operators and states.

Every truncated ladder operator a, a†, q, p, and every product of them,
is a band: its nonzero entries lie on a few diagonals of the number
basis {e_n}.  `Band` stores an operator by those diagonals, so a dim-mode
operator costs O(dim) memory and O(dim) per product, and no d x d array
is built.  Truncating to `dim` modes corrupts the top rows and columns of
every operator identity; the checks read that artifact off the
diagonals (the last entry of [p, q], for instance) and test identities
on the leading block, `Band.cut(dim - 1)`.

Bands and states are shared once built (the symbolic engine caches its
ladder bands), so both are immutable: each sets its fields once, in its
constructor, assigning or deleting a field raises AttributeError, and a
state's coefficients are a read-only copy of the caller's array.
"""

from __future__ import annotations

import functools
import math

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


def _ladder_offdiagonal(dim: int) -> np.ndarray:
    """sqrt(n)/sqrt2 for n = 1..dim-1: the off-diagonals of q and, up to
    a factor -+i, of p.  Multiplying by 1/sqrt2, not dividing, rounds as
    numpy's complex-by-real division does, bit for bit."""
    _check_dim(dim)
    return np.sqrt(np.arange(1, dim)) * (1.0 / math.sqrt(2))


def _rows_cols(k: int, n: int) -> tuple[slice, slice]:
    """The rows and the columns of the n entries on diagonal k."""
    return (slice(0, n), slice(k, k + n)) if k >= 0 else (slice(-k, n - k), slice(0, n))


class _Frozen:
    """Base of the records that are shared once built.  Their fields are
    their __slots__, which __init__ takes in that order and sets with
    object.__setattr__; assigning or deleting one raises, and a pickle or
    copy is rebuilt through __init__, as restoring fields would assign."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "__dict__")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._fields()


class _Value(_Frozen):
    """A _Frozen record that is equal to, and hashes as, any record of its
    type with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self),) + self._fields())


class Band(_Frozen):
    """A dim x dim operator stored by its diagonals.

    `diagonals` maps each offset k to the entries M[n, n + k] (k >= 0) or
    M[n - k, n] (k < 0), n = 0, 1, ..., the layout of np.diagonal(M, k):
    a 1-d array of length max(0, dim - |k|).  Every other entry is zero.
    The offsets are kept in ascending order, the order in which `@`
    accumulates them.

    It supports scalar multiples, `+` and `-`, `@` on a vector, a column
    block or another Band of the same dim, the conjugate transpose, the
    1-norm, the leading w x w block and the dense matrix.
    """

    __slots__ = ("dim", "diagonals", "__dict__")  # __dict__ holds the cached properties
    __array_ufunc__ = None  # numpy scalars on the left defer to __rmul__

    def __init__(self, dim: int, diagonals: dict):
        _check_dim(dim)
        checked = {}
        for k in sorted(diagonals):
            diagonal = np.asarray(diagonals[k])
            length = max(0, dim - abs(k))
            if diagonal.shape != (length,):
                raise ValueError(f"diagonal {k} of a {dim}-dim band must have shape ({length},), "
                                 f"got {diagonal.shape}")
            if not np.isfinite(diagonal).all():
                raise ValueError("band operator has non-finite entries")
            checked[int(k)] = diagonal
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "diagonals", checked)

    @classmethod
    def _unchecked(cls, dim: int, diagonals: dict) -> "Band":
        """The band of diagonals an operation on bands produced: of the
        right lengths by construction, so only their offsets are sorted."""
        band = object.__new__(cls)
        object.__setattr__(band, "dim", dim)
        object.__setattr__(band, "diagonals", dict(sorted(diagonals.items())))
        return band

    @functools.cached_property
    def _terms(self) -> tuple:
        """What `@` on an array reads per diagonal: its rows, its columns,
        and the diagonal as a vector and as a column."""
        return tuple((*_rows_cols(k, d.size), d, d[:, None]) for k, d in self.diagonals.items())

    @functools.cached_property
    def _dtype(self) -> np.dtype:
        return np.result_type(float, *self.diagonals.values())

    @classmethod
    def annihilator(cls, dim: int) -> "Band":
        """a e_n = sqrt(n) e_{n-1}."""
        _check_dim(dim)
        return cls(dim, {1: np.sqrt(np.arange(1, dim))})

    @classmethod
    def creator(cls, dim: int) -> "Band":
        """a† e_n = sqrt(n+1) e_{n+1} below the top mode."""
        return cls.annihilator(dim).adjoint()

    @classmethod
    def position(cls, dim: int) -> "Band":
        """q = (a + a†)/sqrt(2)."""
        off = _ladder_offdiagonal(dim)
        return cls(dim, {-1: off, 1: off})

    @classmethod
    def momentum(cls, dim: int) -> "Band":
        """p = (a - a†)/(i sqrt(2))."""
        off = _ladder_offdiagonal(dim)
        return cls(dim, {-1: 1j * off, 1: -1j * off})

    def __mul__(self, c) -> "Band":
        return Band(self.dim, {k: c * d for k, d in self.diagonals.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Band":
        return -1 * self

    def __add__(self, other: "Band") -> "Band":
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        out = dict(self.diagonals)
        for k, d in other.diagonals.items():
            out[k] = out[k] + d if k in out else d
        return Band._unchecked(self.dim, out)

    def __sub__(self, other: "Band") -> "Band":
        return self + (-other)

    def __matmul__(self, F):
        """The product with another Band, or with a vector or column block
        in O(dim) per column."""
        if isinstance(F, Band):
            return self._times_band(F)
        F = np.asarray(F)
        if F.ndim not in (1, 2) or F.shape[0] != self.dim:
            raise ValueError(f"cannot apply a {self.dim}-dim operator to shape {F.shape}")
        out = np.zeros(F.shape, np.promote_types(self._dtype, F.dtype))
        for i, (rows, cols, vector, column) in enumerate(self._terms):
            d = vector if F.ndim == 1 else column
            if i == 0:
                np.multiply(d, F[cols], out=out[rows])
            else:
                out[rows] += d * F[cols]
        return out

    def _times_band(self, other: "Band") -> "Band":
        """(AB)[i, i + a + b] sums A[i, i + a] B[i + a, i + a + b] over the
        pairs of offsets (a, b), in ascending order of a."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        dim = self.dim
        dtype = np.promote_types(self._dtype, other._dtype)
        out = {}
        for a, da in self.diagonals.items():
            for b, db in other.diagonals.items():
                c = a + b
                if c not in out:
                    out[c] = np.zeros(max(0, dim - abs(c)), dtype)
                lo, hi = max(0, -a, -c), dim - max(0, a, c)  # the rows i all three entries exist for
                if lo < hi:
                    out[c][lo + min(0, c): hi + min(0, c)] += (
                        da[lo + min(0, a): hi + min(0, a)] * db[lo + a + min(0, b): hi + a + min(0, b)])
        return Band._unchecked(dim, out)

    def adjoint(self) -> "Band":
        """The conjugate transpose."""
        return Band._unchecked(self.dim, {-k: d.conj() for k, d in self.diagonals.items()})

    def norm1(self) -> float:
        """max_j sum_i |M_ij|: diagonal k holds the column entries j = n + max(0, k)."""
        sums = np.zeros(self.dim)
        for k, d in self.diagonals.items():
            sums[_rows_cols(k, d.size)[1]] += np.abs(d)
        return float(sums.max())

    def cut(self, w: int) -> "Band":
        """The leading w x w block: the operator on modes 0..w-1."""
        if not 1 <= w <= self.dim:
            raise ValueError(f"cannot cut a {self.dim}-dim band to {w} modes")
        return Band._unchecked(w, {k: d[: max(0, w - abs(k))] for k, d in self.diagonals.items()})

    def to_dense(self) -> np.ndarray:
        """The dense complex dim x dim matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        flat = out.reshape(-1)
        for k, d in self.diagonals.items():
            # entry (n, n + k) or (n - k, n) sits at flat index n (dim + 1) + k or -k dim
            flat[(k if k >= 0 else -k * self.dim):: self.dim + 1][: d.size] = d
        return out


def _check_convention(convention: str) -> None:
    if convention not in (NORMALIZED, UNNORMALIZED):
        raise ValueError(f"unknown convention {convention!r}")


def _finite(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, refused unless every entry is finite."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coeffs must be finite")
    return coeffs


class FockState(_Frozen):
    """Finite coefficient vector over the number basis.

    convention:
      "normalized"   — coefficients over orthonormal e_n.
      "unnormalized" — coefficients over psi_n = (a†)^n psi_0, whose
                       squared norm is n!; conversion multiplies
                       coefficient n by sqrt(n!).
    """

    __slots__ = ("coeffs", "convention")

    def __init__(self, coeffs, convention: str = NORMALIZED):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        _check_convention(convention)
        c = _finite(c.copy())
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "convention", convention)

    @classmethod
    def _unchecked(cls, coeffs: np.ndarray, convention: str = NORMALIZED) -> "FockState":
        """The state over `coeffs`, a nonempty 1-d complex array that the
        caller has just built and hands over: it is made read-only, not
        copied; the caller vouches for its shape and convention."""
        coeffs.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", coeffs)
        object.__setattr__(state, "convention", convention)
        return state

    @classmethod
    def basis_state(cls, n: int, convention: str = NORMALIZED) -> "FockState":
        if n < 0:
            raise ValueError("mode index must be nonnegative")
        _check_convention(convention)
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        return cls._unchecked(c, convention)

    @property
    def support(self) -> int:
        """Largest mode with a nonzero coefficient (-1 for the zero vector)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def to_normalized(self) -> "FockState":
        if self.convention == NORMALIZED:
            return self
        scale = np.array([sqrt_factorial(n) for n in range(self.coeffs.size)])
        return FockState._unchecked(_finite(self.coeffs * scale), NORMALIZED)

    def to_unnormalized(self) -> "FockState":
        if self.convention == UNNORMALIZED:
            return self
        scale = np.array([sqrt_factorial(n) for n in range(self.coeffs.size)])
        return FockState._unchecked(self.coeffs / scale, UNNORMALIZED)

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
