"""Grid realization of q f(x) = x f(x), p f(x) = -i f'(x) on [-L, L].

Units are fixed so [p, q] = -i with no extra constants; the oscillator
q^2 + p^2 then has spectrum {2n+1}.  Differentiation is spectral
(trigonometric, periodic) by default, with a second-order central
difference kept as a cross-validation scheme.  q and p are applied to
sample vectors (a multiply, an FFT or a stencil), never stored as
matrices; only the kinetic p^2 is a dense circulant, for the eigensolver.

The ladder combinations (q -+ ip)/sqrt2 differ only by a sign, and only
one of them annihilates the Gaussian e^{-x^2/2}: with p = -i d/dx it is
(q + ip)/sqrt2 = (x + d/dx)/sqrt2.  Nothing here guesses a convention;
`vacuum_sign_check` measures both and reports which sign annihilates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

SPECTRAL = "spectral"
CENTRAL_DIFFERENCE = "central_difference"
ANNIHILATING_SIGN = "+"  # (q + ip)/sqrt2 kills the Gaussian; verified per run


class GridResolutionError(ValueError):
    """Raised when a residual is dominated by discretization error."""


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a uniform periodic grid; the
    right endpoint is excluded (step (x_max-x_min)/m).
    """

    x_min: float
    x_max: float
    m: int
    values: np.ndarray

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.m < 8:
            raise ValueError("need at least 8 samples")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.m,):
            raise ValueError(f"values must have shape ({self.m},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.m

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.m)

    def norm(self) -> float:
        """Discrete L2 norm sqrt(h * sum |f|^2)."""
        return math.sqrt(self.h) * float(np.linalg.norm(self.values))

    @classmethod
    def sample(cls, f, x_min: float, x_max: float, m: int) -> "GridFunction":
        x = _grid_points(x_min, x_max, m)
        return cls(x_min, x_max, m, np.asarray([f(xi) for xi in x], dtype=complex))


def _grid_points(x_min: float, x_max: float, m: int) -> np.ndarray:
    if not x_max > x_min:
        raise ValueError("x_max must exceed x_min")
    if m < 8:
        raise ValueError("need at least 8 samples")
    return x_min + ((x_max - x_min) / m) * np.arange(m)


def grid_wavenumbers(x_min: float, x_max: float, m: int) -> np.ndarray:
    """The spectral momentum's eigenvalues on the m DFT modes, in numpy's
    FFT order; the unpaired Nyquist mode of even m gets zero."""
    x = _grid_points(x_min, x_max, m)
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=x[1] - x[0])
    if m % 2 == 0:
        k[m // 2] = 0.0
    return k


def grid_momentum(values: np.ndarray, x_min: float, x_max: float, scheme: str = SPECTRAL) -> np.ndarray:
    """p applied to periodic grid samples (along the last axis): -i times
    their derivative, without forming a matrix.

    spectral: ifft(k * fft(values)), trigonometric differentiation with
    the unpaired Nyquist mode of even m assigned derivative zero.
    central_difference: the second-order stencil -i (f[j+1] - f[j-1]) / 2h.
    """
    values = np.asarray(values)
    m = values.shape[-1]
    if scheme == SPECTRAL:
        return np.fft.ifft(grid_wavenumbers(x_min, x_max, m) * np.fft.fft(values))
    if scheme == CENTRAL_DIFFERENCE:
        x = _grid_points(x_min, x_max, m)
        return -1j * (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * (x[1] - x[0]))
    raise ValueError(f"unknown scheme {scheme!r}")


def annihilation_residual(f: GridFunction, scheme: str = SPECTRAL, sign: str = ANNIHILATING_SIGN) -> float:
    """||(q + sign * ip)/sqrt2 applied to f|| / ||f|| in discrete L2."""
    if not np.any(f.values):
        raise ValueError("test function must be nonzero")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    p = grid_momentum(f.values, f.x_min, f.x_max, scheme)
    a = (f.points * f.values + (1j if sign == "+" else -1j) * p) / math.sqrt(2)
    return float(np.linalg.norm(a) / np.linalg.norm(f.values))


def _gaussian(L: float, m: int) -> GridFunction:
    x = _grid_points(-L, L, m)
    return GridFunction(-L, L, m, np.exp(-x * x / 2.0))


def vacuum_sign_check(L: float, m: int, scheme: str = SPECTRAL) -> dict:
    """Residuals of both ladder sign conventions on the sampled Gaussian
    and which one annihilates it."""
    g = _gaussian(L, m)
    plus = annihilation_residual(g, scheme, "+")
    minus = annihilation_residual(g, scheme, "-")
    return {
        "plus_residual": plus,
        "minus_residual": minus,
        "annihilating_sign": "+" if plus < minus else "-",
    }


def vacuum_annihilation_residual(L: float, m: int, scheme: str = SPECTRAL) -> float:
    """Annihilation residual of the sampled Gaussian e^{-x^2/2} under the
    annihilating sign convention.

    A coarseness check compares against the doubled grid: if this grid's
    residual is large and still shrinking rapidly, discretization error
    dominates and GridResolutionError is raised.
    """
    r = annihilation_residual(_gaussian(L, m), scheme, ANNIHILATING_SIGN)
    r_fine = annihilation_residual(_gaussian(L, 2 * m), scheme, ANNIHILATING_SIGN)
    if r > 1e-3 and r_fine < 0.5 * r:
        raise GridResolutionError(
            f"residual {r:.3e} at m={m} is discretization-dominated "
            f"(drops to {r_fine:.3e} at m={2 * m}); refine the grid"
        )
    return r


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant matrix C[i, j] = column[(i - j) mod m]."""
    m = column.size
    return column[(np.arange(m)[:, None] - np.arange(m)[None, :]) % m]


def build_grid_kinetic(x_min: float, x_max: float, m: int, scheme: str = SPECTRAL) -> np.ndarray:
    """Discretization of p^2 as a real symmetric circulant.

    spectral: first column ifft(k^2), the square of the spectral
    momentum (its eigenvalue k^2 on each DFT mode, zero on the Nyquist
    mode of even m).  central_difference: the 3-point second-difference
    stencil; squaring the first-difference matrix instead would decouple
    odd and even points and fill the low spectrum with spurious sawtooth
    modes.
    """
    if scheme == SPECTRAL:
        k = grid_wavenumbers(x_min, x_max, m)
        column = np.fft.ifft(k * k).real
        return _circulant((column + np.roll(column[::-1], 1)) / 2.0)  # even, so T = T^T exactly
    if scheme == CENTRAL_DIFFERENCE:
        x = _grid_points(x_min, x_max, m)
        h = x[1] - x[0]
        column = np.zeros(m)
        column[[0, 1, -1]] = 2.0, -1.0, -1.0
        return _circulant(column / h**2)
    raise ValueError(f"unknown scheme {scheme!r}")


def grid_oscillator_spectrum(L: float, m: int, scheme: str = SPECTRAL, count: int = 6) -> np.ndarray:
    """Lowest `count` eigenvalues of q^2 + p^2 on the grid, from the
    real symmetric matrix diag(x^2) + kinetic."""
    if count < 1 or count > m // 4:
        raise ValueError("count must be in 1..m/4")
    x = _grid_points(-L, L, m)
    H = build_grid_kinetic(-L, L, m, scheme)
    H[np.diag_indices(m)] += x * x
    return np.linalg.eigvalsh(H)[:count]


def _hermite_rows(L: float, m: int, n_max: int) -> list[np.ndarray]:
    """Raw three-term recurrence for the oscillator eigenfunctions:
    psi_0 = pi^{-1/4} e^{-x^2/2};  psi_1 = sqrt(2) x psi_0;
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}."""
    if not 0 <= n_max <= 40:
        raise ValueError("n_max must be in 0..40 (recurrence stability)")
    x = _grid_points(-L, L, m)
    rows = [np.pi**-0.25 * np.exp(-x * x / 2.0)]
    if n_max >= 1:
        rows.append(math.sqrt(2.0) * x * rows[0])
    for n in range(1, n_max):
        rows.append(math.sqrt(2.0 / (n + 1)) * x * rows[n] - math.sqrt(n / (n + 1)) * rows[n - 1])
    return rows


def hermite_basis(L: float, m: int, n_max: int) -> list[GridFunction]:
    """Orthonormal oscillator eigenfunctions 0..n_max on the grid,
    renormalized in discrete L2; raises if the recurrence drifts."""
    h = 2.0 * L / m
    out = []
    for n, row in enumerate(_hermite_rows(L, m, n_max)):
        nrm = math.sqrt(h) * float(np.linalg.norm(row))
        if abs(nrm - 1.0) > 1e-6:
            raise GridResolutionError(
                f"recurrence norm drift {abs(nrm - 1.0):.2e} at n={n}; "
                "enlarge L or refine the grid"
            )
        out.append(GridFunction(-L, L, m, row / nrm))
    return out


def hermite_norm_drift(L: float, m: int, n_max: int) -> float:
    """Worst deviation | ||psi_n||_h - 1 | of the raw recurrence output
    before renormalization; large drift signals instability."""
    h = 2.0 * L / m
    rows = _hermite_rows(L, m, n_max)
    return max(abs(math.sqrt(h) * float(np.linalg.norm(r)) - 1.0) for r in rows)


def intertwiner_check(L: float, m: int, n_max: int) -> float:
    """Mismatch of the unitary-equivalence witness between grid and ladder
    representations of q.

    T maps grid samples to oscillator-basis coefficients (rows are
    sqrt(h)-weighted conjugate basis functions); returns
    ||T q_grid T† - q_ladder|| (2-norm) on the leading block.
    """
    basis = hermite_basis(L, m, n_max)
    h = 2.0 * L / m
    T = math.sqrt(h) * np.array([b.values.conj() for b in basis])
    q_fock = fock.build_position(n_max + 1)
    return float(np.linalg.norm((T * basis[0].points) @ T.conj().T - q_fock, 2))


def intertwiner_gram_defect(L: float, m: int, n_max: int) -> float:
    """||T T† - I|| for the same witness: orthonormality of the sampled
    basis in discrete L2."""
    basis = hermite_basis(L, m, n_max)
    h = 2.0 * L / m
    T = math.sqrt(h) * np.array([b.values.conj() for b in basis])
    return float(np.linalg.norm(T @ T.conj().T - np.eye(n_max + 1), 2))
