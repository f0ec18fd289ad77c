"""Irregular realization: x and -i d/dx on a finite interval (a, b) with
periodic boundary conditions.

Both Weyl factors stay unitary here — U_t is an exact cyclic shift,
V_s a phase multiplication — yet the Weyl relation fails by an exactly
computable amount: the shifted window wraps around the interval, and the
phase factor e^{isx} jumps by e^{-is(b-a)} across the seam.  That makes
the failure quantitative:

    residual^2 = |e^{-is(b-a)} - 1|^2 * integral_a^{a+t} |psi|^2

Periodic boundary conditions are the fixed self-adjoint realization of
the momentum throughout; other phases psi(b) = e^{i theta} psi(a) are
untested.  The number-operator spectrum is computed in the Fourier mode
basis with exact matrix elements of x^2 (the multiplication operator is
discontinuous across the seam, so pointwise sampling would lose
accuracy), which keeps the m vs 2m refinement agreement well below 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schrodinger import GridFunction, grid_wavenumbers

BOUNDARY_CONDITION = "periodic"


@dataclass(frozen=True)
class IntervalRepSpec:
    """Interval (a, b) sampled at m points, periodic."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")
        if self.m < 16:
            raise ValueError("need at least 16 samples")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def h(self) -> float:
        return self.length / self.m

    @property
    def points(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.m)

    def constant_state(self) -> np.ndarray:
        """The normalized constant function, ||psi|| = 1 in L2(a, b)."""
        return np.full(self.m, 1.0 / math.sqrt(self.length), dtype=complex)


def _shift_steps(spec: IntervalRepSpec, t: float) -> int:
    steps = t / spec.h
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(
            f"t={t} is not grid-aligned: t/h = {steps:.6f} must be an integer"
        )
    return int(round(steps))


def aligned_spec(a: float, b: float, t: float, m_target: int) -> IntervalRepSpec:
    """Smallest m >= m_target making t an exact multiple of the step."""
    for m in range(m_target, 16 * m_target):
        if abs(t * m / (b - a) - round(t * m / (b - a))) < 1e-9:
            return IntervalRepSpec(a, b, m)
    raise ValueError(f"no grid-aligned sample count near {m_target} for t={t}")


def translation_matrix(spec: IntervalRepSpec, t: float) -> np.ndarray:
    """U_t as an exact cyclic index shift: (U_t f)(x) = f(x + t mod length)."""
    r = _shift_steps(spec, t)
    return np.roll(np.eye(spec.m, dtype=complex), -r, axis=0)


def phase_matrix(spec: IntervalRepSpec, s: float) -> np.ndarray:
    """V_s = multiplication by e^{isx}."""
    return np.diag(np.exp(1j * s * spec.points))


def interval_weyl_residual(
    spec: IntervalRepSpec, t: float, s: float, psi: np.ndarray | GridFunction | None = None
) -> float:
    """||(U_t V_s - e^{ist} V_s U_t) psi|| in L2(a, b).

    U_t is the exact cyclic shift (t must be a multiple of the step and
    lie in (0, b-a)); psi defaults to the normalized constant function.
    """
    if not 0 < t < spec.length:
        raise ValueError(f"need 0 < t < {spec.length}, got {t}")
    r = _shift_steps(spec, t)
    if isinstance(psi, GridFunction):
        psi = psi.values
    v = spec.constant_state() if psi is None else np.asarray(psi, dtype=complex)
    if v.shape != (spec.m,):
        raise ValueError(f"psi must have {spec.m} samples")
    phase = np.exp(1j * s * spec.points)
    shift = lambda f: np.roll(f, -r)
    diff = shift(phase * v) - np.exp(1j * s * t) * phase * shift(v)
    return math.sqrt(spec.h) * float(np.linalg.norm(diff))


def closed_form_wrap_residual(
    spec: IntervalRepSpec, t: float, s: float, psi: np.ndarray | None = None
) -> float:
    """Independent oracle: residual^2 = |e^{-is(b-a)} - 1|^2 * int_a^{a+t} |psi|^2.

    Derived by evaluating both Weyl products pointwise: they agree except
    where x + t wraps, where they differ by the phase jump across the
    seam; integration over the wrapped window gives the formula."""
    r = _shift_steps(spec, t)
    v = spec.constant_state() if psi is None else np.asarray(psi, dtype=complex)
    jump = abs(np.exp(-1j * s * spec.length) - 1.0)
    window = spec.h * float(np.sum(np.abs(v[:r]) ** 2))
    return jump * math.sqrt(window)


def interval_weyl_residual_expm(spec: IntervalRepSpec, t: float, s: float) -> float:
    """Cross-check route with U_t = e^{itp} for the spectral periodic
    momentum, e^{itk} on each DFT mode, instead of the exact cyclic shift."""
    if not 0 < t < spec.length:
        raise ValueError(f"need 0 < t < {spec.length}, got {t}")
    mode_phase = np.exp(1j * t * grid_wavenumbers(spec.a, spec.b, spec.m))
    U = lambda f: np.fft.ifft(mode_phase * np.fft.fft(f))
    phase = np.exp(1j * s * spec.points)
    v = spec.constant_state()
    diff = U(phase * v) - np.exp(1j * s * t) * phase * U(v)
    return math.sqrt(spec.h) * float(np.linalg.norm(diff))


def _x2_fourier_coeff(a: float, b: float, n: int) -> complex:
    """(1/length) * integral_a^b x^2 e^{-i 2 pi n x / length} dx, exact."""
    length = b - a
    if n == 0:
        return (b**3 - a**3) / (3.0 * length)
    nu = 2.0 * math.pi * n / length

    def antiderivative(x: float) -> complex:
        return np.exp(-1j * nu * x) * (1j * x * x / nu + 2.0 * x / nu**2 - 2j / nu**3)

    return complex((antiderivative(b) - antiderivative(a)) / length)


def interval_number_operator(spec: IntervalRepSpec) -> np.ndarray:
    """(q^2 + p^2 - 1)/2 in the periodic Fourier mode basis.

    Modes run over wavenumbers 2 pi k/(b-a) for |k| <= m//2; p^2 is
    diagonal there and q^2 has exact Toeplitz matrix elements."""
    K = spec.m // 2
    ks = np.arange(-K, K + 1)
    dim = ks.size
    p2 = np.diag((2.0 * np.pi * ks / spec.length) ** 2).astype(complex)
    coeffs = np.array(
        [_x2_fourier_coeff(spec.a, spec.b, d) for d in range(-2 * K, 2 * K + 1)]
    )
    Q2 = coeffs[(ks[:, None] - ks[None, :]) + 2 * K]
    N = (Q2 + p2 - np.eye(dim)) / 2.0
    return (N + N.conj().T) / 2.0


def interval_number_spectrum(spec: IntervalRepSpec, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the interval number operator."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.array([])
    if count >= spec.m // 2:
        raise ValueError("count must be well below the mode cutoff m/2")
    return np.linalg.eigvalsh(interval_number_operator(spec))[:count]


def spectral_distance_from_naturals(eigenvalues: np.ndarray) -> float:
    """Mean distance of the given eigenvalues from the nearest
    nonnegative integer (the mean is robust against single accidental
    near-integer crossings as the interval grows)."""
    ev = np.asarray(eigenvalues, dtype=float)
    nearest = np.clip(np.round(ev), 0, None)
    return float(np.mean(np.abs(ev - nearest))) if ev.size else 0.0


@dataclass(frozen=True)
class IntervalContrastRow:
    length: float
    weyl_residual: float
    spectral_distance: float


def interval_vs_line_report(
    specs: list[IntervalRepSpec], t: float, s: float, count: int = 3
) -> list[IntervalContrastRow]:
    """Contrast rows (length, Weyl residual, spectral distance from the
    nonnegative integers) for each interval.

    The Weyl residual uses a normalized Gaussian bump at the midpoint
    (width 1), so the wrapped-window mass shrinks as the interval grows;
    both columns then decay toward the whole-line behavior.  Intervals
    should be centered on 0 for the spectral column to approach the
    oscillator values as they grow."""
    rows = []
    for spec in specs:
        x = spec.points
        center = (spec.a + spec.b) / 2.0
        g = np.exp(-((x - center) ** 2) / 2.0).astype(complex)
        g /= math.sqrt(spec.h) * np.linalg.norm(g)
        residual = interval_weyl_residual(spec, t, s, g)
        distance = spectral_distance_from_naturals(interval_number_spectrum(spec, count))
        rows.append(IntervalContrastRow(spec.length, residual, distance))
    return rows
