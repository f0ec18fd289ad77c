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
untested.  The number-operator spectrum is computed in the real periodic
mode basis {1, cos, sin} with exact matrix elements of x^2 (the
multiplication operator is discontinuous across the seam, so pointwise
sampling would lose accuracy), which keeps the m vs 2m refinement
agreement well below 1e-6.  On a centred interval x^2 is even, so
2N + 1 = K + T splits into two Toeplitz +- Hankel sectors, on the cos
and on the sin modes, which the grid oscillator's solver
(`schrodinger.sector_levels`) solves as it solves the grid's: on its
modes of lowest frequency, where a Schur-complement bound (Loewdin
1962, Haynsworth 1968) proves the lowest levels to rounding, or else
whole.  Any other interval is solved as the full matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import _Value
from .schrodinger import _grid_step, _sectors, grid_points, grid_wavenumbers, reflection_block, sector_levels

BOUNDARY_CONDITION = "periodic"
# The largest side of a dense square array, 64 MiB per complex array: the
# most samples an aligned interval may take, and the largest grid_m.
MAX_DENSE_SIDE = 2048


class IntervalRepSpec(_Value):
    """Interval (a, b) sampled at m points, periodic, with the grid's step
    and points (`schrodinger._grid_step`, `grid_points`).  Immutable, and
    equal and hashed by its fields: the suites' memo is keyed by it."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: float, b: float, m: int):
        if m < 16:
            raise ValueError("need at least 16 samples")
        _grid_step(a, b, m)  # finite bounds, b > a and a positive finite step
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def h(self) -> float:
        return _grid_step(self.a, self.b, self.m)

    @property
    def points(self) -> np.ndarray:
        return grid_points(self.a, self.b, self.m)

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
    """Smallest m >= m_target making t an exact multiple of the step,
    searched below 16 m_target; refused when that m exceeds MAX_DENSE_SIDE."""
    for m in range(m_target, 16 * m_target):
        if abs(t * m / (b - a) - round(t * m / (b - a))) < 1e-9:
            if m > MAX_DENSE_SIDE:
                raise ValueError(
                    f"aligned interval_m {m} exceeds {MAX_DENSE_SIDE}, the largest side of a dense array: "
                    f"t={t} is a whole number of steps of ({a}, {b}) first at m={m}"
                )
            return IntervalRepSpec(a, b, m)
    raise ValueError(f"no grid-aligned sample count near {m_target} for t={t}")


def unitarity_defect(spec: IntervalRepSpec, t: float, s: float) -> float:
    """max |U U† - I| over U_t and V_s, entrywise, without forming either.

    U_t is the exact cyclic shift (U_t f)(x) = f(x + t mod length): its
    index map is a bijection, so U_t U_t† = I exactly, else the defect is
    1.  V_s is multiplication by e^{isx}, so V_s V_s† - I is the real
    diagonal |e^{isx}|^2 - 1."""
    r = _shift_steps(spec, t)
    index = np.arange(spec.m)
    shift_defect = 0.0 if np.array_equal(np.sort(np.roll(index, -r)), index) else 1.0
    phase = np.exp(1j * s * spec.points)
    return max(shift_defect, float(np.abs((phase * phase.conj()).real - 1.0).max()))


def interval_weyl_residual(
    spec: IntervalRepSpec, t: float, s: float, psi: np.ndarray | None = None
) -> float:
    """||(U_t V_s - e^{ist} V_s U_t) psi|| in L2(a, b).

    U_t is the exact cyclic shift (t must be a multiple of the step and
    lie in (0, b-a)); psi defaults to the normalized constant function.
    """
    if not 0 < t < spec.length:
        raise ValueError(f"need 0 < t < {spec.length}, got {t}")
    r = _shift_steps(spec, t)
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
    momentum, e^{itk} on each DFT mode, instead of the exact cyclic shift.
    The unpaired Nyquist mode of even m, the sawtooth (-1)^j, takes the
    phase (-1)^r of the exact shift by r = t/h steps, so t must be a
    multiple of the step: its wavenumber zero would leave it unmoved."""
    if not 0 < t < spec.length:
        raise ValueError(f"need 0 < t < {spec.length}, got {t}")
    mode_phase = np.exp(1j * t * grid_wavenumbers(spec.a, spec.b, spec.m))
    if spec.m % 2 == 0:
        mode_phase[spec.m // 2] = (-1) ** _shift_steps(spec, t)
    U = lambda f: np.fft.ifft(mode_phase * np.fft.fft(f))
    phase = np.exp(1j * s * spec.points)
    v = spec.constant_state()
    diff = U(phase * v) - np.exp(1j * s * t) * phase * U(v)
    return math.sqrt(spec.h) * float(np.linalg.norm(diff))


def _x2_mode_integrals(a: float, b: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) with C_n, S_n = (1/length) * integral_a^b x^2 (cos, sin)(nu_n x) dx
    for nu_n = 2 pi n/length, n = 0..n_max, exact.

    For n >= 1 the integral of x^2 e^{-i nu x} is e^{-i nu a} (2/nu^2 +
    i(a+b)/nu) after dividing by the length, since e^{-i nu b} = e^{-i nu a}."""
    length = b - a
    nu = 2.0 * np.pi * np.arange(1, n_max + 1) / length
    cos, sin = np.cos(nu * a), np.sin(nu * a)
    C = np.concatenate([[(b**3 - a**3) / (3.0 * length)], 2.0 * cos / nu**2 + (a + b) * sin / nu])
    S = np.concatenate([[0.0], 2.0 * sin / nu**2 - (a + b) * cos / nu])
    return C, S


def interval_number_operator(spec: IntervalRepSpec) -> np.ndarray:
    """(q^2 + p^2 - 1)/2 as a real symmetric matrix in the orthonormal
    periodic mode basis 1, sqrt2 cos(nu_j x), sqrt2 sin(nu_j x) (over
    sqrt(b-a)), nu_j = 2 pi j/(b-a) for j = 1..m//2.

    These span the Fourier modes |k| <= m//2, so the spectrum is that of
    the complex Fourier basis; p^2 is diagonal and q^2 has exact matrix
    elements from the x^2 mode integrals: C[|j-l|] +- C[j+l] on the cos
    and the sin modes, and <cos_j|x^2|sin_l> = S[j+l] - sign(j-l) S[|j-l|].
    Each Toeplitz and Hankel part is a strided view of C or S."""
    K = spec.m // 2
    C, S = _x2_mode_integrals(spec.a, spec.b, 2 * K)
    diagonal = (2.0 * np.pi * np.arange(1, K + 1) / spec.length) ** 2 - 1.0  # p^2 - 1 on cos_j and on sin_j
    window = np.lib.stride_tricks.sliding_window_view
    Q2 = np.empty((2 * K + 1, 2 * K + 1))
    Q2[0, 0] = C[0] - 1.0
    Q2[0, 1:] = Q2[1:, 0] = math.sqrt(2.0) * np.concatenate([C[1 : K + 1], S[1 : K + 1]])
    Q2[1 : K + 1, 1 : K + 1] = reflection_block(C, 1, K, 1.0, diagonal)
    Q2[K + 1 :, K + 1 :] = reflection_block(C, 1, K, -1.0, diagonal)
    odd_toeplitz = window(np.concatenate([-S[K - 1 : 0 : -1], S[:K]]), K)[:, ::-1]
    np.subtract(window(S[2 : 2 * K + 1], K), odd_toeplitz, out=Q2[1 : K + 1, K + 1 :])
    Q2[K + 1 :, 1 : K + 1] = Q2[1 : K + 1, K + 1 :].T
    Q2 /= 2.0
    return Q2


def _number_levels(spec: IntervalRepSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest `count` eigenvalues of the interval number operator, and
    for each the bound on its distance below the exact one, 0 for a level
    from a sector or a matrix solved whole; see `interval_number_spectrum`."""
    if spec.a + spec.b != 0:
        levels = np.linalg.eigvalsh(interval_number_operator(spec))[:count]
        return levels, np.zeros(levels.size)
    K = spec.m // 2
    C = _x2_mode_integrals(spec.a, spec.b, 2 * K)[0]
    symbol = (2.0 * np.pi * np.arange(K + 1) / spec.length) ** 2
    levels, bounds = sector_levels(C, symbol, _sectors(2 * K + 1), spec.b * spec.b, count)
    return (levels - 1.0) / 2.0, bounds / 2.0


def interval_number_spectrum(spec: IntervalRepSpec, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the interval number operator, merged
    from its two parity sectors on a centred interval.

    On a centred interval each parity sector of 2N + 1 = K + T, with K
    the diagonal nu^2 and T the exact x^2 matrix on the sector's modes,
    0 <= T <= tau = b^2, is solved by `schrodinger.sector_levels` on its
    modes of smallest nu: the Schur complement of the other modes,
    taken at an upper bound mu of the count-th level, proves the lowest
    `count` levels to 4 u sigma_count (u = 2^-53; Loewdin 1962,
    Haynsworth 1968).  The x^2 mode integrals decay only like 1/nu^2, and
    the bound divides that tail by (kappa_Q - mu)^2, so the blocks hold
    a few dozen modes on long intervals ((-20, 20): 63 of 513 for 3 levels) and more
    on short ones.  A sector whose block solves would cost more than
    0.1 n^3 before one proves its levels, n its side (the cos sector of
    intervals longer than about 3 at m = 512) is solved whole by eigvalsh
    of its Fourier sector K + T, and any interval that is not centred by
    eigvalsh of `interval_number_operator`.

    Such a whole solve is exact only to the rounding of eigvalsh, about
    u ||H||, and ||H|| grows like m^2.  On (0, 1) the lowest 3 levels at
    m = 256 and m = 512 differ by 1.6e-10, and that is rounding, not a
    discretization gap: u ||H|| is 3.6e-11 at m = 256 and 1.4e-10 at
    m = 512; solving the same operator whole in the complex Fourier basis
    e^{i nu_k x}, |k| <= m/2, instead moves the levels by 5e-11 at either
    m; and m = 1024 against m = 512 differs by 2.2e-10, no less
    (measured with OpenBLAS on x86-64)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.array([])
    if count >= spec.m // 2:
        raise ValueError("count must be well below the mode cutoff m/2")
    return _number_levels(spec, count)[0]


def spectral_distance_from_naturals(eigenvalues: np.ndarray) -> float:
    """Mean distance of the given eigenvalues from the nearest
    nonnegative integer (the mean is robust against single accidental
    near-integer crossings as the interval grows)."""
    ev = np.asarray(eigenvalues, dtype=float)
    nearest = np.clip(np.round(ev), 0, None)
    return float(np.mean(np.abs(ev - nearest))) if ev.size else 0.0


class IntervalContrastRow:
    __slots__ = ("length", "weyl_residual", "spectral_distance")

    def __init__(self, length: float, weyl_residual: float, spectral_distance: float):
        self.length, self.weyl_residual, self.spectral_distance = length, weyl_residual, spectral_distance


def interval_vs_line_report(specs: list[IntervalRepSpec], t: float, s: float) -> list[IntervalContrastRow]:
    """Contrast rows (length, Weyl residual, spectral distance of the
    lowest 3 levels from the nonnegative integers) for each interval.

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
        distance = spectral_distance_from_naturals(interval_number_spectrum(spec, 3))
        rows.append(IntervalContrastRow(spec.length, residual, distance))
    return rows
