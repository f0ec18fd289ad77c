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
whole.  On any other interval the same block search
(`schrodinger._schur_levels`) runs on the whole K + T, reading x^2 only
by its columns on the block's modes, and accepts a block once its bound
is below the rounding of the whole solve it replaces; else that matrix
is formed and solved whole.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import _Value
from .schrodinger import (_UNIT_ROUNDOFF, GridResolutionError, _check_bracket_scale, _grid_step, _schur_levels,
                          _sectors, grid_points, grid_wavenumbers, sector_levels)

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
    if abs(steps - round(steps)) > 1e-9 or round(steps) == 0:
        raise ValueError(
            f"t={t} is not grid-aligned: t/h = {steps:.6f} must be a nonzero integer"
        )
    return int(round(steps))


def aligned_spec(a: float, b: float, t: float, m_target: int) -> IntervalRepSpec:
    """Smallest m >= m_target making t a whole number of steps, at least one,
    searched below 16 m_target; refused when (a, b) at m_target is no
    IntervalRepSpec, when t m/(b - a) is not finite, or when that m exceeds
    MAX_DENSE_SIDE."""
    IntervalRepSpec(a, b, m_target)
    for m in range(m_target, 16 * m_target):
        steps = t * m / (b - a)
        if not math.isfinite(steps):
            raise ValueError(f"t={t} is {steps} steps of the interval ({a}, {b}) at m={m}: not a finite count")
        if round(steps) >= 1 and abs(steps - round(steps)) < 1e-9:
            if m > MAX_DENSE_SIDE:
                raise ValueError(
                    f"aligned interval_m {m} exceeds {MAX_DENSE_SIDE}, the largest side of a dense array: "
                    f"t={t} is a whole number of steps of ({a}, {b}) first at m={m}"
                )
            return IntervalRepSpec(a, b, m)
    raise ValueError(f"no grid-aligned sample count near {m_target} for t={t}")


def unitarity_defect(spec: IntervalRepSpec, t: float, s: float) -> float:
    """max |U U† - I| over U_t and V_s, entrywise, without forming either.

    U_t is the exact cyclic shift (U_t f)(x) = f(x + t mod length) by
    t/h steps, which must be a nonzero integer: a permutation, so
    U_t U_t† = I exactly, and only that alignment is checked.  V_s is
    multiplication by e^{isx}, so V_s V_s† - I is the real diagonal
    |e^{isx}|^2 - 1, whose defect is the result: NaN where a phase is."""
    _shift_steps(spec, t)
    phase = np.exp(1j * s * spec.points)
    return float(np.abs((phase * phase.conj()).real - 1.0).max())


def _shift_and_state(spec: IntervalRepSpec, t: float, psi: np.ndarray | None) -> tuple[int, np.ndarray]:
    """The steps r = t/h of the exact shift U_t and psi as complex samples,
    checked: 0 < t < b - a, r a nonzero integer, and psi (the normalized
    constant function if None) of m samples."""
    if not 0 < t < spec.length:
        raise ValueError(f"need 0 < t < {spec.length}, got {t}")
    r = _shift_steps(spec, t)
    v = spec.constant_state() if psi is None else np.asarray(psi, dtype=complex)
    if v.shape != (spec.m,):
        raise ValueError(f"psi must have {spec.m} samples")
    return r, v


def interval_weyl_residual(
    spec: IntervalRepSpec, t: float, s: float, psi: np.ndarray | None = None
) -> float:
    """||(U_t V_s - e^{ist} V_s U_t) psi|| in L2(a, b).

    U_t is the exact cyclic shift (t must be a multiple of the step and
    lie in (0, b-a)); psi defaults to the normalized constant function.
    """
    r, v = _shift_and_state(spec, t, psi)
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
    seam; integration over the wrapped window gives the formula.  t and
    psi are checked as `interval_weyl_residual` checks them."""
    r, v = _shift_and_state(spec, t, psi)
    jump = abs(np.exp(-1j * s * spec.length) - 1.0)
    window = spec.h * float(np.sum(np.abs(v[:r]) ** 2))
    return jump * math.sqrt(window)


def interval_weyl_residual_expm(spec: IntervalRepSpec, t: float, s: float) -> float:
    """Cross-check route with U_t = e^{itp} for the spectral periodic
    momentum, e^{itk} on each DFT mode, instead of the exact cyclic shift.
    The unpaired Nyquist mode of even m, the sawtooth (-1)^j, takes the
    phase (-1)^r of the exact shift by r = t/h steps, so t must be a
    multiple of the step, of any m: its wavenumber zero would leave it
    unmoved.  psi is the normalized constant function."""
    r, v = _shift_and_state(spec, t, None)
    mode_phase = np.exp(1j * t * grid_wavenumbers(spec.a, spec.b, spec.m))
    if spec.m % 2 == 0:
        mode_phase[spec.m // 2] = (-1) ** r
    U = lambda f: np.fft.ifft(mode_phase * np.fft.fft(f))
    phase = np.exp(1j * s * spec.points)
    diff = U(phase * v) - np.exp(1j * s * t) * phase * U(v)
    return math.sqrt(spec.h) * float(np.linalg.norm(diff))


def _x2_mode_integrals(a: float, b: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) with C_n, S_n = (1/length) * integral_a^b x^2 (cos, sin)(nu_n x) dx
    for nu_n = 2 pi n/length, n = 0..n_max, exact.

    For n >= 1 the integral of x^2 e^{-i nu x} is e^{-i nu a} (2/nu^2 +
    i(a+b)/nu) after dividing by the length, since e^{-i nu b} = e^{-i nu a}.
    GridResolutionError, before numpy squares nu, when nu_n_max^2 overflows,
    and when b^3 - a^3 does."""
    length = b - a
    top = 2.0 * math.pi * n_max / length  # nu[-1], formed as numpy forms it below
    if top * top == math.inf:
        raise GridResolutionError(f"interval ({a!r}, {b!r}) has mode frequency nu_{n_max} = 2 pi {n_max}/(b - a) "
                                  f"= {top!r}, and its square overflows")
    try:
        cubes = b**3 - a**3  # a float ** raises on overflow; a difference rounds to inf
    except OverflowError:
        cubes = math.inf
    if cubes == math.inf:
        raise GridResolutionError(f"interval ({a!r}, {b!r}) has x^2 integral (b^3 - a^3)/3, and b^3 - a^3 overflows")
    nu = 2.0 * np.pi * np.arange(1, n_max + 1) / length
    cos, sin = np.cos(nu * a), np.sin(nu * a)
    C = np.concatenate([[cubes / (3.0 * length)], 2.0 * cos / nu**2 + (a + b) * sin / nu])
    S = np.concatenate([[0.0], 2.0 * sin / nu**2 - (a + b) * cos / nu])
    return C, S


def _x2_columns(C: np.ndarray, S: np.ndarray, K: int, J: int) -> np.ndarray:
    """The columns of x^2 on the modes 1, cos_1..cos_J, sin_1..sin_J, over
    all rows 1, cos_1..cos_K, sin_1..sin_K, J <= K (J = K is the whole
    matrix), in the orthonormal periodic mode basis 1, sqrt2 cos(nu_j x),
    sqrt2 sin(nu_j x) (over sqrt(b-a)), nu_j = 2 pi j/(b-a), from its
    exact mode integrals (C, S) up to K + J: C[|j-l|] +- C[j+l] on the cos
    and the sin modes, and <cos_j|x^2|sin_l> = S[j+l] - sign(j-l) S[|j-l|].
    Each Toeplitz and Hankel part is a strided view of C or S."""
    # w[start + i + step j], i < rows, j < cols: bounds-checked, and far cheaper than sliding_window_view
    view = lambda w, start, rows, cols, step: np.ndarray((rows, cols), w.dtype, w, start * w.itemsize,
                                                         (w.itemsize, step * w.itemsize))
    hankel = lambda v, rows, cols: view(v, 2, rows, cols, 1)  # v[j + l]
    toeplitz = lambda v, rows, cols, sign: view(np.concatenate([sign * v[cols - 1 : 0 : -1], v[:rows]]),
                                                cols - 1, rows, cols, -1)  # v[|j - l|], times sign where j < l
    X = np.empty((2 * K + 1, 2 * J + 1))
    X[0, 0] = C[0]
    X[1:, 0] = math.sqrt(2.0) * np.concatenate([C[1 : K + 1], S[1 : K + 1]])
    X[0, 1:] = np.concatenate([X[1 : J + 1, 0], X[K + 1 : K + J + 1, 0]])
    np.add(toeplitz(C, K, J, 1.0), hankel(C, K, J), out=X[1 : K + 1, 1 : J + 1])
    np.subtract(toeplitz(C, K, J, 1.0), hankel(C, K, J), out=X[K + 1 :, J + 1 :])
    for rows, cols, out in ((K, J, X[1 : K + 1, J + 1 :]), (J, K, X[K + 1 :, 1 : J + 1].T)):
        np.subtract(hankel(S, rows, cols), toeplitz(S, rows, cols, -1.0), out=out)  # <cos|x^2|sin>
    return X


def _mode_symbol(spec: IntervalRepSpec) -> np.ndarray:
    """p^2 on the modes 1, cos_j, sin_j: (0, nu_1^2..nu_K^2, nu_1^2..nu_K^2), K = m//2."""
    nu2 = (2.0 * np.pi * np.arange(spec.m // 2 + 1) / spec.length) ** 2
    return np.concatenate([nu2, nu2[1:]])


def interval_number_operator(spec: IntervalRepSpec) -> np.ndarray:
    """(q^2 + p^2 - 1)/2 as a real symmetric matrix in the orthonormal
    periodic mode basis 1, sqrt2 cos(nu_j x), sqrt2 sin(nu_j x) (over
    sqrt(b-a)), nu_j = 2 pi j/(b-a) for j = 1..m//2.

    These span the Fourier modes |k| <= m//2, so the spectrum is that of
    the complex Fourier basis; p^2 is diagonal and q^2 has exact matrix
    elements from the x^2 mode integrals (`_x2_columns`)."""
    K = spec.m // 2
    N = _x2_columns(*_x2_mode_integrals(spec.a, spec.b, 2 * K), K, K)
    N.reshape(-1)[:: 2 * K + 2] += _mode_symbol(spec) - 1.0
    N /= 2.0
    return N


def _number_levels(spec: IntervalRepSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest `count` eigenvalues of the interval number operator, and
    for each the bound on its distance below the exact one, 0 for a level
    from a sector or a matrix solved whole; see `interval_number_spectrum`."""
    K = spec.m // 2
    C, S = _x2_mode_integrals(spec.a, spec.b, 2 * K)
    symbol = _mode_symbol(spec)
    _check_bracket_scale(symbol, spec.a, spec.b, spec.m)
    if spec.a + spec.b == 0:
        levels, bounds = sector_levels(C, symbol[: K + 1], _sectors(2 * K + 1), spec.b * spec.b, count)
        return (levels - 1.0) / 2.0, bounds / 2.0
    J, slab = 0, None  # the x^2 columns on modes 0..J, J doubled when the block asks for a higher mode

    def gather(rows, cols):
        nonlocal J, slab
        modes = np.where(cols > K, cols - K, cols)
        if modes.max() > J:
            J = min(K, max(2 * J, int(modes.max())))
            slab = _x2_columns(C, S, K, J)
        return slab[np.ix_(rows, np.where(cols > K, modes + J, cols))]

    tau = max(spec.a * spec.a, spec.b * spec.b)
    found = _schur_levels(gather, symbol, np.arange(2 * K + 1, dtype=np.int32), tau, count,
                          lambda sigma: _UNIT_ROUNDOFF * (symbol[-1] + tau))
    if found is None:
        levels = np.linalg.eigvalsh(interval_number_operator(spec))[:count]
        return levels, np.zeros(levels.size)
    return (found[0] - 1.0) / 2.0, found[1] / 2.0


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
    of its Fourier sector K + T.

    Any other interval is one matrix 2N + 1 = K + T in the {1, cos, sin}
    basis, K = diag(0, nu_j^2, nu_j^2) and 0 <= T <= tau = max(a^2, b^2),
    searched the same way.  A block is accepted once e_count <= u (kappa_max
    + tau), the scale of the rounding of the whole eigvalsh it replaces,
    since ||K + T|| <= kappa_max + tau: on (0, 1), 77 modes at m = 256 and
    37 at m = 2048, with bounds on N of 1.6e-11 and 8.1e-10.  The search
    reads T from its columns on modes 0..J (`_x2_columns`), J doubled as the
    block grows: at m = 2048 a 1.9 MiB tracemalloc peak, against 32 MiB
    for the whole T.  Where no block proves the levels within 0.1 n^3 ((0, 5)
    at m = 512, or many levels), eigvalsh of `interval_number_operator`
    solves the matrix whole, and is
    exact only to about u ||H||, which grows like m^2: the lowest 3 levels
    of (0, 1) by whole solves at m = 256 and 512 differ by 1.6e-10, and move
    with the BLAS thread count (measured with OpenBLAS on x86-64)."""
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
