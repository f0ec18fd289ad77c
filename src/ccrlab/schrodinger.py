"""Grid realization of q f(x) = x f(x), p f(x) = -i f'(x) on [-L, L].

Units are fixed so [p, q] = -i with no extra constants; the oscillator
q^2 + p^2 then has spectrum {2n+1}.  Differentiation is spectral
(trigonometric, periodic) by default, with a second-order central
difference kept as a cross-validation scheme.  A grid function is a
complex sample array over `grid_points(-L, L, m)`; q and p are applied
to it (a multiply, an FFT or a stencil), never stored as matrices.  p^2
is applied by FFT as its symbol, k^2 or (2 - 2 cos(kh))/h^2 on each DFT
mode.

Every step h = (x_max - x_min) / m, 2L/m on [-L, L), is `_grid_step`'s.
It refuses non-finite or reversed bounds or m < 8 (ValueError), and a
step that is not positive and finite, where x_max - x_min overflows or
the step underflows to 0 (GridResolutionError).  p and p^2 refuse a step
whose largest wavenumber pi/h overflows, and the central-difference p^2
one whose largest symbol 4/h^2 does (GridResolutionError); `check_resolution`
also refuses h > pi, too coarse for the oscillator's ground state, and any
grid on which the guards of the grid checks would raise.

The lowest oscillator levels are solved in the Fourier basis, where p^2
is diagonal, K, and x^2 is a Toeplitz +- Hankel matrix T of the Fourier
coefficients of x^2 on each of the two parity sectors of the reflection
x -> -x (the cos and the sin modes), with 0 <= T <= tau = L^2.  The low
eigenvectors decay like e^{-k^2/2} there, so each sector is solved on a
block P of its modes of smallest symbol, a few dozen of them whatever m
is.  With Q the other modes, kappa_Q their least symbol and
mu >= lambda_count below kappa_Q, the eigenvalues sigma_i of the Schur
complement H_PP - T_PQ (K_Q - mu)^-1 T_QP bracket the levels,
sigma_i <= lambda_i <= sigma_i + e_i, with e_i of order
||T_QP Y||^2 / (kappa_Q - mu)^2 (`_schur_bracket`; Loewdin 1962,
Haynsworth 1968).  `_schur_levels` grows P until e proves the levels to
4 u, and gives a sector up once the blocks would cost more than a tenth
of its whole solve; `sector_levels` then solves that Fourier sector
whole.  The centred interval's number operator (`interval`) is one more
K + T on the cos and sin modes, solved by the same `sector_levels`.

The ladder combinations (q -+ ip)/sqrt2 differ only by a sign, and only
one of them annihilates the Gaussian e^{-x^2/2}: with p = -i d/dx it is
(q + ip)/sqrt2 = (x + d/dx)/sqrt2.  Nothing here guesses a convention;
`vacuum_sign_check` measures both and reports which sign annihilates.
The oscillator eigenfunctions psi_0..psi_n come from their three-term
recurrence as one (n + 1) x m array (`hermite_basis`).  The Gaussian's
residual and the Hermite rows, which several checks and the gate read,
are cached by their arguments.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import fock

SPECTRAL = "spectral"
CENTRAL_DIFFERENCE = "central_difference"
ANNIHILATING_SIGN = "+"  # (q + ip)/sqrt2 kills the Gaussian; verified per run


class GridResolutionError(ValueError):
    """Raised when a residual is dominated by discretization error, when a
    grid is too coarse to resolve the oscillator's ground state, or when
    its width overflows, its step underflows or its pi/h or 4/h^2 overflows."""


def _grid_step(x_min: float, x_max: float, m: int) -> float:
    """The step (x_max - x_min) / m of a valid grid: finite bounds in
    increasing order, at least 8 samples and a positive finite step."""
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError("grid bounds must be finite")
    if not x_max > x_min:
        raise ValueError("x_max must exceed x_min")
    if m < 8:
        raise ValueError("need at least 8 samples")
    step = (x_max - x_min) / m
    if not 0.0 < step < math.inf:
        reason = "x_max - x_min overflows" if step == math.inf else "(x_max - x_min) / m underflows to 0"
        raise GridResolutionError(f"grid x_min={x_min!r}, x_max={x_max!r}, m={m} has no positive finite step: {reason}")
    return step


def grid_points(x_min: float, x_max: float, m: int) -> np.ndarray:
    """The m points x_min + j (x_max - x_min) / m of the uniform periodic
    grid on [x_min, x_max); the right endpoint is excluded."""
    return x_min + _grid_step(x_min, x_max, m) * np.arange(m)


def _wavenumber_step(x_min: float, x_max: float, m: int) -> float:
    """The step h of a valid grid whose largest wavenumber pi/h is finite,
    checked before numpy forms any wavenumber or 1/(2h) from it."""
    h = _grid_step(x_min, x_max, m)
    if math.pi / h == math.inf:
        raise GridResolutionError(f"grid x_min={x_min!r}, x_max={x_max!r}, m={m} has step h={h!r}: "
                                  "its largest wavenumber pi/h overflows")
    return h


def grid_wavenumbers(x_min: float, x_max: float, m: int) -> np.ndarray:
    """The spectral momentum's eigenvalues on the m DFT modes, in numpy's
    FFT order; the unpaired Nyquist mode of even m gets zero."""
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=_wavenumber_step(x_min, x_max, m))
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
        h = _wavenumber_step(x_min, x_max, m)
        return -1j * (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * h)
    raise ValueError(f"unknown scheme {scheme!r}")


def check_resolution(L: float, m: int, scheme: str, count: int, n_max: int) -> None:
    """Raise GridResolutionError unless pi/h, h = 2L/m, the largest wavenumber
    of the grid of m points on [-L, L), reaches 1, the ground state's momentum
    width; then raise as a check that solves `count` levels would, and as the
    guards of `vacuum_annihilation_residual` and `hermite_basis` (to n_max)
    do at m and 2m, by calling them."""
    h = _grid_step(-L, L, m)
    if math.pi / h < 1.0:
        raise GridResolutionError(
            f"grid L={L!r}, m={m} has step h={h:.6g}: its largest wavenumber pi/h is below 1, "
            "the momentum width of the oscillator's ground state"
        )
    _check_level_count(count, m)
    for size in (2 * m, 4 * m):  # a step that underflows on a refined grid outranks every check at m
        _grid_step(-L, L, size)
    for size in (m, 2 * m):
        vacuum_annihilation_residual(L, size, scheme)
        hermite_basis(L, size, n_max)


@functools.lru_cache(maxsize=8)  # one run reads 4: (m, +), (m, -), (2m, +) and (4m, +)
def _vacuum_residual(L: float, m: int, scheme: str, sign: str) -> float:
    """||(q + sign * ip)/sqrt2 g|| / ||g|| in discrete L2 for the Gaussian
    g = e^{-x^2/2} sampled on m points of [-L, L)."""
    x = grid_points(-L, L, m)
    g = np.exp(-x * x / 2.0).astype(complex)
    if not np.any(g):
        raise GridResolutionError(f"the Gaussian underflows to 0 at every point of the grid L={L!r}, m={m}")
    a = (x * g + (1j if sign == "+" else -1j) * grid_momentum(g, -L, L, scheme)) / math.sqrt(2)
    return float(np.linalg.norm(a) / np.linalg.norm(g))


def vacuum_sign_check(L: float, m: int, scheme: str = SPECTRAL) -> dict:
    """Residuals of both ladder sign conventions on the sampled Gaussian
    and which one annihilates it."""
    plus, minus = (_vacuum_residual(L, m, scheme, sign) for sign in "+-")
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
    r, r_fine = (_vacuum_residual(L, size, scheme, ANNIHILATING_SIGN) for size in (m, 2 * m))
    if r > 1e-3 and r_fine < 0.5 * r:
        raise GridResolutionError(
            f"residual {r:.3e} at m={m} is discretization-dominated "
            f"(drops to {r_fine:.3e} at m={2 * m}); refine the grid"
        )
    return r


def _kinetic_symbol(x_min: float, x_max: float, m: int, scheme: str) -> np.ndarray:
    """The eigenvalue of p^2 on each DFT mode, in numpy's FFT order: k^2
    (zero on the Nyquist mode of even m) for spectral, (2 - 2 cos(kh))/h^2
    for central differences."""
    if scheme == SPECTRAL:
        k = grid_wavenumbers(x_min, x_max, m)
        return k * k
    if scheme == CENTRAL_DIFFERENCE:
        h = _grid_step(x_min, x_max, m)
        if h**2 == 0.0 or 4.0 / h**2 == math.inf:  # checked before numpy divides by h^2
            raise GridResolutionError(f"grid x_min={x_min!r}, x_max={x_max!r}, m={m} has step h={h!r}: "
                                      "the largest central-difference symbol 4/h^2 overflows")
        return (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)) / h**2
    raise ValueError(f"unknown scheme {scheme!r}")


def grid_kinetic(values: np.ndarray, x_min: float, x_max: float, scheme: str = SPECTRAL) -> np.ndarray:
    """p^2 applied to periodic grid samples (along the last axis) by FFT:
    its symbol, k^2 on each DFT mode for spectral, (2 - 2 cos(kh))/h^2 for
    central differences, times their transform."""
    values = np.asarray(values)
    symbol = _kinetic_symbol(x_min, x_max, values.shape[-1], scheme)
    return np.fft.ifft(symbol * np.fft.fft(values))


def reflection_block(column: np.ndarray, first: int, size: int, sign: float, diagonal: np.ndarray,
                     fixed: tuple = ()) -> np.ndarray:
    """column[|i - j|] + sign * column[i + j] + diag(diagonal) for i, j in
    first .. first + size - 1, with the rows and columns at the block
    indices `fixed` scaled by 1/sqrt2.

    This is how a real symmetric matrix column[|i - j|] + diag(d), over
    i, j in -K..K (or in Z/m, where column[k] = column[m - k]) with d even
    in i, acts on the even vectors (delta_i + delta_-i)/sqrt2, i >= 0
    (sign +1, first 0, the fixed points of i -> -i in `fixed`), and on the
    odd ones (delta_i - delta_-i)/sqrt2, i >= 1 (sign -1, first 1).
    column must reach index 2 (first + size - 1).  Both parts are strided
    views of column; the result is the only array of side `size`.
    """
    window = np.lib.stride_tricks.sliding_window_view
    toeplitz = window(np.concatenate([column[size - 1 : 0 : -1], column[:size]]), size)[:, ::-1]
    hankel = window(column[2 * first : 2 * (first + size) - 1], size)
    block = toeplitz + hankel if sign > 0 else toeplitz - hankel
    if fixed:
        fixed = list(fixed)
        block[:, fixed] *= math.sqrt(0.5)  # the columns, then the rows, as scaling by a vector would
        block[fixed] *= math.sqrt(0.5)
    block.reshape(-1)[:: size + 1] += diagonal
    return block


def _sectors(m: int) -> tuple:
    """(first, size, sign, fixed) of the even and of the odd parity sector
    under j -> -j mod m, in the layout of `reflection_block`: the even
    one on indices 0..m//2, fixed at 0 and, for even m, at m/2; the odd
    one on 1..(m-1)//2."""
    half = m // 2
    return ((0, half + 1, 1.0, (0, half) if m % 2 == 0 else (0,)), (1, (m - 1) // 2, -1.0, ()))


def _reflection_entries(column: np.ndarray, rows: np.ndarray, cols: np.ndarray, sign: float,
                        fixed: tuple) -> np.ndarray:
    """column[|i - j|] + sign * column[i + j] for i in rows, j in cols, scaled
    by 1/sqrt2 in each row and column whose index is in `fixed`: the
    entries of `reflection_block`, without its diagonal, gathered at any
    rows and columns."""
    index = np.abs(np.subtract.outer(rows, cols))
    out = column[index]
    gathered = column[np.add.outer(rows, cols, out=index)]
    if sign > 0:
        out += gathered
    else:
        out -= gathered
    out *= np.where(np.isin(rows, fixed), math.sqrt(0.5), 1.0)[:, None]
    out *= np.where(np.isin(cols, fixed), math.sqrt(0.5), 1.0)
    return out


_UNIT_ROUNDOFF = 2.0**-53
_CERTIFY_ULPS = 4  # a block is accepted when its bound is at most 4 u sigma_count
_BLOCK_BUDGET = 0.1  # the block solves of one sector cost at most this share of n^3


def _schur_bracket(h_pp: np.ndarray, t_qp: np.ndarray, kappa_q: np.ndarray, mu: float, tau: float,
                   count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(sigma, e) with sigma_i <= lambda_i <= sigma_i + e_i for the lowest
    `count` eigenvalues of a symmetric H = K + T, from its block on the
    modes P; None if sigma_count > mu.  h_pp is overwritten.

    K = diag(kappa) >= 0 and 0 <= T <= tau; h_pp is H_PP, t_qp is T_QP
    and kappa_q the symbol on the other modes Q, whose least value
    kappa_Q must exceed mu, an upper bound of lambda_count (the count-th
    eigenvalue of any principal block of H, by interlacing).  sigma_i,
    y_i are the eigenpairs of

        A = H_PP - T_PQ (K_Q - mu)^-1 T_QP,

    and if sigma_count <= mu, for i <= count

        sigma_i <= lambda_i <= sigma_i + e_i,
        e_i = (mu - sigma_1 + tau) ||T_QP [y_1..y_i]||_2^2 / (kappa_Q - mu)^2.

    Proof.  For x < kappa_Q, H_QQ - x >= K_Q - x > 0, so the number of
    eigenvalues of H below x is the number of negative ones of the Schur
    complement S(x) = H_PP - x - T_PQ (H_QQ - x)^-1 T_QP (Haynsworth,
    Linear Algebra Appl. 1, 73, 1968; Loewdin, J. Math. Phys. 3, 969,
    1962).  From K_Q - x <= H_QQ - x <= K_Q - x + tau,

        (K_Q - x + tau)^-1 <= (H_QQ - x)^-1 <= (K_Q - x)^-1.

    For x <= mu the right side is at most (K_Q - mu)^-1, so S(x) >= A - x
    and H has no more eigenvalues below x than A: lambda_i >= sigma_i.  For
    sigma_1 <= x < kappa_Q the left side gives S(x) <= A - x + T_PQ E T_QP,
    E = (K_Q - mu)^-1 - (K_Q - x + tau)^-1, whose entries
    (mu - x + tau) / ((k - mu)(k - x + tau)) are at most
    (mu - sigma_1 + tau) / (kappa_Q - mu)^2.  On span(y_1..y_i) then
    S(x) < 0 once x > sigma_i + e_i, so H has i eigenvalues below every
    such x: lambda_i <= sigma_i + e_i (and if no such x lies below
    kappa_Q, lambda_i <= mu < kappa_Q <= sigma_i + e_i).

    For ||T_QP [y_1..y_i]||_2^2, the largest eigenvalue of the leading
    i x i block G_i of G = Y^T T_PQ T_QP Y, e_i takes ||G_i||_F.
    """
    h_pp -= t_qp.T @ (t_qp / (kappa_q - mu)[:, None])
    sigma, y = np.linalg.eigh(h_pp)
    sigma, residual = sigma[:count], t_qp @ y[:, :count]
    if not sigma[-1] <= mu:
        return None
    gram = residual.T @ residual
    norms = np.sqrt(np.diagonal(np.cumsum(np.cumsum(gram * gram, axis=0), axis=1)))
    return sigma, (mu - sigma[0] + tau) * norms / (float(kappa_q.min()) - mu) ** 2


def _schur_levels(column: np.ndarray, symbol: np.ndarray, sector: tuple, tau: float,
                  count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The lowest `count` eigenvalues sigma_i of a parity sector H = K + T,
    with bounds e_i such that sigma_i <= lambda_i <= sigma_i + e_i, from a
    block of its modes of smallest symbol (`_schur_bracket`); None when
    no block within the budget proves them, and `sector_levels` solves
    the whole sector instead.

    K = diag(symbol) on the sector's modes (`sector` = (first, size,
    sign, fixed), as `_sectors` gives it), T the Toeplitz +- Hankel
    matrix of `column`, gathered by `_reflection_entries`, with
    0 <= T <= tau.  P holds the p modes of smallest symbol, Q the rest.
    mu is the count-th eigenvalue of the first block whose value lies
    below its kappa_Q, a leading block of every later P.  A block is
    accepted when e_count <= 4 u sigma_count (u = 2^-53).

    p starts at 2 count and doubles after a failed block.  Once two
    blocks have a bound, the power of p at which it fell between them
    predicts the p that meets the threshold, and the next block is 1.25
    times the larger of that and p (the bound falls like p^-7 once the
    eigenvectors' tails are algebraic, faster before).  The block solves
    of a sector, mu's eigvalsh and each block's eigh, cost at most
    0.1 n^3 together, n its side: None is returned before a block would
    pass that, or as soon as the predicted block would.
    """
    first, size, sign, fixed = sector
    modes = np.arange(first, first + size, dtype=np.int32)
    order = modes[np.argsort(symbol[modes], kind="stable")]
    budget, spent = _BLOCK_BUDGET * size**3, 0
    p, mu, last = 2 * count, math.inf, None
    while p < size:
        kappa_q = float(symbol[order[p]])
        cost = p**3 * (2 if mu >= kappa_q else 1)
        if spent + cost > budget:
            return None
        spent += cost
        P, Q = order[:p], order[p:]
        h_pp = _reflection_entries(column, P, P, sign, fixed)
        h_pp.reshape(-1)[:: p + 1] += symbol[P]
        if mu >= kappa_q:
            mu = float(np.linalg.eigvalsh(h_pp)[count - 1])
        growth = 2.0
        if mu < kappa_q:
            bracket = _schur_bracket(h_pp, _reflection_entries(column, Q, P, sign, fixed), symbol[Q], mu, tau,
                                     count)
            if bracket is not None:
                sigma, bounds = bracket
                ratio = bounds[-1] / (_CERTIFY_ULPS * _UNIT_ROUNDOFF * sigma[-1])
                if 0.0 <= ratio <= 1.0:
                    return bracket
                if 1.0 < ratio < math.inf:
                    if last is not None and ratio < last[1]:
                        log_need = math.log(p) + math.log(ratio) * math.log(p / last[0]) / math.log(last[1] / ratio)
                        if 3.0 * log_need >= math.log(max(budget - spent, 1.0)):
                            return None
                        growth = 1.25 * max(1.0, math.exp(log_need) / p)
                    last = p, ratio
        p = math.ceil(growth * p)
    return None


def sector_levels(column: np.ndarray, symbol: np.ndarray, sectors: tuple, tau: float,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest `count` eigenvalues of a real symmetric K + T split into
    parity sectors, and for each the bound e_i on its distance below the
    exact one, 0 for a level from a sector solved whole.

    Each of `sectors` is (first, size, sign, fixed), as `_sectors` gives
    it: K = diag(symbol) on its modes, T the Toeplitz +- Hankel matrix of
    `column` with 0 <= T <= tau.  A sector is solved on a block of its
    modes of smallest symbol by `_schur_levels`, or, where that gives up,
    whole, by eigvalsh of its `reflection_block`; the sectors' levels are
    then merged."""
    parts = []
    for sector in sectors:
        found = _schur_levels(column, symbol, sector, tau, count)
        if found is None:
            first, size, sign, fixed = sector
            sigma = np.linalg.eigvalsh(reflection_block(column, first, size, sign, symbol[first : first + size],
                                                        fixed))[:count]
            found = sigma, np.zeros(sigma.size)
        parts.append(found)
    levels, bounds = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(levels, kind="stable")[:count]
    return levels[order], bounds[order]


def _oscillator_levels(L: float, m: int, scheme: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest `count` eigenvalues of q^2 + p^2 on the grid, and for
    each the bound e_i on its distance below the exact one, 0 for a level
    from a sector solved whole; see `grid_oscillator_spectrum`."""
    x = grid_points(-L, L, m)
    if not math.isfinite(L * L):
        raise ValueError(f"grid x^2 must be finite, got L^2 = {L * L} at L = {L}")
    x2 = x * x
    c_hat = np.fft.fft(x2).real / m
    c_hat = np.append(c_hat, c_hat[0])  # the Hankel part of the even sector reaches k + l = m
    return sector_levels(c_hat, _kinetic_symbol(-L, L, m, scheme), _sectors(m), float(x2.max()), count)


def grid_oscillator_spectrum(L: float, m: int, scheme: str = SPECTRAL, count: int = 6) -> np.ndarray:
    """Lowest `count` eigenvalues of q^2 + p^2 on the grid, the real
    symmetric diag(x^2) + kinetic circulant, from its two parity sectors,
    each solved on its low-kinetic Fourier modes when a bound computed
    here proves that enough.

    In the cos (even) or sin (odd) Fourier basis a sector is H = K + T:
    K = diag(kappa), the kinetic symbol, and T the x^2 part, the
    Toeplitz +- Hankel matrix of c^ = fft(x^2)/m, with 0 <= T <= tau =
    max x_j^2 = L^2 (which must be finite).  The Nyquist mode of even m
    has symbol 0 under the spectral scheme and is among the first modes
    taken.  `_schur_levels` finds the smallest block P of modes of least
    symbol on which the Schur complement of the other modes, taken at an
    upper bound mu of the count-th level, proves the sector's lowest
    `count` levels to 4 u sigma_count (u = 2^-53):

        sigma_i <= lambda_i <= sigma_i + e_i,
        e_i = (mu - sigma_1 + tau) ||T_QP [y_1..y_i]||_2^2 / (kappa_Q - mu)^2

    (Loewdin 1962; Haynsworth 1968).  The eigenvectors decay like
    e^{-k^2/2} in the Fourier basis, so P holds a few dozen modes
    whatever m is (48 per sector at L = 10 and 6 levels), and its
    rounding is about u (max kappa_P + tau), against u ||H|| for the
    whole sector.  A sector whose block solves would cost more than
    0.1 n^3 before one proves its levels, n its side, is solved whole by
    eigvalsh of its Fourier sector K + T (`sector_levels`), with rounding
    about u ||H||.
    """
    _check_level_count(count, m)
    return _oscillator_levels(L, m, scheme, count)[0]


def _check_level_count(count: int, m: int) -> None:
    """ValueError unless 1 <= count <= m/4, the levels a grid of m points solves."""
    if count < 1 or count > m // 4:
        raise ValueError(f"count {count} is outside 1..m/4 = 1..{m // 4}, the levels a grid of m={m} points solves")


@functools.lru_cache(maxsize=4)  # one run reads 3: (m, 8), (2m, 8) and (m, 0)
def _hermite_rows(L: float, m: int, n_max: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """psi_0..psi_n_max by the raw three-term recurrence, as the rows of one
    read-only (n_max + 1) x m array, and the discrete L2 norm sqrt(h) ||row||
    of each:
    psi_0 = pi^{-1/4} e^{-x^2/2};  psi_1 = sqrt(2) x psi_0;
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}."""
    if not 0 <= n_max <= 40:
        raise ValueError("n_max must be in 0..40 (recurrence stability)")
    x = grid_points(-L, L, m)
    rows = np.zeros((n_max + 1, m))
    rows[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
    for n in range(n_max):  # at n = 0, psi_{n-1} is rows[-1], still zero
        rows[n + 1] = math.sqrt(2.0 / (n + 1)) * x * rows[n] - math.sqrt(n / (n + 1)) * rows[n - 1]
    h = _grid_step(-L, L, m)
    rows.flags.writeable = False
    return rows, tuple(math.sqrt(h) * float(np.linalg.norm(row)) for row in rows)


def hermite_basis(L: float, m: int, n_max: int) -> np.ndarray:
    """psi_0..psi_n_max on the grid of m points of [-L, L), renormalized to
    unit discrete L2 norm, as the rows of one complex (n_max + 1) x m array;
    raises GridResolutionError if a raw norm drifts from 1 by over 1e-6."""
    rows, norms = _hermite_rows(L, m, n_max)
    for n, nrm in enumerate(norms):
        if not abs(nrm - 1.0) <= 1e-6:
            raise GridResolutionError(
                f"recurrence norm drift {abs(nrm - 1.0):.2e} at n={n} on the grid L={L!r}, m={m}; "
                "enlarge L or refine the grid"
            )
    return (rows / np.array(norms)[:, None]).astype(complex)


def hermite_norm_drift(L: float, m: int, n_max: int) -> float:
    """Worst deviation | ||psi_n||_h - 1 | of the raw recurrence output
    before renormalization; large drift signals instability."""
    return max(abs(nrm - 1.0) for nrm in _hermite_rows(L, m, n_max)[1])


def _witness(L: float, m: int, n_max: int) -> np.ndarray:
    """The witness T = sqrt(h) conj(hermite_basis): row n maps grid samples
    to their coefficient on psi_n."""
    return math.sqrt(_grid_step(-L, L, m)) * hermite_basis(L, m, n_max).conj()


def intertwiner_check(L: float, m: int, n_max: int) -> float:
    """Mismatch ||T diag(x) T† - q_ladder|| (2-norm) of the unitary-equivalence
    witness T (`_witness`, dense (n_max + 1) x m) between the grid and the
    ladder representations of q, on the leading n_max + 1 modes."""
    T = _witness(L, m, n_max)
    q_fock = fock.Band.position(n_max + 1).to_dense()
    return float(np.linalg.norm((T * grid_points(-L, L, m)) @ T.conj().T - q_fock, 2))


def intertwiner_gram_defect(L: float, m: int, n_max: int) -> float:
    """||T T† - I|| for the same witness: orthonormality of the sampled
    basis in discrete L2."""
    T = _witness(L, m, n_max)
    return float(np.linalg.norm(T @ T.conj().T - np.eye(n_max + 1), 2))
