"""Exponentiated-operator checks: the Weyl relation U_t V_s = e^{its} V_s U_t
with U_t = e^{itp}, V_s = e^{isq}, plus the shift and commutation
identities for exponentials, all at finite truncation.

Residuals are always vector-applied relative to a low-mode test vector;
truncation deliberately corrupts the top modes, so full operator norms
would only measure the artifact.

Mode window.  U_t and V_s are displacements D(alpha) = e^{alpha a† -
conj(alpha) a}, with alpha = -t/sqrt2 and is/sqrt2, and U_t V_s =
e^{its/2} D((-t + is)/sqrt2); on e_0 they give coherent states, whose
Poisson weights have mean |alpha|^2 = (t^2 + s^2)/2 (Glauber, Phys.
Rev. 131, 2766, 1963).  A vector on modes <= top, displaced, keeps all
but a tail below unit roundoff on the modes up to the tail mode N of
`_tail_mode`, and each bare product with q or p widens that by one mode.
So the residuals, and the unitarity and inverse-product checks of a
column block, run on the first W = min(dim, N + 1 + applications) modes.
Cutting e^{icG} (G = q or p) to W modes removes only the coupling
|c| sqrt(W/2) between modes W - 1 and W, so by Duhamel's formula it moves
the result by at most that factor times the tail there: the windowed
and the full-dim values agree to rounding.  The kernel takes its term
count from the window's 1-norm, the cost stops growing with dim, and at
W = dim the path is the full one.  The same bound at the Weyl residual's
tolerance tells which t, s a truncation can hold at all
(`check_truncation`).

The kernel.  Every exponential here is e^{iH} B with H = cG Hermitian:
G is q, p, a real diagonal or 0.  `expm_multiply` takes exactly that
case and sums the Chebyshev-Bessel expansion of e^{iH} (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967, 1984) with R = ||H||_1.  It stops at
the first order whose Bessel tail is below unit roundoff, about
R + O(R^{1/3}) terms, each one band product read off the diagonals.  A
band A whose -iA is not Hermitian, or whose R would need more than
_MAX_TERMS = 10^5 terms, is refused before the first product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import Band, FockState, _rows_cols

_MAX_TERMS = 10**5
_UNIT_ROUNDOFF = 2.0**-53
_MILLER_MARGIN = 10.0  # the backward recurrence starts where Kapteyn's bound is e^-10 below unit roundoff


def _log_kapteyn_bound(x: float, n: int) -> float:
    """log of Kapteyn's bound |J_n(nz)| <= (z e^s / (1 + s))^n, s = sqrt(1 - z^2),
    at z = x/n <= 1 (Watson, Theory of Bessel Functions, 8.7)."""
    z = x / n
    s = math.sqrt(1.0 - z * z)
    return n * (math.log(z) + s - math.log1p(s))


@functools.lru_cache(maxsize=64)
def _chebyshev_coefficients(x: float) -> np.ndarray:
    """(2 - delta_k0) J_k(x) for k = 0..K: the coefficients of
    e^{ixX} = sum_k (2 - delta_k0) i^k J_k(x) T_k(X), cut at the first K
    whose tail sum_{k > K} 2 |J_k(x)| is at most unit roundoff.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} runs down
    from an order N >= x at which Kapteyn's bound on J_N(x) is e^-10
    below unit roundoff, found by doubling the step past x.  It starts at
    (J_N, J_{N+1}) = (x, 0) and is normalized by J_0 + 2 sum_k J_2k = 1.
    J_k is minimal past x, so the recurrence is stable downward, and the
    seed's error is of the size of J_N.  More than _MAX_TERMS terms are
    refused, at once where x > _MAX_TERMS, since K exceeds x.
    """
    too_many = ValueError(f"||A||_1 = {x:.3g}: e^A needs more than {_MAX_TERMS} Chebyshev terms")
    if not x <= _MAX_TERMS:
        raise too_many
    if x == 0.0:
        return np.ones(1)
    n, step = max(1, math.ceil(x)), 1
    log_floor = math.log(_UNIT_ROUNDOFF) - _MILLER_MARGIN
    while _log_kapteyn_bound(x, n) > log_floor:  # a start past the first such order only costs steps
        n, step = n + step, 2 * step
    j = [0.0] * (n + 2)
    j[n] = x  # any positive seed; this one keeps 2k J_k / x finite for the smallest x
    for k in range(n, 0, -1):
        j[k - 1] = 2 * k * j[k] / x - j[k + 1]
    bessel = np.array(j[: n + 1])
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()
    tail = 2.0 * np.cumsum(np.abs(bessel[:0:-1]))[::-1]  # tail[k] = 2 sum_{i > k} |J_i|, k < n
    order = int(np.argmax(np.append(tail, 0.0) <= _UNIT_ROUNDOFF))
    if order >= _MAX_TERMS:
        raise too_many
    coefficients = 2.0 * bessel[: order + 1]
    coefficients[0] = bessel[0]
    coefficients.flags.writeable = False  # shared by the cache
    return coefficients


def _anti_hermitian_defect(A: Band) -> float:
    """max |A + A†| over the entries: zero when -iA is Hermitian."""
    defect = 0.0
    for k, d in A.diagonals.items():
        mirror = A.diagonals.get(-k)
        if d.size:
            defect = max(defect, float(np.abs(d if mirror is None else d + mirror.conj()).max()))
    return defect


def expm_multiply(A: Band, B: np.ndarray) -> np.ndarray:
    """e^A B for a vector or column block B and a band A with -iA Hermitian,
    without forming e^A.

    With H = -iA, R = ||A||_1 >= ||H||_2 (Gershgorin) and X = H/R,
    e^A = e^{iRX} = sum_k (2 - delta_k0) i^k J_k(R) T_k(X) (Jacobi-Anger;
    Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984).  The vectors
    U_k = i^k T_k(X) B obey U_{k+1} = (2A/R) U_k + U_{k-1}, U_1 = A B / R,
    read off A's diagonals.  ||T_k(X)|| <= 1, so cutting the sum where the
    Bessel tail drops below unit roundoff (`_chebyshev_coefficients`)
    leaves an error below u ||B||; that takes R + O(R^{1/3}) terms.  A band
    whose -iA is not Hermitian to a few units of roundoff, or that needs
    more than _MAX_TERMS terms, is refused before the first product.
    """
    norm = A.norm1()
    coefficients = _chebyshev_coefficients(norm)
    if _anti_hermitian_defect(A) > 4 * _UNIT_ROUNDOFF * norm:
        raise ValueError("expm_multiply needs a band A with -iA Hermitian")
    F = np.array(B, dtype=complex)
    if F.ndim not in (1, 2) or F.shape[0] != A.dim:
        raise ValueError(f"cannot apply a {A.dim}-dim operator to shape {F.shape}")
    acc = coefficients[0] * F
    if coefficients.size == 1:
        return acc
    U = [F, np.zeros_like(F)]  # U_k lives in U[k % 2], overwriting U_{k-2}
    diagonals = [(*_rows_cols(k, d.size), (2.0 / norm) * (d if F.ndim == 1 else d[:, None]))
                 for k, d in A.diagonals.items() if d.size]
    # per parity, (rows of the target, columns of the source, diagonal) as views
    steps = [[(U[k % 2][rows], U[1 - k % 2][cols], d) for rows, cols, d in diagonals] for k in (0, 1)]
    for out, src, d in steps[1]:
        out += d * src
    U[1] *= 0.5  # U_1 = (A/R) B = (S/2) B with S = 2A/R
    acc += coefficients[1] * U[1]
    for k in range(2, coefficients.size):
        for out, src, d in steps[k % 2]:
            out += d * src
        acc += coefficients[k] * U[k % 2]
    return acc


def _log_tail_bound(alpha: float, top: int, n: int) -> float:
    """log of sqrt(M+1) B_M(n) / sqrt(1 - r(n)^2), M = top, the bound of
    `_tail_mode` on the tail from mode n on; inf where r(n) >= 1."""
    k = n - top
    r = alpha * math.sqrt(n + 1) / (k + 1)
    if r >= 1.0:
        return math.inf
    # B_M(n) e^{alpha^2/2} sqrt(n!/M!) sums T_i = C(n, i) alpha^(n+M-2i) / (M-i)!, i <= M; by Horner,
    # s = sum_i T_i / T_M from the ratios T_i / T_{i+1} = (i+1) alpha^2 / ((n-i) (M-i))
    s = 1.0
    for i in range(top):
        s = 1.0 + s * (i + 1) * alpha * alpha / ((n - i) * (top - i))
    log_b = k * math.log(alpha) + 0.5 * (math.lgamma(n + 1) - math.lgamma(top + 1)) - math.lgamma(k + 1)
    log_b += math.log(s) - alpha * alpha / 2
    return log_b + 0.5 * (math.log(top + 1) - math.log1p(-r * r))


def _tail_mode(alpha: float, top: int, tol: float, limit: int) -> int:
    """The first mode N >= top with ||(1 - P_N) D x|| <= tol ||x|| for every
    x on modes <= top, where P_N keeps modes <= N and D is a displacement
    with |alpha| = alpha >= 0; `limit` if there is none below it.

    The bound.  For n >= m and k = n - m, |<n|D|m>| = sqrt(m!/n!) alpha^k
    e^{-alpha^2/2} |L_m^{(k)}(alpha^2)|.  The triangle inequality on the
    explicit sum L_m^{(k)}(x) = sum_j (-1)^j C(m+k, m-j) x^j / j!
    (Abramowitz and Stegun 22.3.9) gives |<n|D|m>| <= B_m(n) with

        B_m(n) = e^{-alpha^2/2} sqrt(m!/n!) alpha^k S_m(n),
        S_m(n) = sum_{j<=m} C(n, m-j) alpha^{2j} / j!,

    which keeps the factor e^{-alpha^2/2}; for m = 0 it is the Poisson
    amplitude e^{-alpha^2/2} alpha^n / sqrt(n!).  With M = top, each
    term of B_m grows from n to n + 1 by at most r(n) = alpha sqrt(n+1) /
    (n+1-M), which falls with n, and r(n) < 1 from the first n_0 with
    sqrt(n_0+1) > (alpha + sqrt(alpha^2 + 4M))/2.  There, for m < M,
    S_{m+1}(n) >= (n-m)/(m+1) S_m(n) term by term, and n - m > alpha
    sqrt(m+1), so B_{m+1}(n) >= B_m(n).  So from n_0 on, B_m(n) <= B_M(n)
    for every m <= M and sum_{n'>=n} B_M(n')^2 <= B_M(n)^2 / (1 - r(n)^2),
    and for N + 1 >= n_0

        ||(1 - P_N) D x|| <= sqrt(M+1) B_M(N+1) / sqrt(1 - r(N+1)^2) ||x||.

    That bound falls with N, so it is bisected on [max(M, n_0 - 1), limit):
    the search never walks up to the mean alpha^2, and any alpha, however
    large, costs O(M log limit).
    """
    if alpha == 0.0:
        return top
    u = (alpha + math.hypot(alpha, 2.0 * math.sqrt(top))) / 2.0
    if u * u >= limit:
        return limit
    log_tol = math.log(tol)
    lo, hi = max(top, math.floor(u * u) - 1), limit - 1
    if lo > hi or _log_tail_bound(alpha, top, hi + 1) > log_tol:
        return limit
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail_bound(alpha, top, mid + 1) <= log_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def check_truncation(t: float, s: float, dim: int, tol: float) -> None:
    """Raise ValueError unless the tail of e^{itp} e^{isq} e_0 (Poisson, mean
    (t^2 + s^2)/2) past mode dim - 1, bounded by `_tail_mode`, is at most tol."""
    alpha = math.hypot(t, s) / math.sqrt(2)
    if _tail_mode(alpha, 0, tol, dim) > dim - 1:
        raise ValueError(f"t={t}, s={s} carry e^(itp) e^(isq) e_0 past mode {dim - 1}, the last mode at dim "
                         f"{dim}: its tail there (Poisson, mean {alpha * alpha:.3g}) is above {tol:g}")


def _window(dim: int, top: int, alpha: float, applications: int = 0) -> int:
    """W = min(dim, N + 1 + applications): the modes a vector on modes
    <= top reaches, above unit roundoff, under a displacement with
    |alpha| = alpha and `applications` bare products with q or p."""
    return min(dim, _tail_mode(alpha, top, _UNIT_ROUNDOFF, dim) + 1 + applications)


def _on_window(xi: FockState, dim: int, alpha: float, applications: int = 0):
    """(x, q, p): xi and the tridiagonal q and p on its mode window; a
    support at or past dim is refused by FockState.vector."""
    w = _window(dim, xi.support, alpha, applications)
    return xi.vector(w), Band.position(w), Band.momentum(w)


class WeylResidualRecord:
    """One vector-applied Weyl residual at a given truncation, with the phase
    e^{+ist} (`residual`) and with e^{-ist} (`minus_residual`)."""

    __slots__ = ("t", "s", "dim", "residual", "minus_residual", "test_vector_support")

    def __init__(self, t: float, s: float, dim: int, residual: float, minus_residual: float,
                 test_vector_support: int):
        self.t, self.s, self.dim, self.residual, self.minus_residual = t, s, dim, residual, minus_residual
        self.test_vector_support = test_vector_support


def _test_vector(xi: FockState | None) -> FockState:
    """The test vector xi, e_0 by default, checked to be nonzero."""
    if xi is None:
        xi = FockState.basis_state(0)
    if xi.support < 0:
        raise ValueError("test vector must be nonzero")
    return xi


def weyl_residual(t: float, s: float, dim: int, xi: FockState | None = None) -> WeylResidualRecord:
    """||(U_t V_s - e^{ist} V_s U_t) xi|| / ||xi|| at the given truncation, and
    the same with e^{-ist}, where U_t = e^{itp} and V_s = e^{isq}, from one
    application of each product on the window of xi.  With [p, q] = -i the
    +ist phase vanishes; the -ist one is 2|sin(st)| to within it, so both
    vanish at st in pi Z."""
    xi = _test_vector(xi)
    x, q, p = _on_window(xi, dim, math.hypot(t, s) / math.sqrt(2))
    itp, isq = 1j * t * p, 1j * s * q
    uv = expm_multiply(itp, expm_multiply(isq, x))
    vu = expm_multiply(isq, expm_multiply(itp, x))
    nrm = np.linalg.norm(x)
    plus, minus = (float(np.linalg.norm(uv - np.exp(sign * 1j * s * t) * vu) / nrm) for sign in (1, -1))
    return WeylResidualRecord(float(t), float(s), dim, plus, minus, xi.support)


def shift_identity_residual(t: float, n: int, dim: int, xi: FockState | None = None) -> float:
    """||(e^{-itq} p^n e^{itq} - (p + tI)^n) xi|| / ||xi||."""
    if n < 1:
        raise ValueError("power n must be positive")
    xi = _test_vector(xi)
    x, q, p = _on_window(xi, dim, abs(t) / math.sqrt(2), n)
    lhs = expm_multiply(1j * t * q, x)
    rhs = x
    for _ in range(n):
        lhs = p @ lhs
        rhs = p @ rhs + t * rhs
    lhs = expm_multiply(-1j * t * q, lhs)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x))


def exp_commutator_residual(t: float, dim: int, xi: FockState | None = None) -> float:
    """||(p V_t - V_t p - t V_t) xi|| / ||xi|| with V_t = e^{itq}.

    This is the commutation identity for exponentials in its corrected
    form [p, e^{itq}] = t e^{itq}, the term-by-term sum of
    [p, q^n] = -i n q^{n-1} over the Taylor series.
    """
    xi = _test_vector(xi)
    x, q, p = _on_window(xi, dim, abs(t) / math.sqrt(2), 1)
    vx, vpx = expm_multiply(1j * t * q, np.column_stack([x, p @ x])).T
    val = p @ vx - vpx - t * vx
    return float(np.linalg.norm(val) / np.linalg.norm(x))


def _block_on_window(c: float, generator: str, block, dim: int):
    """(i c G, B): G = q or p and the block B, its rows the modes 0, 1, ...,
    on the window that e^{icG} B reaches."""
    if generator not in ("q", "p"):
        raise ValueError(f"generator must be 'q' or 'p', got {generator!r}")
    block = np.asarray(block)
    if block.ndim != 2 or not 0 < block.shape[0] <= dim:
        raise ValueError(f"expected a block of 1 to {dim} rows, got shape {block.shape}")
    w = _window(dim, block.shape[0] - 1, abs(c) / math.sqrt(2))
    B = np.zeros((w, block.shape[1]), dtype=complex)
    B[: block.shape[0]] = block
    G = Band.position(w) if generator == "q" else Band.momentum(w)
    return 1j * c * G, B


def unitarity_defect(c: float, generator: str, block, dim: int) -> float:
    """max |(e^{icG} B)† (e^{icG} B) - B† B| over the entries, for G = q or p
    at dim modes and a column block B on low modes."""
    icg, B = _block_on_window(c, generator, block, dim)
    F = expm_multiply(icg, B)
    return float(np.abs(F.conj().T @ F - B.conj().T @ B).max())


def inverse_product_defect(c: float, generator: str, block, dim: int) -> float:
    """max |e^{icG} e^{-icG} B - B| over the entries, for G = q or p at dim
    modes and a column block B on low modes."""
    icg, B = _block_on_window(c, generator, block, dim)
    return float(np.abs(expm_multiply(icg, expm_multiply(-1.0 * icg, B)) - B).max())
