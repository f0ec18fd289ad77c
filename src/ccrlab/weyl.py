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
and the full-dim values agree to rounding.  The Taylor kernel takes its
step count from the window's 1-norm, the cost stops growing with dim,
and at W = dim the path is the full one.  The same bound at the Weyl
residual's tolerance tells which t, s a truncation can hold at all
(`reports.RunConfig.validate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import Band, FockState

_TAYLOR_DEGREE = 20
_MAX_STEPS = 10**5
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_sum(A: Band, F: np.ndarray, degree: int, c: float) -> np.ndarray:
    """sum_{k<=degree} (cA)^k F / k!, each term from the last by one product."""
    acc = F.copy()
    for k in range(1, degree + 1):
        F = (c / k) * (A @ F)
        acc += F
    return acc


def expm_multiply(A: Band, B: np.ndarray) -> np.ndarray:
    """e^A B for a vector or column block B, without forming e^A.

    s = ceil(||A||_1) steps of the degree-20 Taylor polynomial of e^{A/s}
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011); each step's
    remainder is at most e/21! relative.  More than _MAX_STEPS steps are
    refused before the first one runs.
    """
    norm = A.norm1()
    if not norm <= _MAX_STEPS:
        raise ValueError(f"||A||_1 = {norm:.3g} needs more than {_MAX_STEPS} Taylor steps")
    steps = max(1, math.ceil(norm))
    F = np.array(B, dtype=complex)
    for _ in range(steps):
        F = _taylor_sum(A, F, _TAYLOR_DEGREE, 1.0 / steps)
    return F


def _log_tail_bound(alpha: float, top: int, n: int) -> float:
    """log of sqrt(M+1) B_M(n) / sqrt(1 - r(n)^2), M = top, the bound of
    `_tail_mode` on the tail from mode n on; inf where r(n) >= 1."""
    k = n - top
    r = alpha * math.sqrt(n + 1) / (k + 1)
    if r >= 1.0:
        return math.inf
    log_b = k * math.log(alpha) + 0.5 * (math.lgamma(n + 1) - math.lgamma(top + 1)) - math.lgamma(k + 1)
    if top == 0:
        log_b -= alpha * alpha / 2
    return log_b + 0.5 * (math.log(top + 1) - math.log1p(-r * r))


def _tail_mode(alpha: float, top: int, tol: float, limit: int) -> int:
    """The first mode N >= top with ||(1 - P_N) D x|| <= tol ||x|| for every
    x on modes <= top, where P_N keeps modes <= N and D is a displacement
    with |alpha| = alpha >= 0; `limit` if there is none below it.

    The bound.  For n >= m and k = n - m, |<n|D|m>| = sqrt(m!/n!) alpha^k
    e^{-alpha^2/2} |L_m^{(k)}(alpha^2)|.  For m = 0 this is the Poisson
    amplitude B_0(n) = e^{-alpha^2/2} alpha^n / sqrt(n!).  For m > 0 the
    Laguerre bound |L_m^{(k)}(x)| <= C(m+k, m) e^{x/2} (x, k >= 0;
    Abramowitz and Stegun 22.14.13) gives |<n|D|m>| <= B_m(n) =
    alpha^k sqrt(n!/m!) / k!.  With M = top, the ratio
    r(n) = B_M(n+1)/B_M(n) = alpha sqrt(n+1)/(n+1-M) falls with n, and
    r(n) < 1 from the first n_0 with sqrt(n_0+1) > (alpha +
    sqrt(alpha^2 + 4M))/2.  From n_0 on, B_m(n) <= B_M(n) for every
    m <= M and sum_{n'>=n} B_M(n')^2 <= B_M(n)^2 / (1 - r(n)^2), so for
    N + 1 >= n_0

        ||(1 - P_N) D x|| <= sqrt(M+1) B_M(N+1) / sqrt(1 - r(N+1)^2) ||x||.

    That bound falls with N, so it is bisected on [max(M, n_0 - 1), limit):
    the search never walks up to the mean alpha^2, and any alpha, however
    large, costs O(log limit).
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


@dataclass(frozen=True)
class WeylResidualRecord:
    """One vector-applied Weyl residual at a given truncation."""

    t: float
    s: float
    dim: int
    residual: float
    test_vector_support: int


def _test_vector(xi: FockState | None) -> FockState:
    """The test vector xi, e_0 by default, checked to be nonzero."""
    if xi is None:
        xi = FockState.basis_state(0)
    if xi.support < 0:
        raise ValueError("test vector must be nonzero")
    return xi


def _weyl_residuals(t: float, s: float, xi: FockState, dim: int) -> tuple[float, float]:
    """||(U_t V_s - e^{ist} V_s U_t) xi|| / ||xi|| and the same with e^{-ist},
    where U_t = e^{itp} and V_s = e^{isq}, on the window of xi."""
    x, q, p = _on_window(xi, dim, math.hypot(t, s) / math.sqrt(2))
    itp, isq = 1j * t * p, 1j * s * q
    uv = expm_multiply(itp, expm_multiply(isq, x))
    vu = expm_multiply(isq, expm_multiply(itp, x))
    nrm = np.linalg.norm(x)
    return tuple(float(np.linalg.norm(uv - np.exp(sign * 1j * s * t) * vu) / nrm) for sign in (1, -1))


def weyl_residual(t: float, s: float, dim: int, xi: FockState | None = None) -> WeylResidualRecord:
    """||(U_t V_s - e^{ist} V_s U_t) xi|| / ||xi|| at the given truncation."""
    xi = _test_vector(xi)
    residual, _ = _weyl_residuals(t, s, xi, dim)
    return WeylResidualRecord(float(t), float(s), dim, residual, xi.support)


def weyl_phase_check(t: float, s: float, dim: int, xi: FockState | None = None) -> dict:
    """Residuals for both candidate scalar phases e^{+ist} and e^{-ist}.

    Exactly one vanishes with [p, q] = -i; with these conventions it is
    the +ist phase.
    """
    xi = _test_vector(xi)
    plus, minus = _weyl_residuals(t, s, xi, dim)
    return {"plus_phase": plus, "minus_phase": minus, "vanishing": "+ist" if plus < minus else "-ist"}


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
