"""Exponentiated-operator checks: the Weyl relation U_t V_s = e^{its} V_s U_t
with U_t = e^{itp}, V_s = e^{isq}, plus the shift and commutation
identities for exponentials, all at finite truncation.

Residuals are always vector-applied relative to a low-mode test vector;
truncation deliberately corrupts the top modes, so full operator norms
would only measure the artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, Tridiagonal, _check_square

_TAYLOR_DEGREE = 20
_MAX_STEPS = 10**5


def _taylor_sum(A: np.ndarray, F: np.ndarray, degree: int, c: float) -> np.ndarray:
    """sum_{k<=degree} (cA)^k F / k!, each term from the last by one product."""
    acc = F.copy()
    for k in range(1, degree + 1):
        F = (c / k) * (A @ F)
        acc += F
    return acc


def _norm1(A: np.ndarray | Tridiagonal) -> float:
    if isinstance(A, Tridiagonal):
        return A.norm1()
    _check_square(A)
    return float(np.linalg.norm(A, 1))


def expm_multiply(A: np.ndarray | Tridiagonal, B: np.ndarray) -> np.ndarray:
    """e^A B for a vector or column block B, without forming e^A; A is a
    dense square array or a `Tridiagonal`.

    s = ceil(||A||_1) steps of the degree-20 Taylor polynomial of e^{A/s}
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011); each step's
    remainder is at most e/21! relative.  More than _MAX_STEPS steps are
    refused before the first one runs.
    """
    norm = _norm1(A)
    if not norm <= _MAX_STEPS:
        raise ValueError(f"||A||_1 = {norm:.3g} needs more than {_MAX_STEPS} Taylor steps")
    steps = max(1, math.ceil(norm))
    F = np.array(B, dtype=complex)
    for _ in range(steps):
        F = _taylor_sum(A, F, _TAYLOR_DEGREE, 1.0 / steps)
    return F


def expm(A: np.ndarray | Tridiagonal) -> np.ndarray:
    """Matrix exponential e^A, as expm_multiply applied to the identity."""
    dim = len(A) if isinstance(A, Tridiagonal) else _check_square(A)
    return expm_multiply(A, np.eye(dim))


@dataclass(frozen=True)
class WeylResidualRecord:
    """One vector-applied Weyl residual at a given truncation."""

    t: float
    s: float
    dim: int
    guard: int
    residual: float
    test_vector_support: int


def _test_vector(dim: int, guard: int | None, xi: FockState | None, extra_guard: int = 0):
    """(x, guard, xi): the test vector xi (default e_0) as a dim-vector,
    with the guard band (default dim // 4 + extra_guard) checked."""
    if guard is None:
        guard = dim // 4 + extra_guard
    if xi is None:
        xi = FockState.basis_state(0)
    if not 0 <= guard < dim:
        raise ValueError(f"guard must satisfy 0 <= guard < dim, got {guard}")
    if xi.support < 0:
        raise ValueError("test vector must be nonzero")
    if xi.support >= dim - guard:
        raise ValueError(
            f"support violation: test vector reaches mode {xi.support}, "
            f"last allowed mode is {dim - guard - 1} at dim={dim}, guard={guard}"
        )
    return xi.vector(dim), guard, xi


def _weyl_residuals(t: float, s: float, x: np.ndarray) -> tuple[float, float]:
    """||(U_t V_s - e^{ist} V_s U_t) x|| / ||x|| and the same with e^{-ist},
    where U_t = e^{itp} and V_s = e^{isq}."""
    dim = x.shape[0]
    itp, isq = 1j * t * Tridiagonal.momentum(dim), 1j * s * Tridiagonal.position(dim)
    uv = expm_multiply(itp, expm_multiply(isq, x))
    vu = expm_multiply(isq, expm_multiply(itp, x))
    nrm = np.linalg.norm(x)
    return tuple(float(np.linalg.norm(uv - np.exp(sign * 1j * s * t) * vu) / nrm) for sign in (1, -1))


def weyl_residual(
    t: float, s: float, dim: int, guard: int | None = None, xi: FockState | None = None
) -> WeylResidualRecord:
    """||(U_t V_s - e^{ist} V_s U_t) xi|| / ||xi|| at the given truncation.

    guard defaults to dim // 4, enough for |t|, |s| <= 2 at dim >= 64.
    """
    x, guard, xi = _test_vector(dim, guard, xi)
    residual, _ = _weyl_residuals(t, s, x)
    return WeylResidualRecord(float(t), float(s), dim, guard, residual, xi.support)


def weyl_phase_check(t: float, s: float, dim: int, xi: FockState | None = None) -> dict:
    """Residuals for both candidate scalar phases e^{+ist} and e^{-ist}.

    Exactly one vanishes with [p, q] = -i; with these conventions it is
    the +ist phase.
    """
    x, _, _ = _test_vector(dim, None, xi)
    plus, minus = _weyl_residuals(t, s, x)
    return {"plus_phase": plus, "minus_phase": minus, "vanishing": "+ist" if plus < minus else "-ist"}


def shift_identity_residual(
    t: float, n: int, dim: int, xi: FockState | None = None, guard: int | None = None
) -> float:
    """||(e^{-itq} p^n e^{itq} - (p + tI)^n) xi|| / ||xi||."""
    if n < 1:
        raise ValueError("power n must be positive")
    x, _, _ = _test_vector(dim, guard, xi, extra_guard=n)
    q, p = Tridiagonal.position(dim), Tridiagonal.momentum(dim)
    lhs = expm_multiply(1j * t * q, x)
    rhs = x
    for _ in range(n):
        lhs = p @ lhs
        rhs = p @ rhs + t * rhs
    lhs = expm_multiply(-1j * t * q, lhs)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x))


def exp_commutator_residual(
    t: float, dim: int, xi: FockState | None = None, guard: int | None = None
) -> float:
    """||(p V_t - V_t p - t V_t) xi|| / ||xi|| with V_t = e^{itq}.

    This is the commutation identity for exponentials in its corrected
    form [p, e^{itq}] = t e^{itq}, the term-by-term sum of
    [p, q^n] = -i n q^{n-1} over the Taylor series.
    """
    x, _, _ = _test_vector(dim, guard, xi)
    q, p = Tridiagonal.position(dim), Tridiagonal.momentum(dim)
    vx, vpx = expm_multiply(1j * t * q, np.column_stack([x, p @ x])).T
    val = p @ vx - vpx - t * vx
    return float(np.linalg.norm(val) / np.linalg.norm(x))
