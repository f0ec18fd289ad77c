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

from .fock import FockState, build_momentum, build_position, _check_square

_TAYLOR_DEGREE = 13
_SCALE_TARGET = 0.5


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    A is scaled by 2^-j until its 1-norm is at most 0.5, a degree-13
    Taylor polynomial is evaluated by Horner's rule (remainder below
    1e-16 at that norm), and the result is squared j times.
    """
    dim = _check_square(A)
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A, 1)
    j = max(0, math.ceil(math.log2(norm / _SCALE_TARGET))) if norm > _SCALE_TARGET else 0
    B = A / (2.0**j)
    E = np.eye(dim, dtype=complex)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        E = np.eye(dim, dtype=complex) + (B @ E) / k
    for _ in range(j):
        E = E @ E
    return E


@dataclass(frozen=True)
class WeylResidualRecord:
    """One vector-applied Weyl residual at a given truncation."""

    t: float
    s: float
    dim: int
    guard: int
    residual: float
    test_vector_support: int


def _prepare_vector(xi: FockState, dim: int, guard: int) -> np.ndarray:
    if not 0 <= guard < dim:
        raise ValueError(f"guard must satisfy 0 <= guard < dim, got {guard}")
    if xi.support < 0:
        raise ValueError("test vector must be nonzero")
    if xi.support >= dim - guard:
        raise ValueError(
            f"support violation: test vector reaches mode {xi.support}, "
            f"last allowed mode is {dim - guard - 1} at dim={dim}, guard={guard}"
        )
    return xi.vector(dim)


def weyl_residual(
    t: float, s: float, dim: int, guard: int | None = None, xi: FockState | None = None
) -> WeylResidualRecord:
    """||(U_t V_s - e^{ist} V_s U_t) xi|| / ||xi|| at the given truncation.

    guard defaults to dim // 4, enough for |t|, |s| <= 2 at dim >= 64.
    """
    if guard is None:
        guard = dim // 4
    if xi is None:
        xi = FockState.basis_state(0)
    x = _prepare_vector(xi, dim, guard)
    q, p = build_position(dim), build_momentum(dim)
    U = expm(1j * t * p)
    V = expm(1j * s * q)
    lhs = U @ (V @ x)
    rhs = np.exp(1j * s * t) * (V @ (U @ x))
    residual = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x))
    return WeylResidualRecord(float(t), float(s), dim, guard, residual, xi.support)


def weyl_phase_check(t: float, s: float, dim: int, xi: FockState | None = None) -> dict:
    """Residuals for both candidate scalar phases e^{+ist} and e^{-ist}.

    Exactly one vanishes with [p, q] = -i; with these conventions it is
    the +ist phase.
    """
    if xi is None:
        xi = FockState.basis_state(0)
    guard = dim // 4
    x = _prepare_vector(xi, dim, guard)
    q, p = build_position(dim), build_momentum(dim)
    U, V = expm(1j * t * p), expm(1j * s * q)
    lhs = U @ (V @ x)
    vu = V @ (U @ x)
    nrm = np.linalg.norm(x)
    plus = float(np.linalg.norm(lhs - np.exp(1j * s * t) * vu) / nrm)
    minus = float(np.linalg.norm(lhs - np.exp(-1j * s * t) * vu) / nrm)
    vanishing = "+ist" if plus < minus else "-ist"
    return {"plus_phase": plus, "minus_phase": minus, "vanishing": vanishing}


def shift_identity_residual(
    t: float, n: int, dim: int, xi: FockState | None = None, guard: int | None = None
) -> float:
    """||(e^{-itq} p^n e^{itq} - (p + tI)^n) xi|| / ||xi||."""
    if n < 1:
        raise ValueError("power n must be positive")
    if guard is None:
        guard = dim // 4 + n
    if xi is None:
        xi = FockState.basis_state(0)
    x = _prepare_vector(xi, dim, guard)
    q, p = build_position(dim), build_momentum(dim)
    V = expm(1j * t * q)
    Vm = expm(-1j * t * q)
    pn = np.linalg.matrix_power(p, n)
    shifted = np.linalg.matrix_power(p + t * np.eye(dim), n)
    lhs = Vm @ (pn @ (V @ x))
    rhs = shifted @ x
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x))


def exp_commutator_residual(
    t: float, dim: int, xi: FockState | None = None, guard: int | None = None
) -> float:
    """||(p V_t - V_t p - t V_t) xi|| / ||xi|| with V_t = e^{itq}.

    This is the commutation identity for exponentials in its corrected
    form [p, e^{itq}] = t e^{itq}, the term-by-term sum of
    [p, q^n] = -i n q^{n-1} over the Taylor series.
    """
    if guard is None:
        guard = dim // 4
    if xi is None:
        xi = FockState.basis_state(0)
    x = _prepare_vector(xi, dim, guard)
    q, p = build_position(dim), build_momentum(dim)
    V = expm(1j * t * q)
    val = p @ (V @ x) - V @ (p @ x) - t * (V @ x)
    return float(np.linalg.norm(val) / np.linalg.norm(x))
