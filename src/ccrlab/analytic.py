"""Analytic-vector diagnostics: the weighted series sum_k t^k/k! ||A^k xi||.

A vector is analytic for A when that series converges for every t > 0;
at finite truncation the verdict comes from a ratio test over the last
few terms.  Powers are applied iteratively (never formed as explicit
matrix powers), with running log-magnitude so transiently huge terms
cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, _check_square

RATIO_CONVERGED = 0.9
RATIO_DIVERGING = 1.1
VERDICT_WINDOW = 5
DEFAULT_K_MAX = 60


class SeriesOverflowError(RuntimeError):
    """Raised when a series term overflows double precision."""

    def __init__(self, k: int):
        super().__init__(f"series term overflowed at k={k}")
        self.k = k


class ConvergenceError(RuntimeError):
    """Raised when an operation requires a converged series report."""


@dataclass(frozen=True)
class SeriesReport:
    """Diagnostics for sum_k t^k/k! ||A^k xi|| up to k_max.

    verdict: "converged" iff the last (up to 5) defined ratios are all
    below 0.9; "diverging" iff they are all above 1.1; else
    "inconclusive".
    """

    t: float
    terms: list[float]
    partial_sums: list[float]
    ratios: list[float]
    verdict: str
    k_max: int
    tail_estimate: float | None = None


def _verdict(ratios: list[float]) -> str:
    window = ratios[-VERDICT_WINDOW:]
    if window and all(r < RATIO_CONVERGED for r in window):
        return "converged"
    if window and all(r > RATIO_DIVERGING for r in window):
        return "diverging"
    return "inconclusive"


def analytic_series(A: np.ndarray, xi: FockState, t: float, k_max: int = DEFAULT_K_MAX) -> SeriesReport:
    """Evaluate terms t^k/k! ||A^k xi|| by iterated application.

    Requires t >= 0, a nonzero xi, and dim >= support + k_max + 1 so that
    every power seen by the test vector is free of truncation effects.
    """
    dim = _check_square(A)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if xi.support < 0:
        raise ValueError("xi must be a nonzero vector")
    if xi.support + k_max + 1 > dim:
        raise ValueError(
            f"guard band violated: need dim >= support + k_max + 1 = "
            f"{xi.support + k_max + 1}, got dim={dim}"
        )
    v = xi.vector(dim)
    log_t = math.log(t) if t > 0 else -math.inf

    log_norms = [math.log(np.linalg.norm(v))]  # log ||A^k xi||, -inf once zero
    for _ in range(k_max):
        if math.isinf(log_norms[-1]):
            log_norms.append(-math.inf)
            continue
        v = A @ v
        nrm = np.linalg.norm(v)
        if not np.isfinite(nrm):
            raise SeriesOverflowError(len(log_norms))
        if nrm == 0.0:
            log_norms.append(-math.inf)
            continue
        log_norms.append(log_norms[-1] + math.log(nrm))
        v = v / nrm  # keep unit scale; magnitude lives in log_norms

    terms = []
    for k, ln in enumerate(log_norms):
        if math.isinf(ln) or (k > 0 and math.isinf(log_t)):
            terms.append(0.0)
            continue
        log_term = k * log_t + ln - math.lgamma(k + 1) if k > 0 else ln
        if log_term > 700.0:  # exp would overflow double
            raise SeriesOverflowError(k)
        terms.append(math.exp(log_term))

    partial_sums = [float(s) for s in np.cumsum(terms)]
    ratios = [terms[k + 1] / terms[k] for k in range(len(terms) - 1) if terms[k] > 0.0]
    verdict = _verdict(ratios)

    tail = None
    if verdict == "converged":
        last = terms[-1]
        rho = ratios[-1] if ratios else 0.0
        tail = last * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return SeriesReport(
        t=float(t),
        terms=terms,
        partial_sums=partial_sums,
        ratios=ratios,
        verdict=verdict,
        k_max=k_max,
        tail_estimate=tail,
    )


def taylor_exp(A: np.ndarray, t: float, xi: FockState, k_max: int = DEFAULT_K_MAX) -> FockState:
    """sum_{k<=k_max} t^k/k! A^k xi, guarded by the series verdict.

    Refuses (ConvergenceError) unless analytic_series(A, |t|, xi, k_max)
    reports converged; the report, including its tail estimate, is
    attached to the error.
    """
    report = analytic_series(A, xi, abs(t), k_max)
    if report.verdict != "converged":
        err = ConvergenceError(
            f"series verdict is {report.verdict!r} at k_max={k_max}; "
            "refusing to evaluate the exponential"
        )
        err.report = report
        raise err
    dim = A.shape[0]
    w = xi.vector(dim)
    acc = w.copy()
    for k in range(1, k_max + 1):
        w = (t / k) * (A @ w)
        acc += w
    return FockState(acc)


def corrected_growth_bound(dim: int, mode_bound: int, k: int) -> float:
    """Bound factor B with ||q^k phi|| <= B ||phi|| for phi supported on
    modes <= mode_bound:  B = 2^{k/2} sqrt((M+k)!/M!).

    Each application of q = (a + a†)/sqrt2 raises the top mode by one and
    gains at most sqrt(2) sqrt(M+j+1), which telescopes to this factor.
    """
    if mode_bound < 0 or k < 0:
        raise ValueError("mode bound and power must be nonnegative")
    if mode_bound + k >= dim:
        raise ValueError(
            f"support {mode_bound} plus power {k} exceeds dimension {dim}"
        )
    log_b = 0.5 * (k * math.log(2.0) + math.lgamma(mode_bound + k + 1) - math.lgamma(mode_bound + 1))
    return math.exp(log_b)


def check_growth_bound(q: np.ndarray, phi: FockState, k: int) -> tuple[float, float]:
    """(||q^k phi||, bound * ||phi||) for the supplied vector; the first
    component never exceeds the second (up to rounding)."""
    dim = _check_square(q)
    M = phi.support
    if M < 0:
        raise ValueError("phi must be nonzero")
    bound = corrected_growth_bound(dim, M, k) * phi.norm()
    v = phi.vector(dim)
    for _ in range(k):
        v = q @ v
    return float(np.linalg.norm(v)), bound


@dataclass(frozen=True)
class SinglePowerBoundReport:
    """Empirical study of the one-application bound for psi supported on
    unnormalized-basis modes m..m+n with coefficient bound C.

    nominal_bound is sqrt(2) C sqrt((m+n+1)!); triangle_sum is the actual
    intermediate quantity sum_k ||C_k q psi_k|| that the bound claims to
    dominate.  needed_constant = triangle_sum / nominal_bound can exceed
    1 (by a factor bounded near 3.42 over all supports), which is why the
    bound is reported empirically instead of asserted.
    """

    direct_norm: float
    triangle_sum: float
    nominal_bound: float

    @property
    def needed_constant(self) -> float:
        return self.triangle_sum / self.nominal_bound


def single_power_bound_report(q: np.ndarray, coeffs, m: int) -> SinglePowerBoundReport:
    """Evaluate ||q psi|| for psi = sum C_j psi_{m+j} (unnormalized basis)
    against the nominal bound sqrt(2) C sqrt((m+n+1)!)."""
    dim = _check_square(q)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0 or not np.any(coeffs):
        raise ValueError("coefficients must be a nonzero 1-d sequence")
    n = coeffs.size - 1
    top = m + n
    if top + 2 > dim:
        raise ValueError("support plus one application exceeds dimension")
    full = np.zeros(top + 1, dtype=complex)
    full[m:] = coeffs
    psi = FockState(full, convention="unnormalized")
    v = psi.vector(dim)
    direct = float(np.linalg.norm(q @ v))
    triangle = 0.0
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        basis = np.zeros(top + 1, dtype=complex)
        basis[m + j] = c
        w = FockState(basis, convention="unnormalized").vector(dim)
        triangle += float(np.linalg.norm(q @ w))
    c_max = float(np.max(np.abs(coeffs)))
    nominal = math.sqrt(2.0) * c_max * math.exp(0.5 * math.lgamma(top + 2))
    return SinglePowerBoundReport(direct, triangle, nominal)
