"""Analytic-vector diagnostics: the weighted series sum_k t^k/k! ||A^k xi||.

A vector is analytic for A when that series converges for every t > 0;
at finite truncation the verdict comes from a ratio test over the last
few terms.

One kernel, `power_log_norms`, does the linear algebra of every entry
point.  It takes a block of column vectors, applies A k_max times (never
forming matrix powers), and records log ||A^k x|| for every column at
every power.  Columns are rescaled to unit norm after each product, so
transiently huge terms cannot overflow.  The norms do not depend on t:
one pass over a block serves every t, and `analytic_series` and
`check_growth_bound` are the batch of one of `analytic_series_block` and
`growth_bound_block`.

Mode window.  A `Tridiagonal` moves a vector on modes <= M onto modes
<= M + 1, so k products of a block whose top mode is M never reach past
mode M + k.  The kernel cuts a `Tridiagonal` to its first M + k_max + 1
modes; the guard band dim >= M + k_max + 1 makes those values the
dim-dimensional ones, and the cost does not depend on dim.  A dense A is
applied whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, Tridiagonal, _operator_dim, sqrt_factorial
from .weyl import _taylor_sum

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


def _top_modes(block: np.ndarray) -> np.ndarray:
    """The highest nonzero row of each column, -1 for a zero column."""
    nonzero = block != 0
    return np.where(nonzero.any(axis=0), block.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0), -1)


def _column_block(state: FockState) -> np.ndarray:
    """The normalized coefficients of `state` as a one-column block."""
    return state.to_normalized().coeffs[:, None]


def power_log_norms(A: np.ndarray | Tridiagonal, block, k_max: int) -> np.ndarray:
    """log ||A^k x_j|| for k = 0..k_max and every column x_j of `block`, as
    a (k_max + 1) x n array; -inf from the power at which a column vanishes.

    The rows of `block` are the coefficients of modes 0, 1, ... and may
    be fewer than A's dim.  A `Tridiagonal` is cut to its first
    min(dim, rows + k_max) modes, so column j is exact at every power k
    with top_j + k < dim.  Raises SeriesOverflowError(k) at the first
    power whose norm is not finite.
    """
    dim = _operator_dim(A)
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] > dim:
        raise ValueError(f"expected a block of at most {dim} rows, got shape {block.shape}")
    window = min(dim, block.shape[0] + k_max) if isinstance(A, Tridiagonal) else dim
    if window < dim:
        A = Tridiagonal(A.lower[: window - 1], A.upper[: window - 1])
    V = np.zeros((window, block.shape[1]), dtype=complex)
    V[: block.shape[0]] = block
    log_norms = np.empty((k_max + 1, block.shape[1]))
    for k in range(k_max + 1):
        if k:
            V = A @ V
        nrm = np.linalg.norm(V, axis=0)
        if not np.all(np.isfinite(nrm)):
            raise SeriesOverflowError(k)
        with np.errstate(divide="ignore"):
            log_norms[k] = np.log(nrm)
        if k:
            log_norms[k] += log_norms[k - 1]
        V /= np.where(nrm > 0.0, nrm, 1.0)  # unit columns; the magnitude lives in log_norms
    return log_norms


def _series_reports(log_norms: np.ndarray, t: float, k_max: int) -> list[SeriesReport]:
    """One SeriesReport per column of a power_log_norms table at this t."""
    k = np.arange(k_max + 1)
    if t > 0:
        log_gamma = np.array([math.lgamma(i + 1) for i in k])
        log_terms = (k * math.log(t))[:, None] + log_norms - log_gamma[:, None]
    else:
        log_terms = np.full_like(log_norms, -np.inf)
    log_terms[0] = log_norms[0]
    overflow = np.flatnonzero((log_terms > 700.0).any(axis=1))  # exp would overflow double
    if overflow.size:
        raise SeriesOverflowError(int(overflow[0]))
    terms = np.exp(log_terms)
    partial_sums = np.cumsum(terms, axis=0)
    reports = []
    for j in range(terms.shape[1]):
        column = terms[:, j]
        defined = column[:-1] > 0.0
        ratios = (column[1:][defined] / column[:-1][defined]).tolist()
        verdict = _verdict(ratios)
        tail = None
        if verdict == "converged":
            rho = ratios[-1] if ratios else 0.0
            tail = float(column[-1]) * rho / (1.0 - rho) if rho < 1.0 else math.inf
        reports.append(SeriesReport(float(t), column.tolist(), partial_sums[:, j].tolist(), ratios,
                                    verdict, k_max, tail))
    return reports


def analytic_series_block(
    A: np.ndarray | Tridiagonal, block, ts, k_max: int = DEFAULT_K_MAX
) -> list[list[SeriesReport]]:
    """analytic_series for every column of `block` (normalized coefficients
    of modes 0, 1, ...) at every t in ts: reports[i][j] is column j at ts[i].

    One power_log_norms pass serves all of ts.  Requires every t >= 0,
    nonzero columns, and dim >= top + k_max + 1 for the block's top mode,
    so that every power seen by the test vectors is free of truncation
    effects.
    """
    dim = _operator_dim(A)
    if any(t < 0 for t in ts):
        raise ValueError("t must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    block = np.asarray(block)
    tops = _top_modes(block)
    if np.any(tops < 0):
        raise ValueError("xi must be a nonzero vector")
    top = int(tops.max())
    if top + k_max + 1 > dim:
        raise ValueError(
            f"guard band violated: need dim >= support + k_max + 1 = "
            f"{top + k_max + 1}, got dim={dim}"
        )
    log_norms = power_log_norms(A, block[: top + 1], k_max)
    return [_series_reports(log_norms, t, k_max) for t in ts]


def analytic_series(
    A: np.ndarray | Tridiagonal, xi: FockState, t: float, k_max: int = DEFAULT_K_MAX
) -> SeriesReport:
    """Evaluate terms t^k/k! ||A^k xi||: the batch of one of
    analytic_series_block.

    Requires t >= 0, a nonzero xi, and dim >= support + k_max + 1 so that
    every power seen by the test vector is free of truncation effects.
    """
    return analytic_series_block(A, _column_block(xi), (t,), k_max)[0][0]


def taylor_exp(A: np.ndarray | Tridiagonal, t: float, xi: FockState, k_max: int = DEFAULT_K_MAX) -> FockState:
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
    return FockState(_taylor_sum(A, xi.vector(_operator_dim(A)), k_max, t))


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


def growth_bound_block(q: np.ndarray | Tridiagonal, block, powers) -> tuple[np.ndarray, np.ndarray]:
    """(||q^k_j x_j||, B_j ||x_j||) for every column x_j of `block`
    (normalized coefficients of modes 0, 1, ...) at its own power k_j,
    with B_j the corrected_growth_bound of its support.

    One power_log_norms pass of max(powers) products; column j is read at
    power k_j."""
    dim = _operator_dim(q)
    block = np.asarray(block)
    powers = np.asarray(powers, dtype=int)
    if block.ndim != 2 or powers.shape != (block.shape[1],):
        raise ValueError(f"need one power per column, got {powers.shape} for a block of shape {block.shape}")
    tops = _top_modes(block)
    if np.any(tops < 0):
        raise ValueError("phi must be nonzero")
    factors = np.array([corrected_growth_bound(dim, int(M), int(k)) for M, k in zip(tops, powers)])
    log_norms = power_log_norms(q, block[: tops.max() + 1], int(powers.max()))
    return np.exp(log_norms[powers, np.arange(powers.size)]), factors * np.linalg.norm(block, axis=0)


def check_growth_bound(q: np.ndarray | Tridiagonal, phi: FockState, k: int) -> tuple[float, float]:
    """(||q^k phi||, bound * ||phi||) for the supplied vector, the batch of
    one of growth_bound_block; the first component never exceeds the
    second (up to rounding)."""
    lhs, bound = growth_bound_block(q, _column_block(phi), [k])
    return float(lhs[0]), float(bound[0])


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


def single_power_bound_report(q: np.ndarray | Tridiagonal, coeffs, m: int) -> SinglePowerBoundReport:
    """Evaluate ||q psi|| for psi = sum C_j psi_{m+j} (unnormalized basis)
    against the nominal bound sqrt(2) C sqrt((m+n+1)!).

    One power_log_norms pass of one product on the block whose columns
    are psi and then each term C_j psi_{m+j}."""
    dim = _operator_dim(q)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0 or not np.any(coeffs):
        raise ValueError("coefficients must be a nonzero 1-d sequence")
    n = coeffs.size - 1
    top = m + n
    if top + 2 > dim:
        raise ValueError("support plus one application exceeds dimension")
    terms = coeffs * np.array([sqrt_factorial(m + j) for j in range(n + 1)])
    block = np.zeros((top + 1, n + 2), dtype=complex)
    block[m:, 0] = terms
    block[m + np.arange(n + 1), 1 + np.arange(n + 1)] = terms
    norms = np.exp(power_log_norms(q, block, 1)[1])  # a zero term contributes exp(-inf) = 0
    c_max = float(np.max(np.abs(coeffs)))
    nominal = math.sqrt(2.0) * c_max * math.exp(0.5 * math.lgamma(top + 2))
    return SinglePowerBoundReport(float(norms[0]), float(np.sum(norms[1:])), nominal)
