"""Analytic-vector diagnostics: the weighted series sum_k t^k/k! ||A^k xi||.

A vector is analytic for A when that series converges for every t > 0;
at finite truncation the verdict comes from a ratio test over the last
few terms.

One kernel, `power_log_norms`, does the linear algebra of every entry
point.  It takes a block of column vectors, applies A k_max times (never
forming matrix powers), and records log ||A^k x|| for every column at
every power.  Columns are rescaled to unit norm after each product, so
transiently huge terms cannot overflow.  The column norms are the
operations np.linalg.norm(V, axis=0) runs, sqrt of the sum of |v|^2 down
each column.  In a block of two or more columns numpy sums each column in
row order, so a column's values do not depend on the others (a block of
one column is summed pairwise, and may differ in the last bit).  The
norms do not depend on t: one pass over a block serves
every t.  At each t the ratio-test verdicts of all columns are one
array, which `series_verdict_block` returns without building a
SeriesReport per column.  `analytic_series` and `check_growth_bound` are
the batch of one of `analytic_series_block` and `growth_bound_block`;
the analytic suite passes its 50 seeded single-power samples to
`single_power_bound_block` as one block.

Mode window.  A `Band` whose lowest offset is -h moves a vector on
modes <= M onto modes <= M + h, so k products of a block whose top mode
is M never reach past mode M + hk.  The kernel cuts A to its first
M + h k_max + 1 modes (M + k_max + 1 for q and p); the guard band
dim >= M + k_max + 1 makes those values the dim-dimensional ones, and
the cost does not depend on dim.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import Band, FockState, _finite, sqrt_factorial

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


class SeriesReport:
    """Diagnostics for sum_k t^k/k! ||A^k xi|| up to k_max.

    verdict: "converged" iff the last (up to 5) defined ratios are all
    below 0.9; "diverging" iff they are all above 1.1; else
    "inconclusive".
    """

    __slots__ = ("t", "terms", "partial_sums", "ratios", "verdict", "k_max", "tail_estimate")

    def __init__(self, t: float, terms: list[float], partial_sums: list[float], ratios: list[float],
                 verdict: str, k_max: int, tail_estimate: float | None = None):
        self.t, self.terms, self.partial_sums, self.ratios = t, terms, partial_sums, ratios
        self.verdict, self.k_max, self.tail_estimate = verdict, k_max, tail_estimate


def _top_modes(block: np.ndarray) -> np.ndarray:
    """The highest nonzero row of each column, -1 for a zero column."""
    nonzero = block != 0
    return np.where(nonzero.any(axis=0), block.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0), -1)


def _column_block(state: FockState) -> np.ndarray:
    """The normalized coefficients of `state` as a one-column block."""
    return state.to_normalized().coeffs[:, None]


def _mode_window(A: Band, rows: int, k_max: int) -> int:
    """The modes that k_max products with A reach from the first `rows`:
    rows + h k_max for a lowest offset -h, at most A.dim."""
    reach = max([0] + [-k for k in A.diagonals])  # the modes one product moves a vector up
    return min(A.dim, rows + reach * k_max)


def power_log_norms(A: Band, block, k_max: int) -> np.ndarray:
    """log ||A^k x_j|| for k = 0..k_max and every column x_j of `block`, as
    a (k_max + 1) x n array; -inf from the power at which a column vanishes.

    The rows of `block` are the coefficients of modes 0, 1, ... and may
    be fewer than A's dim.  A, with lowest offset -h, is cut to its first
    min(dim, rows + h k_max) modes, so for q and p column j is exact at
    every power k with top_j + k < dim.  Raises SeriesOverflowError(k) at
    the first power whose norm is not finite.
    """
    dim = A.dim
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] > dim:
        raise ValueError(f"expected a block of at most {dim} rows, got shape {block.shape}")
    window = _mode_window(A, block.shape[0], k_max)
    if window < dim:
        A = A.cut(window)
    A = Band._unchecked(window, {k: d.astype(complex) for k, d in A.diagonals.items()})  # cast once, not per product
    V = np.zeros((window, block.shape[1]), dtype=complex)
    V[: block.shape[0]] = block
    log_norms = np.empty((k_max + 1, block.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf for a vanished column; nan after inf
        for k in range(k_max + 1):
            if k:
                V = A @ V
            nrm = np.sqrt(np.add.reduce((V.conj() * V).real, axis=0))  # np.linalg.norm(V, axis=0)
            np.log(nrm, out=log_norms[k])  # log ||A^k x|| - log ||A^(k-1) x||, summed in order below
            np.divide(V, nrm, out=V, where=nrm > 0.0)  # unit columns; the magnitude lives in log_norms
    overflow = np.flatnonzero(~(log_norms < np.inf).all(axis=1))  # the powers with a norm inf or nan
    if overflow.size:
        raise SeriesOverflowError(int(overflow[0]))
    return np.cumsum(log_norms, axis=0, out=log_norms)


def _series_table(log_norms: np.ndarray, t: float, k_max: int) -> tuple[np.ndarray, ...]:
    """The terms t^k/k! ||A^k x_j|| of each column of a power_log_norms table at this t, the mask of the
    ratios terms[k + 1] / terms[k] that count (terms[k] > 0), the ratios (1 where not), and the columns'
    verdicts as one array, each read from the last VERDICT_WINDOW ratios that count."""
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
    defined = terms[:-1] > 0.0
    window = defined & (np.cumsum(defined[::-1], axis=0)[::-1] <= VERDICT_WINDOW)  # the last ratios that count
    ratios = np.divide(terms[1:], terms[:-1], out=np.ones_like(terms[1:]), where=defined)
    some = window.any(axis=0)
    converged = some & np.all(ratios < RATIO_CONVERGED, axis=0, where=window)
    diverging = some & np.all(ratios > RATIO_DIVERGING, axis=0, where=window)
    return terms, defined, ratios, np.where(converged, "converged", np.where(diverging, "diverging", "inconclusive"))


def _series_reports(log_norms: np.ndarray, t: float, k_max: int) -> list[SeriesReport]:
    """One SeriesReport per column of a power_log_norms table at this t."""
    terms, defined, ratios, verdicts = _series_table(log_norms, t, k_max)
    partial_sums = np.cumsum(terms, axis=0)
    reports = []
    for j, verdict in enumerate(verdicts.tolist()):
        counted = ratios[:, j][defined[:, j]].tolist()
        tail = float(terms[-1, j]) * counted[-1] / (1.0 - counted[-1]) if verdict == "converged" else None
        reports.append(SeriesReport(float(t), terms[:, j].tolist(), partial_sums[:, j].tolist(), counted,
                                    verdict, k_max, tail))
    return reports


def _guarded_log_norms(A: Band, block, ts, k_max: int) -> np.ndarray:
    """power_log_norms of `block` to k_max, under analytic_series_block's guards."""
    if any(t < 0 for t in ts):
        raise ValueError("t must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    block = np.asarray(block)
    tops = _top_modes(block)
    if np.any(tops < 0):
        raise ValueError("xi must be a nonzero vector")
    top = int(tops.max())
    if top + k_max + 1 > A.dim:
        raise ValueError(f"guard band violated: need dim >= support + k_max + 1 = {top + k_max + 1}, got dim={A.dim}")
    return power_log_norms(A, block[: top + 1], k_max)


def analytic_series_block(A: Band, block, ts, k_max: int = DEFAULT_K_MAX) -> list[list[SeriesReport]]:
    """analytic_series for every column of `block` (normalized coefficients
    of modes 0, 1, ...) at every t in ts: reports[i][j] is column j at ts[i].

    One power_log_norms pass serves all of ts.  Requires every t >= 0,
    nonzero columns, and dim >= top + k_max + 1 for the block's top mode,
    so that every power seen by the test vectors is free of truncation
    effects.
    """
    log_norms = _guarded_log_norms(A, block, ts, k_max)
    return [_series_reports(log_norms, t, k_max) for t in ts]


def series_verdict_block(A: Band, block, ts, k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """The verdicts of analytic_series_block(A, block, ts, k_max) as a len(ts) x n array, without its reports."""
    log_norms = _guarded_log_norms(A, block, ts, k_max)
    return np.array([_series_table(log_norms, t, k_max)[-1] for t in ts])


def analytic_series(A: Band, xi: FockState, t: float, k_max: int = DEFAULT_K_MAX) -> SeriesReport:
    """Evaluate terms t^k/k! ||A^k xi||: the batch of one of
    analytic_series_block.

    Requires t >= 0, a nonzero xi, and dim >= support + k_max + 1 so that
    every power seen by the test vector is free of truncation effects.
    """
    return analytic_series_block(A, _column_block(xi), (t,), k_max)[0][0]


def taylor_exp(A: Band, t: float, xi: FockState, k_max: int = DEFAULT_K_MAX) -> FockState:
    """sum_{k<=k_max} t^k/k! A^k xi, guarded by the series verdict.

    This truncated Taylor series is the one whose convergence the
    analytic-vector criterion studies; each term comes from the last by
    one product with A.  The sum runs on the mode window of the guard
    (top + k_max + 1 modes for q and p), which holds every term, and the
    result has A.dim coefficients.

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
    dim = A.dim
    coeffs = xi.to_normalized().coeffs[: xi.support + 1]
    window = _mode_window(A, coeffs.size, k_max)
    if window < dim:
        A = A.cut(window)
    term = np.zeros(window, dtype=complex)
    term[: coeffs.size] = coeffs
    acc = term.copy()
    for k in range(1, k_max + 1):
        term = (t / k) * (A @ term)
        acc += term
    out = np.zeros(dim, dtype=complex)
    out[:window] = _finite(acc)
    return FockState._unchecked(out)


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


def growth_bound_block(q: Band, block, powers) -> tuple[np.ndarray, np.ndarray]:
    """(||q^k_j x_j||, B_j ||x_j||) for every column x_j of `block`
    (normalized coefficients of modes 0, 1, ...) at its own power k_j,
    with B_j the corrected_growth_bound of its support.

    One power_log_norms pass of max(powers) products; column j is read at
    power k_j."""
    dim = q.dim
    block = np.asarray(block)
    powers = np.asarray(powers, dtype=int)
    if block.ndim != 2 or powers.shape != (block.shape[1],):
        raise ValueError(f"need one power per column, got {powers.shape} for a block of shape {block.shape}")
    tops = _top_modes(block)
    if np.any(tops < 0):
        raise ValueError("phi must be nonzero")
    pairs = list(zip(tops.tolist(), powers.tolist()))
    bounds = {pair: corrected_growth_bound(dim, *pair) for pair in dict.fromkeys(pairs)}  # once per (M, k)
    factors = np.array([bounds[pair] for pair in pairs])
    log_norms = power_log_norms(q, block[: tops.max() + 1], int(powers.max()))
    return np.exp(log_norms[powers, np.arange(powers.size)]), factors * np.linalg.norm(block, axis=0)


def check_growth_bound(q: Band, phi: FockState, k: int) -> tuple[float, float]:
    """(||q^k phi||, bound * ||phi||) for the supplied vector, the batch of
    one of growth_bound_block; the first component never exceeds the
    second (up to rounding)."""
    lhs, bound = growth_bound_block(q, _column_block(phi), [k])
    return float(lhs[0]), float(bound[0])


class SinglePowerBoundReport:
    """Empirical study of the one-application bound for psi supported on
    unnormalized-basis modes m..m+n with coefficient bound C.

    nominal_bound is sqrt(2) C sqrt((m+n+1)!); triangle_sum is the actual
    intermediate quantity sum_k ||C_k q psi_k|| that the bound claims to
    dominate.  needed_constant = triangle_sum / nominal_bound can exceed
    1, which is why the bound is reported empirically instead of asserted.
    On a given support unit-modulus coefficients maximize it: the triangle
    sum grows with each |C_j| and the nominal bound reads only C = max |C_j|.
    With unit coefficients it peaks at 1.263, at m = 0 and n = 3, over
    m <= 59 and n <= 39.
    """

    __slots__ = ("direct_norm", "triangle_sum", "nominal_bound")

    def __init__(self, direct_norm: float, triangle_sum: float, nominal_bound: float):
        self.direct_norm, self.triangle_sum, self.nominal_bound = direct_norm, triangle_sum, nominal_bound

    @property
    def needed_constant(self) -> float:
        return self.triangle_sum / self.nominal_bound


def single_power_bound_block(q: Band, samples) -> list[SinglePowerBoundReport]:
    """For every (coeffs, m) of samples, ||q psi|| for psi = sum C_j psi_{m+j}
    (unnormalized basis) against the nominal bound sqrt(2) C sqrt((m+n+1)!).

    One power_log_norms pass of one product on one block, whose columns
    are, sample by sample, psi and then each term C_j psi_{m+j}: at least
    two columns, so each sample's values are those of its own block."""
    starts, terms, nominals = [], [], []
    for coeffs, m in samples:
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0 or not np.any(coeffs):
            raise ValueError("coefficients must be a nonzero 1-d sequence")
        top = m + coeffs.size - 1
        if top + 2 > q.dim:
            raise ValueError("support plus one application exceeds dimension")
        starts.append(m)
        terms.append(coeffs * np.array([sqrt_factorial(m + j) for j in range(coeffs.size)]))
        nominals.append(math.sqrt(2.0) * float(np.max(np.abs(coeffs))) * math.exp(0.5 * math.lgamma(top + 2)))
    columns = np.cumsum([0] + [t.size + 1 for t in terms])  # the column of each psi, then its terms'
    block = np.zeros((max((m + t.size for m, t in zip(starts, terms)), default=0), columns[-1]), dtype=complex)
    for m, t, j in zip(starts, terms, columns):
        block[m: m + t.size, j] = t
        block[m + np.arange(t.size), j + 1 + np.arange(t.size)] = t
    norms = np.exp(power_log_norms(q, block, 1)[1])  # a zero term contributes exp(-inf) = 0
    return [SinglePowerBoundReport(float(norms[j]), float(np.sum(norms[j + 1: j + 1 + t.size])), nominal)
            for t, j, nominal in zip(terms, columns, nominals)]
