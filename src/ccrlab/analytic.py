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
each column: in row order in a block of two or more columns, so a
column's values do not depend on the others, and pairwise in a block of
one.  The norms do not depend on t: one pass serves every t, and
`series_verdict_block` returns the verdicts of all columns at each t as
one array.  `analytic_series` and `check_growth_bound` are the batch of
one of `analytic_series_block` and `growth_bound_block`; the analytic
suite passes its 50 single-power samples to `single_power_bound_block`
as one block.

Mode window.  A `Band` whose lowest offset is -h moves a vector on
modes <= M onto modes <= M + h, so power k of a block whose top mode is
M lies on its first M + hk + 1 rows; the guard band dim >= M + k_max + 1
makes the values the dim-dimensional ones, at a cost free of dim.  Power
k of two or more columns runs on those rows alone, as the zero rows
below add nothing to a sum in row order; growth_bound_block stops each
column after its own power, keeping two columns.  A one-column block,
summed pairwise, runs on all M + h k_max + 1 rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import Band, FockState, _finite, _rows_cols, sqrt_factorial

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
    the first power whose norm is not finite."""
    return _stopped_log_norms(A, np.asarray(block), k_max, np.full(np.shape(block)[-1], k_max))


def _stopped_log_norms(A: Band, block: np.ndarray, k_max: int, stops: np.ndarray) -> np.ndarray:
    """power_log_norms(A, block, k_max), column j taken to power stops[j] (ascending) only and held there,
    with no overflow past it.  Power k runs on the rows it reaches and the columns left, never fewer than two."""
    if block.ndim != 2 or block.shape[0] > A.dim:
        raise ValueError(f"expected a block of at most {A.dim} rows, got shape {block.shape}")
    rows, n = block.shape
    window = _mode_window(A, rows, k_max)
    terms = [(k, d.astype(complex)[:, None]) for k, d in A.cut(window).diagonals.items()]  # each cast once
    terms = terms or [(0, np.zeros((window, 1)))]  # a zero diagonal stands in for a band of none
    firsts = np.minimum(np.searchsorted(stops, np.arange(k_max + 1)), max(n - 2, 0)).tolist()
    lives = [window] * (k_max + 1) if n == 1 else [_mode_window(A, rows, k) for k in range(k_max + 1)]
    flat = [np.zeros(max(b * (n - lo) for lo, b in zip(firsts, lives)), complex) for _ in range(3)]  # 2 blocks, scratch
    flat[0][: lives[0] * n].reshape(lives[0], n)[:rows] = block

    @functools.cache
    def views(odd: int, m: int, drop: int, a: int, b: int) -> tuple:
        """Per diagonal of A from modes < a to modes < b: entries, source, target, scratch; the blank rows; V; V^2."""
        src, V, T = (flat[i][: r * c].reshape(r, c) for i, r, c in ((1 - odd, a, m + drop), (odd, b, m), (2, b, m)))
        products = [(d[:size], src[cols, drop:], V[out], T[:size]) for k, d in terms
                    for size in [max(0, min(b - max(0, -k), a - max(0, k)))] for out, cols in [_rows_cols(k, size)]]
        out = _rows_cols(terms[0][0], len(products[0][0]))[0]  # one of the two blanks is empty
        return products, V[: out.start] if out.start else V[out.stop:], V, T

    norms = np.ones((k_max + 1, n))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf for a vanished column; nan after inf
        for k, (lo, live, last, before) in enumerate(zip(firsts, lives, firsts[:1] + firsts, lives[:1] + lives)):
            products, blank, x, sq = views(k % 2, n - lo, lo - last, before, live)
            if k:  # A V on the columns left, from the modes the last power reached to those this one reaches
                np.multiply(*products[0][:2], out=products[0][2])  # the first diagonal's products, the others added
                blank.fill(0.0)
                for d, src, out, tmp in products[1:]:
                    np.add(out, np.multiply(d, src, out=tmp), out=out)
            np.multiply(np.conjugate(x, out=sq), x, out=sq)  # np.linalg.norm(V, axis=0), the squares in place
            nrm = np.sqrt(np.add.reduce(sq.real, axis=0), out=norms[k, lo:])
            np.multiply(x, 1.0 / np.where(nrm > 0.0, nrm, 1.0), out=x)  # unit columns; one of norm 0 stays as it is
        norms[np.arange(k_max + 1)[:, None] > stops] = 1.0  # a column kept on past its stop, to keep two
        log_norms = np.log(norms, out=norms)  # log ||A^k x|| - log ||A^(k-1) x||, summed in order below
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

    One power_log_norms pass on the columns in order of power, each taken
    to its own power k_j, which alone can raise SeriesOverflowError."""
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
    order = np.argsort(powers, kind="stable")
    log_norms = _stopped_log_norms(q, block[: tops.max() + 1, order], int(powers.max()), powers[order])
    return np.exp(log_norms[powers, np.argsort(order)]), factors * np.linalg.norm(block, axis=0)


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
    are each sample's psi and then every sample's terms C_j psi_{m+j}: at
    least two columns, so each sample's values are those of its own block."""
    if not samples:
        return []
    coeffs = [np.asarray(c, dtype=complex) for c, _ in samples]
    sizes = np.array([c.size if c.ndim == 1 else 0 for c in coeffs])
    heads = np.cumsum(sizes) - sizes  # each sample's first coefficient in `flat`
    if not sizes.all() or not np.logical_or.reduceat((flat := np.concatenate(coeffs)) != 0, heads).all():
        raise ValueError("coefficients must be a nonzero 1-d sequence")
    tops = (starts := np.array([m for _, m in samples])) + sizes - 1
    if starts.min() < 0 or tops.max() + 2 > q.dim:
        raise ValueError("support plus one application exceeds dimension")
    sample = np.repeat(np.arange(sizes.size), sizes)  # the sample of each coefficient
    modes = starts[sample] + np.arange(flat.size) - heads[sample]
    terms = flat * np.array([sqrt_factorial(i) for i in range(tops.max() + 1)])[modes]
    block = np.zeros((tops.max() + 1, sizes.size + flat.size), dtype=complex)
    block[modes, sample] = block[modes, sizes.size + np.arange(flat.size)] = terms
    norms = np.exp(power_log_norms(q, block, 1)[1])  # a zero term contributes exp(-inf) = 0
    growth = np.array([math.exp(0.5 * math.lgamma(top + 2)) for top in range(tops.max() + 1)])[tops]
    nominals = math.sqrt(2.0) * np.maximum.reduceat(np.abs(flat), heads) * growth
    triangle = np.empty(sizes.size)
    for size in set(sizes.tolist()):  # np.sum of each sample's terms: a row of `size` terms sums as they do
        group = np.flatnonzero(sizes == size)
        triangle[group] = np.add.reduce(norms[sizes.size + heads[group, None] + np.arange(size)], axis=1)
    return [SinglePowerBoundReport(*values) for values in zip(
        norms[: sizes.size].tolist(), triangle.tolist(), nominals.tolist())]
