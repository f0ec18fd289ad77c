"""Named verification suites with machine-readable reports.

Each suite declares its checks as Check records: a name, the relation
tested, a measure and exactly one criterion.
  tolerance  pass when the measured value is at most the tolerance,
             which the report shows;
  holds      pass when a predicate holds on the measured value (the
             reported tolerance is null);
  verdict    the measure returns (measured, ok), for a verdict that needs
             more than the value it reports;
  flagged    reserved for documented-discrepancy findings: places where a
             tempting nominal constant or identity fails its own
             cross-check and a derived replacement is used instead.
             Flagged checks never fail a run.
Check.run is the one place that turns a measure into a CheckRecord: a
check that cannot be computed is recorded as failed without aborting the
run, and a non-finite measured value fails.  A suite function returns its
records unprefixed; run_suite names them "<suite>.<check>" under "all",
and records a suite whose set-up raises as one failed "<suite>.setup"
check.  Under "all" it may run the analytic and symbolic suites in a
forked worker (see run_suite), and a worker that dies fails each of them
as one such check.  A value that two checks of a suite share is computed
once per run, through the suite's _shared memo or, for the Gaussian's
residual and the Hermite rows, through schrodinger's own cache.

Randomized checks draw from the SplitMix64 stream seeded by the config,
so reports are byte-identical across runs up to the wall-time field.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import pickle
import sys
import threading
import time

import numpy as np

from . import analytic, fock, interval, schrodinger, symbolic, weyl
from .rng import SplitMix64

SUITES = ("fock", "analytic", "weyl", "schrodinger", "irregular", "symbolic")
SCHEMA_VERSION = 1

# Fock and weyl suites, the only ones that read dim: their dim when none is given.
_DEFAULT_DIM = 64
# Analytic suite: the t of its converged-share series, top mode of its random vectors, dim
# of its Taylor check (which bounds k_max).
_SERIES_TS = (0.5, 1.0, 2.0)
_ANALYTIC_TOP_MODE = 8
_TAYLOR_CHECK_DIM = 128
# Schrodinger suite: the oscillator levels it solves, the top mode of its Hermite functions.
_GRID_LEVELS, _GRID_TOP_MODE = 6, 8
# Weyl suite: the tolerance of its Weyl residual, which also bounds the
# tail of e^{itp} e^{isq} e_0 that the truncation must hold.
_WEYL_TOL = 1e-8
# Largest band length, 16 MiB per complex diagonal, and largest side of a
# dense square array (interval.MAX_DENSE_SIDE), each checked before any is
# allocated.  Each size with the least a run takes (and the message
# refusing less) and its largest, with the commands that build it: fock's
# band operators (dim), the grid oscillator's two parity blocks of side
# about m/2 (grid_m), the interval's N, two parity blocks on a centred
# interval and one real matrix of side m + 1 on any other (interval_m,
# after aligning t).  The weyl suite applies q and p on mode windows.
_MAX_BAND_DIM = 2**20
_SIZE_LIMITS = {
    "dim": (2, "invalid dimension {}: suites need dim >= 2", _MAX_BAND_DIM, "band length", {"fock"}),
    "grid_m": (8, "grid sample count must be at least 8", interval.MAX_DENSE_SIDE, "side of a dense array",
               {"schrodinger"}),
    "interval_m": (16, "interval sample count must be at least 16", interval.MAX_DENSE_SIDE,
                   "side of a dense array", {"irregular", "sweep"}),
}
# The irregular suite's contrast intervals (a, b, requested m), each aligned
# with the run's t: lengths 1, 5 and 20.
_CONTRAST_INTERVALS = ((-0.5, 0.5, 256), (-2.5, 2.5, 320), (-10.0, 10.0, 640))
# The tolerance of the irregular suite's closed-form wrap checks.
_CLOSED_FORM_TOL = 1e-8


def _least_k_max(t: float, top: int) -> int:
    """The least k_max at which the ratio test calls converged the series at
    t of every vector on modes <= top, for A = q or p.  A^i xi lies on modes
    <= top + i, and one more product gains at most sqrt(2 (top + i + 1))
    (the per-step factor of analytic.corrected_growth_bound), so term ratio
    i is at most r_i = t sqrt(2 (top + i + 1)) / (i + 1), which falls with i.
    The verdict reads ratios k_max - 5 .. k_max - 1: all are below 0.9 once
    r at k_max - 5 is."""
    i = 0
    while t * math.sqrt(2 * (top + i + 1)) / (i + 1) >= analytic.RATIO_CONVERGED:
        i += 1
    return i + analytic.VERDICT_WINDOW


# 20: from there random_finite_vectors_converged decides at every seed.
_LEAST_K_MAX = _least_k_max(max(_SERIES_TS), _ANALYTIC_TOP_MODE)


def _require_finite(name: str, *values: float) -> None:
    """ValueError naming the first non-finite value of the parameter name."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class RunConfig(fock._Frozen):
    """One run of a suite, of "all" or of a sweep, and its parameters, every
    default held by __init__; dim is read by the fock and weyl suites only.
    Valid by construction: __init__ runs the one gate of a run and raises
    ValueError on the first fault, a rule tied to a suite applying when the
    command runs it.  Frozen as fock._Frozen: no field can be assigned, and
    a pickle or copy is rebuilt through __init__, so it passes the gate again."""

    __slots__ = ("suite", "dim", "t", "s", "k_max", "grid_l", "grid_m", "scheme", "interval_a", "interval_b",
                 "interval_m", "seed", "fmt")

    def __init__(self, suite: str = "all", dim: int | None = None, t: float = 0.5, s: float = 0.5,
                 k_max: int = 40, grid_l: float = 10.0, grid_m: int = 256, scheme: str = schrodinger.SPECTRAL,
                 interval_a: float = 0.0, interval_b: float = 1.0, interval_m: int = 256, seed: int = 0,
                 fmt: str = "text"):
        fields = (suite, dim, t, s, k_max, grid_l, grid_m, scheme, interval_a, interval_b, interval_m, seed, fmt)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        if self.suite not in SUITES + ("all", "sweep"):
            raise ValueError(f"unknown suite {self.suite!r}")
        runs = self.suites()
        for name in ("t", "s", "grid_l", "interval_a", "interval_b"):
            _require_finite(name, getattr(self, name))
        for name, (least, too_few, limit, what, builders) in _SIZE_LIMITS.items():
            size = getattr(self, name)
            if size is not None and size < least:
                raise ValueError(too_few.format(size))
            if size is not None and size > limit and builders & {self.suite, *runs}:
                builder = "" if self.suite == "sweep" else f" the {self.suite} suite builds"
                raise ValueError(f"{name} {size} exceeds {limit}, the largest {what}{builder}")
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if "analytic" in runs and self.k_max >= _TAYLOR_CHECK_DIM:
            raise ValueError(f"k_max {self.k_max} exceeds {_TAYLOR_CHECK_DIM - 1}, the analytic suite's limit: "
                             f"its Taylor check runs at dim {_TAYLOR_CHECK_DIM}")
        if "analytic" in runs and self.k_max < _LEAST_K_MAX:
            raise ValueError(f"k_max {self.k_max} is below {_LEAST_K_MAX}, the least at which the analytic suite's "
                             f"ratio test decides: by the per-step growth bound, its last "
                             f"{analytic.VERDICT_WINDOW} term ratios at t={max(_SERIES_TS):g} on modes <= "
                             f"{_ANALYTIC_TOP_MODE} are below {analytic.RATIO_CONVERGED} from there")
        if "weyl" in runs:
            weyl.check_truncation(self.t, self.s, self.effective_dim(), _WEYL_TOL)
        if self.grid_l <= 0:
            raise ValueError("grid half-width must be positive")
        if not math.isfinite(self.grid_l * self.grid_l):
            raise ValueError(f"grid half-width {self.grid_l!r} has no finite square: x^2 overflows on the grid")
        if self.scheme not in (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if "schrodinger" in runs:
            schrodinger.check_resolution(self.grid_l, self.grid_m, self.scheme, _GRID_LEVELS, _GRID_TOP_MODE)
        if not self.interval_b > self.interval_a:
            raise ValueError("interval needs b > a")
        if "irregular" in runs:
            for a, b, m in ((self.interval_a, self.interval_b, self.interval_m),) + _CONTRAST_INTERVALS:
                if not 0 < self.t < b - a:  # U_t shifts by t within the interval
                    raise ValueError(f"t={self.t} is outside 0 < t < {b - a}, the length of the interval "
                                     f"({a}, {b}) that the {self.suite} suite builds")
                interval.IntervalRepSpec(a, b, m)  # the interval is a grid before s and t are read on it
                # the points x round by up to u max|x|, u = 2^-53: the phase s x by |s| times that,
                # the smooth psi e^{-(x - c)^2} by at most that, both within the closed-form tolerance
                rounding = 2.0**-53 * max(abs(a), abs(b)) * max(abs(self.s), 1.0)
                if rounding > _CLOSED_FORM_TOL:
                    raise ValueError(f"s={self.s!r} on the interval ({a}, {b}) that the {self.suite} suite builds: "
                                     f"the phase s*x and the smooth psi's x - c round by up to {rounding:.3g}, "
                                     f"above {_CLOSED_FORM_TOL:g}, the tolerance of its closed-form checks")
                interval.aligned_spec(a, b, self.t, m)
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if not 0 <= self.seed < 2**64:  # SplitMix64 reads the seed mod 2^64
            raise ValueError(f"seed {self.seed} is outside 0 <= seed < 2^64")

    def suites(self) -> tuple[str, ...]:
        """The suites this command runs: every suite for "all", none for a sweep."""
        return SUITES if self.suite == "all" else () if self.suite == "sweep" else (self.suite,)

    def effective_dim(self) -> int:
        """The truncation of the fock and weyl suites."""
        return self.dim if self.dim is not None else _DEFAULT_DIM

    def echo(self) -> dict:
        """The fields, in their declared order."""
        return {name: getattr(self, name) for name in self.__slots__}


class CheckRecord:
    __slots__ = ("name", "relation", "status", "measured", "tolerance", "detail")

    def __init__(self, name: str, relation: str, status: str, measured: object,
                 tolerance: float | None = None, detail: str | None = None):
        self.name, self.relation, self.measured = name, relation, measured
        self.status = status  # pass | fail | flagged
        self.tolerance, self.detail = tolerance, detail


class Report:
    __slots__ = ("suite", "config", "checks", "wall_time_s")

    def __init__(self, suite: str, config: dict, checks: list[CheckRecord] | None = None, wall_time_s: float = 0.0):
        self.suite, self.config, self.wall_time_s = suite, config, wall_time_s
        self.checks = [] if checks is None else checks

    @property
    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "checks": [{name: getattr(c, name) for name in CheckRecord.__slots__} for c in self.checks],
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        rows = [[c.name, c.relation, c.status, c.measured, c.tolerance] for c in self.checks]
        return _csv(["name", "relation", "status", "measured", "tolerance"], rows)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            measured = f"{c.measured:.6g}" if isinstance(c.measured, float) else str(c.measured)
            measured = "n/a" if c.measured is None else measured
            tol = f" (tol {c.tolerance:g})" if c.tolerance is not None else ""
            lines.append(f"[{c.status.upper():7s}] {c.name}: {measured}{tol}  |  {c.relation}")
            if c.detail:
                lines.append(f"          note: {c.detail}")
        n_fail = len(self.failed)
        n_flag = sum(1 for c in self.checks if c.status == "flagged")
        lines.append(
            f"{len(self.checks)} checks: {len(self.checks) - n_fail - n_flag} passed, "
            f"{n_fail} failed, {n_flag} flagged  ({self.wall_time_s:.2f}s)"
        )
        return "\n".join(lines) + "\n"


# The one list of format names, each with its renderer.
FORMATS = {"json": Report.to_json, "csv": Report.to_csv, "text": Report.to_text}


def _csv(header: list, rows) -> str:
    """The one CSV writer: floats as repr, None as an empty field, the
    rest as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class Check:
    """One declared check: a name, the relation it tests, a measure taking no
    arguments, and exactly one criterion (see the module docstring)."""

    __slots__ = ("name", "relation", "measure", "tolerance", "holds", "verdict", "flagged", "detail")

    def __init__(self, name: str, relation: str, measure, *, tolerance: float | None = None, holds=None,
                 verdict: bool = False, flagged: bool = False, detail: str | None = None):
        if (tolerance is not None) + (holds is not None) + bool(verdict) + bool(flagged) != 1:
            raise ValueError(f"check {name!r} needs exactly one of tolerance, holds, verdict and flagged")
        self.name, self.relation, self.measure, self.detail = name, relation, measure, detail
        self.tolerance, self.holds, self.verdict, self.flagged = tolerance, holds, verdict, flagged

    def run(self) -> CheckRecord:
        """The record of this check; an exception inside it marks it failed
        and the run continues."""
        try:
            measured = self.measure()
            if self.verdict:
                measured, ok = measured
            elif self.holds is not None:
                ok = self.holds(measured)
            else:
                ok = self.flagged or measured <= self.tolerance
        except Exception as exc:  # noqa: BLE001 - a failed check must not kill the run
            detail = f"{type(exc).__name__}: {exc}"
            return CheckRecord(self.name, self.relation, "fail", None, self.tolerance, detail)
        if isinstance(measured, (np.floating, np.integer)):
            measured = measured.item()
        status = "flagged" if self.flagged else ("pass" if ok else "fail")
        if isinstance(measured, float) and not math.isfinite(measured):
            measured, status = repr(measured), "fail"
        return CheckRecord(self.name, self.relation, status, measured, self.tolerance, self.detail)


def _shared():
    """A memo for one suite run: shared(fn, *args) is fn(*args), computed on
    the first call with these arguments, for values that two checks share."""
    return functools.cache(lambda fn, *args: fn(*args))


# ---------------------------------------------------------------------------
# seeded sampling helpers


def _random_coefficients(gen: SplitMix64, max_mode: int) -> np.ndarray:
    """Components of modes 0..max_mode uniform on the complex square
    [-1, 1]^2; e_0 if every draw is zero."""
    return _e0_if_zero(gen.complex_components(max_mode + 1))


def _e0_if_zero(block: np.ndarray) -> np.ndarray:
    """block, a vector or the columns of a 2-d block, with e_0 in place of each zero vector."""
    block[0] = np.where(block.any(axis=0), block[0], 1.0)
    return block


def random_fock_state(gen: SplitMix64, max_mode: int) -> fock.FockState:
    """Random finite vector supported on modes 0..max_mode, components
    uniform on the complex square [-1, 1]^2."""
    return fock.FockState(_random_coefficients(gen, max_mode))


_WORD_LETTERS = ("a", "ad", "q", "p", "I")
_WORD_COEFFS = ("1", "-1", "2", "i", "1/2", "sqrt2", "-i")


def random_word_source(gen: SplitMix64, max_len: int = 6) -> str:
    """Seeded random operator word as parser source text."""
    length = gen.randint(1, max_len)
    letters = [_WORD_LETTERS[gen.randint(0, 3)] for _ in range(length)]
    if gen.randint(0, 4) == 0:
        letters[gen.randint(0, length - 1)] = "I"
    coeff = _WORD_COEFFS[gen.randint(0, len(_WORD_COEFFS) - 1)]
    return f"({coeff}) * " + " * ".join(letters)


def _max_entry(band: fock.Band) -> float:
    """max |M_ij| over the entries of a band."""
    return max((float(np.abs(d).max()) for d in band.diagonals.values() if d.size), default=0.0)


def _diagonal_defect(band: fock.Band, want: np.ndarray) -> float:
    """max |M - diag(want)| over the entries: the diagonal against want and
    every other diagonal against 0."""
    return _max_entry(band - fock.Band(band.dim, {0: want}))


def _column_norms2(band: fock.Band) -> np.ndarray:
    """||M e_n||^2 for every n: the diagonal of M† M."""
    return (band.adjoint() @ band).diagonals[0].real


# ---------------------------------------------------------------------------
# suites


def fock_suite(config: RunConfig) -> list[CheckRecord]:
    d = config.effective_dim()
    # every operator checked here is a band of offsets -2..2: each check reads its diagonals
    q, p = fock.Band.position(d), fock.Band.momentum(d)
    a, ad = fock.Band.annihilator(d), fock.Band.creator(d)
    identity = fock.Band(d, {0: np.ones(d)})
    ccr = lambda: p @ q - q @ p
    ladder = lambda: a @ ad - ad @ a

    def rounded(tolerance: float, c: int) -> float:
        """max(tolerance, c d u), u = 2^-53: c d u bounds the rounding of a
        check whose entries grow like d.  s_n = fl(sqrt n) and the ladder
        off-diagonal o_n = fl(s_n fl(1/sqrt2)) carry relative errors u and
        3u, so t_n = fl(s_n^2) is within 3u n of n and r_n = fl(o_n^2)
        within 7u n/2 of n/2.  Every other step is exact (a subtraction of
        floats within a factor 2, a doubling, a product with +-i) but the
        sum r_n + r_{n+1} in q^2 + p^2."""
        return max(tolerance, c * d * 2.0**-53)

    def eigvec_residual():
        # ||N e_n - N_nn e_n|| is the norm of column n of N off its diagonal
        N = ad @ a
        off = N - fock.Band(d, {0: N.diagonals[0]})
        return float(np.sqrt(_column_norms2(off).max()))

    def unnormalized_norm2(n: int) -> float:
        psi = fock.FockState.basis_state(n, fock.UNNORMALIZED)
        return fock.inner_product(psi, psi)

    def round_trip():
        gen = SplitMix64(config.seed)
        worst = 0.0
        for _ in range(20):
            x = random_fock_state(gen, 20)
            back = x.to_unnormalized().to_normalized()
            worst = max(worst, float(np.abs(back.coeffs - x.coeffs).max()))
        return worst

    checks = [
        Check("ccr_block_identity",
              "[p,q] = -i*I off the top mode",
              lambda: _max_entry((ccr() + 1j * identity).cut(d - 1)),
              tolerance=rounded(1e-12, 14)),  # 2(r_n - r_{n+1}) + 1, n <= d - 2: 7u(2n + 1)
        Check("ccr_artifact_entry",
              "[p,q][d-1,d-1] = i*(d-1) (truncation artifact)",
              lambda: float(abs(ccr().diagonals[0][d - 1] - 1j * (d - 1))),
              tolerance=rounded(1e-10, 7)),  # 2 r_{d-1} against d - 1
        Check("ladder_commutator_block",
              "[a, a†] = I off the top mode",
              lambda: _max_entry((ladder() - identity).cut(d - 1)),
              tolerance=rounded(1e-12, 6)),  # t_{n+1} - t_n - 1, n <= d - 2: 3u(2n + 1)
        Check("ladder_artifact_entry",
              "[a, a†][d-1,d-1] = -(d-1)",
              lambda: float(abs(ladder().diagonals[0][d - 1] + (d - 1))),
              tolerance=rounded(1e-10, 3)),  # t_{d-1} against d - 1
        # N and q^2 + p^2 are diagonal, so their spectra are their diagonals: each
        # measured value includes every off-diagonal entry, which must vanish
        Check("number_spectrum_integers",
              "spectrum of N = a†a is {0, ..., d-1}",
              lambda: _diagonal_defect(ad @ a, np.arange(d)),
              tolerance=rounded(1e-12, 3)),  # t_n against n
        Check("number_eigenvector_residual", "N psi_alpha = alpha psi_alpha", eigvec_residual, tolerance=1e-12),
        Check("oscillator_spectrum",
              "spec(q^2+p^2) = {2n+1 : n <= d-2} plus artifact value d-1",
              lambda: _diagonal_defect(q @ q + p @ p, np.append(2 * np.arange(d - 1) + 1.0, d - 1)),
              # 2 fl(r_n + r_{n+1}) against 2n + 1: 16u(n + 1/2); the +-2 diagonals cancel exactly
              tolerance=rounded(1e-10, 16)),
        Check("hermiticity",
              "q, p, N, q^2+p^2 Hermitian",
              lambda: max(_max_entry(B - B.adjoint()) for B in (q, p, ad @ a, q @ q + p @ p)),
              tolerance=1e-13),
        Check("annihilator_column_norms",
              "||a e_n||^2 = n",
              lambda: float(np.abs(_column_norms2(a) - np.arange(d)).max()),
              tolerance=rounded(1e-12, 3)),  # t_n against n
        Check("creator_column_norms",
              "||a† e_n||^2 = n+1 below the top mode",
              lambda: float(np.abs(_column_norms2(ad)[: d - 1] - np.arange(1, d)).max()),
              tolerance=rounded(1e-12, 3)),  # t_{n+1} against n + 1
        Check("vacuum_norm", "<psi_0, psi_0> = 1", lambda: abs(unnormalized_norm2(0) - 1.0), tolerance=1e-14),
        Check("unnormalized_norm_n3", "<psi_3, psi_3> = 3! = 6", lambda: abs(unnormalized_norm2(3) - 6.0),
              tolerance=1e-12),
        Check("convention_round_trip",
              "coeff_unnormalized(n) * sqrt(n!) = coeff_normalized(n), modes <= 20",
              round_trip,
              tolerance=1e-14),
    ]
    return [check.run() for check in checks]


def analytic_suite(config: RunConfig) -> list[CheckRecord]:
    """Series and growth-bound checks of q and p on finite vectors.  It reads
    no dim: q and p hold the modes the checks reach, verdict_stable runs e_0
    up to k_max + 20 powers and every other series or bound stays within
    k_max + 9 or 21 modes, so the values are those of the untruncated q, p."""
    k_max = config.k_max
    q, p = fock.Band.position(k_max + 21), fock.Band.momentum(k_max + 21)

    def converged_share():
        # 50 seeded vectors, one draw, as the columns of one block; one pass per operator serves every t
        draws = SplitMix64(config.seed).complex_components(50 * (_ANALYTIC_TOP_MODE + 1))
        block = _e0_if_zero(draws.reshape(50, _ANALYTIC_TOP_MODE + 1).T.copy())
        verdicts = [
            rep.verdict
            for op in (q, p)
            for reports in analytic.analytic_series_block(op, block, _SERIES_TS, k_max)
            for rep in reports
        ]
        return verdicts.count("converged") / len(verdicts)

    def growth_ratio():
        # 1000 seeded (support, power, vector) draws as the columns of one block
        block, (_, powers) = SplitMix64(config.seed + 1).ragged_components(1000, (8, 12), 0)
        lhs, bound = analytic.growth_bound_block(q, _e0_if_zero(block), powers)
        return float(np.max(lhs / bound))

    def taylor_vs_expm():
        dim = _TAYLOR_CHECK_DIM
        e0 = fock.FockState.basis_state(0)
        got = analytic.taylor_exp(1j * fock.Band.momentum(dim), 1.0, e0, max(k_max, 60))
        # closed form: the coherent state e^{-1/4} sum_n (-1/sqrt2)^n / sqrt(n!) e_n
        want = [math.exp(-0.25) * (-math.sqrt(0.5)) ** n / fock.sqrt_factorial(n) for n in range(dim)]
        return float(np.linalg.norm(got.coeffs - np.array(want)))

    def diagonal_case():
        n_op = fock.Band.creator(64) @ fock.Band.annihilator(64)
        out = analytic.taylor_exp(n_op, 0.3, fock.FockState.basis_state(2), 40)
        return float(abs(out.coeffs[2] - math.exp(0.6)))

    def t_zero():
        rep = analytic.analytic_series(q, fock.FockState.basis_state(1), 0.0, k_max)
        ok = rep.verdict == "converged" and all(x == 0.0 for x in rep.terms[1:])
        return (rep.terms[0], ok)

    def smallest_step():
        gen = SplitMix64(config.seed + 2)
        xi = random_fock_state(gen, 6)
        rep = analytic.analytic_series(q, xi, 1.5, k_max)
        return float(np.diff(rep.partial_sums).min())

    def verdict_stable():
        xi = fock.FockState.basis_state(0)
        r1 = analytic.analytic_series(q, xi, 1.0, k_max)
        r2 = analytic.analytic_series(q, xi, 1.0, k_max + 20)
        ok = r1.verdict == "converged" and r2.verdict == "converged"
        return (r2.verdict, ok)

    def needed_constant():
        # 50 seeded (start mode m, top offset n, components) draws, e_0 for zero components, as one batch
        block, (starts, tops) = SplitMix64(config.seed + 3).ragged_components(50, (5, 5), 1)
        block = _e0_if_zero(block)
        samples = [(block[: n + 1, j], int(m)) for j, (m, n) in enumerate(zip(starts, tops))]
        return max(rep.needed_constant for rep in analytic.single_power_bound_block(q, samples))

    def geometric_bound_breakdown():
        e0 = fock.FockState.basis_state(0)
        for k in range(1, 20):
            lhs, _ = analytic.check_growth_bound(q, e0, k)
            if lhs > (2.0 * 1.0) ** (k / 2.0):  # nominal bound with m=n=0, C=1
                return k
        return 0

    checks = [
        Check("random_finite_vectors_converged",
              "sum t^k/k! ||A^k xi|| converges for finite vectors, A in {q, p}",
              converged_share,
              holds=lambda share: share == 1.0),
        Check("growth_bound_property",
              "||q^k phi|| <= 2^{k/2} sqrt((M+k)!/M!) ||phi|| for support M",
              growth_ratio,
              holds=lambda worst: worst <= 1.0 + 1e-12),
        Check("taylor_exp_vs_expm",
              "Taylor-series e^{ip} e_0 matches the closed-form coherent state",
              taylor_vs_expm,
              tolerance=1e-8),
        Check("taylor_exp_diagonal", "e^{tN} e_2 = e^{2t} e_2", diagonal_case, tolerance=1e-12),
        Check("t_zero_series", "t = 0 leaves only the k = 0 term", t_zero, verdict=True),
        Check("partial_sums_monotone", "partial sums nondecreasing", smallest_step, holds=lambda step: step >= -1e-15),
        Check("verdict_stable_under_kmax", "converged stays converged as k_max grows", verdict_stable, verdict=True),
        Check("single_power_bound_constant",
              "sum_k ||C_k q psi_k|| vs sqrt(2) C sqrt((m+n+1)!)",
              needed_constant,
              flagged=True,
              detail=(
                  "the triangle-inequality step needs an extra constant (empirical max "
                  "reported; bounded near 3.42 over all supports), so the single-power "
                  "bound is reported, not asserted"
              )),
        Check("iterated_power_bound_breakdown",
              "geometric-in-k bound (2(m+n+1)!)^{k/2} vs actual ||q^k psi_0||",
              geometric_bound_breakdown,
              flagged=True,
              detail=(
                  "||q^k psi|| grows like sqrt((M+k)!), so the geometric bound fails from "
                  "the reported k on; series convergence is asserted via the corrected "
                  "per-step bound instead"
              )),
    ]
    return [check.run() for check in checks]


def weyl_suite(config: RunConfig) -> list[CheckRecord]:
    d = config.effective_dim()
    t, s = config.t, config.s
    shared = _shared()
    # four seeded vectors on modes 0..7 (fewer at d < 8) for the unitarity and inverse checks
    gen = SplitMix64(config.seed + 4)
    block = np.column_stack([_random_coefficients(gen, min(d, 8) - 1) for _ in range(4)])

    def zero_case():
        got = weyl.expm_multiply(fock.Band(8, {0: np.zeros(8)}), np.eye(8))
        return float(np.abs(got - np.eye(8)).max())

    def diag_case():
        theta = np.arange(1, 7) * 0.3
        got = weyl.expm_multiply(fock.Band(6, {0: 1j * theta}), np.eye(6))
        return float(np.abs(got - np.diag(np.exp(1j * theta))).max())

    def halving():
        small = shared(weyl.weyl_residual, t, s, max(d // 4, 8)).residual
        big = shared(weyl.weyl_residual, t, s, d).residual
        return (big, big <= small / 2.0 or big < 1e-10)

    def phases():
        # uv - e^{-ist} vu = (uv - e^{ist} vu) + 2i sin(st) vu, and ||vu|| = ||xi||: the
        # minus phase is 2|sin(st)| to within the plus phase, so both phases vanish at st in pi Z
        rec = shared(weyl.weyl_residual, t, s, d)
        plus, minus = rec.residual, rec.minus_residual
        ok = plus <= _WEYL_TOL and abs(minus - 2.0 * abs(math.sin(s * t))) <= plus + _WEYL_TOL
        return (minus, ok)

    def group_law():
        x, _, p = weyl._on_window(fock.FockState.basis_state(0), d, 1.3 / math.sqrt(2))
        U = lambda c, v: weyl.expm_multiply(1j * c * p, v)
        return float(np.linalg.norm(U(0.4, U(0.9, x)) - U(1.3, x)))

    checks = [
        Check("expm_zero", "expm(0) = I", zero_case, tolerance=1e-15),
        Check("expm_diagonal", "expm(diag(i theta)) = diag(e^{i theta})", diag_case, tolerance=1e-13),
        Check("expm_unitary_U",
              "U_t = e^{itp} unitary",
              lambda: weyl.unitarity_defect(t, "p", block, d),
              tolerance=1e-11),
        Check("expm_unitary_V",
              "V_s = e^{isq} unitary",
              lambda: weyl.unitarity_defect(s, "q", block, d),
              tolerance=1e-11),
        Check("expm_inverse_product",
              "e^{itp} e^{-itp} = I",
              lambda: weyl.inverse_product_defect(0.7, "p", block, d),
              tolerance=1e-11),
        Check("weyl_residual",
              "U_t V_s = e^{ist} V_s U_t on a low-mode vector",
              lambda: shared(weyl.weyl_residual, t, s, d).residual,
              tolerance=_WEYL_TOL),
        Check("weyl_zero_t",
              "t = 0 makes both sides V_s",
              lambda: weyl.weyl_residual(0.0, s, d).residual,
              tolerance=1e-12),
        Check("residual_dim_halving", "residual halves from dim/4 to dim (or is < 1e-10)", halving, verdict=True),
        Check("phase_convention", "exactly the phase e^{ist} vanishes under [p,q] = -i", phases, verdict=True),
        Check("group_law", "U_{t1} U_{t2} = U_{t1+t2}", group_law, tolerance=1e-10),
        *(
            Check(f"shift_identity_n{n}",
                  "e^{-itq} p^n e^{itq} = (p + tI)^n",
                  lambda n=n: weyl.shift_identity_residual(t, n, d),
                  tolerance=1e-7)
            for n in (1, 2, 3)
        ),
        Check("exp_commutator_residual",
              "p e^{itq} - e^{itq} p = t e^{itq}",
              lambda: shared(weyl.exp_commutator_residual, t, d),
              tolerance=1e-8),
        Check("exp_commutator_taylor",
              "Taylor coefficients of p e^{itq} - e^{itq} p and t e^{itq} match to order 8",
              lambda: (8, all(rec.equal for rec in symbolic.exp_commutator_series(8))),
              verdict=True),
        Check("exp_commutator_form_repaired",
              "commutation identity for exponentials holds in corrected form",
              lambda: shared(weyl.exp_commutator_residual, t, d),
              flagged=True,
              detail=(
                  "the identity is verified as p e^{itq} - e^{itq} p = t e^{itq}; the "
                  "uncorrected statement mixes the two exponent parameters and fails "
                  "its own Taylor expansion, so it was repaired before checking"
              )),
    ]
    return [check.run() for check in checks]


def schrodinger_suite(config: RunConfig) -> list[CheckRecord]:
    """Grid-representation checks.

    Tolerances are stated for the spectral scheme; the second-order
    central-difference cross-check runs against correspondingly wider
    accuracy classes (valid for m >= 256 at L = 10).
    """
    L, m, scheme = config.grid_l, config.grid_m, config.scheme
    spectral = scheme == schrodinger.SPECTRAL
    vac_tol = 1e-6 if spectral else 1e-2
    osc_tol = 1e-4 if spectral else 0.1
    gap_tol = 1e-3 if spectral else 0.1
    eig_tol = 1e-4 if spectral else 0.5
    shared = _shared()  # schrodinger caches the Gaussian's residual and the Hermite rows itself
    vacuum_signs = lambda: schrodinger.vacuum_sign_check(L, m, scheme)
    vacuum = lambda: schrodinger.vacuum_annihilation_residual(L, m, scheme)
    intertwiner = lambda: shared(schrodinger.intertwiner_check, L, m, _GRID_TOP_MODE)
    levels = lambda: shared(schrodinger.grid_oscillator_spectrum, L, m, scheme, _GRID_LEVELS)

    def plane_wave():
        k = 8 * np.pi / (2 * L)  # grid-resolved wavenumber
        f = np.exp(1j * k * schrodinger.grid_points(-L, L, m))
        return float(np.linalg.norm(schrodinger.grid_momentum(f, -L, L) - k * f) / np.linalg.norm(f))

    def constant():
        return float(np.abs(schrodinger.grid_momentum(np.ones(m, dtype=complex), -L, L)).max())

    def sine():
        x = schrodinger.grid_points(-np.pi, np.pi, 64)
        pf = schrodinger.grid_momentum(np.sin(x).astype(complex), -np.pi, np.pi)
        return float(np.abs(pf + 1j * np.cos(x)).max())

    def number_eigen():
        x2 = schrodinger.grid_points(-L, L, m) ** 2
        worst = 0.0
        h = schrodinger._grid_step(-L, L, m)
        for n, b in enumerate(schrodinger.hermite_basis(L, m, _GRID_TOP_MODE)):
            n_b = (x2 * b + schrodinger.grid_kinetic(b, -L, L, scheme) - b) / 2.0
            worst = max(worst, math.sqrt(h) * float(np.linalg.norm(n_b - n * b)))
        return worst

    def grid_ccr():
        x = schrodinger.grid_points(-L, L, m)
        v = (1.0 + x + 0.5 * x**2) * np.exp(-x * x / 2.0)
        v = v.astype(complex) / np.linalg.norm(v)
        comm = schrodinger.grid_momentum(x * v, -L, L) - x * schrodinger.grid_momentum(v, -L, L)
        return float(np.linalg.norm(comm + 1j * v))

    def refinement():
        r1, r2 = vacuum(), schrodinger.vacuum_annihilation_residual(L, 2 * m, scheme)
        i1, i2 = intertwiner(), schrodinger.intertwiner_check(L, 2 * m, _GRID_TOP_MODE)
        ok = (r2 <= r1 or r2 < 1e-10) and (i2 <= i1 or i2 < 1e-10)
        return (max(r2, i2), ok)

    checks = [
        Check("vacuum_residual",
              "(q + ip)/sqrt2 annihilates e^{-x^2/2}",
              vacuum,
              tolerance=vac_tol),
        Check("vacuum_opposite_sign",
              "(q - ip)/sqrt2 does not annihilate the Gaussian",
              lambda: vacuum_signs()["minus_residual"],
              holds=lambda r: r > 0.5),
        Check("vacuum_sign_resolved",
              "resolved ladder sign convention (measured, not assumed)",
              lambda: vacuum_signs()["annihilating_sign"],
              holds=lambda sign: sign == "+",
              detail="the lowering operator is defined as the sign that annihilates the Gaussian"),
        Check("momentum_plane_wave", "p e^{ikx} = k e^{ikx} for resolved k", plane_wave, tolerance=1e-10),
        Check("momentum_constant", "p applied to a constant vanishes", constant, tolerance=1e-12),
        Check("momentum_sine", "p sin = -i cos on [-pi, pi)", sine, tolerance=1e-10),
        Check("oscillator_spectrum_first6",
              "spec(q^2+p^2) = {1,3,5,7,9,11}",
              lambda: float(np.abs(levels() - np.arange(1, 13, 2)).max()),
              tolerance=osc_tol),
        Check("oscillator_gaps",
              "consecutive oscillator gaps = 2",
              lambda: float(np.abs(np.diff(levels()) - 2.0).max()),
              tolerance=gap_tol),
        Check("oscillator_positive",
              "q^2 + p^2 is positive semidefinite",
              lambda: float(levels()[0]),
              holds=lambda low: low >= -1e-10),
        Check("hermite_gram",
              "first 8 oscillator eigenfunctions orthonormal in discrete L2",
              lambda: schrodinger.intertwiner_gram_defect(L, m, _GRID_TOP_MODE),
              tolerance=1e-8),
        Check("hermite_number_eigen",
              "grid (q^2+p^2-1)/2 has eigenvalue n on basis n",
              number_eigen,
              tolerance=eig_tol),
        Check("hermite_norm_drift",
              "three-term recurrence keeps unit discrete norms",
              lambda: schrodinger.hermite_norm_drift(L, m, _GRID_TOP_MODE),
              tolerance=1e-8),
        Check("intertwiner_mismatch",
              "grid q conjugated to the ladder basis matches ladder q",
              intertwiner,
              tolerance=1e-6),
        Check("intertwiner_scalar",
              "<g, x g> = 0 for the even Gaussian",
              lambda: schrodinger.intertwiner_check(L, m, 0),
              tolerance=1e-10),
        Check("grid_ccr_smooth", "[p,q] = -i on smooth band-limited vectors", grid_ccr, tolerance=1e-6),
        Check("refinement_decreases",
              "residuals decrease under m -> 2m (or are < 1e-10)",
              refinement,
              verdict=True),
    ]
    return [check.run() for check in checks]


def irregular_suite(config: RunConfig) -> list[CheckRecord]:
    a, b = config.interval_a, config.interval_b
    spec = interval.aligned_spec(a, b, config.t, config.interval_m)
    t, s = config.t, config.s
    shared = _shared()
    residual = lambda: shared(interval.interval_weyl_residual, spec, t, s)
    canonical = interval.IntervalRepSpec(0.0, 1.0, 256)
    unit_levels = lambda: shared(interval.interval_number_spectrum, canonical, 3)

    def smooth_psi():
        x = spec.points
        g = np.exp(-((x - (a + b) / 2.0) ** 2)).astype(complex)
        g /= math.sqrt(spec.h) * np.linalg.norm(g)
        return abs(
            interval.interval_weyl_residual(spec, t, s, g)
            - interval.closed_form_wrap_residual(spec, t, s, g)
        )

    def no_refinement_decay():
        r1 = shared(interval.interval_weyl_residual, canonical, 0.5, math.pi)
        r2 = interval.interval_weyl_residual(interval.IntervalRepSpec(0.0, 1.0, 512), 0.5, math.pi)
        ok = abs(r1 - math.sqrt(2)) < 0.01 * math.sqrt(2) and abs(r2 - math.sqrt(2)) < 0.01 * math.sqrt(2)
        return (r2, ok)

    def distance():
        ev = unit_levels()
        return float(np.min(np.abs(ev - np.clip(np.round(ev), 0, None))))

    def contrast():
        specs = [interval.aligned_spec(lo, hi, t, m_target) for lo, hi, m_target in _CONTRAST_INTERVALS]
        rows = interval.interval_vs_line_report(specs, t, s)
        residuals = [r.weyl_residual for r in rows]
        distances = [r.spectral_distance for r in rows]
        # Where the wrap phase e^{-is(b-a)} is 1 to rounding the closed form vanishes, and the
        # residual must be rounding; elsewhere it falls strictly from the shorter interval's.
        # u = 2^-53: s rounds by u|s|, s(b - a) by as much again, cos and sin by u each, so a
        # phase that is 1 comes out within 2u(|s|(b - a) + 1) of it; each e^{isx} rounds by
        # u(|s||x| + 1), and the residual of a unit vector subtracts two of them.
        u = 2.0**-53
        shrinks = []
        for i, (spec, r) in enumerate(zip(specs, residuals)):
            if abs(np.exp(-1j * s * spec.length) - 1.0) <= 2 * u * (abs(s) * spec.length + 1):
                shrinks.append(r <= 4 * u * (abs(s) * max(abs(spec.a), abs(spec.b)) + 1))
            else:
                shrinks.append(i == 0 or residuals[i - 1] > r)
        ok = all(shrinks) and all(x > y for x, y in zip(distances, distances[1:]))
        return (residuals[-1], ok)

    checks = [
        Check("boundary_condition",
              "self-adjoint realization of p on the interval",
              lambda: interval.BOUNDARY_CONDITION,
              holds=lambda condition: condition == "periodic",
              detail="periodic throughout; twisted conditions psi(b) = e^{i theta} psi(a) untested"),
        Check("closed_form_constant",
              "residual^2 = |e^{-is(b-a)}-1|^2 * int_a^{a+t} |psi|^2, constant psi",
              lambda: abs(residual() - interval.closed_form_wrap_residual(spec, t, s)),
              tolerance=_CLOSED_FORM_TOL),
        Check("closed_form_smooth", "closed wrap formula holds for smooth psi", smooth_psi,
              tolerance=_CLOSED_FORM_TOL),
        Check("wrap_residual_sqrt2",
              "unit interval, t=1/2, s=pi: residual = sqrt(2)",
              lambda: abs(shared(interval.interval_weyl_residual, canonical, 0.5, math.pi) - math.sqrt(2.0)),
              tolerance=1e-8),
        Check("residual_survives_refinement",
              "irregularity is not a discretization artifact: m -> 2m keeps residual",
              no_refinement_decay,
              verdict=True),
        Check("compatible_s_vanishes",
              "s(b-a) in 2 pi Z makes both Weyl orders agree",
              lambda: interval.interval_weyl_residual(spec, t, 2.0 * math.pi / spec.length),
              tolerance=1e-10),
        Check("residual_periodic_in_s",
              "residual has period 2 pi/(b-a) in s",
              lambda: abs(residual() - interval.interval_weyl_residual(spec, t, s + 2.0 * math.pi / spec.length)),
              tolerance=1e-12),
        Check("shift_and_phase_unitary",
              "U_t, V_s unitary on the interval",
              lambda: interval.unitarity_defect(spec, t, s),
              tolerance=1e-12),
        Check("expm_route_agrees",
              "exact cyclic shift matches expm(itp) route",
              lambda: abs(residual() - interval.interval_weyl_residual_expm(spec, t, s)),
              tolerance=1e-8),
        Check("spectrum_away_from_naturals",
              "lowest interval N eigenvalues stay > 0.05 from the nonnegative integers",
              distance,
              holds=lambda gap: gap > 0.05),
        Check("spectrum_refinement_agreement",
              "interval N eigenvalues agree between m=256 and m=512",
              lambda: float(np.abs(unit_levels() - interval.interval_number_spectrum(
                  interval.IntervalRepSpec(0.0, 1.0, 512), 3)).max()),
              tolerance=1e-6),
        Check("line_limit_recovers_naturals",
              "(-20,20) recovers spectrum {0,1,2}",
              lambda: float(np.abs(interval.interval_number_spectrum(
                  interval.IntervalRepSpec(-20.0, 20.0, 1024), 3) - np.arange(3)).max()),
              tolerance=1e-2),
        Check("contrast_lengths_monotone",
              "Weyl residual and spectral distance both shrink as the interval grows",
              contrast,
              verdict=True,
              detail="periodic boundary condition fixed throughout; lengths 1, 5, 20"),
    ]
    return [check.run() for check in checks]


def symbolic_suite(config: RunConfig) -> list[CheckRecord]:
    def conjugation():
        for n in range(1, 5):
            records = symbolic.conjugation_series(n, 8)
            if not all(r.equal for r in records):
                return (n, False)
        return (4, True)

    def vacuum_matrix():
        nf = symbolic.normal_order("a^2*ad^2*a*ad")
        exact = symbolic.vacuum_expectation(nf).to_complex()
        mat = symbolic.expr_to_matrix("a^2*ad^2*a*ad", 12)
        return float(abs(exact - mat[0, 0]))

    def homomorphism():
        gen = SplitMix64(config.seed + 7)
        dim = 12
        worst = 0.0
        for _ in range(200):
            src = random_word_source(gen, 6)
            expr = symbolic.parse(src)
            word_len = symbolic.operator_word_length(expr)
            g = dim - max(word_len, 1)
            direct = symbolic.expr_to_matrix(expr, dim)
            assembled = symbolic.normal_order(expr).to_matrix(dim)
            worst = max(worst, float(np.abs(direct[:g, :g] - assembled[:g, :g]).max()))
        return worst

    def adjoint_idempotent():
        gen = SplitMix64(config.seed + 8)
        for _ in range(50):
            src = random_word_source(gen, 5)
            expr = symbolic.parse(src)
            nf = symbolic.normal_order(expr)
            if symbolic.normal_order(symbolic.adjoint_expr(expr)) != nf.adjoint():
                return (src, False)
            if symbolic.normal_order(nf.to_expr_text()) != nf:
                return (src, False)
        return (50, True)

    def linearity():
        gen = SplitMix64(config.seed + 9)
        for _ in range(50):
            x = random_word_source(gen, 4)
            y = random_word_source(gen, 4)
            lhs = symbolic.normal_order(f"({x}) + ({y})")
            rhs = symbolic.normal_order(x) + symbolic.normal_order(y)
            if lhs != rhs:
                return (f"{x} | {y}", False)
        return (50, True)

    checks = [
        Check("ladder_normal_order",
              "a a† = a† a + 1",
              lambda: ("a†a + 1", symbolic.normal_order("a*ad") == symbolic.normal_order("ad*a + I")),
              verdict=True),
        Check("ccr_pq",
              "[p,q] = -i I",
              lambda: ("-i", symbolic.verify_identity("[p,q]", "-i*I").equal),
              verdict=True),
        Check("fock_norms",
              "<psi_n, psi_n> = n! for n <= 10",
              lambda: ("n!", all(symbolic.fock_norm_exact(n) == math.factorial(n) for n in range(11))),
              verdict=True),
        Check("creator_norms",
              "<a† psi_n, a† psi_n> = (n+1)! for n <= 10",
              lambda: ("(n+1)!", all(symbolic.fock_norm_exact(n, "adag") == math.factorial(n + 1) for n in range(11))),
              verdict=True),
        Check("annihilator_norm",
              "<a psi_n, a psi_n> = n * n! (the naive value n! fails the cross-check)",
              lambda: int(symbolic.fock_norm_exact(4, "a")),
              flagged=True,
              detail=(
                  "measured 4*4! = 96 at n=4; the value n! circulating alongside the "
                  "correct creator norm contradicts both the matrix cross-check and "
                  "the inner-product computation n*(psi_n, psi_n), so n*n! is used"
              )),
        Check("commutation_identity",
              "[p, q^n] = -i n q^{n-1} exactly for n <= 10",
              lambda: (10, all(symbolic.verify_identity(f"[p,q^{n}]", f"-{n}*i*q^{n-1}" if n > 1 else "-i*I").equal
                               for n in range(1, 11))),
              verdict=True),
        Check("conjugation_series",
              "e^{-itq} p^n e^{itq} = (p + tI)^n order by order, n <= 4",
              conjugation,
              verdict=True),
        Check("quartic_normal_form",
              "a^2 a†^2 = a†^2 a^2 + 4 a† a + 2",
              lambda: ("2 + 4 a†a + a†^2 a^2",
                       symbolic.normal_order("a*a*ad*ad") == symbolic.normal_order("ad^2*a^2 + 4*ad*a + 2*I")),
              verdict=True),
        Check("vacuum_expectation_matrix",
              "symbolic vacuum expectation matches matrix element",
              vacuum_matrix,
              tolerance=1e-10),
        Check("matrix_homomorphism",
              "normal form assembles to the same matrix as direct evaluation",
              homomorphism,
              tolerance=1e-10),
        Check("adjoint_and_idempotence",
              "normal_order commutes with formal adjoint; rendering round-trips",
              adjoint_idempotent,
              verdict=True),
        Check("linearity", "normal_order(x + y) = normal_order(x) + normal_order(y)", linearity, verdict=True),
    ]
    return [check.run() for check in checks]


_SUITE_FUNCS = {
    "fock": fock_suite,
    "analytic": analytic_suite,
    "weyl": weyl_suite,
    "schrodinger": schrodinger_suite,
    "irregular": irregular_suite,
    "symbolic": symbolic_suite,
}


# The suites "all" runs in a forked worker beside the other four (see run_suite):
# the pure-Python half of the run.  No dense eigensolve runs in it, so every value
# that moves with the BLAS thread count is computed in the calling process.
_WORKER_SUITES = ("analytic", "symbolic")


def _setup_failure(name: str, detail: str) -> CheckRecord:
    return CheckRecord(f"{name}.setup", "suite set-up", "fail", None, None, detail)


def _run_suites(config: RunConfig, names) -> list[CheckRecord]:
    """The records of the suites names, in order, named "<suite>.<check>"
    under "all"; a suite whose set-up raises gives one failed
    "<suite>.setup" record."""
    records: list[CheckRecord] = []
    for name in names:
        try:
            suite_records = _SUITE_FUNCS[name](config)
        except Exception as exc:  # noqa: BLE001 - a failed set-up must not kill the run
            records.append(_setup_failure(name, f"{type(exc).__name__}: {exc}"))
            continue
        if config.suite == "all":
            for record in suite_records:
                record.name = f"{name}.{record.name}"
        records.extend(suite_records)
    return records


def _can_fork() -> bool:
    """True where "all" may run _WORKER_SUITES in a forked worker: on Linux,
    with two CPUs or more to run on and no Python thread but this one, which
    a fork would leave half-copied."""
    return (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _run_forked(config: RunConfig, names, worker_names) -> list[CheckRecord]:
    """The records of the suites names, run here, then those of worker_names,
    run meanwhile in a forked worker that pickles them into a pipe and leaves
    by os._exit.  A worker that ends with a nonzero status or writes records
    that cannot be read gives each of worker_names one failed "<suite>.setup"
    record naming why; on any exception here the worker is killed and reaped."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: nothing it does may return into the caller
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_suites(config, worker_names)))
        except BaseException:  # noqa: BLE001 - the parent reads the exit status
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            records = _run_suites(config, names)
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:  # KeyboardInterrupt too: the worker ends with the run
        os.kill(pid, 9)  # SIGKILL
        os.waitpid(pid, 0)
        raise
    if code == 0:
        try:
            return records + pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - unreadable records fail the worker's suites
            reason = f"its records cannot be read ({type(exc).__name__}: {exc})"
    else:
        reason = f"exit status {code}" if code > 0 else f"killed by signal {-code}"
    return records + [_setup_failure(name, f"the worker running {', '.join(worker_names)} failed: {reason}")
                      for name in worker_names]


def run_suite(config: RunConfig) -> Report:
    """Run one suite (or all of them) and assemble a sorted report.

    For "all", where _can_fork holds (Linux, two CPUs or more, one Python
    thread), the analytic and symbolic suites run in one forked worker
    while this process runs the other four.  Each suite draws from its own
    seeded stream and the records are sorted by name, so the report is the
    one an in-process run gives, byte for byte but for wall_time_s.  An
    in-process monkeypatch or tracer sees only this process's suites.
    Anywhere else, and for a single suite, every suite runs here."""
    start = time.perf_counter()
    names = config.suites()
    forked = _WORKER_SUITES if config.suite == "all" and _can_fork() else ()
    if forked:
        records = _run_forked(config, [name for name in names if name not in forked], forked)
    else:
        records = _run_suites(config, names)
    records.sort(key=lambda r: r.name)
    return Report(
        suite=config.suite,
        config=config.echo(),
        checks=records,
        wall_time_s=round(time.perf_counter() - start, 6),
    )


# ---------------------------------------------------------------------------
# sweeps


def sweep_dims(config: RunConfig, dims: list[int]) -> str:
    """Weyl residual runs at the sweep config's t and s at each dimension, one CSV row each."""
    t, s = config.t, config.s
    rows = []
    for d in dims:
        try:
            rec = weyl.weyl_residual(t, s, d)
            rows.append([t, s, d, rec.test_vector_support, rec.residual, "ok"])
        except Exception as exc:  # noqa: BLE001 - row-level failure
            rows.append([t, s, d, "", "", f"failed: {type(exc).__name__}"])
    return _csv(["t", "s", "dim", "support", "residual", "status"], rows)


def sweep_interval_lengths(config: RunConfig, lengths: list[float]) -> str:
    """Contrast sweep over centered interval lengths at the sweep config's
    t, s and interval_m, one CSV row each.  The finiteness of every length
    is checked before any row; a length that aligns with no sample count,
    or first above interval.MAX_DENSE_SIDE, is a failed row."""
    _require_finite("length", *lengths)
    t, s = config.t, config.s
    rows = []
    for length in lengths:
        try:
            spec = interval.aligned_spec(-float(length) / 2, float(length) / 2, t, config.interval_m)
            row = interval.interval_vs_line_report([spec], t, s)[0]
            rows.append([length, row.weyl_residual, row.spectral_distance, "ok"])
        except Exception as exc:  # noqa: BLE001 - row-level failure
            rows.append([length, "", "", f"failed: {type(exc).__name__}"])
    return _csv(["length", "weyl_residual", "spectral_distance", "status"], rows)
