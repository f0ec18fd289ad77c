"""Named verification suites with machine-readable reports.

Each suite runs a fixed list of checks against configurable parameters
and returns a Report; a check that cannot be computed is recorded as
failed without aborting the run, and a suite whose set-up raises is
recorded as one failed "<suite>.setup" check.  Status "flagged" is
reserved for documented-discrepancy findings: places where a tempting
nominal constant or identity fails its own cross-check and a derived
replacement is used instead.  Flagged checks never fail a run.

Randomized checks draw from the SplitMix64 stream seeded by the config,
so reports are byte-identical across runs up to the wall-time field.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import analytic, fock, interval, schrodinger, symbolic, weyl
from .rng import SplitMix64

SUITES = ("fock", "analytic", "weyl", "schrodinger", "irregular", "symbolic")
SCHEMA_VERSION = 1

# Analytic suite: default dim, top mode of its random vectors, dim of its
# Taylor check.  Order k_max on a vector reaching mode M needs dim >= M + k_max + 1.
_ANALYTIC_DIM = 256
_ANALYTIC_TOP_MODE = 8
_TAYLOR_CHECK_DIM = 128
# Largest side of a dense square array, 64 MiB per complex array, checked
# before any is allocated.  Each size with the suites that build arrays
# from it: fock's eigh and the weyl suite's matrix exponentials (dim), the
# grid oscillator's two parity blocks of side about m/2 (grid_m), the
# interval's N, two parity blocks on a centred interval and one real
# matrix of side m + 1 on any other (interval_m, after aligning t).
_MAX_DENSE_DIM = 2048
_DENSE_SIZES = {
    "dim": ("fock", "weyl", "all"),
    "grid_m": ("schrodinger", "all"),
    "interval_m": ("irregular", "all"),
}
# The irregular suite's contrast intervals (a, b, requested m), each aligned
# with the run's t: lengths 1, 5 and 20.
_CONTRAST_INTERVALS = ((-0.5, 0.5, 256), (-2.5, 2.5, 320), (-10.0, 10.0, 640))


def _within_dense_limit(spec: interval.IntervalRepSpec, t: float) -> interval.IntervalRepSpec:
    """spec, refused when aligning t raised its sample count past _MAX_DENSE_DIM
    (interval.aligned_spec may go up to 16 times the requested count)."""
    if spec.m > _MAX_DENSE_DIM:
        raise ValueError(
            f"aligned interval_m {spec.m} exceeds {_MAX_DENSE_DIM}, the largest side of a dense "
            f"array: t={t} is a whole number of steps of ({spec.a}, {spec.b}) first at m={spec.m}"
        )
    return spec


@dataclass
class RunConfig:
    suite: str = "all"
    dim: int | None = None
    t: float = 0.5
    s: float = 0.5
    k_max: int = 40
    guard: int | None = None
    grid_l: float = 10.0
    grid_m: int = 256
    scheme: str = schrodinger.SPECTRAL
    interval_a: float = 0.0
    interval_b: float = 1.0
    interval_m: int = 256
    seed: int = 0
    out: str | None = None
    fmt: str = "text"

    def validate(self) -> None:
        if self.suite not in SUITES + ("all",):
            raise ValueError(f"unknown suite {self.suite!r}")
        for name in ("t", "s", "grid_l", "interval_a", "interval_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dim is not None and self.dim < 2:
            raise ValueError(f"invalid dimension {self.dim}: suites need dim >= 2")
        for name, suites in _DENSE_SIZES.items():
            size = getattr(self, name)
            if size is not None and size > _MAX_DENSE_DIM and self.suite in suites:
                raise ValueError(
                    f"{name} {size} exceeds {_MAX_DENSE_DIM}, the largest side of a dense array "
                    f"the {self.suite} suite builds"
                )
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        dim = self.effective_dim(_ANALYTIC_DIM)
        k_limit = min(_TAYLOR_CHECK_DIM, dim - _ANALYTIC_TOP_MODE) - 1
        if self.suite in ("analytic", "all") and self.k_max > k_limit:
            raise ValueError(f"k_max {self.k_max} exceeds {k_limit}, the analytic suite's limit at dim {dim}")
        if self.guard is not None and self.guard < 0:
            raise ValueError("guard must be nonnegative")
        if self.grid_m < 8:
            raise ValueError("grid sample count must be at least 8")
        if self.grid_l <= 0:
            raise ValueError("grid half-width must be positive")
        if self.scheme not in (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.interval_b > self.interval_a:
            raise ValueError("interval needs b > a")
        if self.interval_m < 16:
            raise ValueError("interval sample count must be at least 16")
        if self.suite in _DENSE_SIZES["interval_m"]:
            for a, b, m in ((self.interval_a, self.interval_b, self.interval_m),) + _CONTRAST_INTERVALS:
                try:
                    spec = interval.aligned_spec(a, b, self.t, m)
                except ValueError:
                    continue  # t aligns with no sample count: the suite records a failed set-up or check
                _within_dense_limit(spec, self.t)
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def effective_dim(self, default: int) -> int:
        return self.dim if self.dim is not None else default

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


@dataclass
class CheckRecord:
    name: str
    relation: str
    status: str  # pass | fail | flagged
    measured: object
    tolerance: float | None = None
    detail: str | None = None


@dataclass
class Report:
    suite: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
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


def _csv(header: list, rows) -> str:
    """The one CSV writer: floats as repr, None as an empty field, the
    rest as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class _Collector:
    """Accumulates check records; exceptions inside a check mark it
    failed and the run continues."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.records: list[CheckRecord] = []

    def check(self, name, relation, fn, tolerance=None, flagged=False, detail=None):
        full = f"{self.prefix}{name}"
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed check must not kill the run
            self.records.append(
                CheckRecord(full, relation, "fail", None, tolerance, f"{type(exc).__name__}: {exc}")
            )
            return
        if isinstance(result, tuple):
            measured, ok = result
        else:
            measured = result
            ok = tolerance is not None and isinstance(measured, (int, float)) and measured <= tolerance
        if isinstance(measured, (np.floating, np.integer)):
            measured = measured.item()
        status = "flagged" if flagged else ("pass" if ok else "fail")
        if isinstance(measured, float) and not math.isfinite(measured):
            measured, status = repr(measured), "fail"
        self.records.append(CheckRecord(full, relation, status, measured, tolerance, detail))


# ---------------------------------------------------------------------------
# seeded sampling helpers


def _random_coefficients(gen: SplitMix64, max_mode: int) -> np.ndarray:
    """Components of modes 0..max_mode uniform on the complex square
    [-1, 1)^2; e_0 if every draw is zero."""
    coeffs = gen.complex_components(max_mode + 1)
    if not np.any(coeffs):
        coeffs[0] = 1.0
    return coeffs


def random_fock_state(gen: SplitMix64, max_mode: int) -> fock.FockState:
    """Random finite vector supported on modes 0..max_mode, components
    uniform on the complex square [-1, 1)^2."""
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


def _identity_defect(M: np.ndarray) -> float:
    """max |M - I| over the entries."""
    return float(np.abs(M - np.eye(M.shape[0])).max())


def _unitarity_defect(U: np.ndarray) -> float:
    """max |U U† - I| over the entries."""
    return _identity_defect(U @ U.conj().T)


# ---------------------------------------------------------------------------
# suites


def fock_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    col = _Collector(prefix)
    d = config.effective_dim(64)
    q, p = fock.build_position(d), fock.build_momentum(d)
    a, ad = fock.build_annihilator(d), fock.build_creator(d)

    def ccr_block():
        c = fock.commutator(p, q)
        block = fock.truncation_safe_projection(c + 1j * np.eye(d), guard=1)
        return float(np.abs(block).max())

    col.check("ccr_block_identity", "[p,q] = -i*I off the top mode", ccr_block, 1e-12)
    col.check(
        "ccr_artifact_entry",
        "[p,q][d-1,d-1] = i*(d-1) (truncation artifact)",
        lambda: float(abs(fock.commutator(p, q)[d - 1, d - 1] - 1j * (d - 1))),
        1e-10,
    )
    col.check(
        "ladder_commutator_block",
        "[a, a†] = I off the top mode",
        lambda: _identity_defect(fock.truncation_safe_projection(fock.commutator(a, ad), 1)),
        1e-12,
    )
    col.check(
        "ladder_artifact_entry",
        "[a, a†][d-1,d-1] = -(d-1)",
        lambda: float(abs(fock.commutator(a, ad)[d - 1, d - 1] + (d - 1))),
        1e-10,
    )
    col.check(
        "number_spectrum_integers",
        "spectrum of N = a†a is {0, ..., d-1}",
        lambda: float(np.abs(fock.number_spectrum(d) - np.arange(d)).max()),
        1e-12,
    )

    def eigvec_residual():
        vals, vecs = fock.number_eigensystem(d)
        N = ad @ a
        return float(max(np.linalg.norm(N @ vecs[:, j] - vals[j] * vecs[:, j]) for j in range(d)))

    col.check("number_eigenvector_residual", "N psi_alpha = alpha psi_alpha", eigvec_residual, 1e-12)

    def oscillator():
        got = fock.oscillator_spectrum(d)
        predicted = np.sort(np.concatenate([2 * np.arange(d - 1) + 1, [d - 1]]))
        return float(np.abs(got - predicted).max())

    col.check(
        "oscillator_spectrum",
        "spec(q^2+p^2) = {2n+1 : n <= d-2} plus artifact value d-1",
        oscillator,
        1e-10,
    )

    def hermiticity():
        n_op = ad @ a
        h = q @ q + p @ p
        return float(
            max(
                np.abs(q - q.conj().T).max(),
                np.abs(p - p.conj().T).max(),
                np.abs(n_op - n_op.conj().T).max(),
                np.abs(h - h.conj().T).max(),
            )
        )

    col.check("hermiticity", "q, p, N, q^2+p^2 Hermitian", hermiticity, 1e-13)
    col.check(
        "annihilator_column_norms",
        "||a e_n||^2 = n",
        lambda: float(np.abs(np.sum(np.abs(a) ** 2, axis=0) - np.arange(d)).max()),
        1e-12,
    )
    col.check(
        "creator_column_norms",
        "||a† e_n||^2 = n+1 below the top mode",
        lambda: float(np.abs(np.sum(np.abs(ad) ** 2, axis=0)[: d - 1] - np.arange(1, d)).max()),
        1e-12,
    )
    col.check(
        "vacuum_norm",
        "<psi_0, psi_0> = 1",
        lambda: abs(fock.inner_product(
            fock.FockState.basis_state(0, fock.UNNORMALIZED),
            fock.FockState.basis_state(0, fock.UNNORMALIZED),
        ) - 1.0),
        1e-14,
    )
    col.check(
        "unnormalized_norm_n3",
        "<psi_3, psi_3> = 3! = 6",
        lambda: abs(fock.inner_product(
            fock.FockState.basis_state(3, fock.UNNORMALIZED),
            fock.FockState.basis_state(3, fock.UNNORMALIZED),
        ) - 6.0),
        1e-12,
    )

    def round_trip():
        gen = SplitMix64(config.seed)
        worst = 0.0
        for _ in range(20):
            x = random_fock_state(gen, 20)
            back = x.to_unnormalized().to_normalized()
            worst = max(worst, float(np.abs(back.coeffs - x.coeffs).max()))
        return worst

    col.check(
        "convention_round_trip",
        "coeff_unnormalized(n) * sqrt(n!) = coeff_normalized(n), modes <= 20",
        round_trip,
        1e-14,
    )
    return col.records


def analytic_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    col = _Collector(prefix)
    d = config.effective_dim(_ANALYTIC_DIM)
    k_max = config.k_max
    q, p = fock.Tridiagonal.position(d), fock.Tridiagonal.momentum(d)

    def all_converged():
        # 50 seeded vectors as the columns of one block; one pass per operator serves every t
        gen = SplitMix64(config.seed)
        block = np.zeros((_ANALYTIC_TOP_MODE + 1, 50), dtype=complex)
        for j in range(50):
            block[:, j] = _random_coefficients(gen, _ANALYTIC_TOP_MODE)
        verdicts = [
            rep.verdict
            for op in (q, p)
            for reports in analytic.analytic_series_block(op, block, (0.5, 1.0, 2.0), k_max)
            for rep in reports
        ]
        n_ok = verdicts.count("converged")
        return (n_ok / len(verdicts), n_ok == len(verdicts))

    col.check(
        "random_finite_vectors_converged",
        "sum t^k/k! ||A^k xi|| converges for finite vectors, A in {q, p}",
        all_converged,
    )

    def growth_property():
        # 1000 seeded (support, power, vector) draws as the columns of one block
        gen = SplitMix64(config.seed + 1)
        block = np.zeros((9, 1000), dtype=complex)
        powers = np.empty(1000, dtype=int)
        for j in range(1000):
            mode = gen.randint(0, 8)
            powers[j] = gen.randint(0, 12)
            block[: mode + 1, j] = _random_coefficients(gen, mode)
        lhs, bound = analytic.growth_bound_block(q, block, powers)
        worst = float(np.max(lhs / bound))
        return (worst, worst <= 1.0 + 1e-12)

    col.check(
        "growth_bound_property",
        "||q^k phi|| <= 2^{k/2} sqrt((M+k)!/M!) ||phi|| for support M",
        growth_property,
    )

    def taylor_vs_expm():
        dim = _TAYLOR_CHECK_DIM
        e0 = fock.FockState.basis_state(0)
        got = analytic.taylor_exp(1j * fock.Tridiagonal.momentum(dim), 1.0, e0, max(k_max, 60))
        # closed form: the coherent state e^{-1/4} sum_n (-1/sqrt2)^n / sqrt(n!) e_n
        want = [math.exp(-0.25) * (-math.sqrt(0.5)) ** n / fock.sqrt_factorial(n) for n in range(dim)]
        return float(np.linalg.norm(got.coeffs - np.array(want)))

    col.check(
        "taylor_exp_vs_expm",
        "Taylor-series e^{ip} e_0 matches the closed-form coherent state",
        taylor_vs_expm,
        1e-8,
    )

    def diagonal_case():
        n_op = fock.build_creator(64) @ fock.build_annihilator(64)
        out = analytic.taylor_exp(n_op, 0.3, fock.FockState.basis_state(2), 40)
        return float(abs(out.coeffs[2] - math.exp(0.6)))

    col.check("taylor_exp_diagonal", "e^{tN} e_2 = e^{2t} e_2", diagonal_case, 1e-12)

    def t_zero():
        rep = analytic.analytic_series(q, fock.FockState.basis_state(1), 0.0, k_max)
        ok = rep.verdict == "converged" and all(x == 0.0 for x in rep.terms[1:])
        return (rep.terms[0], ok)

    col.check("t_zero_series", "t = 0 leaves only the k = 0 term", t_zero)

    def monotone():
        gen = SplitMix64(config.seed + 2)
        xi = random_fock_state(gen, 6)
        rep = analytic.analytic_series(q, xi, 1.5, k_max)
        diffs = np.diff(rep.partial_sums)
        return (float(diffs.min()), bool((diffs >= -1e-15).all()))

    col.check("partial_sums_monotone", "partial sums nondecreasing", monotone)

    def verdict_stable():
        xi = fock.FockState.basis_state(0)
        r1 = analytic.analytic_series(q, xi, 1.0, k_max)
        r2 = analytic.analytic_series(q, xi, 1.0, min(k_max + 20, d - 2))
        ok = r1.verdict == "converged" and r2.verdict == "converged"
        return (r2.verdict, ok)

    col.check("verdict_stable_under_kmax", "converged stays converged as k_max grows", verdict_stable)

    def needed_constant():
        gen = SplitMix64(config.seed + 3)
        worst = 0.0
        for _ in range(50):
            m = gen.randint(0, 5)
            n = gen.randint(0, 5)
            coeffs = gen.complex_components(n + 1)
            if not np.any(coeffs):
                coeffs[0] = 1.0
            rep = analytic.single_power_bound_report(q, coeffs, m)
            worst = max(worst, rep.needed_constant)
        return worst

    col.check(
        "single_power_bound_constant",
        "sum_k ||C_k q psi_k|| vs sqrt(2) C sqrt((m+n+1)!)",
        needed_constant,
        flagged=True,
        detail=(
            "the triangle-inequality step needs an extra constant (empirical max "
            "reported; bounded near 3.42 over all supports), so the single-power "
            "bound is reported, not asserted"
        ),
    )

    def geometric_bound_breakdown():
        e0 = fock.FockState.basis_state(0)
        for k in range(1, 20):
            lhs, _ = analytic.check_growth_bound(q, e0, k)
            if lhs > (2.0 * 1.0) ** (k / 2.0):  # nominal bound with m=n=0, C=1
                return k
        return 0

    col.check(
        "iterated_power_bound_breakdown",
        "geometric-in-k bound (2(m+n+1)!)^{k/2} vs actual ||q^k psi_0||",
        geometric_bound_breakdown,
        flagged=True,
        detail=(
            "||q^k psi|| grows like sqrt((M+k)!), so the geometric bound fails from "
            "the reported k on; series convergence is asserted via the corrected "
            "per-step bound instead"
        ),
    )
    return col.records


def weyl_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    col = _Collector(prefix)
    d = config.effective_dim(64)
    t, s = config.t, config.s
    q, p = fock.Tridiagonal.position(d), fock.Tridiagonal.momentum(d)
    e0 = fock.FockState.basis_state(0)

    col.check("expm_zero", "expm(0) = I", lambda: _identity_defect(weyl.expm(np.zeros((8, 8)))), 1e-15)

    def diag_case():
        theta = np.arange(1, 7) * 0.3
        got = weyl.expm(np.diag(1j * theta))
        return float(np.abs(got - np.diag(np.exp(1j * theta))).max())

    col.check("expm_diagonal", "expm(diag(i theta)) = diag(e^{i theta})", diag_case, 1e-13)
    col.check("expm_unitary_U", "U_t = e^{itp} unitary", lambda: _unitarity_defect(weyl.expm(1j * t * p)), 1e-11)
    col.check("expm_unitary_V", "V_s = e^{isq} unitary", lambda: _unitarity_defect(weyl.expm(1j * s * q)), 1e-11)
    col.check(
        "expm_inverse_product",
        "e^{itp} e^{-itp} = I",
        lambda: _identity_defect(weyl.expm(0.7j * p) @ weyl.expm(-0.7j * p)),
        1e-11,
    )
    col.check(
        "weyl_residual",
        "U_t V_s = e^{ist} V_s U_t on a low-mode vector",
        lambda: weyl.weyl_residual(t, s, d, config.guard, e0).residual,
        1e-8,
    )
    col.check(
        "weyl_zero_t",
        "t = 0 makes both sides V_s",
        lambda: weyl.weyl_residual(0.0, s, d, config.guard, e0).residual,
        1e-12,
    )

    def halving():
        small = weyl.weyl_residual(t, s, max(d // 4, 8), None, e0).residual
        big = weyl.weyl_residual(t, s, d, None, e0).residual
        return (big, big <= small / 2.0 or big < 1e-10)

    col.check("residual_dim_halving", "residual halves from dim/4 to dim (or is < 1e-10)", halving)

    def phases():
        rep = weyl.weyl_phase_check(t, s, d, e0)
        ok = rep["vanishing"] == "+ist" and rep["plus_phase"] < 1e-8 and rep["minus_phase"] > 1e-3
        return (rep["minus_phase"], ok)

    col.check(
        "phase_convention",
        "exactly the phase e^{ist} vanishes under [p,q] = -i",
        phases,
    )

    def group_law():
        x = e0.vector(d)
        U = lambda c, v: weyl.expm_multiply(1j * c * p, v)
        return float(np.linalg.norm(U(0.4, U(0.9, x)) - U(1.3, x)))

    col.check("group_law", "U_{t1} U_{t2} = U_{t1+t2}", group_law, 1e-10)

    for n in (1, 2, 3):
        col.check(
            f"shift_identity_n{n}",
            "e^{-itq} p^n e^{itq} = (p + tI)^n",
            lambda n=n: weyl.shift_identity_residual(t, n, d, e0),
            1e-7,
        )
    col.check(
        "exp_commutator_residual",
        "p e^{itq} - e^{itq} p = t e^{itq}",
        lambda: weyl.exp_commutator_residual(t, d, e0),
        1e-8,
    )
    col.check(
        "exp_commutator_taylor",
        "Taylor coefficients of p e^{itq} - e^{itq} p and t e^{itq} match to order 8",
        lambda: (8, all(rec.equal for rec in symbolic.exp_commutator_series(8))),
    )
    col.check(
        "exp_commutator_form_repaired",
        "commutation identity for exponentials holds in corrected form",
        lambda: weyl.exp_commutator_residual(t, d, e0),
        flagged=True,
        detail=(
            "the identity is verified as p e^{itq} - e^{itq} p = t e^{itq}; the "
            "uncorrected statement mixes the two exponent parameters and fails "
            "its own Taylor expansion, so it was repaired before checking"
        ),
    )
    return col.records


def schrodinger_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    """Grid-representation checks.

    Tolerances are stated for the spectral scheme; the second-order
    central-difference cross-check runs against correspondingly wider
    accuracy classes (valid for m >= 256 at L = 10).
    """
    col = _Collector(prefix)
    L, m, scheme = config.grid_l, config.grid_m, config.scheme
    spectral = scheme == schrodinger.SPECTRAL
    vac_tol = 1e-6 if spectral else 1e-2
    osc_tol = 1e-4 if spectral else 0.1
    gap_tol = 1e-3 if spectral else 0.1
    eig_tol = 1e-4 if spectral else 0.5

    col.check(
        "vacuum_residual",
        "(q + ip)/sqrt2 annihilates e^{-x^2/2}",
        lambda: schrodinger.vacuum_annihilation_residual(L, m, scheme),
        vac_tol,
    )

    def opposite():
        r = schrodinger.vacuum_sign_check(L, m, scheme)["minus_residual"]
        return (r, r > 0.5)

    col.check("vacuum_opposite_sign", "(q - ip)/sqrt2 does not annihilate the Gaussian", opposite)

    def resolved():
        sign = schrodinger.vacuum_sign_check(L, m, scheme)["annihilating_sign"]
        return (sign, sign == "+")

    col.check(
        "vacuum_sign_resolved",
        "resolved ladder sign convention (measured, not assumed)",
        resolved,
        detail="the lowering operator is defined as the sign that annihilates the Gaussian",
    )

    def plane_wave():
        k = 8 * np.pi / (2 * L)  # grid-resolved wavenumber
        f = schrodinger.GridFunction.sample(lambda x: np.exp(1j * k * x), -L, L, m)
        pf = schrodinger.grid_momentum(f.values, -L, L)
        return float(np.linalg.norm(pf - k * f.values) / np.linalg.norm(f.values))

    col.check("momentum_plane_wave", "p e^{ikx} = k e^{ikx} for resolved k", plane_wave, 1e-10)

    def constant():
        return float(np.abs(schrodinger.grid_momentum(np.ones(m, dtype=complex), -L, L)).max())

    col.check("momentum_constant", "p applied to a constant vanishes", constant, 1e-12)

    def sine():
        mm = 64
        f = schrodinger.GridFunction.sample(np.sin, -np.pi, np.pi, mm)
        want = -1j * np.cos(f.points)
        return float(np.abs(schrodinger.grid_momentum(f.values, -np.pi, np.pi) - want).max())

    col.check("momentum_sine", "p sin = -i cos on [-pi, pi)", sine, 1e-10)

    levels = functools.cache(lambda count: schrodinger.grid_oscillator_spectrum(L, m, scheme, count))

    def spectrum():
        return float(np.abs(levels(6) - np.arange(1, 13, 2)).max())

    col.check("oscillator_spectrum_first6", "spec(q^2+p^2) = {1,3,5,7,9,11}", spectrum, osc_tol)

    def gaps():
        return float(np.abs(np.diff(levels(6)) - 2.0).max())

    col.check("oscillator_gaps", "consecutive oscillator gaps = 2", gaps, gap_tol)

    def lowest_nonneg():
        low = float(levels(min(6, m // 4))[0])  # the same solve, unless m < 24 holds fewer than 6 levels
        return (low, low >= -1e-10)

    col.check("oscillator_positive", "q^2 + p^2 is positive semidefinite", lowest_nonneg)
    col.check(
        "hermite_gram",
        "first 8 oscillator eigenfunctions orthonormal in discrete L2",
        lambda: schrodinger.intertwiner_gram_defect(L, m, 8),
        1e-8,
    )

    def number_eigen():
        basis = schrodinger.hermite_basis(L, m, 8)
        x2 = basis[0].points ** 2
        worst = 0.0
        h = 2 * L / m
        for n, b in enumerate(basis):
            n_b = (x2 * b.values + schrodinger.grid_kinetic(b.values, -L, L, scheme) - b.values) / 2.0
            worst = max(worst, math.sqrt(h) * float(np.linalg.norm(n_b - n * b.values)))
        return worst

    col.check("hermite_number_eigen", "grid (q^2+p^2-1)/2 has eigenvalue n on basis n", number_eigen, eig_tol)
    col.check(
        "hermite_norm_drift",
        "three-term recurrence keeps unit discrete norms",
        lambda: schrodinger.hermite_norm_drift(L, m, 8),
        1e-8,
    )
    col.check(
        "intertwiner_mismatch",
        "grid q conjugated to the ladder basis matches ladder q",
        lambda: schrodinger.intertwiner_check(L, m, 8),
        1e-6,
    )

    def scalar_case():
        return schrodinger.intertwiner_check(L, m, 0)

    col.check("intertwiner_scalar", "<g, x g> = 0 for the even Gaussian", scalar_case, 1e-10)

    def grid_ccr():
        x = schrodinger._grid_points(-L, L, m)
        v = (1.0 + x + 0.5 * x**2) * np.exp(-x * x / 2.0)
        v = v.astype(complex) / np.linalg.norm(v)
        comm = schrodinger.grid_momentum(x * v, -L, L) - x * schrodinger.grid_momentum(v, -L, L)
        return float(np.linalg.norm(comm + 1j * v))

    col.check("grid_ccr_smooth", "[p,q] = -i on smooth band-limited vectors", grid_ccr, 1e-6)

    def refinement():
        r1 = schrodinger.vacuum_annihilation_residual(L, m, scheme)
        r2 = schrodinger.vacuum_annihilation_residual(L, 2 * m, scheme)
        i1 = schrodinger.intertwiner_check(L, m, 8)
        i2 = schrodinger.intertwiner_check(L, 2 * m, 8)
        ok = (r2 <= r1 or r2 < 1e-10) and (i2 <= i1 or i2 < 1e-10)
        return (max(r2, i2), ok)

    col.check("refinement_decreases", "residuals decrease under m -> 2m (or are < 1e-10)", refinement)
    return col.records


def irregular_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    col = _Collector(prefix)
    a, b = config.interval_a, config.interval_b
    spec = _within_dense_limit(interval.aligned_spec(a, b, config.t, config.interval_m), config.t)
    t, s = config.t, config.s

    col.check(
        "boundary_condition",
        "self-adjoint realization of p on the interval",
        lambda: (interval.BOUNDARY_CONDITION, interval.BOUNDARY_CONDITION == "periodic"),
        detail="periodic throughout; twisted conditions psi(b) = e^{i theta} psi(a) untested",
    )
    col.check(
        "closed_form_constant",
        "residual^2 = |e^{-is(b-a)}-1|^2 * int_a^{a+t} |psi|^2, constant psi",
        lambda: abs(
            interval.interval_weyl_residual(spec, t, s)
            - interval.closed_form_wrap_residual(spec, t, s)
        ),
        1e-8,
    )

    def smooth_psi():
        x = spec.points
        g = np.exp(-((x - (a + b) / 2.0) ** 2)).astype(complex)
        g /= math.sqrt(spec.h) * np.linalg.norm(g)
        return abs(
            interval.interval_weyl_residual(spec, t, s, g)
            - interval.closed_form_wrap_residual(spec, t, s, g)
        )

    col.check("closed_form_smooth", "closed wrap formula holds for smooth psi", smooth_psi, 1e-8)

    def sqrt2_value():
        canonical = interval.IntervalRepSpec(0.0, 1.0, 256)
        r = interval.interval_weyl_residual(canonical, 0.5, math.pi)
        return abs(r - math.sqrt(2.0))

    col.check(
        "wrap_residual_sqrt2",
        "unit interval, t=1/2, s=pi: residual = sqrt(2)",
        sqrt2_value,
        1e-8,
    )

    def no_refinement_decay():
        c1 = interval.IntervalRepSpec(0.0, 1.0, 256)
        c2 = interval.IntervalRepSpec(0.0, 1.0, 512)
        r1 = interval.interval_weyl_residual(c1, 0.5, math.pi)
        r2 = interval.interval_weyl_residual(c2, 0.5, math.pi)
        ok = abs(r1 - math.sqrt(2)) < 0.01 * math.sqrt(2) and abs(r2 - math.sqrt(2)) < 0.01 * math.sqrt(2)
        return (r2, ok)

    col.check(
        "residual_survives_refinement",
        "irregularity is not a discretization artifact: m -> 2m keeps residual",
        no_refinement_decay,
    )
    col.check(
        "compatible_s_vanishes",
        "s(b-a) in 2 pi Z makes both Weyl orders agree",
        lambda: interval.interval_weyl_residual(spec, t, 2.0 * math.pi / spec.length),
        1e-10,
    )
    col.check(
        "residual_periodic_in_s",
        "residual has period 2 pi/(b-a) in s",
        lambda: abs(
            interval.interval_weyl_residual(spec, t, s)
            - interval.interval_weyl_residual(spec, t, s + 2.0 * math.pi / spec.length)
        ),
        1e-12,
    )

    col.check(
        "shift_and_phase_unitary",
        "U_t, V_s unitary on the interval",
        lambda: interval.unitarity_defect(spec, t, s),
        1e-12,
    )
    col.check(
        "expm_route_agrees",
        "exact cyclic shift matches expm(itp) route",
        lambda: abs(
            interval.interval_weyl_residual(spec, t, s)
            - interval.interval_weyl_residual_expm(spec, t, s)
        ),
        1e-8,
    )

    unit_spec = interval.IntervalRepSpec(0.0, 1.0, 256)
    unit_levels = functools.cache(lambda: interval.interval_number_spectrum(unit_spec, 3))

    def distances():
        ev = unit_levels()
        nearest = np.clip(np.round(ev), 0, None)
        return (float(np.min(np.abs(ev - nearest))), bool(np.all(np.abs(ev - nearest) > 0.05)))

    col.check(
        "spectrum_away_from_naturals",
        "lowest interval N eigenvalues stay > 0.05 from the nonnegative integers",
        distances,
    )
    col.check(
        "spectrum_refinement_agreement",
        "interval N eigenvalues agree between m=256 and m=512",
        lambda: float(
            np.abs(
                unit_levels() - interval.interval_number_spectrum(interval.IntervalRepSpec(0.0, 1.0, 512), 3)
            ).max()
        ),
        1e-6,
    )
    col.check(
        "line_limit_recovers_naturals",
        "(-20,20) recovers spectrum {0,1,2}",
        lambda: float(
            np.abs(
                interval.interval_number_spectrum(interval.IntervalRepSpec(-20.0, 20.0, 1024), 3)
                - np.arange(3)
            ).max()
        ),
        1e-2,
    )

    def contrast():
        specs = [_within_dense_limit(interval.aligned_spec(lo, hi, t, m_target), t)
                 for lo, hi, m_target in _CONTRAST_INTERVALS]
        rows = interval.interval_vs_line_report(specs, t, s)
        residuals = [r.weyl_residual for r in rows]
        distances_ = [r.spectral_distance for r in rows]
        ok = all(x > y for x, y in zip(residuals, residuals[1:])) and all(
            x > y for x, y in zip(distances_, distances_[1:])
        )
        return (residuals[-1], ok)

    col.check(
        "contrast_lengths_monotone",
        "Weyl residual and spectral distance both shrink as the interval grows",
        contrast,
        detail="periodic boundary condition fixed throughout; lengths 1, 5, 20",
    )
    return col.records


def symbolic_suite(config: RunConfig, prefix: str = "") -> list[CheckRecord]:
    col = _Collector(prefix)

    col.check(
        "ladder_normal_order",
        "a a† = a† a + 1",
        lambda: ("a†a + 1", symbolic.normal_order("a*ad") == symbolic.normal_order("ad*a + I")),
    )
    col.check(
        "ccr_pq",
        "[p,q] = -i I",
        lambda: ("-i", symbolic.verify_identity("[p,q]", "-i*I").equal),
    )
    col.check(
        "fock_norms",
        "<psi_n, psi_n> = n! for n <= 10",
        lambda: (
            "n!",
            all(symbolic.fock_norm_exact(n) == math.factorial(n) for n in range(11)),
        ),
    )
    col.check(
        "creator_norms",
        "<a† psi_n, a† psi_n> = (n+1)! for n <= 10",
        lambda: (
            "(n+1)!",
            all(symbolic.fock_norm_exact(n, "adag") == math.factorial(n + 1) for n in range(11)),
        ),
    )
    col.check(
        "annihilator_norm",
        "<a psi_n, a psi_n> = n * n! (the naive value n! fails the cross-check)",
        lambda: int(symbolic.fock_norm_exact(4, "a")),
        flagged=True,
        detail=(
            "measured 4*4! = 96 at n=4; the value n! circulating alongside the "
            "correct creator norm contradicts both the matrix cross-check and "
            "the inner-product computation n*(psi_n, psi_n), so n*n! is used"
        ),
    )
    col.check(
        "commutation_identity",
        "[p, q^n] = -i n q^{n-1} exactly for n <= 10",
        lambda: (
            10,
            all(
                symbolic.verify_identity(f"[p,q^{n}]", f"-{n}*i*q^{n-1}" if n > 1 else "-i*I").equal
                for n in range(1, 11)
            ),
        ),
    )

    def conjugation():
        for n in range(1, 5):
            records = symbolic.conjugation_series(n, 8)
            if not all(r.equal for r in records):
                return (n, False)
        return (4, True)

    col.check(
        "conjugation_series",
        "e^{-itq} p^n e^{itq} = (p + tI)^n order by order, n <= 4",
        conjugation,
    )
    col.check(
        "quartic_normal_form",
        "a^2 a†^2 = a†^2 a^2 + 4 a† a + 2",
        lambda: (
            "2 + 4 a†a + a†^2 a^2",
            symbolic.normal_order("a*a*ad*ad") == symbolic.normal_order("ad^2*a^2 + 4*ad*a + 2*I"),
        ),
    )

    def vacuum_matrix():
        nf = symbolic.normal_order("a^2*ad^2*a*ad")
        exact = symbolic.vacuum_expectation(nf).to_complex()
        mat = symbolic.expr_to_matrix("a^2*ad^2*a*ad", 12)
        return float(abs(exact - mat[0, 0]))

    col.check("vacuum_expectation_matrix", "symbolic vacuum expectation matches matrix element", vacuum_matrix, 1e-10)

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

    col.check(
        "matrix_homomorphism",
        "normal form assembles to the same matrix as direct evaluation",
        homomorphism,
        1e-10,
    )

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

    col.check(
        "adjoint_and_idempotence",
        "normal_order commutes with formal adjoint; rendering round-trips",
        adjoint_idempotent,
    )

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

    col.check("linearity", "normal_order(x + y) = normal_order(x) + normal_order(y)", linearity)
    return col.records


_SUITE_FUNCS = {
    "fock": fock_suite,
    "analytic": analytic_suite,
    "weyl": weyl_suite,
    "schrodinger": schrodinger_suite,
    "irregular": irregular_suite,
    "symbolic": symbolic_suite,
}


def run_suite(config: RunConfig) -> Report:
    """Run one suite (or all of them) and assemble a sorted report."""
    config.validate()
    start = time.perf_counter()
    records: list[CheckRecord] = []
    names = SUITES if config.suite == "all" else (config.suite,)
    for name in names:
        prefix = f"{name}." if config.suite == "all" else ""
        try:
            records.extend(_SUITE_FUNCS[name](config, prefix=prefix))
        except Exception as exc:  # noqa: BLE001 - a failed set-up must not kill the run
            detail = f"{type(exc).__name__}: {exc}"
            records.append(CheckRecord(f"{name}.setup", "suite set-up", "fail", None, None, detail))
    records.sort(key=lambda r: r.name)
    return Report(
        suite=config.suite,
        config=config.echo(),
        checks=records,
        wall_time_s=round(time.perf_counter() - start, 6),
    )


# ---------------------------------------------------------------------------
# sweeps


def sweep_dims(dims: list[int], ts: list[float], ss: list[float]) -> str:
    """Cartesian product of Weyl residual runs, one CSV row per point."""
    rows = []
    for d in dims:
        for t in ts:
            for s in ss:
                try:
                    rec = weyl.weyl_residual(t, s, d)
                    rows.append([t, s, d, rec.guard, rec.test_vector_support, rec.residual, "ok"])
                except Exception as exc:  # noqa: BLE001 - row-level failure
                    rows.append([t, s, d, "", "", "", f"failed: {type(exc).__name__}"])
    return _csv(["t", "s", "dim", "guard", "support", "residual", "status"], rows)


def sweep_interval_lengths(
    lengths: list[float], t: float, s: float, m_target: int = 256
) -> str:
    """Contrast sweep over centered interval lengths, one CSV row each.
    A length whose aligned sample count exceeds _MAX_DENSE_DIM is a failed row."""
    if m_target > _MAX_DENSE_DIM:
        raise ValueError(f"interval_m {m_target} exceeds {_MAX_DENSE_DIM}, the largest side of a dense array")
    rows = []
    for length in lengths:
        try:
            spec = interval.aligned_spec(-float(length) / 2, float(length) / 2, t, m_target)
            row = interval.interval_vs_line_report([_within_dense_limit(spec, t)], t, s)[0]
            rows.append([length, row.weyl_residual, row.spectral_distance, "ok"])
        except Exception as exc:  # noqa: BLE001 - row-level failure
            rows.append([length, "", "", f"failed: {type(exc).__name__}"])
    return _csv(["length", "weyl_residual", "spectral_distance", "status"], rows)
