"""The six verification suites, and the inputs each accepts.

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
records unprefixed.  A value that two checks of a suite share is computed
once per run, through the suite's _shared memo or, for the Gaussian's
residual and the Hermite rows, through schrodinger's own cache.

DOMAINS[name](config) raises ValueError unless the suite name can run at
config, a reports.RunConfig, whose gate calls it; this module sits below
reports and does not import it.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import analytic, fock, interval, schrodinger, symbolic, weyl
from .exact import ZERO
from .rng import SplitMix64

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


class CheckRecord:
    __slots__ = ("name", "relation", "status", "measured", "tolerance", "detail")

    def __init__(self, name: str, relation: str, status: str, measured: object,
                 tolerance: float | None = None, detail: str | None = None):
        self.name, self.relation, self.measured = name, relation, measured
        self.status = status  # pass | fail | flagged
        self.tolerance, self.detail = tolerance, detail


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
_WORD_LEAVES = {x: symbolic.parse(f"({x})") for x in _WORD_COEFFS + _WORD_LETTERS}  # the parser's folded leaves
_CONJUGATE = {"i": "-i", "-i": "i"}  # the others are real
_DAGGER = {"a": "ad", "ad": "a"}  # q, p and I are self-adjoint


def random_words(gen: SplitMix64, count: int, max_len: int = 6) -> list[tuple[str, list[str]]]:
    """`count` seeded operator words (coeff, letters): 1..max_len letters, at most one of them I, and a
    coefficient from _WORD_COEFFS.  A word draws in turn its length, each letter, a 1-in-5 test for an I
    (then the I's place) and its coefficient, each draw of n values one output mod n, as randint does.
    The draws come from one block of max_len + 4 outputs per word, the most a word takes."""
    z, at, words = gen.block(count * (max_len + 4)).tolist(), 0, []
    for _ in range(count):
        length = 1 + z[at] % max_len
        letters = [_WORD_LETTERS[x % 4] for x in z[at + 1: at + 1 + length]]
        at += length + 1
        if z[at] % 5 == 0:
            letters[z[at + 1] % length] = "I"
            at += 1
        words.append((_WORD_COEFFS[z[at + 1] % len(_WORD_COEFFS)], letters))
        at += 2
    return words


def _word_text(coeff: str, letters: list[str]) -> str:
    """The parser text of a word, for a failure's detail."""
    return f"({coeff}) * " + " * ".join(letters)


def _word_expr(coeff: str, letters: list[str]) -> symbolic.Product:
    """The expression the parser makes of a word's text, built from its leaves."""
    return symbolic.Product(tuple(map(_WORD_LEAVES.__getitem__, (coeff, *letters))))


def _word_matrices(words: list[tuple[str, list[str]]], dim: int) -> np.ndarray:
    """symbolic.expr_to_matrix of every word: per length, stacked products that run each word's gemm."""
    leaves = np.array([symbolic._leaf_matrix(x, dim) for x in _WORD_LETTERS])
    out = np.empty((len(words), dim, dim), dtype=complex)
    for length in {len(letters) for _, letters in words}:
        group = [i for i, (_, letters) in enumerate(words) if len(letters) == length]
        codes = np.array([[_WORD_LETTERS.index(x) for x in words[i][1]] for i in group]).T
        coeffs = np.array([_WORD_LEAVES[words[i][0]].value.to_complex() for i in group]).reshape(-1, 1, 1)
        out[group] = functools.reduce(np.matmul, (leaves[c] for c in codes[1:]), coeffs * leaves[codes[0]])
    return out


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


def fock_suite(config) -> list[CheckRecord]:
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


def analytic_suite(config) -> list[CheckRecord]:
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
        verdicts = np.array([analytic.series_verdict_block(op, block, _SERIES_TS, k_max) for op in (q, p)])
        return int(np.count_nonzero(verdicts == "converged")) / verdicts.size

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
                  "reported; unit coefficients, which maximize it on a support, peak at 1.263 "
                  "at m = 0, n = 3 over m <= 59, n <= 39), so the single-power bound is "
                  "reported, not asserted"
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


def weyl_suite(config) -> list[CheckRecord]:
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


def schrodinger_suite(config) -> list[CheckRecord]:
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


def irregular_suite(config) -> list[CheckRecord]:
    a, b = config.interval_a, config.interval_b
    spec = interval.aligned_spec(a, b, config.t, config.interval_m)
    t, s = config.t, config.s
    shared = _shared()
    residual = lambda: shared(interval.interval_weyl_residual, spec, t, s)
    canonical = interval.IntervalRepSpec(0.0, 1.0, 256)
    unit_levels = lambda: shared(interval.interval_number_spectrum, canonical, 3)
    compatible_s = 2.0 * math.pi / spec.length
    u = 2.0**-53

    def rounding(grid, phase_s):
        """4u(|s| max|x| + 1): a bound on the rounding of a Weyl residual of a unit vector on grid at
        s = phase_s.  Each e^{isx} rounds by u(|s||x| + 1), and the residual subtracts two of them."""
        return 4 * u * (abs(phase_s) * max(abs(grid.a), abs(grid.b)) + 1)

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
        # s rounds by u|s|, s(b - a) by as much again, cos and sin by u each, so a phase that is 1
        # comes out within 2u(|s|(b - a) + 1) of it.
        shrinks = []
        for i, (spec, r) in enumerate(zip(specs, residuals)):
            if abs(np.exp(-1j * s * spec.length) - 1.0) <= 2 * u * (abs(s) * spec.length + 1):
                shrinks.append(r <= rounding(spec, s))
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
        # far from the origin, or at a large s, the residuals round by more than the literal floors
        Check("compatible_s_vanishes",
              "s(b-a) in 2 pi Z makes both Weyl orders agree",
              lambda: interval.interval_weyl_residual(spec, t, compatible_s),
              tolerance=max(1e-10, rounding(spec, compatible_s))),
        Check("residual_periodic_in_s",
              "residual has period 2 pi/(b-a) in s",
              lambda: abs(residual() - interval.interval_weyl_residual(spec, t, s + compatible_s)),
              tolerance=max(1e-12, rounding(spec, s) + rounding(spec, s + compatible_s))),
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


def symbolic_suite(config) -> list[CheckRecord]:
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
        dim, words = 12, random_words(SplitMix64(config.seed + 7), 200, 6)
        differences = _word_matrices(words, dim)
        differences -= np.array([symbolic.normal_order(_word_expr(*word)).to_matrix(dim) for word in words])
        # each letter but I moves a mode by at most 1, so the leading g x g block is free of truncation
        g = dim - np.array([max(len(letters) - letters.count("I"), 1) for _, letters in words])
        window = np.maximum.outer(np.arange(dim), np.arange(dim)) < g[:, None, None]
        return float(np.abs(differences)[window].max())

    def adjoint_commutes():
        # the adjoint word runs the ladder moves of other letters; nf.adjoint() only swaps keys and conjugates
        for coeff, letters in random_words(SplitMix64(config.seed + 8), 50, 5):
            adjoint = _word_expr(_CONJUGATE.get(coeff, coeff), [_DAGGER.get(x, x) for x in reversed(letters)])
            if symbolic.normal_order(adjoint) != symbolic.normal_order(_word_expr(coeff, letters)).adjoint():
                return (_word_text(coeff, letters), False)
        return (50, True)

    def sum_and_difference():
        # the merge that decides every identity by its difference form, against ExactScalar
        # sums of the coefficients key by key, made canonical by the NormalForm constructor
        drawn = random_words(SplitMix64(config.seed + 9), 100, 4)
        for words in zip(drawn[::2], drawn[1::2]):
            x, y = (symbolic.normal_order(_word_expr(*word)) for word in words)
            xs, ys = dict(x.items()), dict(y.items())
            for form, op in ((x + y, operator.add), (x - y, operator.sub)):
                if form != symbolic.NormalForm({k: op(xs.get(k, ZERO), ys.get(k, ZERO)) for k in xs.keys() | ys.keys()}):
                    return (" | ".join(_word_text(*word) for word in words), False)
        return (50, True)

    checks = [
        Check("ladder_normal_order",
              "a a† = a† a + 1",
              lambda: ("a†a + 1",
                       symbolic.normal_order("a*ad") == symbolic.normal_order("ad*a") + symbolic.normal_order("I")),
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
                       symbolic.normal_order("a*a*ad*ad") == symbolic.normal_order("ad^2*a^2")
                       + symbolic.normal_order("4*ad*a") + symbolic.normal_order("2*I")),
              verdict=True),
        Check("vacuum_expectation_matrix",
              "symbolic vacuum expectation matches matrix element",
              vacuum_matrix,
              tolerance=1e-10),
        Check("matrix_homomorphism",
              "normal form assembles to the same matrix as direct evaluation",
              homomorphism,
              tolerance=1e-10),
        Check("adjoint_commutes",
              "normal_order(w†) = normal_order(w)† for seeded words w: reversed, a <-> a†, coefficient conjugated",
              adjoint_commutes,
              verdict=True),
        Check("sum_and_difference",
              "normal_order(x) ± normal_order(y) = their coefficients' exact sums, key by key, for seeded words",
              sum_and_difference,
              verdict=True),
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


# ---------------------------------------------------------------------------
# domains: the inputs each suite accepts


def _any_config(config) -> None:
    """The fock and symbolic suites run on every config the field rules pass."""


def _analytic_domain(config) -> None:
    if config.k_max >= _TAYLOR_CHECK_DIM:
        raise ValueError(f"k_max {config.k_max} exceeds {_TAYLOR_CHECK_DIM - 1}, the analytic suite's limit: "
                         f"its Taylor check runs at dim {_TAYLOR_CHECK_DIM}")
    if config.k_max < _LEAST_K_MAX:
        raise ValueError(f"k_max {config.k_max} is below {_LEAST_K_MAX}, the least at which the analytic suite's "
                         f"ratio test decides: by the per-step growth bound, its last "
                         f"{analytic.VERDICT_WINDOW} term ratios at t={max(_SERIES_TS):g} on modes <= "
                         f"{_ANALYTIC_TOP_MODE} are below {analytic.RATIO_CONVERGED} from there")


def _weyl_domain(config) -> None:
    weyl.check_truncation(config.t, config.s, config.effective_dim(), _WEYL_TOL)


def _schrodinger_domain(config) -> None:
    """GridResolutionError unless pi/h, h = 2L/m, the largest wavenumber of the
    grid, reaches 1, the ground state's momentum width; then raise as the
    suite's guards would, at m and 2m, by calling them."""
    L, m, scheme = config.grid_l, config.grid_m, config.scheme
    h = schrodinger._grid_step(-L, L, m)
    if math.pi / h < 1.0:
        raise schrodinger.GridResolutionError(f"grid L={L!r}, m={m} has step h={h:.6g}: its largest wavenumber "
                                              "pi/h is below 1, the momentum width of the oscillator's ground state")
    schrodinger._check_level_count(_GRID_LEVELS, m)
    for size in (2 * m, 4 * m):  # a step that underflows on a refined grid outranks every check at m
        schrodinger._grid_step(-L, L, size)
    for size in (m, 2 * m):
        schrodinger.vacuum_annihilation_residual(L, size, scheme)
        schrodinger.hermite_basis(L, size, _GRID_TOP_MODE)


def _irregular_domain(config) -> None:
    t, s = config.t, config.s
    for a, b, m in ((config.interval_a, config.interval_b, config.interval_m),) + _CONTRAST_INTERVALS:
        if not 0 < t < b - a:  # U_t shifts by t within the interval
            raise ValueError(f"t={t} is outside 0 < t < {b - a}, the length of the interval "
                             f"({a}, {b}) that the {config.suite} suite builds")
        interval.IntervalRepSpec(a, b, m)  # the interval is a grid before s and t are read on it
        # the points x round by up to u max|x|, u = 2^-53: the phase s x by |s| times that,
        # the smooth psi e^{-(x - c)^2} by at most that, both within the closed-form tolerance
        rounding = 2.0**-53 * max(abs(a), abs(b)) * max(abs(s), 1.0)
        if rounding > _CLOSED_FORM_TOL:
            raise ValueError(f"s={s!r} on the interval ({a}, {b}) that the {config.suite} suite builds: "
                             f"the phase s*x and the smooth psi's x - c round by up to {rounding:.3g}, "
                             f"above {_CLOSED_FORM_TOL:g}, the tolerance of its closed-form checks")
        interval.aligned_spec(a, b, t, m)


DOMAINS = {"fock": _any_config, "analytic": _analytic_domain, "weyl": _weyl_domain,
           "schrodinger": _schrodinger_domain, "irregular": _irregular_domain, "symbolic": _any_config}
