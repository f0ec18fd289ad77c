"""Series diagnostics, Taylor exponentials, growth bounds."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from ccrlab import analytic, fock
from ccrlab.rng import SplitMix64
from ccrlab.reports import RunConfig, analytic_suite, random_fock_state


def _reference_analytic_series(A, xi, t, k_max):
    """The per-vector, full-dim series evaluation that the block kernel
    replaced, kept as its oracle: a dim-length vector, one product and one
    norm per power.  One line differs from the replaced code: xi is scaled
    to unit norm before the first product, so that log_norms[k] is
    log ||A^k xi|| (the replaced code gave every term k >= 1 an extra
    factor ||xi||)."""
    dim = fock._operator_dim(A)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if xi.support < 0:
        raise ValueError("xi must be a nonzero vector")
    if xi.support + k_max + 1 > dim:
        raise ValueError("guard band violated")
    v = xi.vector(dim)
    log_t = math.log(t) if t > 0 else -math.inf

    log_norms = [math.log(np.linalg.norm(v))]  # log ||A^k xi||, -inf once zero
    v = v / np.linalg.norm(v)
    for _ in range(k_max):
        if math.isinf(log_norms[-1]):
            log_norms.append(-math.inf)
            continue
        v = A @ v
        nrm = np.linalg.norm(v)
        if not np.isfinite(nrm):
            raise analytic.SeriesOverflowError(len(log_norms))
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
            raise analytic.SeriesOverflowError(k)
        terms.append(math.exp(log_term))

    partial_sums = [float(s) for s in np.cumsum(terms)]
    ratios = [terms[k + 1] / terms[k] for k in range(len(terms) - 1) if terms[k] > 0.0]
    verdict = analytic._verdict(ratios)

    tail = None
    if verdict == "converged":
        last = terms[-1]
        rho = ratios[-1] if ratios else 0.0
        tail = last * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return analytic.SeriesReport(float(t), terms, partial_sums, ratios, verdict, k_max, tail)


def _reference_check_growth_bound(q, phi, k):
    """The per-vector, full-dim growth check that the block kernel replaced."""
    dim = fock._operator_dim(q)
    M = phi.support
    if M < 0:
        raise ValueError("phi must be nonzero")
    bound = analytic.corrected_growth_bound(dim, M, k) * phi.norm()
    v = phi.vector(dim)
    for _ in range(k):
        v = q @ v
    return float(np.linalg.norm(v)), bound


def _assert_series_agree(got, want):
    assert got.verdict == want.verdict and got.k_max == want.k_max and got.t == want.t
    assert len(got.ratios) == len(want.ratios)
    for name in ("terms", "partial_sums", "ratios"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0)
    if want.tail_estimate is None:
        assert got.tail_estimate is None
    else:
        np.testing.assert_allclose(got.tail_estimate, want.tail_estimate, rtol=1e-12, atol=0)


# tridiagonal and dense operators, and the annihilator: a^k xi = 0 once k exceeds the support
_OPERATORS = {
    "q": fock.Tridiagonal.position,
    "p": fock.Tridiagonal.momentum,
    "dense q": fock.build_position,
    "nilpotent a": fock.build_annihilator,
}
_COEFFS = st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=11).filter(
    lambda pairs: any(pair != (0, 0) for pair in pairs)
)


# Below t of about 1e-3 the high-order terms of a 60-term series fall into
# the subnormal range, where two correct evaluations round to different
# subnormals, so relative agreement is only asked for from 1e-3 on.
@settings(max_examples=150, deadline=None)
@given(
    vectors=st.lists(_COEFFS, min_size=1, max_size=4),
    k_max=st.integers(1, 60),
    extra=st.integers(0, 16),
    ts=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), min_size=1, max_size=3),
    name=st.sampled_from(sorted(_OPERATORS)),
    data=st.data(),
)
def test_block_kernel_matches_per_vector_reference(vectors, k_max, extra, ts, name, data):
    states = [fock.FockState(np.array([complex(re, im) / 8 for re, im in pairs])) for pairs in vectors]
    top = max(xi.support for xi in states)
    dim = top + k_max + 1 + extra
    A = _OPERATORS[name](dim)
    block = np.zeros((top + 1, len(states)), dtype=complex)
    for j, xi in enumerate(states):
        block[: xi.support + 1, j] = xi.coeffs[: xi.support + 1]

    reports = analytic.analytic_series_block(A, block, ts, k_max)
    assert len(reports) == len(ts) and all(len(row) == len(states) for row in reports)
    for i, t in enumerate(ts):
        for j, xi in enumerate(states):
            want = _reference_analytic_series(A, xi, t, k_max)
            _assert_series_agree(reports[i][j], want)
            _assert_series_agree(analytic.analytic_series(A, xi, t, k_max), want)

    powers = data.draw(st.lists(st.integers(0, k_max), min_size=len(states), max_size=len(states)))
    lhs, bound = analytic.growth_bound_block(A, block, powers)
    for j, (xi, k) in enumerate(zip(states, powers)):
        want_lhs, want_bound = _reference_check_growth_bound(A, xi, k)
        np.testing.assert_allclose([lhs[j], bound[j]], [want_lhs, want_bound], rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "A, t",
    [
        (fock.Tridiagonal.position(64), 1e300),  # a term above e^700
        (fock.build_position(64), 1e150),
        (fock.Tridiagonal.momentum(64), 1e200),
        (np.full((16, 16), 1e308), 1.0),  # ||A xi|| itself is not finite
    ],
)
@pytest.mark.parametrize("coeffs", [[1.0], [2.0, 1j, -0.5], [0.0, 0.0, 0.25]])
def test_overflow_k_matches_reference(A, t, coeffs):
    xi = fock.FockState(np.array(coeffs))
    with pytest.raises(analytic.SeriesOverflowError) as want:
        _reference_analytic_series(A, xi, t, 10)
    with pytest.raises(analytic.SeriesOverflowError) as got:
        analytic.analytic_series(A, xi, t, 10)
    assert got.value.k == want.value.k


def test_series_terms_against_matrix_powers():
    # terms are t^k/k! ||A^k xi|| for a vector of norm other than 1
    q = fock.build_position(32)
    xi = fock.FockState(np.array([2.0, 1j, -0.5]))
    rep = analytic.analytic_series(fock.Tridiagonal.position(32), xi, 0.7, 12)
    v = xi.vector(32)
    want = [0.7**k / math.factorial(k) * np.linalg.norm(np.linalg.matrix_power(q, k) @ v) for k in range(13)]
    np.testing.assert_allclose(rep.terms, want, rtol=1e-12, atol=0)


def test_power_log_norms_reaches_zero_once():
    # a e_2 = sqrt2 e_1, a^2 e_2 = sqrt2 e_0, a^3 e_2 = 0 and stays 0
    got = analytic.power_log_norms(fock.build_annihilator(8), np.array([[0.0], [0.0], [1.0]]), 5)[:, 0]
    np.testing.assert_allclose(np.exp(got[:3]), [1.0, math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-15)
    assert np.all(got[3:] == -np.inf)


def test_block_rejects_a_zero_column_and_checks_the_top_mode():
    q = fock.Tridiagonal.position(16)
    with pytest.raises(ValueError, match="nonzero"):
        analytic.analytic_series_block(q, np.array([[1.0, 0.0]]), (1.0,), 5)
    with pytest.raises(ValueError, match="nonzero"):
        analytic.growth_bound_block(q, np.array([[1.0, 0.0]]), [1, 1])
    block = np.zeros((5, 2))
    block[0, 0] = block[4, 1] = 1.0  # the second column reaches mode 4: 4 + 12 + 1 > 16
    with pytest.raises(ValueError, match="guard band"):
        analytic.analytic_series_block(q, block, (1.0,), 12)
    assert len(analytic.analytic_series_block(q, block, (1.0,), 11)[0]) == 2


def test_analytic_suite_reach():
    # the mode window makes the suite's work independent of dim
    def records(dim):
        return [(r.name, r.status, r.measured) for r in analytic_suite(RunConfig(suite="analytic", dim=dim, seed=7))]

    want = records(256)
    start = time.perf_counter()
    got = records(2**20)
    assert time.perf_counter() - start < 1.0
    assert got == want
    tracemalloc.start()
    try:
        records(2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20  # 49.0 MiB measured, nearly all of it the d-length off-diagonals of q and p


def test_t_zero_only_first_term():
    q = fock.build_position(32)
    rep = analytic.analytic_series(q, fock.FockState.basis_state(0), 0.0, 20)
    assert rep.verdict == "converged"
    assert rep.terms[0] == 1.0
    assert all(x == 0.0 for x in rep.terms[1:])
    assert rep.partial_sums[-1] == 1.0


def test_position_series_on_vacuum_converges():
    q = fock.build_position(64)
    rep = analytic.analytic_series(q, fock.FockState.basis_state(0), 1.0, 40)
    assert rep.verdict == "converged"
    assert all(r < 0.9 for r in rep.ratios[-5:])
    assert rep.tail_estimate is not None and rep.tail_estimate < 1e-10


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_mode_window_states_converge(t):
    # vectors supported on a window of modes m..m+n stay summable for
    # every tested t, for both quadratures; t = 5 needs the full default
    # k_max before the ratio window clears the threshold
    d, k_max = 256, 60
    coeffs = np.zeros(9, complex)
    coeffs[4:9] = [1, -0.5, 2, 1j, 0.25]
    xi = fock.FockState(coeffs)
    for op in (fock.build_position(d), fock.build_momentum(d)):
        rep = analytic.analytic_series(op, xi, t, k_max)
        assert rep.verdict == "converged"


def test_momentum_series_matches_position_profile():
    # ||p^k e_0|| = ||q^k e_0||: both ladder combinations differ by phases;
    # the dense and the tridiagonal q, p give the same profile
    d, kmax = 128, 30
    e0 = fock.FockState.basis_state(0)
    rq = analytic.analytic_series(fock.build_position(d), e0, 1.0, kmax)
    for p in (fock.build_momentum(d), fock.Tridiagonal.momentum(d), fock.Tridiagonal.position(d)):
        rp = analytic.analytic_series(p, e0, 1.0, kmax)
        assert np.abs(np.array(rq.terms) - np.array(rp.terms)).max() < 1e-10


def test_partial_sums_nondecreasing_and_ratios_positive():
    q = fock.build_position(80)
    gen = SplitMix64(5)
    xi = random_fock_state(gen, 6)
    rep = analytic.analytic_series(q, xi, 1.5, 40)
    assert (np.diff(rep.partial_sums) >= -1e-15).all()
    assert all(r >= 0 for r in rep.ratios)


def test_verdict_stable_under_larger_kmax():
    q = fock.build_position(160)
    e1 = fock.FockState.basis_state(1)
    assert analytic.analytic_series(q, e1, 2.0, 40).verdict == "converged"
    assert analytic.analytic_series(q, e1, 2.0, 80).verdict == "converged"


def test_diverging_verdict_for_squared_position():
    # sum t^k/k! ||(q^2)^k e_0|| has term ratios ~ t at large k, so t = 2
    # is genuinely divergent and the ratio test must say so
    d = 128
    q = fock.build_position(d)
    q2 = q @ q
    rep = analytic.analytic_series(q2, fock.FockState.basis_state(0), 2.0, 40)
    assert rep.verdict == "diverging"


def test_zero_vector_rejected():
    q = fock.build_position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState(np.zeros(3)), 1.0, 5)


def test_guard_band_enforced():
    q = fock.build_position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState.basis_state(4), 1.0, 12)


def test_negative_t_rejected():
    q = fock.build_position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState.basis_state(0), -1.0, 5)


def test_overflow_reports_k():
    q = fock.build_position(64)
    with pytest.raises(analytic.SeriesOverflowError) as err:
        analytic.analytic_series(q, fock.FockState.basis_state(0), 1e300, 40)
    assert err.value.k >= 1


def test_series_report_json_fields():
    q = fock.build_position(32)
    rep = analytic.analytic_series(q, fock.FockState.basis_state(0), 0.5, 10)
    names = {f.name for f in dataclasses.fields(rep)}
    assert names == {"t", "terms", "partial_sums", "ratios", "verdict", "k_max", "tail_estimate"}
    assert rep.k_max == 10 and len(rep.terms) == 11


def test_taylor_exp_zero_matrix_returns_xi():
    A = np.zeros((8, 8), complex)
    xi = fock.FockState(np.array([1.0, 2.0, 3.0j]))
    out = analytic.taylor_exp(A, 1.7, xi, 5)
    assert np.abs(out.coeffs[:3] - xi.coeffs).max() < 1e-15


def test_taylor_exp_diagonal_action():
    n_op = fock.build_number(64)
    out = analytic.taylor_exp(n_op, 0.3, fock.FockState.basis_state(2), 40)
    assert abs(out.coeffs[2] - math.exp(0.6)) < 1e-12
    mask = np.ones(64, bool)
    mask[2] = False
    assert np.abs(out.coeffs[mask]).max() == 0.0


def test_taylor_exp_matches_scipy_expm():
    d = 64
    e0 = fock.FockState.basis_state(0)
    want = scipy_expm(1j * fock.build_momentum(d)) @ e0.vector(d)
    for p in (fock.build_momentum(d), fock.Tridiagonal.momentum(d)):
        got = analytic.taylor_exp(1j * p, 1.0, e0, 60)
        assert np.linalg.norm(got.coeffs - want) < 1e-8


def test_taylor_exp_refuses_divergent_series():
    d = 128
    q = fock.build_position(d)
    with pytest.raises(analytic.ConvergenceError) as err:
        analytic.taylor_exp(q @ q, 2.0, fock.FockState.basis_state(0), 40)
    assert err.value.report.verdict == "diverging"


def test_taylor_exp_with_report():
    q = fock.build_position(64)
    xi = fock.FockState.basis_state(0)
    state = analytic.taylor_exp(q, 0.5, xi, 40)
    assert analytic.analytic_series(q, xi, 0.5, 40).verdict == "converged"
    assert state.norm() > 0


def test_growth_bound_k0_is_norm():
    assert analytic.corrected_growth_bound(16, 3, 0) == 1.0


def test_growth_bound_single_application():
    q = fock.build_position(16)
    lhs, bound = analytic.check_growth_bound(q, fock.FockState.basis_state(0), 1)
    assert abs(lhs - 1 / math.sqrt(2)) < 1e-14
    assert abs(bound - math.sqrt(2)) < 1e-14
    assert lhs <= bound


def test_growth_bound_random_window():
    q = fock.build_position(64)
    gen = SplitMix64(42)
    for _ in range(100):
        phi = random_fock_state(gen, 3)
        lhs, bound = analytic.check_growth_bound(q, phi, 5)
        assert lhs <= bound * (1 + 1e-12)


def test_growth_bound_support_error():
    q = fock.build_position(8)
    with pytest.raises(ValueError):
        analytic.corrected_growth_bound(8, 4, 4)
    with pytest.raises(ValueError):
        analytic.check_growth_bound(q, fock.FockState.basis_state(7), 1)


def test_growth_bound_property_thousand_cases():
    for q in (fock.build_position(64), fock.Tridiagonal.position(64)):
        gen = SplitMix64(0)
        worst = 0.0
        for _ in range(1000):
            mode = gen.randint(0, 8)
            k = gen.randint(0, 12)
            phi = random_fock_state(gen, mode)
            lhs, bound = analytic.check_growth_bound(q, phi, k)
            worst = max(worst, lhs / bound)
        assert worst <= 1.0 + 1e-12


def test_single_power_bound_report_uniform_window():
    # the triangle-step sum genuinely exceeds the nominal bound here
    # (measured 1.1815 for the uniform 6-mode window)
    for q in (fock.build_position(64), fock.Tridiagonal.position(64)):
        rep = analytic.single_power_bound_report(q, np.ones(6), 0)
        assert rep.direct_norm <= rep.triangle_sum
        assert rep.needed_constant > 1.1
        assert rep.direct_norm / rep.nominal_bound < 1.0


def test_single_power_bound_single_mode_within_bound():
    for q in (fock.build_position(32), fock.Tridiagonal.position(32)):
        rep = analytic.single_power_bound_report(q, np.array([1.0]), 4)
        assert rep.needed_constant <= 1.0 + 1e-12
