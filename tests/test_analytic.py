"""Series diagnostics, Taylor exponentials, growth bounds."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from ccrlab import analytic, fock
from ccrlab.rng import SplitMix64
from ccrlab.reports import RunConfig
from ccrlab.suites import analytic_suite, random_fock_state

import dense_fock as dense


def _plain_verdict(ratios):
    """The ratio test of SeriesReport, stated plainly: the last five ratios
    all below 0.9 converge, all above 1.1 diverge."""
    window = ratios[-5:]
    if window and all(r < 0.9 for r in window):
        return "converged"
    if window and all(r > 1.1 for r in window):
        return "diverging"
    return "inconclusive"


def _reference_analytic_series(A, xi, t, k_max):
    """The per-vector, full-dim series evaluation that the block kernel
    replaced, kept as its oracle: a dim-length vector, one product and one
    norm per power.  One line differs from the replaced code: xi is scaled
    to unit norm before the first product, so that log_norms[k] is
    log ||A^k xi|| (the replaced code gave every term k >= 1 an extra
    factor ||xi||)."""
    dim = dense._operator_dim(A)
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
    verdict = _plain_verdict(ratios)

    tail = None
    if verdict == "converged":
        last = terms[-1]
        rho = ratios[-1] if ratios else 0.0
        tail = last * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return analytic.SeriesReport(float(t), terms, partial_sums, ratios, verdict, k_max, tail)


def _reference_check_growth_bound(q, phi, k):
    """The per-vector, full-dim growth check that the block kernel replaced."""
    dim = dense._operator_dim(q)
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


# tridiagonal q and p, the pentadiagonal q^2, which moves a vector up two modes a
# product, and the annihilator: a^k xi = 0 once k exceeds the support
_OPERATORS = {
    "q": fock.Band.position,
    "p": fock.Band.momentum,
    "q squared": lambda dim: fock.Band.position(dim) @ fock.Band.position(dim),
    "nilpotent a": fock.Band.annihilator,
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
    assert analytic.series_verdict_block(A, block, ts, k_max).tolist() == [[r.verdict for r in row] for row in reports]
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


def _log_norm_column(k_max):
    """A column of a log-norm table, log ||A^k x|| for k = 0..k_max: a walk;
    a walk above log k!, whose series can diverge; one that vanishes (-inf)
    from some k on; one that falls steeply, so that its terms underflow to 0
    partway; or values far below 0, whose terms are subnormal or 0 and come
    back.  No ratio of two terms leaves the double range, as none does for a
    table of ||A^k x||."""
    def walk(low, high):
        return st.lists(st.floats(low, high), min_size=k_max, max_size=k_max).map(lambda steps: np.cumsum([0.0] + steps))
    log_factorials = np.array([math.lgamma(k + 1) for k in range(k_max + 1)])
    vanishing = st.tuples(walk(-3.0, 3.0), st.integers(1, k_max)).map(
        lambda pair: np.concatenate([pair[0][: pair[1]], np.full(k_max + 1 - pair[1], -np.inf)]))
    scattered = st.lists(st.one_of(st.floats(-800.0, -100.0), st.just(-np.inf)),
                         min_size=k_max + 1, max_size=k_max + 1).map(np.array)
    return st.one_of(walk(-3.0, 3.0), walk(-1.0, 3.0).map(log_factorials.__add__), vanishing, walk(-60.0, 2.0),
                     scattered)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k_max=st.integers(5, 60), t=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
def test_array_verdicts_are_the_plain_ratio_test(data, k_max, t):
    # every column's verdict against the ratio test read off its own terms, one column at a time;
    # t = 0 leaves every term after k = 0 zero
    columns = data.draw(st.lists(_log_norm_column(k_max), min_size=1, max_size=5))
    terms, *_, verdicts = analytic._series_table(np.stack(columns, axis=1), t, k_max)
    for j, verdict in enumerate(verdicts.tolist()):
        column = terms[:, j].tolist()
        assert verdict == _plain_verdict([column[k + 1] / column[k] for k in range(k_max) if column[k] > 0.0])


_OVERFLOW_CASES = [
    (fock.Band.position(64), 1e300),  # a term above e^700
    (dense.band_of(dense.build_position(64)), 1e150),  # every diagonal stored
    (fock.Band.momentum(64), 1e200),
    (dense.band_of(np.full((16, 16), 1e308)), 1.0),  # ||A xi|| itself is not finite
]
# four equal modes make the entries of A xi inf for the 1e308 matrix, so every later power is nan
_OVERFLOW_COEFFS = [[1.0], [2.0, 1j, -0.5], [0.0, 0.0, 0.25], [1.0, 1.0, 1.0, 1.0]]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("A, t", _OVERFLOW_CASES)
@pytest.mark.parametrize("coeffs", _OVERFLOW_COEFFS)
def test_overflow_k_matches_reference(A, t, coeffs):
    xi = fock.FockState(np.array(coeffs))
    with pytest.raises(analytic.SeriesOverflowError) as want:
        _reference_analytic_series(A, xi, t, 10)
    with pytest.raises(analytic.SeriesOverflowError) as got:
        analytic.analytic_series(A, xi, t, 10)
    assert got.value.k == want.value.k


def test_series_terms_against_matrix_powers():
    # terms are t^k/k! ||A^k xi|| for a vector of norm other than 1
    q = dense.build_position(32)
    xi = fock.FockState(np.array([2.0, 1j, -0.5]))
    rep = analytic.analytic_series(fock.Band.position(32), xi, 0.7, 12)
    v = xi.vector(32)
    want = [0.7**k / math.factorial(k) * np.linalg.norm(np.linalg.matrix_power(q, k) @ v) for k in range(13)]
    np.testing.assert_allclose(rep.terms, want, rtol=1e-12, atol=0)


def test_power_log_norms_reaches_zero_once():
    # a e_2 = sqrt2 e_1, a^2 e_2 = sqrt2 e_0, a^3 e_2 = 0 and stays 0
    got = analytic.power_log_norms(fock.Band.annihilator(8), np.array([[0.0], [0.0], [1.0]]), 5)[:, 0]
    np.testing.assert_allclose(np.exp(got[:3]), [1.0, math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-15)
    assert np.all(got[3:] == -np.inf)


def test_block_rejects_a_zero_column_and_checks_the_top_mode():
    q = fock.Band.position(16)
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
    assert peak < 8 * 2**20  # q and p are built on the suite's largest window, not at dim


def test_t_zero_only_first_term():
    q = fock.Band.position(32)
    rep = analytic.analytic_series(q, fock.FockState.basis_state(0), 0.0, 20)
    assert rep.verdict == "converged"
    assert rep.terms[0] == 1.0
    assert all(x == 0.0 for x in rep.terms[1:])
    assert rep.partial_sums[-1] == 1.0


def test_position_series_on_vacuum_converges():
    q = fock.Band.position(64)
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
    for op in (fock.Band.position(d), fock.Band.momentum(d)):
        rep = analytic.analytic_series(op, xi, t, k_max)
        assert rep.verdict == "converged"


def test_momentum_series_matches_position_profile():
    # ||p^k e_0|| = ||q^k e_0||: both ladder combinations differ by phases;
    # p stored by every diagonal of its dense matrix gives the same profile
    d, kmax = 128, 30
    e0 = fock.FockState.basis_state(0)
    rq = analytic.analytic_series(fock.Band.position(d), e0, 1.0, kmax)
    for p in (dense.band_of(dense.build_momentum(d)), fock.Band.momentum(d), fock.Band.position(d)):
        rp = analytic.analytic_series(p, e0, 1.0, kmax)
        assert np.abs(np.array(rq.terms) - np.array(rp.terms)).max() < 1e-10


def test_partial_sums_nondecreasing_and_ratios_positive():
    q = fock.Band.position(80)
    gen = SplitMix64(5)
    xi = random_fock_state(gen, 6)
    rep = analytic.analytic_series(q, xi, 1.5, 40)
    assert (np.diff(rep.partial_sums) >= -1e-15).all()
    assert all(r >= 0 for r in rep.ratios)


def test_verdict_stable_under_larger_kmax():
    q = fock.Band.position(160)
    e1 = fock.FockState.basis_state(1)
    assert analytic.analytic_series(q, e1, 2.0, 40).verdict == "converged"
    assert analytic.analytic_series(q, e1, 2.0, 80).verdict == "converged"


def test_diverging_verdict_for_squared_position():
    # sum t^k/k! ||(q^2)^k e_0|| has term ratios ~ t at large k, so t = 2
    # is genuinely divergent and the ratio test must say so
    d = 128
    q = fock.Band.position(d)
    q2 = q @ q
    rep = analytic.analytic_series(q2, fock.FockState.basis_state(0), 2.0, 40)
    assert rep.verdict == "diverging"


def test_zero_vector_rejected():
    q = fock.Band.position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState(np.zeros(3)), 1.0, 5)


def test_guard_band_enforced():
    q = fock.Band.position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState.basis_state(4), 1.0, 12)


def test_negative_t_rejected():
    q = fock.Band.position(16)
    with pytest.raises(ValueError):
        analytic.analytic_series(q, fock.FockState.basis_state(0), -1.0, 5)


def test_overflow_reports_k():
    q = fock.Band.position(64)
    with pytest.raises(analytic.SeriesOverflowError) as err:
        analytic.analytic_series(q, fock.FockState.basis_state(0), 1e300, 40)
    assert err.value.k >= 1


def test_series_report_json_fields():
    q = fock.Band.position(32)
    rep = analytic.analytic_series(q, fock.FockState.basis_state(0), 0.5, 10)
    names = set(type(rep).__slots__)
    assert names == {"t", "terms", "partial_sums", "ratios", "verdict", "k_max", "tail_estimate"}
    assert rep.k_max == 10 and len(rep.terms) == 11


def test_taylor_exp_zero_matrix_returns_xi():
    A = fock.Band(8, {0: np.zeros(8, complex)})
    xi = fock.FockState(np.array([1.0, 2.0, 3.0j]))
    out = analytic.taylor_exp(A, 1.7, xi, 5)
    assert np.abs(out.coeffs[:3] - xi.coeffs).max() < 1e-15


def test_taylor_exp_diagonal_action():
    n_op = fock.Band.creator(64) @ fock.Band.annihilator(64)
    out = analytic.taylor_exp(n_op, 0.3, fock.FockState.basis_state(2), 40)
    assert abs(out.coeffs[2] - math.exp(0.6)) < 1e-12
    mask = np.ones(64, bool)
    mask[2] = False
    assert np.abs(out.coeffs[mask]).max() == 0.0


def test_taylor_exp_matches_scipy_expm():
    d = 64
    e0 = fock.FockState.basis_state(0)
    want = scipy_expm(1j * dense.build_momentum(d)) @ e0.vector(d)
    for p in (dense.band_of(dense.build_momentum(d)), fock.Band.momentum(d)):
        got = analytic.taylor_exp(1j * p, 1.0, e0, 60)
        assert np.linalg.norm(got.coeffs - want) < 1e-8


def test_taylor_exp_refuses_divergent_series():
    d = 128
    q = fock.Band.position(d)
    with pytest.raises(analytic.ConvergenceError) as err:
        analytic.taylor_exp(q @ q, 2.0, fock.FockState.basis_state(0), 40)
    assert err.value.report.verdict == "diverging"


def test_taylor_exp_with_report():
    q = fock.Band.position(64)
    xi = fock.FockState.basis_state(0)
    state = analytic.taylor_exp(q, 0.5, xi, 40)
    assert analytic.analytic_series(q, xi, 0.5, 40).verdict == "converged"
    assert state.norm() > 0


def _full_taylor_sum(A, t, xi, k_max):
    """The Taylor sum on all A.dim modes, the oracle of the windowed one."""
    term = xi.vector(A.dim)
    acc = term.copy()
    for k in range(1, k_max + 1):
        term = (t / k) * (A @ term)
        acc += term
    return acc


def test_taylor_exp_window_is_the_full_sum():
    q = fock.Band.position(200)
    cases = [
        (1j * fock.Band.momentum(128), 1.0, fock.FockState.basis_state(0), 60),
        (fock.Band.creator(64) @ fock.Band.annihilator(64), 0.3, fock.FockState.basis_state(2), 40),
        (q, -0.7, fock.FockState(np.array([0.3, 1j, -0.2, 0.5])), 50),
        (q @ q, 0.05, fock.FockState.basis_state(1), 40),  # offsets -2..2: a window of top + 2 k_max + 1
        (fock.Band.annihilator(64), 0.9, fock.FockState(np.arange(10.0)), 30),
        (fock.Band.creator(80), 0.4, fock.FockState(np.array([1.0, 0.5j]), fock.UNNORMALIZED), 20),
    ]
    for A, t, xi, k_max in cases:
        got = analytic.taylor_exp(A, t, xi, k_max).coeffs
        assert got.shape == (A.dim,)
        assert np.array_equal(got, _full_taylor_sum(A, t, xi, k_max))  # bit for bit


def test_taylor_exp_cost_does_not_grow_with_dim():
    d = 2**20
    A = 1j * fock.Band.momentum(d)
    e0 = fock.FockState.basis_state(0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = analytic.taylor_exp(A, 1.0, e0, 60)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sum runs on 61 modes; the result is one d-length array (16 MiB, see
    # test_taylor_exp_result_is_not_copied); the sum on all d modes took 1.0-1.2 s with a 64 MiB peak
    assert elapsed < 0.5
    assert peak <= 40 * 2**20
    small = analytic.taylor_exp(1j * fock.Band.momentum(128), 1.0, e0, 60).coeffs
    assert np.array_equal(got.coeffs[:128], small) and not got.coeffs[128:].any()


def test_taylor_exp_result_is_not_copied():
    d = 2**20
    A = 1j * fock.Band.momentum(d)
    e0 = fock.FockState.basis_state(0)
    tracemalloc.start()
    try:
        got = analytic.taylor_exp(A, 1.0, e0, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the padded d-length result (16 MiB) is the state's own array, not copied into another
    assert peak <= 17 * 2**20
    assert not got.coeffs.flags.writeable


def test_growth_bound_k0_is_norm():
    assert analytic.corrected_growth_bound(16, 3, 0) == 1.0


def test_growth_bound_single_application():
    q = fock.Band.position(16)
    lhs, bound = analytic.check_growth_bound(q, fock.FockState.basis_state(0), 1)
    assert abs(lhs - 1 / math.sqrt(2)) < 1e-14
    assert abs(bound - math.sqrt(2)) < 1e-14
    assert lhs <= bound


def test_growth_bound_random_window():
    q = fock.Band.position(64)
    gen = SplitMix64(42)
    for _ in range(100):
        phi = random_fock_state(gen, 3)
        lhs, bound = analytic.check_growth_bound(q, phi, 5)
        assert lhs <= bound * (1 + 1e-12)


def test_growth_bound_support_error():
    q = fock.Band.position(8)
    with pytest.raises(ValueError):
        analytic.corrected_growth_bound(8, 4, 4)
    with pytest.raises(ValueError):
        analytic.check_growth_bound(q, fock.FockState.basis_state(7), 1)


def test_growth_bound_property_thousand_cases():
    q = fock.Band.position(64)
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
    for q in (dense.band_of(dense.build_position(64)), fock.Band.position(64)):
        rep = analytic.single_power_bound_block(q, [(np.ones(6), 0)])[0]
        assert rep.direct_norm <= rep.triangle_sum
        assert rep.needed_constant > 1.1
        assert rep.direct_norm / rep.nominal_bound < 1.0


def test_single_power_bound_single_mode_within_bound():
    for q in (dense.band_of(dense.build_position(32)), fock.Band.position(32)):
        rep = analytic.single_power_bound_block(q, [(np.array([1.0]), 4)])[0]
        assert rep.needed_constant <= 1.0 + 1e-12


def _reference_power_log_norms(A, block, k_max):
    """power_log_norms as it read its column norms through np.linalg.norm, with
    an errstate per power and np.isfinite over every norm: kept as the
    reference whose bytes the kernel must give."""
    dim = A.dim
    block = np.asarray(block)
    window = analytic._mode_window(A, block.shape[0], k_max)
    if window < dim:
        A = A.cut(window)
    V = np.zeros((window, block.shape[1]), dtype=complex)
    V[: block.shape[0]] = block
    log_norms = np.empty((k_max + 1, block.shape[1]))
    for k in range(k_max + 1):
        if k:
            V = A @ V
        nrm = np.linalg.norm(V, axis=0)
        if not np.all(np.isfinite(nrm)):
            raise analytic.SeriesOverflowError(k)
        with np.errstate(divide="ignore"):
            log_norms[k] = np.log(nrm)
        if k:
            log_norms[k] += log_norms[k - 1]
        V /= np.where(nrm > 0.0, nrm, 1.0)
    return log_norms


def _reference_single_power_bound_report(q, coeffs, m):
    """The single-power report of one sample from a block and a kernel pass
    of its own: the reference each sample of a batched block must match."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.size - 1
    top = m + n
    terms = coeffs * np.array([fock.sqrt_factorial(m + j) for j in range(n + 1)])
    block = np.zeros((top + 1, n + 2), dtype=complex)
    block[m:, 0] = terms
    block[m + np.arange(n + 1), 1 + np.arange(n + 1)] = terms
    norms = np.exp(_reference_power_log_norms(q, block, 1)[1])
    nominal = math.sqrt(2.0) * float(np.max(np.abs(coeffs))) * math.exp(0.5 * math.lgamma(top + 2))
    return analytic.SinglePowerBoundReport(float(norms[0]), float(np.sum(norms[1:])), nominal)


def test_power_log_norms_is_the_norm_loop_byte_for_byte():
    # random q and p blocks of 1 to 6 columns, and of up to 70 x 50 like the growth check's, the
    # first column zero in every other block; the kernel scales the real and the imaginary parts
    # by 1/||v||, where the reference divides by ||v|| as a complex number
    gen = SplitMix64(2024)
    for trial in range(60):
        wide = trial >= 40
        rows, columns, k_max = gen.randint(1, 70 if wide else 12), gen.randint(1, 50 if wide else 6), gen.randint(1, 60)
        block = gen.complex_components(rows * columns).reshape(rows, columns)
        if trial % 2:
            block[:, 0] = 0.0
        for A in (fock.Band.position(rows + k_max + 3), fock.Band.momentum(rows + 5)):
            got, want = analytic.power_log_norms(A, block, k_max), _reference_power_log_norms(A, block, k_max)
            assert got.tobytes() == want.tobytes()
    # the series overflow cases: the same table, or the same first power that is not finite
    for (A, _), coeffs in itertools.product(_OVERFLOW_CASES, _OVERFLOW_COEFFS):
        block = np.array(coeffs, dtype=complex)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = []
            for kernel in (analytic.power_log_norms, _reference_power_log_norms):
                try:
                    outcomes.append(kernel(A, block, 10).tobytes())
                except analytic.SeriesOverflowError as exc:
                    outcomes.append(exc.k)
        assert outcomes[0] == outcomes[1]
    # a column whose norm overflows raises at the same power (numpy's overflow warning silenced)
    huge = fock.Band(6, {0: np.full(6, 1e200), 1: np.full(5, 1e200)})
    for block, k in ((np.array([[1e300], [1e300]]), 0), (np.array([[1.0, 0.0], [1.0, 2.0]]), 1)):
        with np.errstate(over="ignore"), pytest.raises(analytic.SeriesOverflowError) as want:
            _reference_power_log_norms(huge, block, 3)
        with np.errstate(over="ignore"), pytest.raises(analytic.SeriesOverflowError) as got:
            analytic.power_log_norms(huge, block, 3)
        assert got.value.k == want.value.k == k


def _report_fields(rep):
    return (rep.direct_norm, rep.triangle_sum, rep.nominal_bound)


def test_single_power_bound_block_is_the_per_sample_reports():
    # the analytic suite's seeded batches, and ragged ones with zero terms and longer supports
    q = fock.Band.position(61)
    for seed in (0, 7, 123, 2841):
        block, (starts, tops) = SplitMix64(seed + 3).ragged_components(50, (5, 5), 1)
        block[0] = np.where(block.any(axis=0), block[0], 1.0)
        samples = [(block[: n + 1, j], int(m)) for j, (m, n) in enumerate(zip(starts, tops))]
        got = analytic.single_power_bound_block(q, samples)
        assert [_report_fields(r) for r in got] == [
            _report_fields(_reference_single_power_bound_report(q, c, m)) for c, m in samples]
    gen = SplitMix64(11)
    samples = [(np.array([0.0, 1.0, 0.0, -2j]), 3), (np.ones(12), 0), (np.array([1j]), 40),
               (gen.complex_components(20), 17)]
    got = analytic.single_power_bound_block(q, samples)
    assert [_report_fields(r) for r in got] == [
        _report_fields(_reference_single_power_bound_report(q, c, m)) for c, m in samples]
    assert [_report_fields(analytic.single_power_bound_block(q, [(c, m)])[0]) for c, m in samples] == [
        _report_fields(r) for r in got]
    assert analytic.single_power_bound_block(q, []) == []
    with pytest.raises(ValueError, match="exceeds dimension"):
        analytic.single_power_bound_block(q, [(np.ones(2), 0), (np.ones(2), 59)])
    with pytest.raises(ValueError, match="nonzero"):
        analytic.single_power_bound_block(q, [(np.ones(2), 0), (np.zeros(2), 0)])
