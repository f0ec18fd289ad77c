"""Series diagnostics, Taylor exponentials, growth bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from ccrlab import analytic, fock
from ccrlab.rng import SplitMix64
from ccrlab.reports import random_fock_state


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
    # ||p^k e_0|| = ||q^k e_0||: both ladder combinations differ by phases
    d, kmax = 128, 30
    q, p = fock.build_position(d), fock.build_momentum(d)
    e0 = fock.FockState.basis_state(0)
    rq = analytic.analytic_series(q, e0, 1.0, kmax)
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
    p = fock.build_momentum(d)
    e0 = fock.FockState.basis_state(0)
    got = analytic.taylor_exp(1j * p, 1.0, e0, 60)
    want = scipy_expm(1j * p) @ e0.vector(d)
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
    q = fock.build_position(64)
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
    q = fock.build_position(64)
    rep = analytic.single_power_bound_report(q, np.ones(6), 0)
    assert rep.direct_norm <= rep.triangle_sum
    assert rep.needed_constant > 1.1
    assert rep.direct_norm / rep.nominal_bound < 1.0


def test_single_power_bound_single_mode_within_bound():
    q = fock.build_position(32)
    rep = analytic.single_power_bound_report(q, np.array([1.0]), 4)
    assert rep.needed_constant <= 1.0 + 1e-12
