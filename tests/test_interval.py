"""Irregular realization on a periodic interval: exact wrap residuals,
spectra away from the integers, line-limit contrast.

The closed-form wrap residual was derived by hand before building: the
two Weyl orderings agree except on the wrapped window [a, a+t), where
they differ by the seam phase jump e^{-is(b-a)} - 1; integrating gives
residual^2 = |e^{-is(b-a)} - 1|^2 * int_a^{a+t} |psi|^2.  On (0,1) with
t = 1/2, s = pi, psi = 1 that is 4 * 1/2 = 2.
"""

import math
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ccrlab import interval, schrodinger
from ccrlab.interval import IntervalRepSpec
from spectral_oracles import fourier_sector, rayleigh_quotients, record_sectors, record_solvers


@pytest.mark.parametrize("a, b", [(0.0, 1e103), (-1e103, 1e103), (-4.6e102, 4.6e102)])
def test_an_interval_whose_cubes_overflow_is_refused(a, b):
    # the general path, then the centred one: b^3 overflows in a float **, and at
    # +-4.6e102 each cube is finite but their difference is not
    with pytest.raises(schrodinger.GridResolutionError, match=r"b\^3 - a\^3 overflows"):
        interval.interval_number_spectrum(IntervalRepSpec(a, b, 256), 3)


def test_spec_validation():
    for a, b, m in ((1.0, 0.0, 64), (1.0, 0.0, 16), (0.0, 1.0, 8)):
        with pytest.raises(ValueError):
            IntervalRepSpec(a, b, m)
    # the grid's step rule: b - a overflows, so h and the points would be inf and nan
    with pytest.raises(schrodinger.GridResolutionError, match="has no positive finite step: x_max - x_min overflows"):
        IntervalRepSpec(-1e308, 1e308, 256)


def test_spec_is_immutable_and_keyed_by_its_fields():
    # the suites' memo is keyed by the spec, so equal fields must give an equal key
    spec = IntervalRepSpec(0.0, 1.0, 256)
    with pytest.raises(AttributeError):
        spec.m = 512
    with pytest.raises(AttributeError):
        del spec.a
    assert (spec.a, spec.b, spec.m) == (0.0, 1.0, 256)
    same = IntervalRepSpec(0.0, 1.0, 256)
    assert same == spec and hash(same) == hash(spec) and len({spec, same}) == 1
    assert spec != IntervalRepSpec(0.0, 1.0, 320) and spec != (0.0, 1.0, 256)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_constant_state_normalized():
    spec = IntervalRepSpec(0.0, 2.0, 64)
    psi = spec.constant_state()
    assert abs(math.sqrt(spec.h) * np.linalg.norm(psi) - 1.0) < 1e-14


def test_wrap_residual_is_sqrt2():
    spec = IntervalRepSpec(0.0, 1.0, 256)
    r = interval.interval_weyl_residual(spec, 0.5, math.pi)
    assert abs(r - math.sqrt(2.0)) < 1e-8


def test_wrap_residual_matches_closed_form_constant():
    spec = IntervalRepSpec(0.0, 1.0, 256)
    for s in (0.7, math.pi, 2.5, 6.0):
        r = interval.interval_weyl_residual(spec, 0.25, s)
        want = interval.closed_form_wrap_residual(spec, 0.25, s)
        assert abs(r - want) < 1e-8


def test_wrap_residual_matches_closed_form_smooth():
    spec = IntervalRepSpec(0.0, 1.0, 256)
    x = spec.points
    psi = (np.sin(2 * np.pi * x) + 2.0).astype(complex)
    psi /= math.sqrt(spec.h) * np.linalg.norm(psi)
    r = interval.interval_weyl_residual(spec, 0.5, 1.3, psi)
    want = interval.closed_form_wrap_residual(spec, 0.5, 1.3, psi)
    assert abs(r - want) < 1e-8


def test_residual_does_not_decay_under_refinement():
    for m in (256, 512, 1024):
        r = interval.interval_weyl_residual(IntervalRepSpec(0.0, 1.0, m), 0.5, math.pi)
        assert abs(r - math.sqrt(2.0)) < 0.01 * math.sqrt(2.0)


def test_compatible_s_gives_zero_residual():
    spec = IntervalRepSpec(0.0, 1.0, 256)
    assert interval.interval_weyl_residual(spec, 0.25, 2 * math.pi) < 1e-10
    spec2 = IntervalRepSpec(-1.0, 3.0, 128)
    assert interval.interval_weyl_residual(spec2, 0.5, math.pi) < 1e-10  # s*(b-a) = 4 pi


def test_s_zero_trivial():
    spec = IntervalRepSpec(0.0, 1.0, 64)
    assert interval.interval_weyl_residual(spec, 0.25, 0.0) < 1e-12


def test_residual_periodic_in_s():
    spec = IntervalRepSpec(0.0, 1.0, 128)
    s0 = 1.1
    r0 = interval.interval_weyl_residual(spec, 0.25, s0)
    r1 = interval.interval_weyl_residual(spec, 0.25, s0 + 2 * math.pi / spec.length)
    assert abs(r0 - r1) < 1e-12


def _translation_matrix(spec, t):
    """U_t as a dense rolled identity: (U_t f)(x) = f(x + t mod length)."""
    r = round(t / spec.h)
    return np.roll(np.eye(spec.m, dtype=complex), -r, axis=0)


def _phase_matrix(spec, s):
    """V_s = multiplication by e^{isx}, as a dense diagonal."""
    return np.diag(np.exp(1j * s * spec.points))


def _dense_unitarity_defect(U):
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


def test_translation_and_phase_unitary():
    spec = IntervalRepSpec(0.0, 1.0, 64)
    U = _translation_matrix(spec, 0.25)
    V = _phase_matrix(spec, 2.2)
    f = np.exp(np.arange(64.0)).astype(complex)
    assert np.array_equal(U @ f, np.roll(f, -16))  # the cyclic shift of interval_weyl_residual
    assert _dense_unitarity_defect(U) == 0.0
    assert _dense_unitarity_defect(V) < 1e-12
    assert interval.unitarity_defect(spec, 0.25, 2.2) < 1e-12


@pytest.mark.parametrize("a, b, m, t, s", [(0.0, 1.0, 64, 0.25, 2.2), (0.0, 1.0, 256, 0.5, 0.5),
                                            (-2.5, 2.5, 320, 0.5, 7.0), (0.3, 2.2, 190, 0.1, -3.3)])
def test_unitarity_defect_matches_dense_matrices(a, b, m, t, s):
    spec = IntervalRepSpec(a, b, m)
    want = max(_dense_unitarity_defect(_translation_matrix(spec, t)), _dense_unitarity_defect(_phase_matrix(spec, s)))
    assert interval.unitarity_defect(spec, t, s) == want


def test_unitarity_defect_shows_a_nan_phase():
    # s x overflows, so a phase is NaN: the defect is NaN, not 0.0; t must still be aligned
    spec = IntervalRepSpec(0.0, 1e10, 256)
    with np.errstate(all="ignore"):
        assert math.isnan(interval.unitarity_defect(spec, 4 * spec.h, 1e300))
    with pytest.raises(ValueError, match="not grid-aligned"):
        interval.unitarity_defect(IntervalRepSpec(0.0, 1.0, 64), 0.3, 1.0)


def test_unitarity_defect_memory():
    spec = IntervalRepSpec(0.0, 1.0, 2048)
    tracemalloc.start()
    try:
        interval.unitarity_defect(spec, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # vectors of m samples; the dense U_t and V_s held 128 MiB at m = 2048


def test_t_alignment_enforced():
    spec = IntervalRepSpec(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        interval.interval_weyl_residual(spec, 0.3, 1.0)  # 0.3 * 64 = 19.2 steps
    with pytest.raises(ValueError):
        interval.interval_weyl_residual(spec, 0.0, 1.0)
    with pytest.raises(ValueError):
        interval.interval_weyl_residual(spec, 1.5, 1.0)
    with pytest.raises(ValueError, match="nonzero integer"):
        interval.interval_weyl_residual(spec, 1e-12, 1.0)  # 6.4e-11 steps: U_t would be the identity


@pytest.mark.parametrize("route", [interval.interval_weyl_residual, interval.closed_form_wrap_residual,
                                   interval.interval_weyl_residual_expm])
@pytest.mark.parametrize("m, t, message", [(256, 2.0, "need 0 < t < 1"), (256, -0.25, "need 0 < t < 1"),
                                           (51, 0.3, "not grid-aligned")])
def test_every_wrap_route_checks_t_alike(route, m, t, message):
    # 0.3 is 15.3 steps of 51: odd m has no Nyquist mode, and the expm route needs the shift's r all the same
    with pytest.raises(ValueError, match=message):
        route(IntervalRepSpec(0.0, 1.0, m), t, 1.0)


@pytest.mark.parametrize("route", [interval.interval_weyl_residual, interval.closed_form_wrap_residual])
def test_wrap_routes_check_psi_alike(route):
    with pytest.raises(ValueError, match="psi must have 256 samples"):
        route(IntervalRepSpec(0.0, 1.0, 256), 0.25, 1.0, np.ones(10))


def test_aligned_spec_helper():
    spec = interval.aligned_spec(0.0, 5.0, 0.5, 256)
    assert spec.m >= 256
    steps = 0.5 / spec.h
    assert abs(steps - round(steps)) < 1e-9
    # t is at least one step: below a step of every m searched, no m aligns it
    with pytest.raises(ValueError, match="no grid-aligned sample count near 256 for t=1e-12"):
        interval.aligned_spec(0.0, 1.0, 1e-12, 256)


@pytest.mark.parametrize("a, b, message", [
    (0.0, 0.0, "x_max must exceed x_min"),
    (1.0, 0.0, "x_max must exceed x_min"),
    (0.0, 1e-320, r"t=0\.5 is inf steps of the interval \(0\.0, 1e-320\) at m=256: not a finite count"),
])
def test_aligned_spec_checks_its_interval_before_it_searches(a, b, message):
    # an empty or reversed interval is no IntervalRepSpec, and a step count t m/(b - a) that
    # overflows aligns nothing: each is refused at m_target, not searched or divided by zero
    with pytest.raises(ValueError, match=message):
        interval.aligned_spec(a, b, 0.5, 256)


def test_expm_route_agrees_with_exact_shift():
    spec = IntervalRepSpec(0.0, 1.0, 128)
    r_shift = interval.interval_weyl_residual(spec, 0.25, 1.7)
    r_expm = interval.interval_weyl_residual_expm(spec, 0.25, 1.7)
    assert abs(r_shift - r_expm) < 1e-8


@pytest.mark.parametrize("m, t", [(258, 0.5), (260, 0.25), (18, 0.5), (256, 0.5), (128, 0.25), (51, 1 / 3)])
def test_expm_route_moves_the_nyquist_mode_as_the_shift_does(m, t):
    # shift counts t*m of 129, 65 and 9 are odd, of 128 and 32 even; odd m has no Nyquist mode
    spec = IntervalRepSpec(0.0, 1.0, m)
    for s in (0.5, 1.7):
        exact = interval.interval_weyl_residual(spec, t, s)
        assert abs(exact - interval.interval_weyl_residual_expm(spec, t, s)) < 1e-12


def test_number_spectrum_count_edge_cases():
    spec = IntervalRepSpec(0.0, 1.0, 64)
    assert interval.interval_number_spectrum(spec, 0).size == 0
    with pytest.raises(ValueError):
        interval.interval_number_spectrum(spec, 40)


def _complex_fourier_number_operator(a, b, m):
    """(q^2 + p^2 - 1)/2 on the Fourier modes e^{2 pi i k x/(b-a)}, |k| <= m//2,
    from the antiderivative of x^2 e^{-i nu x} evaluated at both ends."""
    length, K = b - a, m // 2

    def x2_coeff(n):
        if n == 0:
            return (b**3 - a**3) / (3.0 * length)
        nu = 2.0 * math.pi * n / length
        F = lambda x: np.exp(-1j * nu * x) * (1j * x * x / nu + 2.0 * x / nu**2 - 2j / nu**3)
        return (F(b) - F(a)) / length

    ks = np.arange(-K, K + 1)
    coeffs = np.array([x2_coeff(n) for n in range(-2 * K, 2 * K + 1)])
    Q2 = coeffs[ks[:, None] - ks[None, :] + 2 * K]
    return (Q2 + np.diag((2.0 * np.pi * ks / length) ** 2) - np.eye(ks.size)) / 2.0


def _indexed_x2(a, b, m):
    """x^2 in the real mode basis built from K x K index arrays: the
    construction `interval._x2_columns` replaced by strided views."""
    K = m // 2
    C, S = interval._x2_mode_integrals(a, b, 2 * K)
    j = np.arange(1, K + 1)
    diff, total = j[:, None] - j[None, :], j[:, None] + j[None, :]
    cos_sin = S[total] - np.sign(diff) * S[np.abs(diff)]  # <cos_j|x^2|sin_l> = S_{j+l} + S_{l-j}
    Q2 = np.empty((2 * K + 1, 2 * K + 1))
    Q2[0, 0] = C[0]
    Q2[0, 1:] = Q2[1:, 0] = math.sqrt(2.0) * np.concatenate([C[1 : K + 1], S[1 : K + 1]])
    Q2[1 : K + 1, 1 : K + 1] = C[np.abs(diff)] + C[total]
    Q2[K + 1 :, K + 1 :] = C[np.abs(diff)] - C[total]
    Q2[1 : K + 1, K + 1 :] = cos_sin
    Q2[K + 1 :, 1 : K + 1] = cos_sin.T
    return Q2


def _indexed_number_operator(a, b, m):
    """The real-mode number operator (x^2 + p^2 - 1)/2, x^2 from `_indexed_x2`."""
    length, K = b - a, m // 2
    Q2 = _indexed_x2(a, b, m)
    p2 = np.tile((2.0 * np.pi * np.arange(1, K + 1) / length) ** 2, 2)
    Q2[np.diag_indices(2 * K + 1)] += np.concatenate([[0.0], p2]) - 1.0
    return Q2 / 2.0


@pytest.mark.parametrize("a, b, m", [(0.0, 1.0, 16), (0.0, 1.0, 256), (0.3, 2.2, 100), (-7.0, -1.5, 257),
                                     (-2.5, 2.6, 33), (1.0, 4.0, 1024)])
def test_number_operator_matches_index_array_builder(a, b, m):
    assert np.array_equal(interval.interval_number_operator(IntervalRepSpec(a, b, m)),
                          _indexed_number_operator(a, b, m))


def test_number_operator_memory():
    # the non-centred interval is one matrix of side m + 1 (32 MiB at m = 2048), each Toeplitz
    # +- Hankel part written into it in place; index arrays took 88.1 MiB, and forming each
    # part of side m/2 before copying it in took 40.2 MiB
    spec = IntervalRepSpec(0.0, 1.0, 2048)
    tracemalloc.start()
    try:
        interval.interval_number_operator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20  # 32.3 MiB measured


@settings(max_examples=40, deadline=None)
@given(length=st.floats(0.25, 20.0), a=st.one_of(st.none(), st.floats(-20.0, 20.0)), m=st.integers(16, 640),
       share=st.floats(0.0, 1.0))
@example(length=1.0, a=0.0, m=256, share=1.0)  # J = K: the whole matrix
@example(length=5.0, a=-2.5, m=17, share=0.0)  # J = 1 on a centred interval
def test_x2_columns_are_the_columns_of_the_index_array_oracle(length, a, m, share):
    a = -length / 2 if a is None else a
    K = m // 2
    J = max(1, round(share * K))
    C, S = interval._x2_mode_integrals(a, a + length, 2 * K)
    got = interval._x2_columns(C, S, K, J)
    want = _indexed_x2(a, a + length, m)[:, np.r_[0 : J + 1, K + 1 : K + J + 1]]
    assert got.shape == want.shape == (2 * K + 1, 2 * J + 1) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a, b, m", [(0.0, 1.0, 64), (-2.5, 2.5, 128), (0.3, 2.2, 100), (-7.0, -1.5, 257)])
def test_real_mode_spectrum_matches_complex_fourier_basis(a, b, m):
    N = interval.interval_number_operator(IntervalRepSpec(a, b, m))
    assert N.dtype == np.float64 and np.array_equal(N, N.T)
    want = np.linalg.eigvalsh(_complex_fourier_number_operator(a, b, m))
    assert np.abs(np.linalg.eigvalsh(N) - want).max() < 1e-9 * np.linalg.norm(N, 2)


@pytest.mark.parametrize("a, b", [(-2.5, 2.5), (-20.0, 20.0), (0.0, 1.0), (0.3, 2.2)])
@pytest.mark.parametrize("m", [16, 17, 64, 255, 256, 1024])
def test_number_spectrum_matches_dense_eigvalsh(a, b, m):
    # centred intervals are solved as two blocks, the others whole
    N = _complex_fourier_number_operator(a, b, m)
    count = m // 2 - 1
    want = np.linalg.eigvalsh(N)[:count]
    got = interval.interval_number_spectrum(IntervalRepSpec(a, b, m), count)
    assert np.abs(got - want).max() < 1e-12 * np.linalg.norm(N, 2)


@pytest.mark.parametrize("half, m", [(0.5, 64), (2.5, 255), (10.0, 256), (20.0, 1024)])
def test_centred_interval_has_no_cos_sin_coupling(half, m, monkeypatch):
    # the sectors drop <cos|x^2|sin>, which vanishes exactly when a + b = 0
    N = interval.interval_number_operator(IntervalRepSpec(-half, half, m))
    K = m // 2
    assert np.abs(N[1 : K + 1, K + 1 :]).max() < 1e-12 * np.linalg.norm(N, 2)
    sectors = record_sectors(monkeypatch)
    interval.interval_number_spectrum(IntervalRepSpec(-half, half, m), 3)
    # each sector is 2N + 1 on its modes
    cos, sin = ((fourier_sector(*sector) - np.eye(sector[2][1])) / 2.0 for sector in sectors)
    scale = np.linalg.norm(N, 2)
    assert np.abs(cos - N[: K + 1, : K + 1]).max() < 1e-13 * scale
    assert np.abs(sin - N[K + 1 :, K + 1 :]).max() < 1e-13 * scale


def test_number_parity_sectors_closed_form(monkeypatch):
    # on (-20, 20) the even oscillator levels 0, 2, 4 sit in the cos sector, the odd ones in the sin sector
    sectors = record_sectors(monkeypatch)
    interval.interval_number_spectrum(IntervalRepSpec(-20.0, 20.0, 1024), 3)
    cos, sin = ((np.linalg.eigvalsh(fourier_sector(*sector))[:3] - 1.0) / 2.0 for sector in sectors)
    assert np.abs(cos - [0.0, 2.0, 4.0]).max() < 1e-10
    assert np.abs(sin - [1.0, 3.0, 5.0]).max() < 1e-10


def test_number_spectrum_memory():
    spec = IntervalRepSpec(-10.0, 10.0, 2048)
    interval.interval_number_spectrum(spec, 6)
    tracemalloc.start()
    try:
        interval.interval_number_spectrum(spec, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20  # two blocks of side about 1024, not one of 2049


_U = 2.0**-53


def _whole_block_levels(spec, count):
    """The lowest levels of N from the whole solves its route would make:
    eigvalsh of N on an interval that is not centred, and of both whole
    Fourier sectors of 2N + 1 on a centred one."""
    if spec.a + spec.b != 0:
        return np.linalg.eigvalsh(interval.interval_number_operator(spec))[:count]
    with pytest.MonkeyPatch.context() as patch:
        sectors = record_sectors(patch)
        interval._number_levels(spec, count)
    levels = [np.linalg.eigvalsh(fourier_sector(*sector))[:count] for sector in sectors]
    return (np.sort(np.concatenate(levels))[:count] - 1.0) / 2.0


@settings(max_examples=30, deadline=None)
@given(length=st.floats(0.25, 20.0), m=st.integers(16, 2048), a=st.one_of(st.none(), st.floats(-20.0, 20.0)),
       count=st.one_of(st.integers(1, 12), st.integers(1, 1023)))
@example(length=1.0, m=256, a=0.0, count=3)  # the irregular suite's interval
def test_number_levels_lie_within_their_bound_of_the_dense_solve(length, m, a, count):
    # a centred interval (a None: two sectors) or any other (the whole operator); few levels,
    # where the Fourier blocks are used, or any count below m/2
    a = -length / 2 if a is None else a
    count = min(count, m // 2 - 1)
    spec = IntervalRepSpec(a, a + length, m)
    N = interval.interval_number_operator(spec)
    want, V = np.linalg.eigh(N)
    norm = max(abs(want[0]), abs(want[-1]))
    got, bound = interval._number_levels(spec, count)
    assert np.all(bound >= 0.0)
    if spec.a + spec.b != 0:  # a block is accepted at e_count <= u (kappa_max + tau) on 2N + 1
        kappa_max = (2 * np.pi * (m // 2) / spec.length) ** 2
        assert np.all(bound <= _U * (kappa_max + max(spec.a * spec.a, spec.b * spec.b)) / 2)
    assert np.abs(got - want[:count]).max() < 1e-12 * norm  # the tolerance of the dense test above
    # a level from a Fourier block has its own bound, sigma_i <= lambda_i <= sigma_i + e_i;
    # every other one is the whole-solve value, bit for bit
    fresh = np.flatnonzero(got != _whole_block_levels(spec, count))
    slack = 8 * _U * norm
    dense = want[fresh]
    # eigh of the whole matrix carries rounding of its own (up to 2e-9 at half-length 0.5,
    # m = 1024); where that shows, the Rayleigh quotient of its eigenvector, in extended
    # precision, gives the dense value to far below u ||N||
    loose = (dense < got[fresh] - slack) | (dense > got[fresh] + bound[fresh] + slack)
    dense[loose] = rayleigh_quotients(N, V[:, fresh[loose]])
    assert np.all(got[fresh] - slack <= dense) and np.all(dense <= got[fresh] + bound[fresh] + slack)


@pytest.mark.parametrize("half", [20.0, 10.0])
def test_number_block_sizes_do_not_grow_with_m(half, monkeypatch):
    solves = record_solvers(monkeypatch)
    per_m = {}
    for m in (1024, 2048):
        solves.clear()
        levels, bound = interval._number_levels(IntervalRepSpec(-half, half, m), 3)
        assert np.abs(levels - np.arange(3)).max() < 1e-2 and bound.max() < 1e-18
        per_m[m] = list(solves)
    # a few dozen modes per sector, against sectors of side 513 and 1025
    assert per_m[1024] == per_m[2048] and max(side for _, side in per_m[1024]) <= 64


def test_number_whole_sector_path_is_the_block_solve(monkeypatch):
    solves = record_solvers(monkeypatch)
    # an interval that is not centred is one matrix, solved on blocks of its modes of lowest frequency
    spec = IntervalRepSpec(0.0, 1.0, 256)
    for count in (1, 3):
        solves.clear()
        got, bound = interval._number_levels(spec, count)
        assert max(side for _, side in solves) <= 128 and np.all(bound > 0.0)
    # or whole where no block proves its levels within the budget: 127 levels, or 3 on (0, 5) at m = 512
    for spec, count in ((spec, 127), (IntervalRepSpec(0.0, 5.0, 512), 3)):
        solves.clear()
        got, bound = interval._number_levels(spec, count)
        assert solves[-1] == ("eigvalsh", spec.m + 1) and not bound.any()
        assert np.array_equal(got, np.linalg.eigvalsh(interval.interval_number_operator(spec))[:count])
    # the cos sector of (-2.5, 2.5) at m = 512 would need more modes than its budget allows
    spec = IntervalRepSpec(-2.5, 2.5, 512)
    solves.clear()
    sectors = record_sectors(monkeypatch)
    got, bound = interval._number_levels(spec, 6)
    assert ("eigvalsh", 257) in solves
    whole = bound == 0.0
    cos = (np.linalg.eigvalsh(fourier_sector(*sectors[0]))[:6] - 1.0) / 2.0
    assert whole.any() and np.array_equal(got[whole], cos[: np.count_nonzero(whole)])
    assert np.array_equal(interval.interval_number_spectrum(spec, 6), got)


def _whole_x2_number_levels(spec, count):
    """`interval._number_levels` on an interval that is not centred, with
    every block gathered by np.ix_ from the whole x^2 matrix (`_indexed_x2`),
    and eigvalsh of the whole operator where the search gives up."""
    K, tau = spec.m // 2, max(spec.a * spec.a, spec.b * spec.b)
    X, symbol = _indexed_x2(spec.a, spec.b, spec.m), interval._mode_symbol(spec)
    found = schrodinger._schur_levels(lambda rows, cols: X[np.ix_(rows, cols)], symbol,
                                      np.arange(2 * K + 1, dtype=np.int32), tau, count,
                                      lambda sigma: _U * (symbol[-1] + tau))
    if found is None:
        return np.linalg.eigvalsh(_indexed_number_operator(spec.a, spec.b, spec.m))[:count], np.zeros(count)
    return (found[0] - 1.0) / 2.0, found[1] / 2.0


@settings(max_examples=30, deadline=None)
@given(length=st.floats(0.25, 20.0), a=st.floats(-20.0, 20.0), scale=st.sampled_from([0.1, 1.0]),
       m=st.integers(16, 640), count=st.one_of(st.integers(1, 6), st.integers(1, 319)))
@example(length=1.0, a=0.0, scale=1.0, m=256, count=3)  # proved on a block of 77 modes
@example(length=5.0, a=0.0, scale=1.0, m=512, count=3)  # solved whole
def test_non_centred_levels_are_those_of_the_whole_x2_matrix(length, a, scale, m, count):
    # short intervals (scale 0.1) and few levels are proved on blocks, the others mostly solved whole
    spec = IntervalRepSpec(scale * a, scale * (a + length), m)
    assume(spec.a + spec.b != 0)
    count = min(count, m // 2 - 1)
    got, want = interval._number_levels(spec, count), _whole_x2_number_levels(spec, count)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


_LEVEL_HASH = """
import hashlib, numpy as np
from ccrlab import interval
rng, digest, routes = np.random.default_rng(38), hashlib.sha256(), [0, 0]
for i in range(160):
    reach = 2.0 if i % 4 else 20.0
    length, m, a = float(rng.uniform(0.25, reach)), int(rng.integers(16, 640)), float(rng.uniform(-reach, reach))
    count = int(rng.integers(1, 7 if i % 4 else 13)) if i % 8 else int(rng.integers(1, m // 2))
    levels, bounds = interval._number_levels(interval.IntervalRepSpec(a, a + length, m), count)
    routes[not bounds.any()] += 1
    digest.update(levels.tobytes() + bounds.tobytes())
print(digest.hexdigest(), *routes)
"""


def test_non_centred_levels_keep_their_hash(monkeypatch):
    # levels and bounds of 160 random intervals that are not centred, 63 proved on blocks and 97
    # solved whole, in a child process at 1 BLAS thread, where the whole solves do not move; the
    # hash was recorded when every block was gathered from the whole x^2 matrix (numpy 2.4.6 with
    # OpenBLAS on x86-64)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run([sys.executable, "-c", _LEVEL_HASH], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.split() == ["1114f91140192d4020cb9cae504c07b6129b88aecae17b29a84b16430bcd16b5", "63", "97"]


def test_every_gather_reads_the_columns_of_its_block(monkeypatch):
    # a non-centred interval keeps only the x^2 columns on its block's modes: every gather must read
    # the columns of the current block P, a prefix of the modes in order of symbol, at rows P or at
    # all the others; there that order is 0, cos 1, sin 1, cos 2, sin 2, ...
    find, reads = schrodinger._schur_levels, {"sector": 0, "whole": 0}

    def checked(route):
        def search(gather, symbol, modes, *args):
            order = modes[np.argsort(symbol[modes], kind="stable")]
            if route == "whole":
                assert np.array_equal(order, np.r_[0, np.arange(1, modes.size).reshape(2, -1).T.ravel()])

            def read(rows, cols):
                assert np.array_equal(cols, order[: cols.size])
                assert np.array_equal(rows, cols) or np.array_equal(rows, order[cols.size :])
                reads[route] += 1
                return gather(rows, cols)

            return find(read, symbol, modes, *args)
        return search

    monkeypatch.setattr(schrodinger, "_schur_levels", checked("sector"))
    monkeypatch.setattr(interval, "_schur_levels", checked("whole"))
    for a, b, m in ((-10.0, 10.0, 1024), (0.0, 1.0, 256), (0.0, 1.0, 2048), (-7.0, -1.5, 257), (0.0, 5.0, 512)):
        interval._number_levels(IntervalRepSpec(a, b, m), 3)
    schrodinger._oscillator_levels(10.0, 512, schrodinger.SPECTRAL, 6)
    assert reads["sector"] > 0 and reads["whole"] > 0


def test_unit_interval_levels_at_m_2048_read_x2_by_columns():
    # the blocks read the x^2 columns on their modes (1.9 MiB measured); the whole x^2 matrix
    # of side 2049 took 40.2 MiB
    spec = IntervalRepSpec(0.0, 1.0, 2048)
    interval.interval_number_spectrum(spec, 3)
    tracemalloc.start()
    try:
        interval.interval_number_spectrum(spec, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=30, deadline=None)
@given(half=st.floats(0.25, 20.0), a=st.floats(-20.0, 20.0), grid_l=st.floats(1.0, 16.0), m=st.integers(16, 2048),
       count=st.integers(1, 12))
@example(half=2.5, a=0.0, grid_l=3.0, m=512, count=6)
def test_a_sector_solved_whole_spends_at_most_a_tenth_of_its_cube_on_blocks(half, a, grid_l, m, count):
    # two sectors of a centred interval, the whole operator of (a, a + 2 half), two sectors of a grid
    sectors = []
    find = schrodinger._schur_levels

    def recorded(gather, symbol, modes, *args):
        with pytest.MonkeyPatch.context() as patch:
            solves = record_solvers(patch)
            found = find(gather, symbol, modes, *args)
        sectors.append((modes.size, found, solves))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger, "_schur_levels", recorded)
        patch.setattr(interval, "_schur_levels", recorded)
        for spec in (IntervalRepSpec(-half, half, m), IntervalRepSpec(a, a + 2 * half, m)):
            interval._number_levels(spec, min(count, m // 2 - 1))
        schrodinger._oscillator_levels(grid_l, m, schrodinger.SPECTRAL, min(count, m // 4))
    assert len(sectors) == (5 if a + (a + 2 * half) != 0 else 6)
    for n, found, solves in sectors:
        if found is None:
            assert sum(side**3 for _, side in solves) <= 0.1 * n**3


@pytest.mark.parametrize("half, grid_l, m", [(0.5, 3.0, 64), (2.5, 10.0, 255), (20.0, 16.0, 256)])
def test_every_sector_has_0_le_T_le_tau(half, grid_l, m, monkeypatch):
    # the bracket assumes 0 <= T <= tau for the x^2 part T of each sector, and of the whole operator
    # of an interval that is not centred; check it on the whole matrix
    seen = []
    find = schrodinger._schur_levels

    def checked(gather, symbol, modes, tau, *args):
        low, high = np.linalg.eigvalsh(gather(modes, modes))[[0, -1]]
        seen.append((low >= -1e-12 * tau, 0.9 * tau <= high <= tau * (1 + 1e-12)))
        return find(gather, symbol, modes, tau, *args)

    monkeypatch.setattr(schrodinger, "_schur_levels", checked)
    monkeypatch.setattr(interval, "_schur_levels", checked)
    interval._number_levels(IntervalRepSpec(-half, half, m), 3)
    interval._number_levels(IntervalRepSpec(-half / 2, 2 * half, m), 3)
    schrodinger._oscillator_levels(grid_l, m, schrodinger.SPECTRAL, 3)
    schrodinger._oscillator_levels(grid_l, m, schrodinger.CENTRAL_DIFFERENCE, 3)
    assert len(seen) == 7 and all(all(ok) for ok in seen)  # and tau is within 10 % of the top of T


def test_number_block_memory():
    spec = IntervalRepSpec(-10.0, 10.0, 2048)
    interval.interval_number_spectrum(spec, 6)
    tracemalloc.start()
    try:
        interval.interval_number_spectrum(spec, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # 1.0 MiB: the columns of the 24 + 48 block modes, not the 1025-side sectors


def test_unit_interval_spectrum_away_from_integers():
    # frozen from the refinement oracle: lowest three eigenvalues
    # -0.334093, 19.365663, 19.446496 (m=256 vs m=512 agree to 9.7e-11)
    ev = interval.interval_number_spectrum(IntervalRepSpec(0.0, 1.0, 256), 3)
    assert abs(ev[0] - (-0.334093)) < 1e-4
    assert abs(ev[1] - 19.365663) < 1e-4
    nearest = np.clip(np.round(ev), 0, None)
    assert np.min(np.abs(ev - nearest)) > 0.05


def test_unit_interval_levels_do_not_move_with_the_blas_thread_count(monkeypatch):
    # the levels the irregular suite reads, in child processes at 1 and 2 BLAS threads: Fourier
    # blocks of at most 128 modes, where eigvalsh of the whole side-257 and side-513 matrices moves
    code = ("from ccrlab.interval import IntervalRepSpec, interval_number_spectrum; "
            "print([interval_number_spectrum(IntervalRepSpec(0.0, 1.0, m), 3).tobytes().hex() for m in (256, 512)])")
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_unit_interval_spectrum_refinement_agreement():
    e1 = interval.interval_number_spectrum(IntervalRepSpec(0.0, 1.0, 256), 3)
    e2 = interval.interval_number_spectrum(IntervalRepSpec(0.0, 1.0, 512), 3)
    assert np.abs(e1 - e2).max() < 1e-6


def test_leading_order_constant_mode_value():
    # lowest eigenvalue sits near (<x^2> - 1)/2 = -1/3 for the unit interval
    ev = interval.interval_number_spectrum(IntervalRepSpec(0.0, 1.0, 256), 1)
    assert abs(ev[0] - (-1.0 / 3.0)) < 0.01


def test_large_interval_recovers_oscillator():
    ev = interval.interval_number_spectrum(IntervalRepSpec(-20.0, 20.0, 1024), 3)
    assert np.abs(ev - np.arange(3)).max() < 1e-2


def test_contrast_report_single_row():
    spec = interval.aligned_spec(-0.5, 0.5, 0.5, 64)
    rows = interval.interval_vs_line_report([spec], 0.5, 0.5)
    assert len(rows) == 1 and rows[0].length == 1.0


def test_contrast_report_monotone():
    specs = [
        interval.aligned_spec(-0.5, 0.5, 0.5, 128),
        interval.aligned_spec(-2.5, 2.5, 0.5, 256),
        interval.aligned_spec(-10.0, 10.0, 0.5, 512),
    ]
    rows = interval.interval_vs_line_report(specs, 0.5, 0.5)
    residuals = [r.weyl_residual for r in rows]
    distances = [r.spectral_distance for r in rows]
    assert residuals[0] > residuals[1] > residuals[2]
    assert distances[0] > distances[1] > distances[2]
