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
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccrlab import interval, schrodinger
from ccrlab.interval import IntervalRepSpec
from spectral_oracles import fourier_sector, rayleigh_quotients, record_sectors, record_solvers


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


def test_aligned_spec_helper():
    spec = interval.aligned_spec(0.0, 5.0, 0.5, 256)
    assert spec.m >= 256
    steps = 0.5 / spec.h
    assert abs(steps - round(steps)) < 1e-9


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


def _indexed_number_operator(a, b, m):
    """The real-mode number operator built from K x K index arrays: the
    construction interval_number_operator replaced by strided views."""
    length, K = b - a, m // 2
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
    p2 = np.tile((2.0 * np.pi * j / length) ** 2, 2)
    Q2[np.diag_indices(2 * K + 1)] += np.concatenate([[0.0], p2]) - 1.0
    return Q2 / 2.0


@pytest.mark.parametrize("a, b, m", [(0.0, 1.0, 16), (0.0, 1.0, 256), (0.3, 2.2, 100), (-7.0, -1.5, 257),
                                     (-2.5, 2.6, 33), (1.0, 4.0, 1024)])
def test_number_operator_matches_index_array_builder(a, b, m):
    assert np.array_equal(interval.interval_number_operator(IntervalRepSpec(a, b, m)),
                          _indexed_number_operator(a, b, m))


def test_number_operator_memory():
    # the non-centred interval is one matrix of side m + 1 (32 MiB at m = 2048)
    # beside one Toeplitz + Hankel block of side m/2; index arrays took 88.1 MiB
    spec = IntervalRepSpec(0.0, 1.0, 2048)
    tracemalloc.start()
    try:
        interval.interval_number_operator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20  # 40.2 MiB measured


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
    """The lowest levels of N on a centred interval, from eigvalsh of both
    whole Fourier sectors of 2N + 1."""
    with pytest.MonkeyPatch.context() as patch:
        sectors = record_sectors(patch)
        interval._number_levels(spec, count)
    levels = [np.linalg.eigvalsh(fourier_sector(*sector))[:count] for sector in sectors]
    return (np.sort(np.concatenate(levels))[:count] - 1.0) / 2.0


@settings(max_examples=20, deadline=None)
@given(half=st.floats(0.25, 20.0), m=st.integers(16, 2048), data=st.data())
def test_number_levels_lie_within_their_bound_of_the_dense_solve(half, m, data):
    # few levels, where the Fourier blocks are used, or any count below m/2
    count = data.draw(st.one_of(st.integers(1, min(12, m // 2 - 1)), st.integers(1, m // 2 - 1)), label="count")
    spec = IntervalRepSpec(-half, half, m)
    N = interval.interval_number_operator(spec)
    want, V = np.linalg.eigh(N)
    norm = max(abs(want[0]), abs(want[-1]))
    got, bound = interval._number_levels(spec, count)
    assert np.all(bound >= 0.0)
    assert np.abs(got - want[:count]).max() < 1e-12 * norm  # the tolerance of the dense test above
    # a level from a Fourier block has its own bound; every other one is the whole-block value, bit for bit
    fresh = np.flatnonzero(got != _whole_block_levels(spec, count))
    tol = bound[fresh] + 8 * _U * norm
    dense = want[fresh]
    # eigh of the whole matrix carries rounding of its own (up to 2e-9 at half-length 0.5,
    # m = 1024); where that shows, the Rayleigh quotient of its eigenvector, in extended
    # precision, gives the dense value to far below u ||N||
    loose = np.abs(got[fresh] - dense) > tol
    dense[loose] = rayleigh_quotients(N, V[:, fresh[loose]])
    assert np.all(np.abs(got[fresh] - dense) <= tol)


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
    # an interval that is not centred is one matrix, solved whole
    spec = IntervalRepSpec(0.0, 1.0, 256)
    for count in (1, 3, 127):
        solves.clear()
        got, bound = interval._number_levels(spec, count)
        assert solves == [("eigvalsh", 257)] and not bound.any()
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


@settings(max_examples=30, deadline=None)
@given(half=st.floats(0.25, 20.0), grid_l=st.floats(1.0, 16.0), m=st.integers(16, 2048), count=st.integers(1, 12))
@example(half=2.5, grid_l=3.0, m=512, count=6)
def test_a_sector_solved_whole_spends_at_most_a_tenth_of_its_cube_on_blocks(half, grid_l, m, count):
    sectors = []
    find = schrodinger._schur_levels

    def recorded(column, symbol, sector, tau, count):
        with pytest.MonkeyPatch.context() as patch:
            solves = record_solvers(patch)
            found = find(column, symbol, sector, tau, count)
        sectors.append((sector[1], found, solves))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger, "_schur_levels", recorded)
        interval._number_levels(IntervalRepSpec(-half, half, m), min(count, m // 2 - 1))
        schrodinger._oscillator_levels(grid_l, m, schrodinger.SPECTRAL, min(count, m // 4))
    assert len(sectors) == 4
    for n, found, solves in sectors:
        if found is None:
            assert sum(side**3 for _, side in solves) <= 0.1 * n**3


@pytest.mark.parametrize("half, grid_l, m", [(0.5, 3.0, 64), (2.5, 10.0, 255), (20.0, 16.0, 256)])
def test_every_sector_has_0_le_T_le_tau(half, grid_l, m, monkeypatch):
    # the bracket assumes 0 <= T <= tau for the x^2 part T of each sector; check it on the whole sector
    seen = []
    find = schrodinger._schur_levels

    def checked(column, symbol, sector, tau, count):
        T = fourier_sector(column, np.zeros_like(symbol), sector)
        low, high = np.linalg.eigvalsh(T)[[0, -1]]
        seen.append((low >= -1e-12 * tau, 0.9 * tau <= high <= tau * (1 + 1e-12)))
        return find(column, symbol, sector, tau, count)

    monkeypatch.setattr(schrodinger, "_schur_levels", checked)
    interval._number_levels(IntervalRepSpec(-half, half, m), 3)
    schrodinger._oscillator_levels(grid_l, m, schrodinger.SPECTRAL, 3)
    schrodinger._oscillator_levels(grid_l, m, schrodinger.CENTRAL_DIFFERENCE, 3)
    assert len(seen) == 6 and all(all(ok) for ok in seen)  # and tau is within 10 % of the top of T


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
    # -0.334093, 19.365663, 19.446496 (m=256 vs m=512 agree to ~7e-11)
    ev = interval.interval_number_spectrum(IntervalRepSpec(0.0, 1.0, 256), 3)
    assert abs(ev[0] - (-0.334093)) < 1e-4
    assert abs(ev[1] - 19.365663) < 1e-4
    nearest = np.clip(np.round(ev), 0, None)
    assert np.min(np.abs(ev - nearest)) > 0.05


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
