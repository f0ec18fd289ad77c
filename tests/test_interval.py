"""Irregular realization on a periodic interval: exact wrap residuals,
spectra away from the integers, line-limit contrast.

The closed-form wrap residual was derived by hand before building: the
two Weyl orderings agree except on the wrapped window [a, a+t), where
they differ by the seam phase jump e^{-is(b-a)} - 1; integrating gives
residual^2 = |e^{-is(b-a)} - 1|^2 * int_a^{a+t} |psi|^2.  On (0,1) with
t = 1/2, s = pi, psi = 1 that is 4 * 1/2 = 2.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ccrlab import interval
from ccrlab.interval import IntervalRepSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        IntervalRepSpec(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        IntervalRepSpec(0.0, 1.0, 8)


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


def test_translation_and_phase_unitary():
    spec = IntervalRepSpec(0.0, 1.0, 64)
    U = interval.translation_matrix(spec, 0.25)
    V = interval.phase_matrix(spec, 2.2)
    assert np.abs(U @ U.conj().T - np.eye(64)).max() < 1e-12
    assert np.abs(V @ V.conj().T - np.eye(64)).max() < 1e-12


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
def test_centred_interval_has_no_cos_sin_coupling(half, m):
    # the blocks drop <cos|x^2|sin>, which vanishes exactly when a + b = 0
    N = interval.interval_number_operator(IntervalRepSpec(-half, half, m))
    K = m // 2
    assert np.abs(N[1 : K + 1, K + 1 :]).max() < 1e-12 * np.linalg.norm(N, 2)
    cos, sin = interval._number_blocks(IntervalRepSpec(-half, half, m))
    scale = np.linalg.norm(N, 2)
    assert np.abs(cos - N[: K + 1, : K + 1]).max() < 1e-13 * scale
    assert np.abs(sin - N[K + 1 :, K + 1 :]).max() < 1e-13 * scale


def test_number_parity_sectors_closed_form():
    # on (-20, 20) the even oscillator levels 0, 2, 4 sit in the cos block, the odd ones in the sin block
    cos, sin = (np.linalg.eigvalsh(b)[:3] for b in interval._number_blocks(IntervalRepSpec(-20.0, 20.0, 1024)))
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
