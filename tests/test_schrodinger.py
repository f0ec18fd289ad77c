"""Grid representation: applied momentum, vacuum, oscillator, Hermite
basis, intertwiner.  Refinement studies double m as the oracle; the
applied momentum is checked against closed forms and against stencil
and kinetic matrices built in the tests, and the parity-block oscillator
spectrum against eigvalsh of the whole matrix built here."""

import math
import tracemalloc

import numpy as np
import pytest

from ccrlab import fock, schrodinger
from ccrlab.schrodinger import GridFunction


def test_grid_function_geometry():
    f = GridFunction(-1.0, 1.0, 8, np.ones(8))
    assert f.h == 0.25
    assert f.points[0] == -1.0 and f.points[-1] == 0.75


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, -1.0, 8, np.ones(8))
    with pytest.raises(ValueError):
        GridFunction(-1.0, 1.0, 4, np.ones(4))
    with pytest.raises(ValueError):
        GridFunction(-1.0, 1.0, 8, np.full(8, np.nan))


def test_spectral_momentum_on_plane_wave():
    L, m = 10.0, 256
    k = 2 * np.pi * 6 / (2 * L)
    f = GridFunction.sample(lambda x: np.exp(1j * k * x), -L, L, m)
    pf = schrodinger.grid_momentum(f.values, -L, L)
    assert np.linalg.norm(pf - k * f.values) / np.linalg.norm(f.values) < 1e-10


def test_spectral_momentum_on_constant():
    assert np.abs(schrodinger.grid_momentum(np.ones(64), -5.0, 5.0)).max() < 1e-12
    # the unpaired Nyquist mode (-1)^j of even m is assigned derivative zero too
    sawtooth = (-1.0) ** np.arange(64)
    assert np.abs(schrodinger.grid_momentum(sawtooth, -5.0, 5.0)).max() < 1e-12


def test_spectral_momentum_on_sine():
    m = 64
    f = GridFunction.sample(np.sin, -np.pi, np.pi, m)
    want = -1j * np.cos(f.points)
    assert np.abs(schrodinger.grid_momentum(f.values, -np.pi, np.pi) - want).max() < 1e-10


def test_central_difference_scheme():
    L, m = 8.0, 512
    f = GridFunction.sample(lambda x: np.exp(-(x**2)), -L, L, m)
    pf = schrodinger.grid_momentum(f.values, -L, L, schrodinger.CENTRAL_DIFFERENCE)
    want = -1j * (-2 * f.points) * np.exp(-(f.points**2))
    assert np.abs(pf - want).max() < 1e-3  # second-order scheme
    # the periodic stencil -i (f[j+1] - f[j-1]) / 2h, built row by row
    h = 2 * L / m
    stencil = np.zeros((m, m), dtype=complex)
    for j in range(m):
        stencil[j, (j + 1) % m] = -1j / (2 * h)
        stencil[j, (j - 1) % m] = 1j / (2 * h)
    assert np.abs(pf - stencil @ f.values).max() < 1e-13
    # both schemes are Hermitian on the periodic grid: <g, p f> = <p g, f>
    rng = np.random.default_rng(3)
    for scheme in (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE):
        f, g = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        f, g = f / np.linalg.norm(f), g / np.linalg.norm(g)
        p = lambda v: schrodinger.grid_momentum(v, -L, L, scheme)
        assert abs(np.vdot(g, p(f)) - np.vdot(p(g), f)) < 1e-12


def test_unknown_scheme():
    with pytest.raises(ValueError):
        schrodinger.grid_momentum(np.ones(16), -1.0, 1.0, "upwind")


def test_vacuum_annihilation_residual_default():
    assert schrodinger.vacuum_annihilation_residual(10.0, 256) < 1e-6


def test_vacuum_opposite_sign_large():
    rep = schrodinger.vacuum_sign_check(10.0, 256)
    assert rep["annihilating_sign"] == "+"
    assert rep["plus_residual"] < 1e-6
    assert rep["minus_residual"] > 0.5


def test_vacuum_zero_function_rejected():
    f = GridFunction(-10.0, 10.0, 64, np.zeros(64))
    with pytest.raises(ValueError):
        schrodinger.annihilation_residual(f)


def test_vacuum_coarse_grid_detected():
    with pytest.raises(schrodinger.GridResolutionError):
        schrodinger.vacuum_annihilation_residual(10.0, 16)


def test_central_difference_vacuum_crosscheck():
    # second-order scheme also resolves the sign, at coarser accuracy
    rep = schrodinger.vacuum_sign_check(10.0, 512, schrodinger.CENTRAL_DIFFERENCE)
    assert rep["annihilating_sign"] == "+"
    assert rep["plus_residual"] < 1e-2
    assert rep["minus_residual"] > 0.5


def test_oscillator_spectrum_odd_integers():
    ev = schrodinger.grid_oscillator_spectrum(10.0, 256, count=6)
    assert np.abs(ev - np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])).max() < 1e-4
    gaps = np.diff(ev)
    assert np.abs(gaps - 2.0).max() < 1e-3


def test_oscillator_spectrum_refinement_oracle():
    e1 = schrodinger.grid_oscillator_spectrum(10.0, 256, count=6)
    e2 = schrodinger.grid_oscillator_spectrum(10.0, 512, count=6)
    assert np.abs(e1 - e2).max() < 1e-8


def test_oscillator_lowest_nonnegative():
    ev = schrodinger.grid_oscillator_spectrum(10.0, 128, count=1)
    assert ev[0] >= -1e-10


def test_oscillator_count_validation():
    with pytest.raises(ValueError):
        schrodinger.grid_oscillator_spectrum(10.0, 64, count=30)


def test_oscillator_spectrum_central_difference():
    # 3-point kinetic stencil: second-order accurate, no sawtooth modes
    ev = schrodinger.grid_oscillator_spectrum(10.0, 512, schrodinger.CENTRAL_DIFFERENCE, 6)
    assert np.abs(ev - np.arange(1, 13, 2)).max() < 0.05
    finer = schrodinger.grid_oscillator_spectrum(10.0, 1024, schrodinger.CENTRAL_DIFFERENCE, 6)
    assert np.abs(finer - np.arange(1, 13, 2)).max() < np.abs(ev - np.arange(1, 13, 2)).max()


def _circulant(column):
    """The circulant matrix C[i, j] = column[(i - j) mod m]."""
    m = column.size
    return column[(np.arange(m)[:, None] - np.arange(m)[None, :]) % m]


def build_grid_kinetic(x_min, x_max, m, scheme=schrodinger.SPECTRAL):
    """Dense oracle for p^2: the real symmetric circulant with first column
    ifft(k^2) (spectral) or the 3-point second-difference stencil."""
    if scheme == schrodinger.SPECTRAL:
        k = schrodinger.grid_wavenumbers(x_min, x_max, m)
        column = np.fft.ifft(k * k).real
        return _circulant((column + np.roll(column[::-1], 1)) / 2.0)  # even, so T = T^T exactly
    h = (x_max - x_min) / m
    column = np.zeros(m)
    column[[0, 1, -1]] = 2.0, -1.0, -1.0
    return _circulant(column / h**2)


def _dense_oscillator(L, m, scheme):
    x = np.linspace(-L, L, m, endpoint=False)
    return build_grid_kinetic(-L, L, m, scheme) + np.diag(x * x)


@pytest.mark.parametrize("m", [16, 17, 64, 256])
def test_kinetic_circulant_matches_dense_momentum_squared(m):
    L = 7.5
    kinetic = lambda scheme: np.column_stack([schrodinger.grid_kinetic(e, -L, L, scheme) for e in np.eye(m)])
    T = kinetic(schrodinger.SPECTRAL)
    # the spectral momentum as a matrix, one applied column at a time
    P = np.column_stack([schrodinger.grid_momentum(e, -L, L) for e in np.eye(m)])
    assert np.abs(T - P @ P).max() < 1e-12 * np.abs(P).max() ** 2 * m
    assert np.abs(T - build_grid_kinetic(-L, L, m)).max() < 1e-12 * np.abs(P).max() ** 2 * m
    # the column the parity blocks are built from is exactly even
    for scheme in (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE):
        c = schrodinger._kinetic_column(-L, L, m, scheme)
        assert c.dtype == np.float64 and np.array_equal(c[1:], c[:0:-1])
    # central differences: the 3-point stencil, built row by row
    h = 2 * L / m
    stencil = np.zeros((m, m))
    for j in range(m):
        stencil[j, j] = 2.0
        stencil[j, (j + 1) % m] -= 1.0
        stencil[j, (j - 1) % m] -= 1.0
    T = kinetic(schrodinger.CENTRAL_DIFFERENCE)
    assert np.abs(T - stencil / h**2).max() < 1e-13 / h**2


def test_kinetic_scheme_validation():
    with pytest.raises(ValueError):
        schrodinger.grid_kinetic(np.ones(16), -1.0, 1.0, "upwind")


@pytest.mark.parametrize("scheme", [schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE])
@pytest.mark.parametrize("m", [16, 17, 64, 255, 256, 1024])
def test_oscillator_spectrum_matches_dense_eigvalsh(m, scheme):
    # the parity blocks against the whole m x m matrix, built here
    L = 10.0
    H = _dense_oscillator(L, m, scheme)
    want = np.linalg.eigvalsh(H)[: m // 4]
    got = schrodinger.grid_oscillator_spectrum(L, m, scheme, m // 4)
    assert np.abs(got - want).max() < 1e-12 * np.linalg.norm(H, 2)


@pytest.mark.parametrize("m", [16, 17, 64, 255, 256])
def test_oscillator_blocks_are_the_parity_sectors(m):
    # each block is H restricted to the even / odd vectors under j -> -j mod m
    H = _dense_oscillator(7.0, m, schrodinger.SPECTRAL)
    even = np.zeros((m, m // 2 + 1))
    odd = np.zeros((m, (m - 1) // 2))
    for i in range(m // 2 + 1):
        even[[i, -i % m], i] = 1.0
    for i in range(1, (m + 1) // 2):
        odd[[i, m - i], i - 1] = 1.0, -1.0
    even /= np.linalg.norm(even, axis=0)
    odd /= np.linalg.norm(odd, axis=0)
    E, O = schrodinger._oscillator_blocks(7.0, m)
    scale = np.linalg.norm(H, 2)
    assert np.abs(E - even.T @ H @ even).max() < 1e-13 * scale
    assert np.abs(O - odd.T @ H @ odd).max() < 1e-13 * scale
    assert np.array_equal(E, E.T) and np.array_equal(O, O.T)


def test_oscillator_parity_sectors_closed_form():
    # even Hermite functions carry 1, 5, 9; odd ones 3, 7, 11
    even, odd = (np.linalg.eigvalsh(b)[:3] for b in schrodinger._oscillator_blocks(10.0, 256))
    assert np.abs(even - [1.0, 5.0, 9.0]).max() < 1e-10
    assert np.abs(odd - [3.0, 7.0, 11.0]).max() < 1e-10


def test_oscillator_spectrum_memory():
    schrodinger.grid_oscillator_spectrum(10.0, 2048)
    tracemalloc.start()
    try:
        schrodinger.grid_oscillator_spectrum(10.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20  # two blocks of side 1025, not one of 2048


def test_hermite_ground_state_is_gaussian():
    basis = schrodinger.hermite_basis(10.0, 256, 0)
    x = basis[0].points
    g = np.exp(-x * x / 2)
    g = g / (math.sqrt(basis[0].h) * np.linalg.norm(g))
    assert np.abs(basis[0].values - g).max() < 1e-12


def test_hermite_gram_identity():
    assert schrodinger.intertwiner_gram_defect(10.0, 256, 7) < 1e-8


def test_hermite_norms_unit():
    for b in schrodinger.hermite_basis(10.0, 256, 8):
        assert abs(b.norm() - 1.0) < 1e-12


def test_hermite_norm_drift_small():
    assert schrodinger.hermite_norm_drift(10.0, 256, 8) < 1e-8


def test_hermite_number_eigenfunctions():
    L, m = 10.0, 256
    basis = schrodinger.hermite_basis(L, m, 8)
    x = basis[0].points
    h = 2 * L / m
    for n, b in enumerate(basis):
        p_b = schrodinger.grid_momentum(b.values, -L, L)
        n_b = (x * x * b.values + schrodinger.grid_momentum(p_b, -L, L) - b.values) / 2
        assert math.sqrt(h) * np.linalg.norm(n_b - n * b.values) < 1e-4


def test_hermite_nmax_guard():
    with pytest.raises(ValueError):
        schrodinger.hermite_basis(10.0, 256, 41)


def test_hermite_instability_detected():
    # tiny box: the recurrence drifts because the functions do not fit
    with pytest.raises(schrodinger.GridResolutionError):
        schrodinger.hermite_basis(2.0, 64, 12)


def test_intertwiner_matches_ladder_position():
    assert schrodinger.intertwiner_check(10.0, 256, 8) < 1e-6


def test_intertwiner_scalar_case():
    assert schrodinger.intertwiner_check(10.0, 256, 0) < 1e-10


def test_intertwiner_refinement():
    c1 = schrodinger.intertwiner_check(10.0, 128, 6)
    c2 = schrodinger.intertwiner_check(10.0, 256, 6)
    assert c2 <= c1 or c2 < 1e-10


def test_grid_ccr_on_band_limited_vectors():
    L, m = 10.0, 256
    x = np.linspace(-L, L, m, endpoint=False)
    p = lambda v: schrodinger.grid_momentum(v, -L, L)
    for poly in (np.ones_like(x), x, 1 + x + 0.5 * x**2):
        v = (poly * np.exp(-x * x / 2)).astype(complex)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(p(x * v) - x * p(v) + 1j * v) < 1e-6


def test_vacuum_residual_refinement_decreases():
    r1 = schrodinger.vacuum_annihilation_residual(10.0, 128)
    r2 = schrodinger.vacuum_annihilation_residual(10.0, 256)
    assert r2 <= r1 or r2 < 1e-10
