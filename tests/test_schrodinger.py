"""Grid representation: applied momentum, vacuum, oscillator, Hermite
basis, intertwiner.  Refinement studies double m as the oracle; the
applied momentum is checked against closed forms and against stencil
and kinetic matrices built in the tests, and the oscillator spectrum,
from its Fourier blocks or its whole Fourier sectors, against eigvalsh of
the whole matrix built here."""

import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial.hermite import hermval

from ccrlab import fock, interval, reports, schrodinger, suites
from spectral_oracles import (fourier_sector, indexed_reflection_entries, rayleigh_quotients, record_sectors,
                              record_solvers, search_sector)


def test_grid_points_geometry():
    x = schrodinger.grid_points(-1.0, 1.0, 8)
    assert x.shape == (8,)
    assert x[0] == -1.0 and x[-1] == 0.75  # the right endpoint is excluded
    assert np.all(np.diff(x) == 0.25)


def test_grid_points_validation():
    with pytest.raises(ValueError, match="exceed"):
        schrodinger.grid_points(1.0, -1.0, 8)
    with pytest.raises(ValueError, match="exceed"):
        schrodinger.grid_points(1.0, 1.0, 8)
    with pytest.raises(ValueError, match="at least 8"):
        schrodinger.grid_points(-1.0, 1.0, 4)


def test_spectral_momentum_on_plane_wave():
    L, m = 10.0, 256
    k = 2 * np.pi * 6 / (2 * L)
    f = np.exp(1j * k * schrodinger.grid_points(-L, L, m))
    pf = schrodinger.grid_momentum(f, -L, L)
    assert np.linalg.norm(pf - k * f) / np.linalg.norm(f) < 1e-10


def test_spectral_momentum_on_constant():
    assert np.abs(schrodinger.grid_momentum(np.ones(64), -5.0, 5.0)).max() < 1e-12
    # the unpaired Nyquist mode (-1)^j of even m is assigned derivative zero too
    sawtooth = (-1.0) ** np.arange(64)
    assert np.abs(schrodinger.grid_momentum(sawtooth, -5.0, 5.0)).max() < 1e-12


def test_spectral_momentum_on_sine():
    x = schrodinger.grid_points(-np.pi, np.pi, 64)
    want = -1j * np.cos(x)
    assert np.abs(schrodinger.grid_momentum(np.sin(x), -np.pi, np.pi) - want).max() < 1e-10


def test_central_difference_scheme():
    L, m = 8.0, 512
    x = schrodinger.grid_points(-L, L, m)
    f = np.exp(-(x**2))
    pf = schrodinger.grid_momentum(f, -L, L, schrodinger.CENTRAL_DIFFERENCE)
    want = -1j * (-2 * x) * f
    assert np.abs(pf - want).max() < 1e-3  # second-order scheme
    # the periodic stencil -i (f[j+1] - f[j-1]) / 2h, built row by row
    h = 2 * L / m
    stencil = np.zeros((m, m), dtype=complex)
    for j in range(m):
        stencil[j, (j + 1) % m] = -1j / (2 * h)
        stencil[j, (j - 1) % m] = 1j / (2 * h)
    assert np.abs(pf - stencil @ f).max() < 1e-13
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
    # the grid point nearest 0 is at |x| = 1000/9, where e^{-x^2/2} underflows to 0
    for check in (schrodinger.vacuum_sign_check, schrodinger.vacuum_annihilation_residual):
        with pytest.raises(ValueError, match="underflows"):
            check(1000.0, 9)


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
def test_oscillator_blocks_are_the_parity_sectors(m, monkeypatch):
    # each Fourier sector is F H F^dagger, F the unitary DFT, restricted to the cos / sin
    # vectors (delta_k +- delta_-k)/sqrt2 under k -> -k mod m
    H = _dense_oscillator(7.0, m, schrodinger.SPECTRAL)
    F = np.fft.fft(np.eye(m)) / math.sqrt(m)
    H_hat = F @ H @ F.conj().T
    even = np.zeros((m, m // 2 + 1))
    odd = np.zeros((m, (m - 1) // 2))
    for i in range(m // 2 + 1):
        even[[i, -i % m], i] = 1.0
    for i in range(1, (m + 1) // 2):
        odd[[i, m - i], i - 1] = 1.0, -1.0
    even /= np.linalg.norm(even, axis=0)
    odd /= np.linalg.norm(odd, axis=0)
    sectors = record_sectors(monkeypatch)
    schrodinger.grid_oscillator_spectrum(7.0, m, count=1)
    E, O = (fourier_sector(*sector) for sector in sectors)
    scale = np.linalg.norm(H, 2)
    assert np.abs(E - even.T @ H_hat @ even).max() < 1e-13 * scale
    assert np.abs(O - odd.T @ H_hat @ odd).max() < 1e-13 * scale
    assert np.array_equal(E, E.T) and np.array_equal(O, O.T)
    # the strided block a whole-sector solve takes is the same matrix, bit for bit
    for scheme in _SCHEMES:
        sectors.clear()
        schrodinger.grid_oscillator_spectrum(7.0, m, scheme, 1)
        for column, symbol, (first, size, sign, fixed) in sectors:
            block = schrodinger.reflection_block(column, first, size, sign, symbol[first : first + size], fixed)
            assert np.array_equal(block, fourier_sector(column, symbol, (first, size, sign, fixed)))


def _sector_runs(data, first, size, nyquist):
    """Indices of a parity sector as the block search gathers them: runs of consecutive indices in any
    order, or the spectral grid's order 0, m/2, 1, 2, ... (nyquist), then a prefix (a block P) or the
    rest (its Q)."""
    if nyquist:
        index = np.array([0, size - 1, *range(1, size - 1)])
    else:
        cuts = sorted(data.draw(st.sets(st.integers(first + 1, first + size - 1), max_size=4)) if size > 1 else [])
        runs = [np.arange(a, b) for a, b in zip([first, *cuts], [*cuts, first + size])]
        index = np.concatenate([runs[i] for i in data.draw(st.permutations(range(len(runs))))])
    cut = data.draw(st.integers(1, index.size))
    return (index[:cut] if data.draw(st.booleans()) else index[cut - 1:]).astype(np.int32)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(3, 300), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reflection_entries_are_the_index_array_gather(m, seed, data):
    # the strided gather on any runs of rows and columns, the Nyquist index of an even m second among
    # them as the spectral search puts it, is the index-array gather bit for bit, and C-ordered
    column = np.random.default_rng(seed).standard_normal(m + 1)
    for first, size, sign, fixed in schrodinger._sectors(m):
        nyquist = m % 2 == 0 and first == 0 and size > 2 and data.draw(st.booleans())
        rows, cols = (_sector_runs(data, first, size, nyquist) for _ in range(2))
        got = schrodinger._reflection_entries(column, rows, cols, sign, fixed)
        assert got.flags.c_contiguous
        assert got.tobytes() == indexed_reflection_entries(column, rows, cols, sign, fixed).tobytes()


def test_oscillator_parity_sectors_closed_form(monkeypatch):
    # even Hermite functions carry 1, 5, 9 (the cos sector); odd ones 3, 7, 11 (the sin sector)
    sectors = record_sectors(monkeypatch)
    schrodinger.grid_oscillator_spectrum(10.0, 256)
    even, odd = (np.linalg.eigvalsh(fourier_sector(*sector))[:3] for sector in sectors)
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


_U = 2.0**-53
_SCHEMES = (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE)


def _whole_sector_levels(L, m, scheme, count):
    """The lowest levels from eigvalsh of both whole Fourier sectors."""
    with pytest.MonkeyPatch.context() as patch:
        sectors = record_sectors(patch)
        schrodinger._oscillator_levels(L, m, scheme, count)
    levels = [np.linalg.eigvalsh(fourier_sector(*sector))[:count] for sector in sectors]
    return np.sort(np.concatenate(levels))[:count]


@settings(max_examples=20, deadline=None)
@given(L=st.floats(2.0, 16.0), m=st.integers(16, 2048), scheme=st.sampled_from(_SCHEMES), data=st.data())
def test_oscillator_levels_lie_within_their_bound_of_the_dense_solve(L, m, scheme, data):
    # few levels, where the Fourier blocks are used, or any count up to m/4
    count = data.draw(st.one_of(st.integers(1, min(12, m // 4)), st.integers(1, m // 4)), label="count")
    H = _dense_oscillator(L, m, scheme)
    want, V = np.linalg.eigh(H)
    norm = max(abs(want[0]), abs(want[-1]))
    got, bound = schrodinger._oscillator_levels(L, m, scheme, count)
    assert np.all(bound >= 0.0)
    assert np.abs(got - want[:count]).max() < 1e-12 * norm  # the tolerance of the dense test below
    # a level from a Fourier block has its own bound; every other one is the whole-sector value, bit for bit
    fresh = np.flatnonzero(got != _whole_sector_levels(L, m, scheme, count))
    tol = bound[fresh] + 8 * _U * norm
    dense = want[fresh]
    # eigh of the whole m x m matrix carries up to about 30 u ||H|| of its own rounding
    # here; where that shows, the Rayleigh quotient of its eigenvector, in extended precision,
    # gives the dense value to far below u ||H||
    loose = np.abs(got[fresh] - dense) > tol
    dense[loose] = rayleigh_quotients(H, V[:, fresh[loose]])
    assert np.all(np.abs(got[fresh] - dense) <= tol)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), share=st.floats(0.2, 0.9), count=st.integers(1, 6),
       tau=st.floats(0.01, 100.0), spread=st.floats(1.0, 1e4), rank=st.integers(1, 40))
def test_schur_bracket_holds_on_random_sectors(seed, n, share, count, tau, spread, rank):
    # H = K + T with K >= 0 diagonal, its P modes the p of smallest symbol, and 0 <= T <= tau of any rank
    rng = np.random.default_rng(seed)
    kappa = np.sort(rng.uniform(0.0, spread * tau, n))
    G = rng.standard_normal((n, min(rank, n)))
    T = G @ G.T
    T *= tau / np.linalg.eigvalsh(T)[-1]
    H = np.diag(kappa) + T
    count = min(count, n - 1)
    p = min(n - 1, max(count, round(share * n)))
    lead = rng.integers(count, p + 1)  # mu from any leading block
    mu = np.linalg.eigvalsh(H[:lead, :lead])[count - 1]
    assume(mu < kappa[p])
    bracket = schrodinger._schur_bracket(H[:p, :p].copy(), T[p:, :p], kappa[p:], mu, tau, count)
    assume(bracket is not None)  # sigma_count > mu only by rounding
    sigma, e = bracket
    want = np.linalg.eigvalsh(H)[:count]
    slack = 8 * _U * (kappa[-1] + tau)
    assert np.all(e >= 0.0) and np.all(np.diff(e) >= 0.0)
    assert np.all(sigma <= want + slack)
    assert np.all(want <= sigma + e + slack)
    # e_i is at least the proof's bound, its 2-norms taken here by SVD
    A = H[:p, :p] - T[:p, p:] @ (T[p:, :p] / (kappa[p:] - mu)[:, None])
    R = T[p:, :p] @ np.linalg.eigh(A)[1][:, :count]
    proof = [np.linalg.norm(R[:, :i], 2) ** 2 for i in range(1, count + 1)]
    assert np.all(e >= (1 - 1e-9) * (mu - sigma[0] + tau) * np.array(proof) / (kappa[p] - mu) ** 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(16, 400), band=st.integers(1, 12), scale=st.floats(0.01, 10.0),
       power=st.floats(1.0, 3.0), tau=st.floats(0.1, 100.0), rough=st.booleans(), data=st.data())
def test_schur_levels_bracket_the_levels_of_random_sectors(seed, m, band, scale, power, tau, rough, data):
    # the grid's sector layout with a random even symbol and T the Fourier compression of a random
    # even weight 0 <= w <= tau: smooth (band-limited, so T is banded), or with a small rough tail
    count = data.draw(st.integers(1, max(1, m // 8)), label="count")
    rng = np.random.default_rng(seed)
    j = np.arange(m)
    f = np.cos(2 * np.pi * np.outer(j, np.arange(band)) / m) @ rng.standard_normal(band)
    w = f * f * tau / max(float(np.max(f * f)), 1e-300)
    if rough:
        w = w + 1e-6 * tau * rng.uniform(0.0, 1.0, m)[np.minimum(j, m - j)]
    column = np.fft.fft(w).real / m
    column = np.append(column, column[0])
    symbol = (scale * np.minimum(j, m - j)) ** power
    for sector in schrodinger._sectors(m):
        first, size = sector[:2]
        if size <= count:
            continue
        H = fourier_sector(column, symbol, sector)
        found = search_sector(column, symbol, sector, float(w.max()), count)
        if found is None:
            # given up: the sector is solved whole, with no bound to carry
            levels, bounds = schrodinger.sector_levels(column, symbol, (sector,), float(w.max()), count)
            assert not bounds.any() and np.array_equal(levels, np.linalg.eigvalsh(H)[:count])
            continue
        sigma, e = found
        want, V = np.linalg.eigh(H)
        want, V = want[:count], V[:, :count]
        slack = 8 * _U * (symbol[first : first + size].max() + w.max())
        # where the dense solve's own rounding shows, its extended-precision Rayleigh quotient stands in
        miss = (sigma > want + slack) | (want > sigma + e + slack)
        want[miss] = rayleigh_quotients(H, V[:, miss])
        assert np.all(sigma <= want + slack) and np.all(want <= sigma + e + slack)


def test_schur_levels_give_up_on_a_bound_that_barely_falls():
    # a symbol flat past mode 3 and a rough weight of 1e4: the bound is about 1e18 times its
    # threshold and falls by 10 % or less per doubled block, so the predicted block overflows
    # a float; it is compared in logarithms, and the sector is given up without a warning
    m = 128
    fold = np.minimum(np.arange(m), m - np.arange(m))
    w = np.where(fold % 3 == 0, 1e4, 0.0)
    column = np.fft.fft(w).real / m
    column = np.append(column, column[0])
    symbol = np.minimum(fold, 3) * w.mean() + 1e-9 * fold
    even, odd = schrodinger._sectors(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert search_sector(column, symbol, even, 1e4, 2) is None
        assert search_sector(column, symbol, odd, 1e4, 1) is None


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("m", [16, 17])
def test_oscillator_whole_sector_path_is_the_parity_block_solve(m, scheme, monkeypatch):
    # at L = 3 the eigenvectors reach the ends of the grid, so no Fourier block proves them;
    # a block may still prove that its sector holds none of the levels asked for
    solvers = record_solvers(monkeypatch)
    for count in range(1, m // 4 + 1):
        solvers.clear()
        got, bound = schrodinger._oscillator_levels(3.0, m, scheme, count)
        assert ("eigvalsh", m // 2 + 1) in solvers or ("eigvalsh", (m - 1) // 2) in solvers
        assert not bound.any()
        assert np.array_equal(got, _whole_sector_levels(3.0, m, scheme, count))
        assert np.array_equal(schrodinger.grid_oscillator_spectrum(3.0, m, scheme, count), got)


def test_oscillator_block_sizes_do_not_grow_with_m(monkeypatch):
    sizes = record_solvers(monkeypatch)
    per_m = {}
    for m in (512, 1024, 2048):
        sizes.clear()
        levels, bound = schrodinger._oscillator_levels(10.0, m, schrodinger.SPECTRAL, 6)
        assert np.abs(levels - np.arange(1, 13, 2)).max() < 1e-4 and bound.max() < 1e-20
        per_m[m] = list(sizes)
    # per sector: mu from a block of 12 modes, then the bound on 24 and on 48, against sectors of side m/2
    blocks = [("eigvalsh", 12), ("eigh", 24), ("eigh", 48)]
    assert per_m[512] == per_m[1024] == per_m[2048] == blocks + blocks


def test_oscillator_block_memory():
    schrodinger.grid_oscillator_spectrum(10.0, 2048)
    tracemalloc.start()
    try:
        schrodinger.grid_oscillator_spectrum(10.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # the columns of the 48 block modes, not the 1025-side sectors


def test_oscillator_refuses_a_grid_whose_x2_overflows():
    with pytest.raises(ValueError, match="finite"):
        schrodinger.grid_oscillator_spectrum(1e200, 64)


def _grid(L, m, scheme=schrodinger.SPECTRAL):
    """The fields of a config that the schrodinger suite and its domain read."""
    return types.SimpleNamespace(grid_l=L, grid_m=m, scheme=scheme)


def test_resolution_check_needs_the_largest_wavenumber_to_reach_1(monkeypatch):
    # at m = 8, pi/h = 4 pi/L reaches 1 up to L = 4 pi = 12.566...; the wavenumber rule comes first, so
    # below that the grid passes it, and a guard of the grid checks refuses so coarse a grid.  The suite's
    # 6 levels do not fit 8 points, so here the domain solves 1 level and reads modes up to 0.
    monkeypatch.setattr(suites, "_GRID_LEVELS", 1)
    monkeypatch.setattr(suites, "_GRID_TOP_MODE", 0)
    with pytest.raises(schrodinger.GridResolutionError) as refused:
        suites.DOMAINS["schrodinger"](_grid(12.56, 8))
    assert "wavenumber" not in str(refused.value)
    with pytest.raises(schrodinger.GridResolutionError, match=r"L=12\.57, m=8 has step h=3\.1425"):
        suites.DOMAINS["schrodinger"](_grid(12.57, 8))


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_resolution_check_refuses_where_the_suite_guards_raise(scheme):
    # a grid passes the gate exactly when the schrodinger suite runs every check on it without raising
    sizes = [(10.0, m) for m in [*range(16, 48), 128, 192, 253, 254, 256]] + [(3.0, 64), (40.0, 256)]
    for L, m in sizes:
        try:
            reports.RunConfig(suite="schrodinger", grid_l=L, grid_m=m, scheme=scheme)
            accepted = True
        except ValueError:
            accepted = False
        # the suite reads only the grid of its config, and a refused RunConfig does not exist
        raised = [c.name for c in suites.schrodinger_suite(_grid(L, m, scheme)) if c.measured is None]
        assert accepted == (raised == []), (L, m, raised)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_grid_refuses_non_finite_bounds(bound):
    with pytest.raises(ValueError, match="finite"):
        schrodinger.grid_oscillator_spectrum(bound, 64)
    for lo, hi in ((bound, 1.0), (-1.0, bound)):
        for scheme in _SCHEMES:
            with pytest.raises(ValueError, match="finite"):
                schrodinger.grid_momentum(np.ones(16), lo, hi, scheme)
        with pytest.raises(ValueError, match="finite"):
            schrodinger.grid_points(lo, hi, 16)


def test_grid_refuses_an_overflowing_width():
    # both bounds are finite, their difference is not: refused before any sample or step is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(schrodinger.GridResolutionError, match=r"x_min=-1e\+308, x_max=1e\+308"):
            schrodinger.grid_points(-1e308, 1e308, 8)
        for scheme in _SCHEMES:
            with pytest.raises(schrodinger.GridResolutionError, match="x_max - x_min overflows"):
                schrodinger.grid_momentum(np.ones(16), -1e308, 1e308, scheme)


def test_grid_refuses_an_underflowing_step():
    # (x_max - x_min) / m rounds to 0: refused with the bounds and m, not a zero step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"x_min=0\.0, x_max=5e-324, m=8 has no positive finite step"
        with pytest.raises(schrodinger.GridResolutionError, match=message):
            schrodinger.grid_points(0.0, 5e-324, 8)
        for scheme in _SCHEMES:
            with pytest.raises(schrodinger.GridResolutionError, match="underflows to 0"):
                schrodinger.grid_momentum(np.ones(16), 0.0, 5e-324, scheme)
        with pytest.raises(schrodinger.GridResolutionError, match=r"x_min=-5e-324, x_max=5e-324, m=256"):
            suites.DOMAINS["schrodinger"](_grid(5e-324, 256))
    # the smallest positive step is still a grid
    assert schrodinger.grid_points(0.0, 8 * 5e-324, 8)[1] == 5e-324


@pytest.mark.parametrize("L, m", [(1e-320, 256), (1e-310, 256), (1e-309, 64)])
def test_grid_refuses_an_overflowing_wavenumber(L, m):
    # pi/h overflows: refused before numpy forms a wavenumber or 1/(2h), not a NaN residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in _SCHEMES:
            with pytest.raises(schrodinger.GridResolutionError, match="largest wavenumber pi/h overflows"):
                schrodinger.vacuum_sign_check(L, m, scheme)
        with pytest.raises(schrodinger.GridResolutionError, match="largest wavenumber pi/h overflows"):
            schrodinger.grid_wavenumbers(-L, L, m)


@pytest.mark.parametrize("L", [1e-200, 1e-160, 1.28e-156])
def test_central_difference_refuses_an_overflowing_symbol(L):
    # h^2 underflows to 0 (L = 1e-200, 1e-160), or 4/h^2 overflows (h = 1e-158): refused before
    # numpy divides by h^2, not a divide-by-zero warning and an infinite symbol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(schrodinger.GridResolutionError, match=r"central-difference symbol 4/h\^2 overflows"):
            schrodinger.grid_oscillator_spectrum(L, 256, schrodinger.CENTRAL_DIFFERENCE)
        with pytest.raises(schrodinger.GridResolutionError, match=r"central-difference symbol 4/h\^2 overflows"):
            schrodinger.grid_kinetic(np.ones(256), -L, L, schrodinger.CENTRAL_DIFFERENCE)


@pytest.mark.parametrize("call", [
    lambda: schrodinger.grid_oscillator_spectrum(1e-100, 256),
    lambda: schrodinger.grid_oscillator_spectrum(1e-100, 256, schrodinger.CENTRAL_DIFFERENCE),
    lambda: schrodinger.grid_oscillator_spectrum(1.28e-150, 256, schrodinger.CENTRAL_DIFFERENCE),
    lambda: interval.interval_number_spectrum(interval.IntervalRepSpec(-1e-100, 1e-100, 256), 3),
    lambda: interval.interval_number_spectrum(interval.IntervalRepSpec(0.0, 1e-100, 256), 3),
], ids=["spectral", "central_difference", "central_difference_4e304", "interval", "interval_not_centred"])
def test_schur_bracket_refuses_a_symbol_whose_square_overflows(call):
    # (kappa_Q - mu)^2 would overflow as a Python float: refused before any eigensolve, naming the step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(schrodinger.GridResolutionError, match=r"has step h=.*: the Schur bracket squares"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: schrodinger.grid_kinetic(np.ones(256), -1e-152, 1e-152), "the spectral symbol squares its largest wavenumber"),
    (lambda: schrodinger.grid_oscillator_spectrum(1e-152, 256), "the spectral symbol squares its largest wavenumber"),
    (lambda: interval.interval_number_spectrum(interval.IntervalRepSpec(-1e-152, 1e-152, 256), 3),
     r"mode frequency nu_256 = .*, and its square overflows"),
    (lambda: interval.interval_number_spectrum(interval.IntervalRepSpec(0.0, 1e-300, 256), 3),
     r"mode frequency nu_256 = .*, and its square overflows"),
], ids=["grid_kinetic", "grid_oscillator_spectrum", "centred_interval", "interval"])
def test_a_frequency_whose_square_overflows_is_refused_before_numpy_squares_it(call, message):
    # k^2 or nu^2 would overflow to inf, and the kinetic term to NaN, with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(schrodinger.GridResolutionError, match=message):
            call()


def test_hermite_ground_state_is_gaussian():
    L, m = 10.0, 256
    basis = schrodinger.hermite_basis(L, m, 0)
    assert basis.shape == (1, m) and basis.dtype == complex
    x = schrodinger.grid_points(-L, L, m)
    g = np.exp(-x * x / 2)
    g = g / (math.sqrt(2 * L / m) * np.linalg.norm(g))
    assert np.abs(basis[0] - g).max() < 1e-12


@pytest.mark.parametrize("L, m, n_max", [(10.0, 256, 8), (12.0, 512, 40), (10.0, 256, 36)])
def test_hermite_basis_is_the_closed_form(L, m, n_max):
    # psi_n = (2^n n! sqrt(pi))^(-1/2) H_n(x) e^{-x^2/2}, H_n by numpy's physicists' Hermite series,
    # renormalized in discrete L2; at (10, 256, 36) the raw rows' norms drift by about 1e-7
    x = schrodinger.grid_points(-L, L, m)
    basis = schrodinger.hermite_basis(L, m, n_max)
    assert basis.shape == (n_max + 1, m) and basis.dtype == complex
    for n, row in enumerate(basis):
        psi = hermval(x, [0] * n + [1]) * np.exp(-x * x / 2)
        psi /= math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        psi /= math.sqrt(2 * L / m) * np.linalg.norm(psi)
        assert np.abs(row - psi).max() < 1e-14, n


def test_hermite_gram_identity():
    assert schrodinger.intertwiner_gram_defect(10.0, 256, 7) < 1e-8


def test_hermite_norms_unit():
    h = 20.0 / 256
    for n_max in (8, 36):  # the raw rows' norms drift by about 1e-7 at n_max = 36
        for b in schrodinger.hermite_basis(10.0, 256, n_max):
            assert abs(math.sqrt(h) * np.linalg.norm(b) - 1.0) < 1e-12


def test_hermite_norm_drift_small():
    assert schrodinger.hermite_norm_drift(10.0, 256, 8) < 1e-8


def test_hermite_number_eigenfunctions():
    L, m = 10.0, 256
    x = schrodinger.grid_points(-L, L, m)
    h = 2 * L / m
    for n, b in enumerate(schrodinger.hermite_basis(L, m, 8)):
        p_b = schrodinger.grid_momentum(b, -L, L)
        n_b = (x * x * b + schrodinger.grid_momentum(p_b, -L, L) - b) / 2
        assert math.sqrt(h) * np.linalg.norm(n_b - n * b) < 1e-4


def test_hermite_nmax_guard():
    with pytest.raises(ValueError):
        schrodinger.hermite_basis(10.0, 256, 41)


def test_hermite_instability_detected():
    # tiny box: the recurrence drifts because the functions do not fit
    with pytest.raises(schrodinger.GridResolutionError):
        schrodinger.hermite_basis(2.0, 64, 12)
    # on L = 10, m = 256 the raw norms drift past 1e-6 first at n = 38
    with pytest.raises(schrodinger.GridResolutionError, match="at n=38"):
        schrodinger.hermite_basis(10.0, 256, 40)


def test_cached_grid_values_cannot_be_changed_by_a_caller():
    # the Hermite rows are cached by their arguments and handed to every caller
    rows, norms = schrodinger._hermite_rows(10.0, 256, 8)
    assert schrodinger._hermite_rows(10.0, 256, 8)[0] is rows and isinstance(norms, tuple)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0
    basis = schrodinger.hermite_basis(10.0, 256, 8)
    assert basis.flags.writeable and not np.shares_memory(basis, rows)
    basis[:] = 0.0
    assert np.array_equal(schrodinger.hermite_basis(10.0, 256, 8), (rows / np.array(norms)[:, None]).astype(complex))
    # a refusal raised inside a cached computation is raised again by the same call
    held = schrodinger._vacuum_residual.cache_info().currsize
    for _ in range(2):
        with pytest.raises(schrodinger.GridResolutionError, match="underflows to 0 at every point"):
            schrodinger.vacuum_annihilation_residual(1000.0, 9)
    assert schrodinger._vacuum_residual.cache_info().currsize == held


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
