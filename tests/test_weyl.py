"""Matrix exponentials and the exponentiated commutation identities.

scipy.linalg.expm and scipy.sparse.linalg.expm_multiply serve as the
independent oracles for the in-house Chebyshev-Bessel exponential
expm_multiply, on tridiagonal bands and on bands holding every diagonal
of a dense matrix, and for its action on the identity.  The scaled
Taylor kernel the package used before is kept below as a third oracle,
and scipy.special.jv checks the Bessel coefficients; the residual
checks, which apply tridiagonal q and p, are compared with dense scipy
exponentials; residual
magnitudes across dimensions were measured before freezing (dim 16 sits
near 7e-13, dims >= 32 at the rounding floor), so floor-aware assertions
follow the module invariant "halves or is already < 1e-10".

The residuals run on the mode window of their test vector.  Their
full-dim form, every product on all dim modes, is kept below as the
oracle, and the closed-form coherent state e^{-|alpha|^2/2} alpha^n /
sqrt(n!) checks the windowed exponentials of e_0 directly.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply
from scipy.special import eval_genlaguerre, gammaln, jv

from ccrlab import fock, weyl
from ccrlab.symbolic import exp_commutator_series

import dense_fock as dense


def _taylor_expm_multiply(A, B):
    """e^A B by s = ceil(||A||_1) steps of the degree-20 Taylor polynomial of
    e^{A/s} (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011), each
    term from the last by one product: an oracle for any band A, -iA
    Hermitian or not."""
    steps = max(1, math.ceil(A.norm1()))
    F = np.array(B, dtype=complex)
    for _ in range(steps):
        acc = F.copy()
        for k in range(1, 21):
            F = (1.0 / steps / k) * (A @ F)
            acc += F
        F = acc
    return F


def test_expm_zero_is_identity():
    for zero in (fock.Band(6, {}), fock.Band(6, {0: np.zeros(6)})):
        assert np.abs(weyl.expm_multiply(zero, np.eye(6)) - np.eye(6)).max() == 0.0


def test_expm_zero_generator_returns_b_exactly():
    # R = ||A||_1 = 0: the sum is its first term J_0(0) B = B, bit for bit
    rng = np.random.default_rng(3)
    for shape in ((6,), (6, 3)):
        B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = weyl.expm_multiply(fock.Band(6, {0: np.zeros(6), 2: np.zeros(4), -2: np.zeros(4)}), B)
        assert np.array_equal(got, B) and got is not B


@pytest.mark.parametrize("size", [1e-300, 1e-320, 1e-10, 1e-3])
def test_expm_tiny_generator(size):
    # |c| R from a subnormal up: e^{icp} B = B + icp B + O((cR)^2), and the Taylor kernel agrees
    p = fock.Band.momentum(16)
    A = 1j * (size / p.norm1()) * p
    B = np.arange(16) * (1 + 1j) / 16
    got = weyl.expm_multiply(A, B)
    assert np.isfinite(got).all()
    assert np.linalg.norm(got - (B + A @ B)) <= 4 * size**2 * np.linalg.norm(B) + 1e-16 * np.linalg.norm(B)
    assert np.linalg.norm(got - _taylor_expm_multiply(A, B)) <= 1e-15 * np.linalg.norm(B)


def test_expm_diagonal_plus_tridiagonal_generator():
    # a real diagonal beside the off-diagonals of q: -iA stays Hermitian
    theta = np.linspace(-1.5, 2.5, 24)
    A = 1j * (0.8 * fock.Band.position(24) + fock.Band(24, {0: theta}))
    B = np.eye(24)[:, :5]
    want = scipy_expm(A.to_dense()) @ B
    got = weyl.expm_multiply(A, B)
    assert np.abs(got - want).max() < 1e-13
    assert np.abs(got - _taylor_expm_multiply(A, B)).max() < 1e-13


def test_expm_multiply_refuses_non_hermitian():
    # the kernel takes e^{iH} for H Hermitian only; other bands are refused before any product
    q = fock.Band.position(8)
    for A in (q, 1j * q + fock.Band(8, {1: np.full(7, 1e-3)}), fock.Band(8, {0: np.full(8, 0.5)}),
              fock.Band(8, {2: np.ones(6)}), dense.band_of(np.triu(np.ones((8, 8))) * 1j)):
        with pytest.raises(ValueError, match="Hermitian"):
            weyl.expm_multiply(A, np.ones(8))


@pytest.mark.parametrize("x", [1e-10, 0.3, 1.0, 2.7, 7.7, 30.0])
def test_chebyshev_coefficients_match_scipy_bessel(x):
    c = weyl._chebyshev_coefficients(x)
    k = np.arange(c.size)
    assert np.abs(c - np.where(k == 0, 1.0, 2.0) * jv(k, x)).max() <= 1e-15
    # the sum stops at the first order whose remaining tail is below unit roundoff
    tail = 2.0 * np.abs(jv(np.arange(c.size, c.size + 200), x)).sum()
    assert tail <= 2.0**-53 < tail + abs(c[-1])


@pytest.mark.parametrize("x", [100.0, 1000.0, 15000.0])
def test_chebyshev_coefficients_large_argument(x):
    # scipy's jv loses digits past x ~ 100, so the oracles here are Bessel identities the
    # normalization J_0 + 2 sum J_2k = 1 does not contain: e^{ix} = sum (2 - delta_k0) i^k J_k(x)
    # and J_0^2 + 2 sum J_k^2 = 1
    c = weyl._chebyshev_coefficients(x)
    assert x < c.size - 1 < x + 20 * x ** (1 / 3)  # R + O(R^{1/3}) terms
    phases = 1j ** (np.arange(c.size) % 4)
    assert abs(np.sum(phases * c) - np.exp(1j * x)) < 1e-13
    assert abs(c[0] ** 2 + 0.5 * np.sum(c[1:] ** 2) - 1.0) < 1e-13


def test_expm_diagonal_phases():
    theta = np.linspace(-2, 2, 9)
    got = weyl.expm_multiply(fock.Band(9, {0: 1j * theta}), np.eye(9))
    assert np.abs(got - np.diag(np.exp(1j * theta))).max() < 1e-13


def test_expm_matches_scipy_random():
    # e^{iH} for H random Hermitian, every one of its diagonals filled: the kernel's contract
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        iH = 1j * (M + M.conj().T) / 2
        want = scipy_expm(iH)
        got = weyl.expm_multiply(dense.band_of(iH), np.eye(30))
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12
        assert np.abs(got - _taylor_expm_multiply(dense.band_of(iH), np.eye(30))).max() < 1e-12


def test_expm_skew_hermitian_unitary():
    p = fock.Band.momentum(64)
    U = weyl.expm_multiply(0.7j * p, np.eye(64))
    assert np.abs(U @ U.conj().T - np.eye(64)).max() < 1e-11
    assert np.abs(U @ weyl.expm_multiply(-0.7j * p, np.eye(64)) - np.eye(64)).max() < 1e-11


@given(
    st.integers(min_value=2, max_value=128),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(["p", "q", "tridiagonal p", "tridiagonal q"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_expm_multiply_matches_scipy(dim, t, op, columns, seed):
    tri = fock.Band.momentum(dim) if op.endswith("p") else fock.Band.position(dim)
    # "p" and "q" carry explicit zero diagonals at offsets 0, +-2 and +-3 as well
    zeros = fock.Band(dim, {k: np.zeros(max(0, dim - abs(k))) for k in (-3, -2, 0, 2, 3)})
    A = 1j * t * (tri if op.startswith("tridiagonal") else tri + zeros)
    M = 1j * t * tri.to_dense()  # the oracles' input
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)  # a vector or a block
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    B /= np.linalg.norm(B)
    got = weyl.expm_multiply(A, B)
    assert got.shape == B.shape
    # at a subnormal t, such as 5e-324, scipy's expm_multiply takes 0 steps and divides 0 by 0
    with np.errstate(invalid="ignore"):
        dense_oracle, krylov_oracle = scipy_expm(M) @ B, scipy_expm_multiply(M, B)
    assert np.linalg.norm(got - dense_oracle) < 1e-12
    assert np.linalg.norm(got - krylov_oracle) < 1e-12


def test_expm_multiply_refuses_too_many_steps():
    p, tri_p = dense.band_of(dense.build_momentum(16)), fock.Band.momentum(16)
    x = fock.FockState.basis_state(0).vector(16)
    start = time.perf_counter()
    for A in (lambda: 1e200j * p, lambda: 1e6j * p, lambda: fock.Band(16, {0: np.full(16, np.inf)}),
              lambda: 1e200j * tri_p, lambda: 1e6j * tri_p):
        with pytest.raises(ValueError, match="Chebyshev terms|non-finite"):
            weyl.expm_multiply(A(), x)
    assert time.perf_counter() - start < 1.0


def test_expm_rejects_nonfinite():
    diagonal = np.zeros(4)
    diagonal[0] = np.nan
    with pytest.raises(ValueError):
        weyl.expm_multiply(fock.Band(4, {0: diagonal}), np.eye(4))


def test_weyl_residual_zero_t():
    rec = weyl.weyl_residual(0.0, 0.8, 32)
    assert rec.residual < 1e-12
    rec = weyl.weyl_residual(0.7, 0.0, 32)
    assert rec.residual < 1e-12


def test_weyl_residual_small_at_dim64():
    rec = weyl.weyl_residual(0.5, 0.5, 64)
    assert rec.residual < 1e-8
    # the same computation at 4x the dimension confirms truncation
    # convergence rather than an accidental zero
    assert weyl.weyl_residual(0.5, 0.5, 256).residual < 1e-8


def test_weyl_residual_decreases_16_to_64():
    r16 = weyl.weyl_residual(0.5, 0.5, 16).residual
    r64 = weyl.weyl_residual(0.5, 0.5, 64).residual
    assert r64 < r16 / 2
    assert r16 > 1e-14  # dim 16 is still truncation-dominated


def test_weyl_record_fields():
    rec = weyl.weyl_residual(0.5, 0.25, 32, fock.FockState.basis_state(1))
    assert rec.dim == 32 and rec.test_vector_support == 1
    names = set(type(rec).__slots__)
    assert names == {"t", "s", "dim", "residual", "minus_residual", "test_vector_support"}


def test_weyl_support_violation():
    # the window holds the test vector's modes, so only a support at or past dim is refused
    with pytest.raises(ValueError, match="exceeds dimension 16"):
        weyl.weyl_residual(0.5, 0.5, 16, fock.FockState.basis_state(16))
    with pytest.raises(ValueError, match="nonzero"):
        weyl.weyl_residual(0.5, 0.5, 16, fock.FockState(np.zeros(3)))
    with pytest.raises(ValueError, match="exceeds dimension 64"):
        weyl.weyl_residual(0.5, 0.5, 64, fock.FockState.basis_state(64))
    assert weyl.weyl_residual(0.5, 0.5, 64, fock.FockState.basis_state(63)).test_vector_support == 63


def test_phase_convention_exactly_one_vanishes():
    rec = weyl.weyl_residual(0.5, 0.5, 64)
    assert rec.residual < rec.minus_residual
    assert rec.residual < 1e-8
    assert rec.minus_residual > 1e-3
    # uv - e^{-ist} vu = (uv - e^{ist} vu) + 2i sin(st) vu, and ||vu|| = ||xi||
    assert abs(rec.minus_residual - 2.0 * abs(math.sin(0.25))) <= rec.residual + 1e-12


def test_group_law_on_low_modes():
    d = 48
    p = fock.Band.momentum(d)
    x = fock.FockState.basis_state(0).vector(d)
    U = lambda c, v: weyl.expm_multiply(1j * c * p, v)
    assert np.linalg.norm(U(0.4, U(0.9, x)) - U(1.3, x)) < 1e-10


@pytest.mark.parametrize("dim", [16, 64, 256])
def test_residuals_match_dense_scipy_route(dim):
    t, s = 0.7, -0.4
    q, p = dense.build_position(dim), dense.build_momentum(dim)
    x = fock.FockState.basis_state(0).vector(dim)
    U, V, W = scipy_expm(1j * t * p), scipy_expm(1j * s * q), scipy_expm(1j * t * q)
    want = np.linalg.norm(U @ V @ x - np.exp(1j * s * t) * V @ U @ x)
    assert abs(weyl.weyl_residual(t, s, dim).residual - want) < 1e-12
    for n in (1, 2, 3):
        lhs = W.conj().T @ np.linalg.matrix_power(p, n) @ W @ x
        want = np.linalg.norm(lhs - np.linalg.matrix_power(p + t * np.eye(dim), n) @ x)
        assert abs(weyl.shift_identity_residual(t, n, dim) - want) < 1e-12
    want = np.linalg.norm(p @ W @ x - W @ p @ x - t * W @ x)
    assert abs(weyl.exp_commutator_residual(t, dim) - want) < 1e-12


def test_shift_identity_zero_t():
    assert weyl.shift_identity_residual(0.0, 3, 32) < 1e-12


def test_shift_identity_examples():
    assert weyl.shift_identity_residual(1.0, 1, 64) < 1e-8
    assert weyl.shift_identity_residual(1.0, 1, 256) < 1e-8  # 4x-dim oracle
    xi = fock.FockState.basis_state(2)
    assert weyl.shift_identity_residual(0.5, 3, 128, xi) < 1e-7
    assert weyl.shift_identity_residual(0.5, 3, 256, xi) < 1e-7


def test_shift_identity_validation():
    with pytest.raises(ValueError):
        weyl.shift_identity_residual(0.5, 0, 32)
    with pytest.raises(ValueError, match="exceeds dimension 32"):
        weyl.shift_identity_residual(0.5, 1, 32, fock.FockState.basis_state(32))
    with pytest.raises(ValueError, match="exceeds dimension 32"):
        weyl.exp_commutator_residual(0.5, 32, fock.FockState.basis_state(32))


def test_exp_commutator_zero_t_exact():
    assert weyl.exp_commutator_residual(0.0, 32) == 0.0


def test_exp_commutator_small():
    assert weyl.exp_commutator_residual(0.5, 64) < 1e-8
    assert weyl.exp_commutator_residual(0.5, 256) < 1e-8  # 4x-dim oracle


def test_exp_commutator_symbolic_orders():
    records = exp_commutator_series(8)
    assert len(records) == 9
    assert all(rec.equal for rec in records)


def test_convergence_sweep_shapes_and_trend():
    recs = [weyl.weyl_residual(0.5, 0.5, d) for d in (8, 16, 64)]
    assert [r.dim for r in recs] == [8, 16, 64]
    # strict decrease while truncation-dominated, floor below 1e-10 after
    assert recs[0].residual > recs[1].residual
    assert recs[2].residual < 1e-10


def test_convergence_sweep_single_zero_t():
    assert weyl.weyl_residual(0.0, 0.5, 16).residual < 1e-12


def test_convergence_sweep_e1():
    e1 = fock.FockState.basis_state(1)
    recs = [weyl.weyl_residual(1.0, 1.0, d, e1) for d in (16, 64)]
    assert recs[1].residual < max(recs[0].residual, 1e-10)


# ---------------------------------------------------------------------------
# the full-dim residuals, every product on all dim modes: the oracle of the
# windowed ones


def _full_test_vector(dim, guard, xi, extra_guard=0):
    if guard is None:
        guard = dim // 4 + extra_guard
    if xi is None:
        xi = fock.FockState.basis_state(0)
    if not 0 <= guard < dim:
        raise ValueError(f"guard must satisfy 0 <= guard < dim, got {guard}")
    if xi.support < 0:
        raise ValueError("test vector must be nonzero")
    if xi.support >= dim - guard:
        raise ValueError("support violation")
    return xi.vector(dim), guard, xi


def _full_weyl_residuals(t, s, x):
    dim = x.shape[0]
    itp, isq = 1j * t * fock.Band.momentum(dim), 1j * s * fock.Band.position(dim)
    uv = weyl.expm_multiply(itp, weyl.expm_multiply(isq, x))
    vu = weyl.expm_multiply(isq, weyl.expm_multiply(itp, x))
    nrm = np.linalg.norm(x)
    return tuple(float(np.linalg.norm(uv - np.exp(sign * 1j * s * t) * vu) / nrm) for sign in (1, -1))


def _full_weyl_residual(t, s, dim, guard=None, xi=None):
    x, guard, xi = _full_test_vector(dim, guard, xi)
    return _full_weyl_residuals(t, s, x)[0]


def _full_shift_identity_residual(t, n, dim, xi=None, guard=None):
    x, _, _ = _full_test_vector(dim, guard, xi, extra_guard=n)
    q, p = fock.Band.position(dim), fock.Band.momentum(dim)
    lhs = weyl.expm_multiply(1j * t * q, x)
    rhs = x
    for _ in range(n):
        lhs = p @ lhs
        rhs = p @ rhs + t * rhs
    lhs = weyl.expm_multiply(-1j * t * q, lhs)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x))


def _full_exp_commutator_residual(t, dim, xi=None, guard=None):
    x, _, _ = _full_test_vector(dim, guard, xi)
    q, p = fock.Band.position(dim), fock.Band.momentum(dim)
    vx, vpx = weyl.expm_multiply(1j * t * q, np.column_stack([x, p @ x])).T
    val = p @ vx - vpx - t * vx
    return float(np.linalg.norm(val) / np.linalg.norm(x))


_coefficient = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(lambda c: complex(*c))


@given(
    st.integers(4, 14).flatmap(lambda k: st.integers(2 ** (k - 1) + 1, 2**k)),  # log-uniform on 9..16384
    st.lists(_coefficient, min_size=1, max_size=11),  # support <= 10
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from(["weyl", "shift 1", "shift 2", "shift 3", "commutator"]),
)
@settings(max_examples=30, deadline=None)
def test_windowed_residuals_match_full_dim(dim, coeffs, t, s, kind):
    xi = fock.FockState(np.array(coeffs))
    assume(np.linalg.norm(xi.coeffs) > 1e-3)
    n = int(kind[-1]) if kind.startswith("shift") else 1
    assume(xi.support < dim - dim // 4 - n)
    if kind == "weyl":
        got, want, n = weyl.weyl_residual(t, s, dim, xi).residual, _full_weyl_residual(t, s, dim, None, xi), 0
    elif kind == "commutator":
        got, want = weyl.exp_commutator_residual(t, dim, xi), _full_exp_commutator_residual(t, dim, xi)
    else:
        got, want = weyl.shift_identity_residual(t, n, dim, xi), _full_shift_identity_residual(t, n, dim, xi)
    # each residual differences vectors of norm up to (||p|| + |t|)^n ||xi||, ||p|| taken on
    # the modes <= support + n, and both routes round relative to that size
    scale = (math.sqrt(2 * (xi.support + n + 1)) + abs(t)) ** n
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("t, s", [(0.5, 0.5), (3.0, -3.0), (-2.0, 0.7)])
def test_full_window_is_the_full_dim_path(t, s):
    # at dim 16 the window covers every mode, and the path is the full one bit for bit
    e2 = fock.FockState.basis_state(2)
    assert weyl._window(16, 2, math.hypot(t, s) / math.sqrt(2)) == 16
    assert weyl.weyl_residual(t, s, 16, e2).residual == _full_weyl_residual(t, s, 16, None, e2)
    assert weyl.weyl_residual(t, s, 16, e2).minus_residual == _full_weyl_residuals(t, s, e2.vector(16))[1]
    for n in (1, 2, 3):
        assert weyl.shift_identity_residual(t, n, 16, e2) == _full_shift_identity_residual(t, n, 16, e2)
    assert weyl.exp_commutator_residual(t, 16, e2) == _full_exp_commutator_residual(t, 16, e2)
    # at a dim equal to its window each residual is the full one; the window counts the bare products
    size, shift = math.hypot(t, s) / math.sqrt(2), abs(t) / math.sqrt(2)
    w = weyl._tail_mode(size, 2, 2.0**-53, 10**6) + 1
    assert weyl.weyl_residual(t, s, w, e2).residual == _full_weyl_residual(t, s, w, None, e2)
    for n in (1, 2, 3):
        w = weyl._tail_mode(shift, 2, 2.0**-53, 10**6) + 1 + n
        assert weyl.shift_identity_residual(t, n, w, e2) == _full_shift_identity_residual(t, n, w, e2)
    w = weyl._tail_mode(shift, 2, 2.0**-53, 10**6) + 2
    assert weyl.exp_commutator_residual(t, w, e2) == _full_exp_commutator_residual(t, w, e2)


def _coherent(alpha, modes):
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n < modes."""
    n = np.arange(modes)
    if alpha == 0:
        return (n == 0).astype(complex)
    log_gamma = np.array([math.lgamma(k + 1) for k in n])
    magnitude = np.exp(-abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - log_gamma / 2)
    return magnitude * np.exp(1j * n * np.angle(alpha))


@pytest.mark.parametrize("dim", [64, 16384, 2**20])
@pytest.mark.parametrize("t, s", [(0.5, 0.5), (2.0, -1.0), (-2.5, 2.5), (0.0, 1.5)])
def test_windowed_exponentials_of_e0_are_coherent_states(dim, t, s):
    e0 = fock.FockState.basis_state(0)
    cases = (
        # (|alpha| that sizes the window, the windowed vector from (x, q, p), alpha of the coherent state)
        (abs(t), lambda x, q, p: weyl.expm_multiply(1j * t * p, x), -t / math.sqrt(2)),
        (abs(s), lambda x, q, p: weyl.expm_multiply(1j * s * q, x), 1j * s / math.sqrt(2)),
        (math.hypot(t, s), lambda x, q, p: np.exp(-0.5j * t * s) * weyl.expm_multiply(
            1j * t * p, weyl.expm_multiply(1j * s * q, x)), (-t + 1j * s) / math.sqrt(2)),
    )
    for size, apply, alpha in cases:
        x, q, p = weyl._on_window(e0, dim, size / math.sqrt(2))
        assert len(x) < 64  # the window, not the dim
        want = _coherent(alpha, len(x) + 200)
        assert np.linalg.norm(apply(x, q, p) - want[: len(x)]) < 1e-13
        assert np.linalg.norm(want[len(x):]) <= 2.0**-53  # the window holds all but a rounding-sized tail


@pytest.mark.parametrize("t", [20.0, 50.0])
def test_weyl_reach_sides_are_coherent_states(t):
    # |alpha|^2 = t^2: 660 modes at t = 20 and 3116 at t = 50, where the Taylor kernel took 6.9 s.
    # Each side, U_t V_s e_0 and e^{ist} V_s U_t e_0, is e^{its/2} |(-t + is)/sqrt2> in closed form.
    start = time.perf_counter()
    residual = weyl.weyl_residual(t, t, 32768).residual
    elapsed = time.perf_counter() - start
    assert residual < 1e-10
    if t == 50.0:
        assert elapsed < 3.0
    x, q, p = weyl._on_window(fock.FockState.basis_state(0), 32768, t)
    assert len(x) == {20.0: 660, 50.0: 3116}[t]
    want = np.exp(0.5j * t * t) * _coherent((-t + 1j * t) / math.sqrt(2), len(x))
    uv = weyl.expm_multiply(1j * t * p, weyl.expm_multiply(1j * t * q, x))
    vu = np.exp(1j * t * t) * weyl.expm_multiply(1j * t * q, weyl.expm_multiply(1j * t * p, x))
    assert np.linalg.norm(uv - want) < 1e-10
    assert np.linalg.norm(vu - want) < 1e-10


def _poisson_tail(mean, mode):
    """||(1 - P_mode) |alpha>|| for |alpha|^2 = mean, P_mode keeping modes <= mode."""
    n = np.arange(mode + 1, mode + 200 + int(20 * math.sqrt(mean)))
    log_weight = -mean + n * math.log(mean) - np.array([math.lgamma(k + 1) for k in n])
    top = log_weight.max()
    return math.exp(0.5 * (top + math.log(np.exp(log_weight - top).sum())))


@pytest.mark.parametrize("mean", [1e-4, 0.25, 1.0, 4.625, 36.0, 1000.0])
@pytest.mark.parametrize("tol", [2.0**-53, 1e-8])
def test_tail_mode_of_e0_is_the_first_poisson_mode(mean, tol):
    # for e_0 the bound is the Poisson amplitude: the mode found is the first one whose tail holds
    mode = weyl._tail_mode(math.sqrt(mean), 0, tol, 10**9)
    assert _poisson_tail(mean, mode) <= tol < _poisson_tail(mean, mode - 1)


@pytest.mark.parametrize("alpha", [0.3, 1.2, -2.0 + 1.0j])
@pytest.mark.parametrize("top", [1, 4, 10])
def test_tail_mode_bounds_displaced_basis_vectors(alpha, top):
    # D(alpha) e_m for every m <= top from the dense scipy exponential at dim 256: no unit
    # vector on modes <= top leaves more than tol past the mode found
    dim, tol = 256, 1e-8
    a = dense.build_annihilator(dim)
    D = scipy_expm(alpha * a.conj().T - np.conj(alpha) * a)
    mode = weyl._tail_mode(abs(alpha), top, tol, dim)
    assert top < mode < dim - 64  # far from the dense truncation's own edge
    tails = np.linalg.norm(D[mode + 1:, : top + 1], axis=0)
    assert math.sqrt(top + 1) * tails.max() <= tol


@pytest.mark.parametrize("alpha", [0.25, 1.5, 6.0])
@pytest.mark.parametrize("top", [0, 1, 3, 6])
def test_log_tail_bound_is_the_laguerre_sum(alpha, top):
    # B_m(n) = e^{-x/2} sqrt(m!/n!) alpha^(n-m) sum_j C(n, m-j) x^j / j! with x = alpha^2, the sum in
    # exact rationals; where r(n) < 1 the largest of B_0..B_M is B_M, and the bound is built on it
    x = Fraction(alpha) ** 2
    first = (alpha + math.hypot(alpha, 2.0 * math.sqrt(top))) ** 2 / 4  # r(n) < 1 from sqrt(n+1) past its root
    for n in range(top, int(first) + 60):
        r = alpha * math.sqrt(n + 1) / (n - top + 1)
        if r >= 1.0:
            assert weyl._log_tail_bound(alpha, top, n) == math.inf
            continue
        log_b = [0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) + (n - m) * math.log(alpha) - alpha**2 / 2
                 + math.log(sum(math.comb(n, m - j) * x**j / math.factorial(j) for j in range(m + 1)))
                 for m in range(top + 1)]
        assert max(log_b) <= log_b[-1] + 1e-12
        want = 0.5 * math.log(top + 1) + log_b[-1] - 0.5 * math.log1p(-r * r)
        assert abs(weyl._log_tail_bound(alpha, top, n) - want) <= 1e-12 * max(1.0, abs(want))


def test_tail_mode_support_3_at_mean_1e4():
    # the exact <n|D|m> = sqrt(m!/n!) alpha^(n-m) e^{-alpha^2/2} L_m^(n-m)(alpha^2), summed in logs
    # past each mode, give the first mode the bound may return; the bound keeps e^{-alpha^2/2}, so
    # its mode stays within 2 % of that one (the bound C(m+k, m) e^{x/2} on L_m^(k)(x) gave 27283)
    alpha, tol, top = 100.0, 2.0**-53, 3
    mode = weyl._tail_mode(alpha, top, tol, 10**6)
    assert weyl._tail_mode(alpha, 0, tol, 10**6) == 11207 < mode
    n = np.arange(10000, mode + 3000)
    with np.errstate(divide="ignore"):  # L_m^(k)(x) may vanish at a grid point
        log_elements = np.array([
            0.5 * (math.lgamma(m + 1) - gammaln(n + 1)) + (n - m) * math.log(alpha) - alpha**2 / 2
            + np.log(np.abs(eval_genlaguerre(m, n - m, alpha**2))) for m in range(top + 1)])
    tails = np.sqrt(np.cumsum(np.exp(2 * log_elements[:, ::-1]), axis=1)[:, ::-1])  # past mode n - 1
    held = math.sqrt(top + 1) * tails.max(axis=0) <= tol
    first = int(n[np.argmax(held)]) - 1
    assert held[n > mode].all()
    assert first <= mode <= 1.02 * first


def test_truncation_check_refuses_a_tail_above_tol():
    # e^(itp) e_0 at t = 500 is Poisson with mean 1.25e5, far past mode 63
    weyl.check_truncation(0.5, 0.5, 64, 1e-8)
    weyl.check_truncation(6.0, 6.0, 128, 1e-8)
    for t, s, dim in ((500.0, 0.5, 64), (6.0, 6.0, 64), (0.5, 12.0, 128)):
        with pytest.raises(ValueError, match=rf"past mode {dim - 1}, the last mode at dim {dim}: .* above 1e-08"):
            weyl.check_truncation(t, s, dim, 1e-8)


def test_tail_mode_edges():
    assert weyl._tail_mode(0.0, 5, 1e-8, 64) == 5  # no displacement, no tail
    assert weyl._tail_mode(1e-300, 0, 2.0**-53, 64) == 0  # e^{-|alpha|^2/2} alpha e_1 is below rounding
    start = time.perf_counter()
    for alpha in (1e200, 1e154, 1e5, 350.0):
        assert weyl._tail_mode(alpha, 0, 1e-8, 64) == 64  # capped at the limit
        assert weyl._tail_mode(alpha, 7, 1e-8, 2**20) <= 2**20
    assert time.perf_counter() - start < 0.1  # bisected, never walked up to the mean
    assert weyl._window(2**20, 3, 0.5, 3) == weyl._tail_mode(0.5, 3, 2.0**-53, 2**20) + 4


@pytest.mark.parametrize("dim", [4, 8, 16, 64, 128])
@pytest.mark.parametrize("c, generator", [(0.5, "p"), (-1.7, "q"), (3.0, "p"), (0.7, "q")])
def test_block_checks_match_dense_expm(dim, c, generator):
    rng = np.random.default_rng(dim)
    rows = min(dim, 8)
    block = rng.uniform(-1, 1, (rows, 4)) + 1j * rng.uniform(-1, 1, (rows, 4))
    B = np.zeros((dim, 4), dtype=complex)
    B[:rows] = block
    G = fock.Band.momentum(dim) if generator == "p" else fock.Band.position(dim)
    U, U_inv = weyl.expm_multiply(1j * c * G, np.eye(dim)), weyl.expm_multiply(-1j * c * G, np.eye(dim))
    # the windowed e^{icG} B is the dense one on the window, and the dense one is below rounding past it
    icg, B_window = weyl._block_on_window(c, generator, block, dim)
    w = B_window.shape[0]
    assert np.linalg.norm(weyl.expm_multiply(icg, B_window) - (U @ B)[:w]) < 1e-13
    assert np.linalg.norm((U @ B)[w:]) < 1e-13
    F = U @ B
    unitarity = float(np.abs(F.conj().T @ F - B.conj().T @ B).max())
    inverse = float(np.abs(U @ (U_inv @ B) - B).max())
    got_unitarity = weyl.unitarity_defect(c, generator, block, dim)
    got_inverse = weyl.inverse_product_defect(c, generator, block, dim)
    assert abs(got_unitarity - unitarity) < 1e-13 and abs(got_inverse - inverse) < 1e-13
    assert max(got_unitarity, got_inverse, unitarity, inverse) < 1e-11  # the suite's tolerance


def test_block_check_validation():
    block = np.ones((8, 2))
    with pytest.raises(ValueError, match="generator"):
        weyl.unitarity_defect(0.5, "x", block, 64)
    with pytest.raises(ValueError, match="rows"):
        weyl.inverse_product_defect(0.5, "p", block, 4)


def test_residuals_build_nothing_of_size_dim():
    dim = 2**20
    tracemalloc.start()
    try:
        start = time.perf_counter()
        weyl.weyl_residual(0.5, 0.5, dim)
        weyl.shift_identity_residual(1.0, 3, dim, fock.FockState.basis_state(2))
        weyl.exp_commutator_residual(0.5, dim)
        weyl.unitarity_defect(0.5, "p", np.ones((8, 4)), dim)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20  # a complex dim-vector alone would be 16 MiB
