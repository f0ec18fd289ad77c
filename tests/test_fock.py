"""Truncated ladder matrices: entries, spectra, artifacts, states.

Derived expectations were computed independently before freezing:
ladder entries from symbolic inner products <psi_m, a psi_n>/sqrt(m! n!),
commutator and oscillator values from brute-force matrix arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccrlab import fock
from ccrlab.rng import SplitMix64
from ccrlab.reports import random_fock_state
from ccrlab.symbolic import normal_order, vacuum_expectation


def test_annihilator_dim1_is_zero():
    A = fock.build_annihilator(1)
    assert A.shape == (1, 1) and A[0, 0] == 0


def test_annihilator_dim3_entries():
    A = fock.build_annihilator(3)
    want = np.zeros((3, 3), complex)
    want[0, 1] = 1.0
    want[1, 2] = math.sqrt(2)
    assert np.abs(A - want).max() == 0.0


def test_annihilator_entries_match_symbolic_inner_products():
    # A[m, n] = <psi_m, a psi_n> / sqrt(m! n!), evaluated exactly by the
    # normal-ordering engine as vacuum expectations.
    d = 6
    A = fock.build_annihilator(d)
    for mm in range(d):
        for nn in range(d):
            raw = vacuum_expectation(normal_order(f"a^{mm} * a * ad^{nn}")).to_complex()
            want = raw / math.sqrt(math.factorial(mm) * math.factorial(nn))
            assert abs(A[mm, nn] - want) < 1e-12


def test_annihilator_column_norms_dim4():
    A = fock.build_annihilator(4)
    norms2 = np.sum(np.abs(A) ** 2, axis=0)
    assert np.abs(norms2 - np.array([0.0, 1.0, 2.0, 3.0])).max() < 1e-14


def test_invalid_dimension():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            fock.build_annihilator(bad)
    with pytest.raises(ValueError):
        fock.build_position(0)


def test_creator_is_adjoint():
    for d in (1, 3, 7):
        A = fock.build_annihilator(d)
        assert np.abs(fock.build_creator(d) - A.conj().T).max() == 0.0


def test_creator_column_norms():
    d = 9
    Ad = fock.build_creator(d)
    norms2 = np.sum(np.abs(Ad) ** 2, axis=0)
    assert np.abs(norms2[: d - 1] - np.arange(1, d)).max() < 1e-14
    assert norms2[d - 1] == 0.0  # top-mode truncation artifact


def test_position_momentum_dim2():
    q = fock.build_position(2)
    assert abs(q[0, 1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(q[1, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(np.trace(q)) == 0.0


def test_position_momentum_hermitian_dim64():
    q, p = fock.build_position(64), fock.build_momentum(64)
    assert np.abs(q - q.conj().T).max() < 1e-13
    assert np.abs(p - p.conj().T).max() < 1e-13


def test_dense_builders_equal_the_ladder_formula_bit_for_bit():
    # symbolic's float cross-checks read these bytes: they must not drift
    for dim in (1, 2, 3, 31, 64, 257):
        A = fock.build_annihilator(dim)
        assert fock.build_position(dim).tobytes() == ((A + A.conj().T) / math.sqrt(2)).tobytes()
        assert fock.build_momentum(dim).tobytes() == ((A - A.conj().T) / (1j * math.sqrt(2))).tobytes()


@given(
    st.integers(min_value=1, max_value=96),
    st.sampled_from(["q", "p"]),
    st.complex_numbers(max_magnitude=4.0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tridiagonal_matches_dense_product(dim, op, c, columns, seed):
    A = fock.build_annihilator(dim)
    if op == "q":
        tri, dense = fock.Tridiagonal.position(dim), (A + A.conj().T) / math.sqrt(2)
    else:
        tri, dense = fock.Tridiagonal.momentum(dim), (A - A.conj().T) / (1j * math.sqrt(2))
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)  # a vector or a block
    F = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = (c * tri) @ F
    assert got.shape == F.shape
    assert np.abs(got - (c * dense) @ F).max() <= 1e-14 * (1 + abs(c)) * math.sqrt(dim) * np.abs(F).max()
    assert (c * tri).norm1() == pytest.approx(np.linalg.norm(c * dense, 1), rel=1e-14)
    assert len(tri) == dim


def test_tridiagonal_validation():
    with pytest.raises(ValueError, match="non-finite"):
        np.inf * fock.Tridiagonal.position(4)
    with pytest.raises(ValueError, match="equal length"):
        fock.Tridiagonal(np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="cannot apply"):
        fock.Tridiagonal.momentum(4) @ np.ones(5)


def test_commutator_self_is_zero():
    q = fock.build_position(5)
    assert np.abs(fock.commutator(q, q)).max() == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        fock.commutator(fock.build_position(4), fock.build_position(5))


def test_ladder_commutator_dim4():
    A = fock.build_annihilator(4)
    c = fock.commutator(A, A.conj().T)
    assert np.abs(c - np.diag([1.0, 1.0, 1.0, -3.0])).max() < 1e-14


def test_ccr_on_leading_block_dim64():
    d = 64
    c = fock.commutator(fock.build_momentum(d), fock.build_position(d))
    block = fock.truncation_safe_projection(c, guard=1)
    assert np.abs(block + 1j * np.eye(d - 1)).max() < 1e-12
    assert abs(c[d - 1, d - 1] - 1j * (d - 1)) < 1e-10


def test_projection_guard_zero_is_identity():
    M = fock.build_position(6)
    assert np.abs(fock.truncation_safe_projection(M, 0) - M).max() == 0.0


def test_projection_of_ladder_commutator():
    A = fock.build_annihilator(4)
    block = fock.truncation_safe_projection(fock.commutator(A, A.conj().T), 1)
    assert np.abs(block - np.eye(3)).max() < 1e-14


def test_projection_guard_errors():
    M = fock.build_position(2)
    with pytest.raises(ValueError):
        fock.truncation_safe_projection(M, 2)
    with pytest.raises(ValueError):
        fock.truncation_safe_projection(M, -1)


def test_number_spectrum():
    assert np.abs(fock.number_spectrum(5) - np.arange(5)).max() < 1e-13
    assert fock.number_spectrum(1)[0] == 0.0


def test_number_eigenvectors():
    vals, vecs = fock.number_eigensystem(12)
    N = fock.build_number(12)
    for j in range(12):
        assert np.linalg.norm(N @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-12


def test_oscillator_spectrum_small():
    assert np.abs(fock.oscillator_spectrum(2) - np.array([1.0, 1.0])).max() < 1e-14
    assert np.abs(fock.oscillator_spectrum(4) - np.array([1.0, 3.0, 3.0, 5.0])).max() < 1e-14


def test_oscillator_spectrum_dim64():
    got = fock.oscillator_spectrum(64)
    predicted = np.sort(np.concatenate([2 * np.arange(63) + 1, [63.0]]))
    assert np.abs(got - predicted).max() < 1e-10


def test_oscillator_requires_dim2():
    with pytest.raises(ValueError):
        fock.oscillator_spectrum(1)


def test_inner_product_unnormalized_norms():
    psi0 = fock.FockState.basis_state(0, fock.UNNORMALIZED)
    psi3 = fock.FockState.basis_state(3, fock.UNNORMALIZED)
    assert fock.inner_product(psi0, psi0) == 1.0
    assert abs(fock.inner_product(psi3, psi3) - 6.0) < 1e-13


def test_inner_product_orthogonality_and_mixed_conventions():
    e2 = fock.FockState.basis_state(2)
    e3 = fock.FockState.basis_state(3)
    assert fock.inner_product(e2, e3) == 0.0
    psi2 = fock.FockState.basis_state(2, fock.UNNORMALIZED)
    # <e_2, psi_2> = sqrt(2!)
    assert abs(fock.inner_product(e2, psi2) - math.sqrt(2)) < 1e-14


def test_state_validation():
    with pytest.raises(ValueError):
        fock.FockState(np.array([]))
    with pytest.raises(ValueError):
        fock.FockState(np.array([np.inf]))
    with pytest.raises(ValueError):
        fock.FockState(np.array([1.0]), "weird")


def test_state_vector_padding_and_support():
    s = fock.FockState(np.array([0.0, 1.0, 0.0]))
    assert s.support == 1
    v = s.vector(5)
    assert v.shape == (5,) and v[1] == 1.0
    with pytest.raises(ValueError):
        s.vector(1)


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=21, deadline=None)
def test_convention_round_trip_basis(n):
    e = fock.FockState.basis_state(n)
    back = e.to_unnormalized().to_normalized()
    assert np.abs(back.coeffs - e.coeffs).max() < 1e-14


def test_convention_round_trip_random():
    gen = SplitMix64(11)
    for _ in range(30):
        x = random_fock_state(gen, 20)
        back = x.to_unnormalized().to_normalized()
        assert np.abs(back.coeffs - x.coeffs).max() < 1e-14


def test_sqrt_factorial_log_space_consistency():
    # n = 20 exact path and n = 21 log path must agree through the ratio
    assert abs(fock.sqrt_factorial(21) / fock.sqrt_factorial(20) - math.sqrt(21)) < 1e-9
    assert fock.sqrt_factorial(0) == 1.0
    with pytest.raises(ValueError):
        fock.sqrt_factorial(-1)


def test_truncation_locality_for_words():
    # words of length L agree between dims d and 2d on the leading
    # (d - L) block; checked over every word of length <= 3
    d = 12
    builders = [
        fock.build_annihilator,
        fock.build_creator,
        fock.build_position,
        fock.build_momentum,
    ]
    import itertools

    for length in (1, 2, 3):
        for word in itertools.product(range(4), repeat=length):
            small = np.eye(d, dtype=complex)
            big = np.eye(2 * d, dtype=complex)
            for j in word:
                small = small @ builders[j](d)
                big = big @ builders[j](2 * d)
            g = d - length
            assert np.abs(small[:g, :g] - big[:g, :g]).max() < 1e-12
