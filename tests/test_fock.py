"""Truncated ladder matrices: entries, spectra, artifacts, states.

Derived expectations were computed independently before freezing:
ladder entries from symbolic inner products <psi_m, a psi_n>/sqrt(m! n!),
commutator and oscillator values from brute-force matrix arithmetic.
"""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccrlab import fock
from ccrlab.rng import SplitMix64
from ccrlab.reports import RunConfig
from ccrlab.suites import fock_suite, random_fock_state
from ccrlab.symbolic import normal_order, vacuum_expectation

import dense_fock as dense


def test_annihilator_dim1_is_zero():
    A = fock.Band.annihilator(1).to_dense()
    assert A.shape == (1, 1) and A[0, 0] == 0


def test_annihilator_dim3_entries():
    A = fock.Band.annihilator(3).to_dense()
    want = np.zeros((3, 3), complex)
    want[0, 1] = 1.0
    want[1, 2] = math.sqrt(2)
    assert np.abs(A - want).max() == 0.0


def test_annihilator_entries_match_symbolic_inner_products():
    # A[m, n] = <psi_m, a psi_n> / sqrt(m! n!), evaluated exactly by the
    # normal-ordering engine as vacuum expectations.
    d = 6
    A = fock.Band.annihilator(d).to_dense()
    for mm in range(d):
        for nn in range(d):
            raw = vacuum_expectation(normal_order(f"a^{mm} * a * ad^{nn}")).to_complex()
            want = raw / math.sqrt(math.factorial(mm) * math.factorial(nn))
            assert abs(A[mm, nn] - want) < 1e-12


def test_annihilator_column_norms_dim4():
    A = fock.Band.annihilator(4).to_dense()
    norms2 = np.sum(np.abs(A) ** 2, axis=0)
    assert np.abs(norms2 - np.array([0.0, 1.0, 2.0, 3.0])).max() < 1e-14


def test_invalid_dimension():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            fock.Band.annihilator(bad)
    with pytest.raises(ValueError):
        fock.Band.position(0)


def test_creator_is_adjoint():
    for d in (1, 3, 7):
        A = fock.Band.annihilator(d).to_dense()
        assert np.abs(fock.Band.creator(d).to_dense() - A.conj().T).max() == 0.0


def test_creator_column_norms():
    d = 9
    Ad = fock.Band.creator(d).to_dense()
    norms2 = np.sum(np.abs(Ad) ** 2, axis=0)
    assert np.abs(norms2[: d - 1] - np.arange(1, d)).max() < 1e-14
    assert norms2[d - 1] == 0.0  # top-mode truncation artifact


def test_position_momentum_dim2():
    q = fock.Band.position(2).to_dense()
    assert abs(q[0, 1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(q[1, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(np.trace(q)) == 0.0


def test_position_momentum_hermitian_dim64():
    q, p = fock.Band.position(64).to_dense(), fock.Band.momentum(64).to_dense()
    assert np.abs(q - q.conj().T).max() < 1e-13
    assert np.abs(p - p.conj().T).max() < 1e-13


def test_dense_builders_equal_the_ladder_formula_bit_for_bit():
    # symbolic's float cross-checks read these bytes: they must not drift
    for dim in (1, 2, 3, 31, 64, 257):
        A = dense.build_annihilator(dim)
        assert fock.Band.annihilator(dim).to_dense().tobytes() == A.tobytes()
        assert fock.Band.position(dim).to_dense().tobytes() == ((A + A.conj().T) / math.sqrt(2)).tobytes()
        assert fock.Band.momentum(dim).to_dense().tobytes() == ((A - A.conj().T) / (1j * math.sqrt(2))).tobytes()
        # the dense a† conjugates its zeros to -0j as well; the values are the same
        creator = fock.Band.creator(dim).to_dense()
        assert creator.dtype == complex and np.array_equal(creator, dense.build_creator(dim))


@given(
    st.integers(min_value=1, max_value=96),
    st.sampled_from(["q", "p"]),
    st.complex_numbers(max_magnitude=4.0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tridiagonal_matches_dense_product(dim, op, c, columns, seed):
    A = dense.build_annihilator(dim)
    if op == "q":
        tri, M = fock.Band.position(dim), (A + A.conj().T) / math.sqrt(2)
    else:
        tri, M = fock.Band.momentum(dim), (A - A.conj().T) / (1j * math.sqrt(2))
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)  # a vector or a block
    F = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = (c * tri) @ F
    assert got.shape == F.shape
    assert np.abs(got - (c * M) @ F).max() <= 1e-14 * (1 + abs(c)) * math.sqrt(dim) * np.abs(F).max()
    assert (c * tri).norm1() == pytest.approx(np.linalg.norm(c * M, 1), rel=1e-14)
    assert tri.dim == dim


def test_tridiagonal_validation():
    with pytest.raises(ValueError, match="non-finite"):
        np.inf * fock.Band.position(4)
    with pytest.raises(ValueError, match="shape"):
        fock.Band(3, {-1: np.ones(3)})
    with pytest.raises(ValueError, match="shape"):
        fock.Band(3, {0: np.ones(2)})
    with pytest.raises(ValueError, match="non-finite"):
        fock.Band(3, {0: np.array([1.0, np.nan, 1.0])})
    with pytest.raises(ValueError, match="cannot apply"):
        fock.Band.momentum(4) @ np.ones(5)


@st.composite
def _bands(draw, dim):
    """A band of dim modes on up to four offsets in -3..3, real or complex."""
    offsets = draw(st.lists(st.integers(-3, 3), unique=True, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    diagonals = {}
    for k in offsets:
        n = max(0, dim - abs(k))
        diagonals[k] = rng.normal(size=n) if real else rng.normal(size=n) + 1j * rng.normal(size=n)
    return fock.Band(dim, diagonals)


@given(
    st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), _bands(d), _bands(d), st.integers(1, d))),
    st.complex_numbers(max_magnitude=4.0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_band_matches_dense_oracle(case, c, columns, seed):
    dim, A, B, w = case
    MA, MB = A.to_dense(), B.to_dense()
    # the layout of np.diagonal, zero off the stored offsets
    want = np.zeros((dim, dim), complex)
    for k, d in A.diagonals.items():
        if d.size:
            want += np.diag(d, k)
    assert MA.dtype == complex and np.array_equal(MA, want)
    # entrywise operations are exact; a product sums at most four terms per entry
    assert np.array_equal((A + B).to_dense(), MA + MB)
    assert np.array_equal((A - B).to_dense(), MA - MB)
    assert np.array_equal((-A).to_dense(), -MA)
    assert np.array_equal((c * A).to_dense(), c * MA)
    assert np.array_equal(A.adjoint().to_dense(), MA.conj().T)
    assert np.array_equal(A.cut(w).to_dense(), MA[:w, :w])
    size = 1.0 + np.abs(MA).max() * (1.0 + np.abs(MB).max())
    assert np.abs((A @ B).to_dense() - MA @ MB).max() <= 1e-14 * size
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)  # a vector or a block
    F = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = A @ F
    assert got.shape == F.shape
    assert np.abs(got - MA @ F).max() <= 1e-14 * size * np.abs(F).max()
    assert A.norm1() == pytest.approx(np.linalg.norm(MA, 1), rel=1e-14, abs=0.0)


@given(
    st.integers(min_value=1, max_value=200),
    st.sampled_from(["q", "p"]),
    st.complex_numbers(max_magnitude=4.0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_position_momentum_apply_is_the_two_operation_formula(dim, op, c, columns, seed):
    # the Weyl, shift and analytic residuals depend on these bits, so they must not drift
    off = np.sqrt(np.arange(1, dim)) * (1.0 / math.sqrt(2))
    band, lower, upper = (fock.Band.position(dim), off, off) if op == "q" else (
        fock.Band.momentum(dim), 1j * off, -1j * off)
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)
    F = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert ((c * band) @ F).tobytes() == dense.tridiagonal_apply(c * lower, c * upper, F).tobytes()
    assert (c * band).norm1() == dense.tridiagonal_norm1(c * lower, c * upper)


def test_band_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fock.Band.position(4) @ fock.Band.position(5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fock.Band.position(4) + fock.Band.position(5)
    with pytest.raises(ValueError, match="cut"):
        fock.Band.position(4).cut(5)
    with pytest.raises(ValueError, match="invalid dimension"):
        fock.Band(0, {})


def _dense_fock_measures(d):
    """The fock suite's diagonal reads, measured on dense matrices as the
    dense suite did: commutators, projections and eigh spectra."""
    q, p = dense.build_position(d), dense.build_momentum(d)
    a, ad = dense.build_annihilator(d), dense.build_creator(d)
    ccr, ladder = dense.commutator(p, q), dense.commutator(a, ad)
    vals, vecs = dense.number_eigensystem(d)
    N, h = ad @ a, q @ q + p @ p
    predicted = np.sort(np.concatenate([2 * np.arange(d - 1) + 1, [d - 1]]))
    return {
        "ccr_block_identity": np.abs(dense.truncation_safe_projection(ccr + 1j * np.eye(d), 1)).max(),
        "ccr_artifact_entry": abs(ccr[d - 1, d - 1] - 1j * (d - 1)),
        "ladder_commutator_block": np.abs(dense.truncation_safe_projection(ladder, 1) - np.eye(d - 1)).max(),
        "ladder_artifact_entry": abs(ladder[d - 1, d - 1] + (d - 1)),
        "number_spectrum_integers": np.abs(dense.number_spectrum(d) - np.arange(d)).max(),
        "number_eigenvector_residual": max(np.linalg.norm(N @ vecs[:, j] - vals[j] * vecs[:, j]) for j in range(d)),
        "oscillator_spectrum": np.abs(dense.oscillator_spectrum(d) - predicted).max(),
        "hermiticity": max(np.abs(M - M.conj().T).max() for M in (q, p, N, h)),
        "annihilator_column_norms": np.abs(np.sum(np.abs(a) ** 2, axis=0) - np.arange(d)).max(),
        "creator_column_norms": np.abs(np.sum(np.abs(ad) ** 2, axis=0)[: d - 1] - np.arange(1, d)).max(),
    }


@pytest.mark.parametrize("d", [2, 3, 8, 64, 200])
def test_fock_suite_matches_dense_oracle(d):
    got = {r.name: r for r in fock_suite(RunConfig(suite="fock", dim=d, seed=7))}
    for name, value in _dense_fock_measures(d).items():
        record = got[name]
        assert record.status == ("pass" if value <= record.tolerance else "fail"), name
        assert abs(record.measured - value) <= 1e-12, name


def test_fock_suite_reads_the_off_diagonals(monkeypatch):
    # with p replaced by q, q^2 + p^2 = 2 q^2 has the diagonal 2n + 1 but keeps its +-2
    # diagonals; with a† replaced by q, N = q a has a +2 diagonal: each check must see them
    def statuses(**patch):
        with monkeypatch.context() as m:
            for name, op in patch.items():
                m.setattr(fock.Band, name, classmethod(lambda cls, dim, op=op: getattr(fock.Band, op)(dim)))
            return {r.name: (r.status, r.measured) for r in fock_suite(RunConfig(suite="fock", dim=16))}

    got = statuses(momentum="position")
    assert got["oscillator_spectrum"][0] == "fail" and got["oscillator_spectrum"][1] > 1.0
    got = statuses(creator="position")
    for name in ("number_spectrum_integers", "number_eigenvector_residual", "hermiticity"):
        assert got[name][0] == "fail" and got[name][1] > 0.5, name


# the rounding constants c of the checks whose entries grow like d: tolerance max(tol, c d 2^-53)
_ROUNDING = {
    "ccr_block_identity": (1e-12, 14),
    "ccr_artifact_entry": (1e-10, 7),
    "ladder_commutator_block": (1e-12, 6),
    "ladder_artifact_entry": (1e-10, 3),
    "number_spectrum_integers": (1e-12, 3),
    "oscillator_spectrum": (1e-10, 16),
    "annihilator_column_norms": (1e-12, 3),
    "creator_column_norms": (1e-12, 3),
}


@pytest.mark.parametrize("d", [2, 3, 64, 644, 2048, 2**16, 2**20])
def test_fock_suite_tolerances_are_relative_to_dim(d):
    records = fock_suite(RunConfig(suite="fock", dim=d))
    assert len(records) == 13 and all(r.status == "pass" for r in records), d
    golden = {r.name: r.tolerance for r in fock_suite(RunConfig(suite="fock", dim=64))}
    for r in records:
        tol, c = _ROUNDING.get(r.name, (golden[r.name], 0))
        assert r.tolerance == max(tol, c * d * 2.0**-53), r.name


def test_fock_suite_catches_an_off_diagonal_error_at_large_dim(monkeypatch):
    # one entry of 1e-8 on a new +2 diagonal of q or of a†; every tolerance at 2^20 is below 2e-9
    d = 2**20
    error = np.zeros(d - 2)
    error[5] = 1e-8

    def perturbed(name):
        plain = getattr(fock.Band, name)
        return classmethod(lambda cls, dim: plain(dim) + fock.Band(dim, {2: error}))

    for name, caught in (("position", ("ccr_block_identity", "oscillator_spectrum", "hermiticity")),
                         ("creator", ("ladder_commutator_block", "number_spectrum_integers",
                                      "number_eigenvector_residual"))):
        with monkeypatch.context() as m:
            m.setattr(fock.Band, name, perturbed(name))
            got = {r.name: r for r in fock_suite(RunConfig(suite="fock", dim=d))}
        for check in caught:
            assert got[check].status == "fail" and got[check].measured >= 1e-8 / 2, (name, check)


def test_fock_suite_memory_is_linear_in_dim():
    peaks = {}
    for d in (2**16, 2**20):
        tracemalloc.start()
        try:
            records = fock_suite(RunConfig(suite="fock", dim=d))
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 13 and all(r.measured is not None for r in records)
    assert peaks[2**20] <= 512 * 2**20  # the dense suite's peak at dim 2048
    assert 12 <= peaks[2**20] / peaks[2**16] <= 20  # the dim grew 16 times


def test_commutator_self_is_zero():
    q = dense.build_position(5)
    assert np.abs(dense.commutator(q, q)).max() == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        dense.commutator(dense.build_position(4), dense.build_position(5))


def test_ladder_commutator_dim4():
    A = dense.build_annihilator(4)
    c = dense.commutator(A, A.conj().T)
    assert np.abs(c - np.diag([1.0, 1.0, 1.0, -3.0])).max() < 1e-14


def test_ccr_on_leading_block_dim64():
    d = 64
    c = dense.commutator(dense.build_momentum(d), dense.build_position(d))
    block = dense.truncation_safe_projection(c, guard=1)
    assert np.abs(block + 1j * np.eye(d - 1)).max() < 1e-12
    assert abs(c[d - 1, d - 1] - 1j * (d - 1)) < 1e-10


def test_projection_guard_zero_is_identity():
    M = dense.build_position(6)
    assert np.abs(dense.truncation_safe_projection(M, 0) - M).max() == 0.0


def test_projection_of_ladder_commutator():
    A = dense.build_annihilator(4)
    block = dense.truncation_safe_projection(dense.commutator(A, A.conj().T), 1)
    assert np.abs(block - np.eye(3)).max() < 1e-14


def test_projection_guard_errors():
    M = dense.build_position(2)
    with pytest.raises(ValueError):
        dense.truncation_safe_projection(M, 2)
    with pytest.raises(ValueError):
        dense.truncation_safe_projection(M, -1)


def test_number_spectrum():
    assert np.abs(dense.number_spectrum(5) - np.arange(5)).max() < 1e-13
    assert dense.number_spectrum(1)[0] == 0.0


def test_number_eigenvectors():
    vals, vecs = dense.number_eigensystem(12)
    N = dense.build_number(12)
    for j in range(12):
        assert np.linalg.norm(N @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-12


def test_oscillator_spectrum_small():
    assert np.abs(dense.oscillator_spectrum(2) - np.array([1.0, 1.0])).max() < 1e-14
    assert np.abs(dense.oscillator_spectrum(4) - np.array([1.0, 3.0, 3.0, 5.0])).max() < 1e-14


def test_oscillator_spectrum_dim64():
    got = dense.oscillator_spectrum(64)
    predicted = np.sort(np.concatenate([2 * np.arange(63) + 1, [63.0]]))
    assert np.abs(got - predicted).max() < 1e-10


def test_oscillator_requires_dim2():
    with pytest.raises(ValueError):
        dense.oscillator_spectrum(1)


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
    with pytest.raises(ValueError, match="1-d"):
        fock.FockState(np.ones((2, 2)))


def test_bands_and_states_are_immutable():
    band, state = fock.Band.position(4), fock.FockState(np.array([1.0, 2.0]))
    for obj, name, value in ((band, "dim", 5), (band, "diagonals", {}), (band, "_dtype", float),
                             (state, "coeffs", np.zeros(2)), (state, "convention", fock.UNNORMALIZED)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    with pytest.raises(AttributeError):
        del state.convention
    assert band.dim == 4 and state.convention == fock.NORMALIZED
    # the cached properties of a band are still computed once and kept
    assert band._terms is band._terms
    assert np.array_equal(band @ np.eye(4), band.to_dense())
    # a pickle is rebuilt through the checked constructor
    band_back, state_back = pickle.loads(pickle.dumps((band, state)))
    assert band_back.dim == 4 and np.array_equal(band_back.to_dense(), band.to_dense())
    assert np.array_equal(state_back.coeffs, state.coeffs) and not state_back.coeffs.flags.writeable
    assert state_back.convention == fock.NORMALIZED


def test_state_owns_a_copy_of_the_callers_array():
    given_coeffs = np.array([1.0, 2.0j, 3.0])
    state = fock.FockState(given_coeffs)
    given_coeffs[:] = 7.0
    assert np.array_equal(state.coeffs, [1.0, 2.0j, 3.0])
    with pytest.raises(ValueError):
        state.coeffs[0] = 0.0


def test_states_built_inside_the_package_are_read_only():
    for state in (fock.FockState.basis_state(3), fock.FockState.basis_state(3, fock.UNNORMALIZED),
                  fock.FockState.basis_state(3).to_unnormalized(),
                  fock.FockState.basis_state(3, fock.UNNORMALIZED).to_normalized()):
        assert state.coeffs.dtype == complex and not state.coeffs.flags.writeable
    with pytest.raises(ValueError):
        fock.FockState.basis_state(2, "weird")
    # sqrt(200!) ~ 1e187: a normalized coefficient past the float range is refused, as before
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        fock.FockState(np.full(201, 1e200), fock.UNNORMALIZED).to_normalized()


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
        dense.build_annihilator,
        dense.build_creator,
        dense.build_position,
        dense.build_momentum,
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
