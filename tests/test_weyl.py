"""Matrix exponentials and the exponentiated commutation identities.

scipy.linalg.expm and scipy.sparse.linalg.expm_multiply serve as the
independent oracles for the in-house Taylor-action exponential
expm_multiply and for expm, its action on the identity; residual
magnitudes across dimensions were measured before freezing (dim 16 sits
near 7e-13, dims >= 32 at the rounding floor), so floor-aware assertions
follow the module invariant "halves or is already < 1e-10".
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

from ccrlab import fock, weyl
from ccrlab.symbolic import exp_commutator_series


def test_expm_zero_is_identity():
    assert np.abs(weyl.expm(np.zeros((6, 6))) - np.eye(6)).max() == 0.0


def test_expm_diagonal_phases():
    theta = np.linspace(-2, 2, 9)
    got = weyl.expm(np.diag(1j * theta))
    assert np.abs(got - np.diag(np.exp(1j * theta))).max() < 1e-13


def test_expm_matches_scipy_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        want = scipy_expm(M)
        got = weyl.expm(M)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_expm_skew_hermitian_unitary():
    p = fock.build_momentum(64)
    U = weyl.expm(0.7j * p)
    assert np.abs(U @ U.conj().T - np.eye(64)).max() < 1e-11
    assert np.abs(U @ weyl.expm(-0.7j * p) - np.eye(64)).max() < 1e-11


@given(
    st.integers(min_value=2, max_value=128),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(["p", "q"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_expm_multiply_matches_scipy(dim, t, op, columns, seed):
    A = 1j * t * (fock.build_momentum(dim) if op == "p" else fock.build_position(dim))
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns == 0 else (dim, columns)  # a vector or a block
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    B /= np.linalg.norm(B)
    got = weyl.expm_multiply(A, B)
    assert got.shape == B.shape
    assert np.linalg.norm(got - scipy_expm(A) @ B) < 1e-12
    assert np.linalg.norm(got - scipy_expm_multiply(A, B)) < 1e-12


def test_expm_multiply_refuses_too_many_steps():
    p = fock.build_momentum(16)
    x = fock.FockState.basis_state(0).vector(16)
    start = time.perf_counter()
    for A in (1e200j * p, 1e6j * p, np.full((16, 16), np.inf)):
        with pytest.raises(ValueError, match="Taylor steps|non-finite"):
            weyl.expm_multiply(A, x)
    assert time.perf_counter() - start < 1.0


def test_expm_rejects_nonfinite():
    M = np.zeros((4, 4))
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        weyl.expm(M)


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
    rec = weyl.weyl_residual(0.5, 0.25, 32, None, fock.FockState.basis_state(1))
    assert rec.dim == 32 and rec.guard == 8 and rec.test_vector_support == 1
    names = {f.name for f in dataclasses.fields(rec)}
    assert names == {"t", "s", "dim", "guard", "residual", "test_vector_support"}


def test_weyl_support_violation():
    with pytest.raises(ValueError):
        weyl.weyl_residual(0.5, 0.5, 16, 8, fock.FockState.basis_state(12))
    with pytest.raises(ValueError):
        weyl.weyl_residual(0.5, 0.5, 16, 16)
    # mode dim - guard is the first guard-band mode, one past the block
    with pytest.raises(ValueError, match="last allowed mode is 47"):
        weyl.weyl_residual(0.5, 0.5, 64, 16, fock.FockState.basis_state(48))
    assert weyl.weyl_residual(0.5, 0.5, 64, 16, fock.FockState.basis_state(47)).test_vector_support == 47


def test_phase_convention_exactly_one_vanishes():
    rep = weyl.weyl_phase_check(0.5, 0.5, 64)
    assert rep["vanishing"] == "+ist"
    assert rep["plus_phase"] < 1e-8
    assert rep["minus_phase"] > 1e-3


def test_group_law_on_low_modes():
    d = 48
    p = fock.build_momentum(d)
    x = fock.FockState.basis_state(0).vector(d)
    u = weyl.expm(1j * 0.4 * p) @ weyl.expm(1j * 0.9 * p) - weyl.expm(1j * 1.3 * p)
    assert np.linalg.norm(u @ x) < 1e-10


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
    with pytest.raises(ValueError):
        weyl.shift_identity_residual(0.5, 1, 32, fock.FockState.basis_state(30))


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
    recs = [weyl.weyl_residual(1.0, 1.0, d, None, e1) for d in (16, 64)]
    assert recs[1].residual < max(recs[0].residual, 1e-10)
