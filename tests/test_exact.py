"""Ring and field behavior of the exact Q(i, sqrt2) scalars."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccrlab.exact import ExactScalar, HALF_SQRT2, I, ONE, SQRT2, ZERO

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
scalars = st.builds(ExactScalar, small_fracs, small_fracs, small_fracs, small_fracs)


def test_constants():
    assert (I * I) == -ONE
    assert (SQRT2 * SQRT2) == ExactScalar.rational(2)
    assert (I * SQRT2) * (I * SQRT2) == ExactScalar.rational(-2)
    assert HALF_SQRT2 * SQRT2 == ONE


def test_to_complex():
    z = ExactScalar(Fraction(1, 2), Fraction(-3), Fraction(1), Fraction(2))
    want = 0.5 + math.sqrt(2) + 1j * (-3 + 2 * math.sqrt(2))
    assert abs(z.to_complex() - want) < 1e-15


def test_one_over_sqrt2_is_half_sqrt2():
    assert ONE / SQRT2 == HALF_SQRT2


def test_conjugate_flips_i():
    z = ExactScalar(1, 2, 3, 4)
    assert z.conjugate() == ExactScalar(1, -2, 3, -4)
    assert (z * z.conjugate()).r1 == 0
    assert (z * z.conjugate()).r3 == 0


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_rational_accessor():
    assert ExactScalar.rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)
    with pytest.raises(ValueError):
        I.as_rational()


def test_str_representation():
    assert str(ZERO) == "0"
    assert str(-I) == "-i"
    assert str(ONE + SQRT2) == "1 + sqrt2"
    assert str(ExactScalar(Fraction(1, 2))) == "1/2"


@given(scalars, scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (-a) == ZERO


@given(scalars)
@settings(max_examples=100, deadline=None)
def test_field_inverse(z):
    if z.is_zero():
        return
    assert z * z.inverse() == ONE


@given(scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_complex_embedding_is_homomorphism(a, b):
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
