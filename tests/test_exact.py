"""Ring and field behavior of the exact Q(i, sqrt2) scalars."""

import math
from dataclasses import dataclass
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


# -- the Fraction reference ----------------------------------------------------
# Q(i, sqrt2) as four Fraction components, independent of ExactScalar's
# integer tuple: every operation below must agree with it exactly.


@dataclass(frozen=True)
class FractionScalar:
    """r0 + r1*i + r2*sqrt2 + r3*i*sqrt2 with Fraction components."""

    r0: Fraction = Fraction(0)
    r1: Fraction = Fraction(0)
    r2: Fraction = Fraction(0)
    r3: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("r0", "r1", "r2", "r3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def coerce(cls, value):
        return value if isinstance(value, FractionScalar) else cls(Fraction(value))

    def __add__(self, other):
        o = FractionScalar.coerce(other)
        return FractionScalar(self.r0 + o.r0, self.r1 + o.r1, self.r2 + o.r2, self.r3 + o.r3)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar(-self.r0, -self.r1, -self.r2, -self.r3)

    def __sub__(self, other):
        return self + (-FractionScalar.coerce(other))

    def __rsub__(self, other):
        return FractionScalar.coerce(other) + (-self)

    def __mul__(self, other):
        o = FractionScalar.coerce(other)
        a0, a1, a2, a3 = self.r0, self.r1, self.r2, self.r3
        b0, b1, b2, b3 = o.r0, o.r1, o.r2, o.r3
        return FractionScalar(
            a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def inverse(self):
        """z = alpha + beta*sqrt2 with alpha, beta in Q(i);
        1/z = (alpha - beta*sqrt2) / (alpha^2 - 2 beta^2)."""
        if not (self.r0 or self.r1 or self.r2 or self.r3):
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        a = (self.r0, self.r1)
        b = (self.r2, self.r3)

        def gmul(x, y):
            return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        g = gmul(a, a)
        g = (g[0] - 2 * (b[0] * b[0] - b[1] * b[1]), g[1] - 2 * (2 * b[0] * b[1]))
        gn = g[0] * g[0] + g[1] * g[1]
        ginv = (g[0] / gn, -g[1] / gn)
        top_a = gmul(a, ginv)
        top_b = gmul((-b[0], -b[1]), ginv)
        return FractionScalar(top_a[0], top_a[1], top_b[0], top_b[1])

    def __truediv__(self, other):
        return self * FractionScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FractionScalar.coerce(other) * self.inverse()

    def conjugate(self):
        return FractionScalar(self.r0, -self.r1, self.r2, -self.r3)

    def to_complex(self) -> complex:
        return complex(
            float(self.r0) + float(self.r2) * math.sqrt(2),
            float(self.r1) + float(self.r3) * math.sqrt(2),
        )

    def __str__(self) -> str:
        terms = []
        for coeff, unit in ((self.r0, ""), (self.r1, "i"), (self.r2, "sqrt2"), (self.r3, "i*sqrt2")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = str(mag) if not unit else unit if mag == 1 else f"{mag}*{unit}"
            terms.append(("-" if coeff < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def _agrees(z, ref):
    assert isinstance(z, ExactScalar)
    assert (z.r0, z.r1, z.r2, z.r3) == (ref.r0, ref.r1, ref.r2, ref.r3)
    assert all(type(r) is Fraction for r in (z.r0, z.r1, z.r2, z.r3))
    # equal to the same element built from its components: results stay canonical
    built = ExactScalar(ref.r0, ref.r1, ref.r2, ref.r3)
    assert z == built and hash(z) == hash(built)


# integers, small fractions with either sign on the denominator, and
# components whose denominators exceed 2**64
_components = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(-12, 12).filter(bool)),
    st.builds(
        Fraction,
        st.integers(-(2**80), 2**80),
        st.integers(2**64 + 1, 2**80).flatmap(lambda d: st.sampled_from((d, -d))),
    ),
)
_parts = st.tuples(_components, _components, _components, _components)
_ints = st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70))


def test_unnormalised_and_negative_denominator_inputs():
    z = ExactScalar(Fraction(2, 4), 0, 6, 0)
    assert (z.r0, z.r1, z.r2, z.r3) == (Fraction(1, 2), 0, 6, 0)
    assert z == ExactScalar(Fraction(1, 2), Fraction(0), Fraction(12, 2)) and hash(z) == hash(
        ExactScalar(Fraction(1, 2), Fraction(0), Fraction(12, 2)))
    w = ExactScalar(Fraction(3, -4), Fraction(-5, -10))
    assert (w.r0, w.r1) == (Fraction(-3, 4), Fraction(1, 2))
    assert str(w) == str(FractionScalar(Fraction(3, -4), Fraction(-5, -10))) == "-3/4 + 1/2*i"
    with pytest.raises(TypeError):
        ExactScalar(0.5)


@given(_parts, _parts, _ints)
@settings(max_examples=200, deadline=None)
def test_arithmetic_agrees_with_fraction_reference(pa, pb, k):
    a, b = ExactScalar(*pa), ExactScalar(*pb)
    ra, rb = FractionScalar(*pa), FractionScalar(*pb)
    _agrees(a, ra)
    _agrees(a + b, ra + rb)
    _agrees(a - b, ra - rb)
    _agrees(a * b, ra * rb)
    _agrees(-a, -ra)
    _agrees(a.conjugate(), ra.conjugate())
    for x in (k, Fraction(k, 7)):
        _agrees(a * x, ra * x)
        _agrees(x * a, x * ra)
        _agrees(a + x, ra + x)
        _agrees(x - a, x - ra)
    if any(pb):
        _agrees(b.inverse(), rb.inverse())
        _agrees(a / b, ra / rb)
        _agrees(k / b, k / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


@given(_parts, _parts)
@settings(max_examples=200, deadline=None)
def test_equality_and_hash_agree_with_fraction_reference(pa, pb):
    a, b = ExactScalar(*pa), ExactScalar(*pb)
    assert (a == b) == (FractionScalar(*pa) == FractionScalar(*pb))
    assert a != pa  # a scalar never equals a plain tuple or number
    # the same element reached along different routes is equal, hash included
    for same in (a + b - b, a * ONE, ExactScalar(*(Fraction(3 * x, 3) for x in pa))):
        assert same == a and hash(same) == hash(a)
    if any(pb):
        assert (a * b) / b == a and hash((a * b) / b) == hash(a)


@given(_parts)
@settings(max_examples=200, deadline=None)
def test_rendering_agrees_with_fraction_reference(parts):
    z, ref = ExactScalar(*parts), FractionScalar(*parts)
    assert str(z) == str(ref)
    assert z.to_complex() == ref.to_complex()  # the same float, bit for bit
    assert z.is_zero() == (not any(parts))
    assert z.is_rational() == (not any(parts[1:]))
