"""Exact arithmetic in the field Q(i, sqrt2).

Every constant appearing in the ladder-operator identities (1/sqrt2,
1/(i sqrt2), -i, ...) lives in this field, so operator identities can be
decided exactly instead of compared in floating point.  An element
r0 + r1*i + r2*sqrt2 + r3*i*sqrt2 is stored as integer coordinates over
one common denominator, (n0, n1, n2, n3, den) with rk = nk/den (Cohen,
A Course in Computational Algebraic Number Theory, GTM 138, 4.2).  The
tuple is kept canonical, den > 0 and gcd(n0, n1, n2, n3, den) = 1, so
equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

_SQRT2 = 2.0**0.5
_ZERO = (0, 0, 0, 0, 1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"rational component required, got {type(x).__name__}")


def _wrap(n: tuple) -> "ExactScalar":
    """An ExactScalar holding the canonical tuple n as it is."""
    s = object.__new__(ExactScalar)
    s._n = n
    return s


def _canonical(n0: int, n1: int, n2: int, n3: int, den: int) -> "ExactScalar":
    """The element (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2)/den, den > 0."""
    g = gcd(n0, n1, n2, n3, den)
    if g != 1:
        n0, n1, n2, n3, den = n0 // g, n1 // g, n2 // g, n3 // g, den // g
    return _wrap((n0, n1, n2, n3, den))


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two elements (n0, n1, n2, n3, den), not reduced."""
    a0, a1, a2, a3, ad = a
    b0, b1, b2, b3, bd = b
    # i^2 = -1, (sqrt2)^2 = 2, (i*sqrt2)^2 = -2
    return (a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            ad * bd)


def _to_complex(n0: int, n1: int, n2: int, n3: int, den: int) -> complex:
    """(n0 + n1*i + n2*sqrt2 + n3*i*sqrt2)/den, reduced or not: each int / int
    rounds its exact quotient once, as float(Fraction) does."""
    return complex(n0 / den + n2 / den * _SQRT2, n1 / den + n3 / den * _SQRT2)


class ExactScalar:
    """r0 + r1*i + r2*sqrt2 + r3*i*sqrt2 with exact rational components."""

    __slots__ = ("_n",)

    def __init__(self, r0=0, r1=0, r2=0, r3=0):
        r = (_frac(r0), _frac(r1), _frac(r2), _frac(r3))
        # over the lcm of the reduced denominators the tuple is already canonical
        den = lcm(*(x.denominator for x in r))
        self._n = tuple(x.numerator * (den // x.denominator) for x in r) + (den,)

    # -- components -----------------------------------------------------
    @property
    def r0(self) -> Fraction:
        return Fraction(self._n[0], self._n[4])

    @property
    def r1(self) -> Fraction:
        return Fraction(self._n[1], self._n[4])

    @property
    def r2(self) -> Fraction:
        return Fraction(self._n[2], self._n[4])

    @property
    def r3(self) -> Fraction:
        return Fraction(self._n[3], self._n[4])

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactScalar):
            return self._n == other._n
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._n)

    def __repr__(self) -> str:
        return f"ExactScalar(r0={self.r0!r}, r1={self.r1!r}, r2={self.r2!r}, r3={self.r3!r})"

    # -- constructors -------------------------------------------------
    @classmethod
    def rational(cls, value) -> "ExactScalar":
        x = _frac(value)
        return _wrap((x.numerator, 0, 0, 0, x.denominator))

    @classmethod
    def coerce(cls, value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return cls.rational(value)

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "ExactScalar":
        a0, a1, a2, a3, ad = self._n
        b0, b1, b2, b3, bd = ExactScalar.coerce(other)._n
        if ad == bd:
            return _canonical(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _canonical(a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad,
                          a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        n0, n1, n2, n3, den = self._n
        return _wrap((-n0, -n1, -n2, -n3, den))

    def __sub__(self, other) -> "ExactScalar":
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactScalar":
        a0, a1, a2, a3, ad = self._n
        if type(other) is int:
            # scale the numerators: other // g shares no factor with ad // g,
            # and the n's none with ad, so the result stays canonical
            g = gcd(other, ad)
            k = other // g
            return _wrap((a0 * k, a1 * k, a2 * k, a3 * k, ad // g))
        return _canonical(*_times(self._n, ExactScalar.coerce(other)._n))

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Field inverse.  Write z = (alpha + beta*sqrt2)/den with alpha,
        beta Gaussian integers and gamma = alpha^2 - 2 beta^2; then
        1/z = den (alpha - beta*sqrt2) conj(gamma) / |gamma|^2."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        n0, n1, n2, n3, den = self._n
        g0 = n0 * n0 - n1 * n1 - 2 * (n2 * n2 - n3 * n3)
        g1 = 2 * (n0 * n1 - 2 * n2 * n3)
        return _canonical(
            den * (n0 * g0 + n1 * g1),
            den * (n1 * g0 - n0 * g1),
            -den * (n2 * g0 + n3 * g1),
            -den * (n3 * g0 - n2 * g1),
            g0 * g0 + g1 * g1,  # nonzero: gamma is den^2 times the norm of z over Q(i)
        )

    def __truediv__(self, other) -> "ExactScalar":
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) * self.inverse()

    # -- structure ------------------------------------------------------
    def conjugate(self) -> "ExactScalar":
        """Complex conjugate (i -> -i)."""
        n0, n1, n2, n3, den = self._n
        return _wrap((n0, -n1, n2, -n3, den))

    def is_zero(self) -> bool:
        return self._n == _ZERO

    def is_rational(self) -> bool:
        return not (self._n[1] or self._n[2] or self._n[3])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.r0

    def to_complex(self) -> complex:
        return _to_complex(*self._n)

    def __str__(self) -> str:
        terms = []
        for coeff, unit in ((self.r0, ""), (self.r1, "i"), (self.r2, "sqrt2"), (self.r3, "i*sqrt2")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            if not unit:
                body = str(mag)
            elif mag == 1:
                body = unit
            else:
                body = f"{mag}*{unit}"
            terms.append(("-" if coeff < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


ZERO = ExactScalar()
ONE = ExactScalar(Fraction(1))
I = ExactScalar(Fraction(0), Fraction(1))
SQRT2 = ExactScalar(Fraction(0), Fraction(0), Fraction(1))
HALF_SQRT2 = ExactScalar(Fraction(0), Fraction(0), Fraction(1, 2))  # 1/sqrt2
