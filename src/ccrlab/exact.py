"""Exact arithmetic in the field Q(i, sqrt2).

Every constant appearing in the ladder-operator identities (1/sqrt2,
1/(i sqrt2), -i, ...) lives in this field, so operator identities can be
decided exactly instead of compared in floating point.  Elements are
stored as r0 + r1*i + r2*sqrt2 + r3*i*sqrt2 with rational components;
that representation is unique, so equality is componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

_SQRT2 = 2.0**0.5


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"rational component required, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactScalar:
    """r0 + r1*i + r2*sqrt2 + r3*i*sqrt2 with exact rational components."""

    r0: Fraction = Fraction(0)
    r1: Fraction = Fraction(0)
    r2: Fraction = Fraction(0)
    r3: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "r0", _frac(self.r0))
        object.__setattr__(self, "r1", _frac(self.r1))
        object.__setattr__(self, "r2", _frac(self.r2))
        object.__setattr__(self, "r3", _frac(self.r3))

    # -- constructors -------------------------------------------------
    @classmethod
    def rational(cls, value) -> "ExactScalar":
        return cls(_frac(value))

    @classmethod
    def coerce(cls, value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return cls.rational(value)

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.r0 + o.r0, self.r1 + o.r1, self.r2 + o.r2, self.r3 + o.r3)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.r0, -self.r1, -self.r2, -self.r3)

    def __sub__(self, other) -> "ExactScalar":
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        a0, a1, a2, a3 = self.r0, self.r1, self.r2, self.r3
        b0, b1, b2, b3 = o.r0, o.r1, o.r2, o.r3
        # i^2 = -1, (sqrt2)^2 = 2, (i*sqrt2)^2 = -2
        return ExactScalar(
            a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Field inverse.  Write z = alpha + beta*sqrt2 with alpha, beta in
        Q(i); then 1/z = (alpha - beta*sqrt2) / (alpha^2 - 2 beta^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        a = (self.r0, self.r1)  # alpha
        b = (self.r2, self.r3)  # beta

        def gmul(x, y):
            return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        g = gmul(a, a)
        g = (g[0] - 2 * (b[0] * b[0] - b[1] * b[1]), g[1] - 2 * (2 * b[0] * b[1]))
        gn = g[0] * g[0] + g[1] * g[1]  # |gamma|^2, a nonzero rational
        ginv = (g[0] / gn, -g[1] / gn)
        top_a = gmul(a, ginv)
        top_b = gmul((-b[0], -b[1]), ginv)
        return ExactScalar(top_a[0], top_a[1], top_b[0], top_b[1])

    def __truediv__(self, other) -> "ExactScalar":
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) * self.inverse()

    # -- structure ------------------------------------------------------
    def conjugate(self) -> "ExactScalar":
        """Complex conjugate (i -> -i)."""
        return ExactScalar(self.r0, -self.r1, self.r2, -self.r3)

    def is_zero(self) -> bool:
        return not (self.r0 or self.r1 or self.r2 or self.r3)

    def is_rational(self) -> bool:
        return not (self.r1 or self.r2 or self.r3)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.r0

    def to_complex(self) -> complex:
        return complex(
            float(self.r0) + float(self.r2) * _SQRT2,
            float(self.r1) + float(self.r3) * _SQRT2,
        )

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
