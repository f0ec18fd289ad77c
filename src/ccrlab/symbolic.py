"""Exact normal-ordering engine for words in {a, a†, q, p, I}.

A text is a word: scalars, symbols, powers, commutators and parentheses
joined by *, and a unary minus.  It is parsed into a small AST and
rewritten into the canonical normal form: a finite sum of monomials
(a†)^m a^k with coefficients in Q(i, sqrt2).  The only algebraic fact
used is the single rule a·a† -> a†·a + 1, through its closed form for
a^k a†^m;  q and p enter through their ladder combinations
q = (a + a†)/sqrt2 and p = (a - a†)/(i sqrt2).  Because the normal form
is canonical, operator identities, sums of forms among them, are decided
exactly.

A text is split into tokens by one regular expression and parsed by
recursive descent over the token strings; a token's position is found
only for a ParseError.  The parser folds a unary minus of a Scalar leaf
(a number, i or sqrt2), and a product of two Scalar leaves or a quotient
of two by a nonzero divisor, into one Scalar leaf, so "(1/2)" and "-16*i"
each parse to one.  Any other /, and any + or binary -, is a ParseError
at its token.

A normal form stores its coefficients as integer numerator tuples
(n0, n1, n2, n3) over one positive denominator shared by all its terms,
reduced so that no numerator tuple is zero and the denominator has no
factor in common with every numerator.  Products and sums then run on
plain ints, with one content reduction per result, a shift where the
denominator is a power of 2, as it is for q and p; ExactScalar
coefficients are built only when a caller reads them.  A product is one
loop over every pair of terms, but for a scalar form on either side,
which moves no key: one pass over the other side's terms, in their
order.  A sum or difference is one merge of the two term maps.  A word,
a `Product` of symbols and scalars such as "(1/2) * q * a * p", is
normal-ordered on one int per term: each letter is c (x a† + y a) with x
in {0, 1} and y in {0, 1, -1}, so it moves the terms by integer ladder
steps, and the scalars and the constants c fold into one exact factor
that a single content reduction applies at the end.  A power of a
linear form x a† + y a (q, p, a, ...) is built in closed form, each
coefficient an integer numerator over one denominator, in the term
order that n right products leave: m descending, then k ascending, when
the base lists a† first; k - m descending, then m ascending, when it
lists a first; its weights follow each other along those rows, so n! is
divided once per row.  A power of any other form is
n right products from I.  All insert terms in the order that `to_matrix`
sums in, but for a commutator with a linear side: one pass over the
other side's terms, which forms none of the products' terms that cancel.
`to_matrix` adds each term, its coefficient times the one diagonal of
(a†)^m a^k, into that diagonal of the dense output in place, in stored
order; the first term on a diagonal is written, so a -0.0 stays -0.0.

Each building block is made once per process and then shared, so no
cached form, tree or array is ever mutated:
- the parse tree of each text, for the last 256 texts parsed: each node
  sets its fields once, in __init__, and raises AttributeError on any
  later assignment or deletion; the leaves of the symbols, i, sqrt2 and
  -1 are single nodes, and a number's leaf is kept for the last 256
  numbers;
- the five symbol forms, built at import and returned by `normal_order`;
- the integer weights of the closed form for a^k a†^m, per (k, m),
  unbounded (min(k, m) + 1 integers each);
- the band (a†)^m a^k per (dim, m, k), 256 of them, read-only;
- the dense matrices of a, a†, q, p and I that `expr_to_matrix` starts
  from and multiplies by uncopied, ten of them, read-only: every array it
  returns is a new one.  A product starts from its leading Scalar factors,
  multiplied into one number, times the first other factor's matrix.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .exact import ExactScalar, HALF_SQRT2, I, ONE, SQRT2, ZERO, _canonical, _times, _to_complex
from . import fock
from .fock import _Value

# ---------------------------------------------------------------------------
# AST: every node is a fock._Value, immutable so that the parse memo can
# share its trees, and equal and hashed by type and fields.


class Scalar(_Value):
    __slots__ = ("value",)

    def __init__(self, value: ExactScalar):
        object.__setattr__(self, "value", value)


class Symbol(_Value):
    __slots__ = ("name",)  # one of 'a', 'ad', 'q', 'p', 'I'

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Product(_Value):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)


class Power(_Value):
    __slots__ = ("base", "exponent")  # exponent >= 0

    def __init__(self, base: OperatorExpr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Commutator(_Value):
    __slots__ = ("left", "right")

    def __init__(self, left: OperatorExpr, right: OperatorExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


OperatorExpr = Union[Scalar, Symbol, Product, Power, Commutator]

_SYMBOLS = ("a", "ad", "q", "p", "I")


# ---------------------------------------------------------------------------
# Parser


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


_PUNCT = frozenset("+-*/^()[],")
# A token is a number, a run of decimal digits; an identifier, a letter and
# the letters, digits and "_" after it; or one punctuation mark.  In a str
# pattern \d is str.isdecimal, \w str.isalnum or "_" and \s str.isspace, and
# [^\W\d_] is a letter or a numeric character such as "²", which starts no
# token.  Every character of an ASCII text without "_" that _OTHER does not
# find starts a token or continues one.
_TOKEN = re.compile(r"\d+|[^\W\d_]\w*|\S")
_OTHER = re.compile(r"[^\s\w+\-*/^()\[\],]")
# the leaves a token names, shared as every node is immutable
_NAMED = {**{name: Symbol(name) for name in _SYMBOLS}, "i": Scalar(I), "sqrt2": Scalar(SQRT2)}
_MINUS_ONE = Scalar(-ONE)


def _tokenize(text: str) -> list[str]:
    """The tokens of text, whitespace skipped, then "" for its end.
    ParseError at the first character that starts no token."""
    if not text.isascii() or "_" in text or _OTHER.search(text):
        for match in _TOKEN.finditer(text):
            c = match.group()[0]
            if not (c.isdecimal() or c.isalpha() or c in _PUNCT):
                raise ParseError(f"unexpected character {c!r}", match.start())
    return _TOKEN.findall(text) + [""]


class _Parser:
    """Recursive descent over the token strings; a token's position in the
    text is found only for a ParseError."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, index: int) -> ParseError:
        """The ParseError at token `index`, the end counting as one past the last."""
        starts = [match.start() for match in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[index])

    def expect(self, value: str):
        tok = self.next()
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok or 'end of input'!r}", self.pos - 1)

    def parse(self) -> OperatorExpr:
        e = self.word()
        if self.peek():
            raise self.error(f"unexpected trailing input {self.peek()!r}", self.pos)
        return e

    def word(self) -> OperatorExpr:
        node = self.unary()
        while self.peek() in ("*", "/"):
            if self.next() == "*":
                rhs = self.unary()
                if isinstance(node, Scalar) and isinstance(rhs, Scalar):
                    node = Scalar(node.value * rhs.value)
                else:
                    node = Product((node.factors if isinstance(node, Product) else (node,)) + (rhs,))
                continue
            if not isinstance(node, Scalar):
                raise self.error("only a scalar can be divided", self.pos - 1)
            at = self.pos
            rhs = self.unary()
            if not isinstance(rhs, Scalar) or rhs.value.is_zero():
                raise self.error("a divisor must be a nonzero scalar", at)
            node = Scalar(node.value / rhs.value)
        return node

    def unary(self) -> OperatorExpr:
        if self.peek() == "-":
            self.next()
            node = self.unary()
            return Scalar(-node.value) if isinstance(node, Scalar) else Product((_MINUS_ONE, node))
        return self.power()

    def power(self) -> OperatorExpr:
        base = self.primary()
        while self.peek() == "^":
            self.next()
            tok = self.next()
            if not tok.isdecimal():
                raise self.error("power exponent must be a nonnegative integer", self.pos - 1)
            base = Power(base, int(tok))
        return base

    def primary(self) -> OperatorExpr:
        tok = self.next()
        if tok.isdecimal():
            return _number(tok)
        if tok in _NAMED:
            return _NAMED[tok]
        if tok[:1].isalpha():
            raise self.error(f"unknown identifier {tok!r}", self.pos - 1)
        if tok == "(":
            e = self.word()
            self.expect(")")
            return e
        if tok == "[":
            left = self.word()
            self.expect(",")
            right = self.word()
            self.expect("]")
            return Commutator(left, right)
        raise self.error(f"unexpected token {tok or 'end of input'!r}", self.pos - 1)


@lru_cache(maxsize=256)
def _number(tok: str) -> Scalar:
    """The leaf of a number token, shared as the named leaves are."""
    return Scalar(ExactScalar.rational(int(tok)))


@lru_cache(maxsize=256)
def parse(text: str) -> OperatorExpr:
    """Parse a word.  Whitespace-insensitive; ^ binds tighter than unary
    -, which binds tighter than * and /.  Scalar arithmetic is folded as
    the module docstring says.  The tree is memoized by its text and
    shared, as no node can be assigned to."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Reordering a^k (a†)^m


@lru_cache(maxsize=None)
def _reorder(k: int, m: int) -> tuple:
    """Normal form of a^k (a†)^m as ((m', k'), integer coefficient) terms.

    Closed form a^k a†^m = sum_j j! C(k,j) C(m,j) a†^(m-j) a^(k-j)
    (Blasiak et al., Am. J. Phys. 75, 2007), terms in ascending order.
    """
    return tuple(
        ((m - j, k - j), math.factorial(j) * math.comb(k, j) * math.comb(m, j))
        for j in range(min(k, m), -1, -1)
    )


@lru_cache(maxsize=256)
def _ladder_term(dim: int, m: int, k: int) -> fock.Band:
    """(a†)^m a^k on dim modes: one band product of the powers (a†)^m and
    a^k, each power a left product a @ a^(k-1) as a dense power would be.
    Cached, and so read-only, because the terms of many normal forms
    repeat: an entry holds one diagonal of dim entries."""
    if m and k:
        term = _ladder_term(dim, m, 0) @ _ladder_term(dim, 0, k)
    elif m or k:
        a = fock.Band.annihilator(dim)
        term = (a.adjoint() if m else a) @ _ladder_term(dim, max(m - 1, 0), max(k - 1, 0))
    else:
        term = fock.Band(dim, {0: np.ones(dim)})
    for d in term.diagonals.values():
        d.flags.writeable = False
    return term


# ---------------------------------------------------------------------------
# Normal form


class NormalForm:
    """Finite sum of monomials (a†)^m a^k with coefficients in Q(i, sqrt2).

    Stored as integer numerators over one denominator: ``_den`` is a
    positive int and ``_num`` maps (m, k) to the tuple (n0, n1, n2, n3),
    the coefficient (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / _den.  The form
    is canonical: no zero tuple is stored and gcd(_den, every numerator)
    is 1, so two normal forms are equal iff their denominators and maps
    are.  A product multiplies raw numerator tuples and divides by the
    content once; ExactScalar coefficients are built only on request.
    """

    __slots__ = ("_den", "_num", "_moves")

    def __init__(self, terms: dict | None = None):
        scalars = {}
        for (m, k), c in (terms or {}).items():
            try:
                key = (operator.index(m), operator.index(k))
            except TypeError:
                raise ValueError(f"monomial exponents must be integers, got ({m!r}, {k!r})") from None
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"monomial exponents must be nonnegative, got ({m!r}, {k!r})")
            if not isinstance(c, ExactScalar):
                c = ExactScalar.coerce(c)
            if not c.is_zero():
                scalars[key] = c._n
        # over the lcm of canonical denominators the numerators have content 1
        den = math.lcm(*(n[4] for n in scalars.values()))
        self._den = den
        self._num = {key: tuple(x * (den // n[4]) for x in n[:4]) for key, n in scalars.items()}

    @classmethod
    def _reduced(cls, num: dict, den: int) -> "NormalForm":
        """The canonical form of sum num[key] / den, den > 0; num holds no zero tuple.
        The content g divides den.  When den is a power of 2, as for q and
        p, so is g: the lowest bit set in any numerator, found by OR-ing
        them.  A content that is a power of 2 divides out as a shift."""
        if den & (den - 1):
            g = den
            for n in num.values():
                g = math.gcd(g, *n)
                if g == 1:
                    break
        else:
            bits = 0
            for n0, n1, n2, n3 in num.values():
                bits |= n0 | n1 | n2 | n3
                if bits & 1:
                    break
            g = min(den, bits & -bits) if bits else den
        nf = object.__new__(cls)
        if g == 1:
            nf._den, nf._num = den, num
        elif not g & (g - 1):
            s = g.bit_length() - 1
            nf._den = den >> s
            nf._num = {key: (n0 >> s, n1 >> s, n2 >> s, n3 >> s) for key, (n0, n1, n2, n3) in num.items()}
        else:
            nf._den = den // g
            nf._num = {key: (n0 // g, n1 // g, n2 // g, n3 // g) for key, (n0, n1, n2, n3) in num.items()}
        return nf

    def _scalar(self, n: tuple) -> ExactScalar:
        return _canonical(*n, self._den)

    # -- access ---------------------------------------------------------
    def coeff(self, m: int, k: int) -> ExactScalar:
        n = self._num.get((m, k))
        return ZERO if n is None else self._scalar(n)

    def items(self) -> list:
        return [(key, self._scalar(n)) for key, n in sorted(self._num.items())]

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalForm) and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "NormalForm") -> "NormalForm":
        return self._merge(other, 1)

    def _merge(self, other: "NormalForm", sign: int) -> "NormalForm":
        """self + sign * other over the lcm of the denominators: self's
        keys, then other's new ones, each in its form's order."""
        da, db = self._den, other._den
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = {key: (n0 * fa, n1 * fa, n2 * fa, n3 * fa) for key, (n0, n1, n2, n3) in self._num.items()}
        for key, (b0, b1, b2, b3) in other._num.items():
            a = out.get(key)
            if a is None:
                out[key] = (b0 * fb, b1 * fb, b2 * fb, b3 * fb)
            else:
                out[key] = (a[0] + b0 * fb, a[1] + b1 * fb, a[2] + b2 * fb, a[3] + b3 * fb)
        return NormalForm._reduced({key: n for key, n in out.items() if any(n)}, den)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self._merge(other, -1)

    def scale(self, s) -> "NormalForm":
        b0, b1, b2, b3, bd = ExactScalar.coerce(s)._n
        if not (b0 or b1 or b2 or b3):
            return NormalForm()
        return self._times_scalar((b0, b1, b2, b3), self._den * bd)

    def _times_scalar(self, b: tuple, den: int) -> "NormalForm":
        """The terms times the nonzero numerator b, over den, in their order."""
        b0, b1, b2, b3 = b
        # i^2 = -1, (sqrt2)^2 = 2, (i*sqrt2)^2 = -2; a nonzero factor keeps every term nonzero
        return NormalForm._reduced({
            key: (a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                  a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                  a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                  a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)
            for key, (a0, a1, a2, a3) in self._num.items()
        }, den)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        """The product: every pair of terms, self's outer and other's
        inner, reordered by `_reorder`, its keys inserted in that order.
        A scalar form on either side moves no key, so its product is one
        pass over the other side's terms, in their order."""
        den = self._den * other._den
        for scalar, form in ((self, other), (other, self)):
            if scalar._num.keys() <= _SCALAR_KEYS:
                b = scalar._num.get((0, 0))
                return NormalForm._reduced({}, den) if b is None else form._times_scalar(b, den)
        out: dict = {}
        for (m1, k1), (a0, a1, a2, a3) in self._num.items():
            for (m2, k2), (b0, b1, b2, b3) in other._num.items():
                c0 = a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3)
                c1 = a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2)
                c2 = a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1
                c3 = a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
                for (mm, kk), w in _reorder(k1, m2):
                    key = (m1 + mm, kk + k2)
                    acc = out.get(key)
                    if acc is None:
                        out[key] = (c0 * w, c1 * w, c2 * w, c3 * w)
                    else:
                        out[key] = (acc[0] + c0 * w, acc[1] + c1 * w, acc[2] + c2 * w, acc[3] + c3 * w)
        return NormalForm._reduced({key: n for key, n in out.items() if any(n)}, den)

    def _unit_moves(self) -> list:
        """[((m, k), the signed permutation that multiplies by one nonzero
        component of its coefficient)], in the form's order: the product by
        a coefficient is the sum of its moves.  `commutator` applies them."""
        if not hasattr(self, "_moves"):  # made once: a form is never mutated
            self._moves = [(key, tuple(x for i, f in _UNIT_PRODUCTS[j] for x in (i, f * b)))
                           for key, n in self._num.items() for j, b in enumerate(n) if b]
        return self._moves

    def _is_linear(self) -> bool:
        """Whether the form is x a† + y a, not zero."""
        return bool(self._num) and self._num.keys() <= _LINEAR_KEYS

    def commutator(self, other: "NormalForm") -> "NormalForm":
        """[self, other] = self other - other self.  With a linear side
        x a† + y a (self if it is one), one pass over the other side's terms
        by [a, a†^m a^k] = m a†^(m-1) a^k and [a†, a†^m a^k] = -k a†^m a^(k-1):
        each term inserts, per term of the linear side in its order, the one
        term its rule leaves.  Any other pair is two products and a
        difference."""
        if self._is_linear():
            linear, form, sign = self, other, 1
        elif other._is_linear():
            linear, form, sign = other, self, -1
        else:
            return self * other - other * self
        moves, out = linear._unit_moves(), {}
        get = out.get
        for (m, k), a in form._num.items():
            for (dagger, _), (i0, f0, i1, f1, i2, f2, i3, f3) in moves:
                w, key = (-sign * k, (m, k - 1)) if dagger else (sign * m, (m - 1, k))
                if w:
                    c0, c1, c2, c3 = w * f0 * a[i0], w * f1 * a[i1], w * f2 * a[i2], w * f3 * a[i3]
                    acc = get(key)
                    out[key] = (c0, c1, c2, c3) if acc is None else (acc[0] + c0, acc[1] + c1, acc[2] + c2, acc[3] + c3)
        return NormalForm._reduced({key: n for key, n in out.items() if any(n)}, form._den * linear._den)

    def __pow__(self, n: int) -> "NormalForm":
        n = operator.index(n)  # a numpy exponent would wrap in den ** n
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        if self._is_linear():
            return self._linear_power(n)
        acc = _LEAVES["I"]
        for _ in range(n):  # a loop, so no exponent is bounded by the stack
            acc = acc * self
        return acc

    def _linear_power(self, n: int) -> "NormalForm":
        """x^n of a linear form x = X a† + Y a in closed form (Wilcox,
        J. Math. Phys. 8, 962, 1967): e^{tx} = e^{tXa†} e^{tYa} e^{t²XY/2},
        so x^n = sum over m + k + 2j = n of
        n!/(m! k! j! 2^j) X^(m+j) Y^(k+j) a†^m a^k,
        as integer numerators over den^n 2^(n//2), reduced once.  A one-term
        base c a† or c a gives the single monomial c^n.  The terms are
        inserted in the order that n right products leave them in, row by
        row.  When the base lists a† first, the rows have fixed m,
        descending, and run k up by 2; when it lists a first, they have
        fixed k - m, descending, and run m and k up by 1.  Along a row j
        falls by 1, so each weight W = n!/(m! k! j!) 2^(n//2-j) is its
        neighbour's times 2j/((k+1)(k+2)) or 2j/((m+1)(k+1)), and only a
        row's first weight divides n!.  X^(m+j) Y^(k+j) depends on e = m + j
        alone, as k + j = n - e, so it is formed once per e."""
        if len(self._num) == 1:
            ((m, k), c), = self._num.items()
            acc = (1, 0, 0, 0, 1)
            for _ in range(n):
                acc = _times(acc, c + (1,))
            return NormalForm._reduced({(m * n, k * n): acc[:4]}, self._den ** n)
        x, y = [(1, 0, 0, 0, 1)], [(1, 0, 0, 0, 1)]  # X^e and Y^e as numerators, e <= n
        for _ in range(n):
            x.append(_times(x[-1], self._num[1, 0] + (1,)))
            y.append(_times(y[-1], self._num[0, 1] + (1,)))
        power = [_times(x[e], y[n - e])[:4] for e in range(n + 1)]
        if next(iter(self._num)) == (1, 0):
            rows, step = [(m, (n - m) % 2) for m in range(n, -1, -1)], 0
        else:
            rows, step = [(max(0, -d), max(0, d)) for d in range(n, -n - 1, -2)], 1
        fact = [math.factorial(e) for e in range(n + 1)]
        num = {}
        for m, k in rows:
            j = (n - m - k) // 2
            w = fact[n] // (fact[m] * fact[k] * fact[j]) << (n // 2 - j)
            while True:
                c0, c1, c2, c3 = power[m + j]
                num[m, k] = (w * c0, w * c1, w * c2, w * c3)
                if not j:
                    break
                w = w * 2 * j // ((m + 1) * (k + 1) if step else (k + 1) * (k + 2))
                m, k, j = m + step, k + 2 - step, j - 1
        return NormalForm._reduced(num, self._den ** n << n // 2)

    def adjoint(self) -> "NormalForm":
        """Coefficient-conjugated transpose (m,k) -> (k,m); the adjoint of
        a normally ordered monomial is already normally ordered."""
        return NormalForm._reduced(
            {(k, m): (n0, -n1, n2, -n3) for (m, k), (n0, n1, n2, n3) in self._num.items()}, self._den)

    # -- export ------------------------------------------------------------
    def to_matrix(self, dim: int) -> np.ndarray:
        """Assemble sum of coeff * (a†)^m a^k as a dim x dim matrix, the
        terms summed in their stored order.  Each (a†)^m a^k is one band,
        a single diagonal, scaled by its coefficient as
        ExactScalar.to_complex rounds it and added into that diagonal of
        the output in place; the first term on a diagonal is written, not
        added to zeros, so that a -0.0 in it stays -0.0."""
        out = np.zeros((dim, dim), dtype=complex)
        flat, written = out.reshape(-1), set()
        for (m, k), n in self._num.items():
            offset = k - m
            ladder = _ladder_term(dim, m, k).diagonals[offset]
            # entry (j, j + offset) or (j - offset, j) sits at flat index j (dim + 1) + offset or -offset dim
            diagonal = flat[(offset if offset >= 0 else -offset * dim):: dim + 1][: ladder.size]
            if offset in written:
                diagonal += _to_complex(*n, self._den) * ladder
            else:
                np.multiply(_to_complex(*n, self._den), ladder, out=diagonal)
                written.add(offset)
        return out

    def __repr__(self) -> str:
        """The (m, k) keys and coefficients, in ascending order."""
        return "NormalForm({" + ", ".join(f"{key}: {c}" for key, c in self.items()) + "})"


_LINEAR_KEYS = frozenset({(1, 0), (0, 1)})
_SCALAR_KEYS = frozenset({(0, 0)})
# component t of a * e_j, over the basis e = (1, i, sqrt2, i*sqrt2), is f * a[i] for the
# t-th pair (i, f) of row j: i^2 = -1 and sqrt2^2 = 2
_UNIT_PRODUCTS = (((0, 1), (1, 1), (2, 1), (3, 1)), ((1, -1), (0, 1), (3, -1), (2, 1)),
                  ((2, 2), (3, 2), (0, 1), (1, 1)), ((3, -2), (2, 2), (1, -1), (0, 1)))


# The forms of the five symbols, built once and shared like every cached form.
_LEAVES = {
    "a": NormalForm({(0, 1): ONE}),
    "ad": NormalForm({(1, 0): ONE}),
    "I": NormalForm({(0, 0): ONE}),
    # q = (a + a†)/sqrt2,  p = (a - a†)/(i sqrt2)
    "q": NormalForm({(1, 0): HALF_SQRT2, (0, 1): HALF_SQRT2}),
    "p": NormalForm({(1, 0): I * HALF_SQRT2, (0, 1): -I * HALF_SQRT2}),
}

# each letter as c (dagger a† + plain a), with c = (1/sqrt2)^roots i^turns:
# (dagger, plain, roots, turns); I is not one, its form is the scalar 1
_LETTERS = {"a": (0, 1, 0, 0), "ad": (1, 0, 0, 0), "q": (1, 1, 1, 0), "p": (1, -1, 1, 1)}


def _word(factors: tuple) -> NormalForm:
    """The product of the factors, left to right, as the loop
    acc = acc * normal_order(f) from acc = I makes it.

    While the factors are symbols or scalars, it runs on int
    coefficients: each letter moves every term as the product does on the
    right, a^k a† = a† a^k + k a^(k-1), in the order of its leaf's keys,
    and drops the terms that cancel; the scalars and the letters' constant
    factors fold into one exact factor, applied by one `_reduced` at the
    end.  A scalar is a Scalar leaf, such as (1/2) or (-i) as the parser
    folds them, whose numerator tuple is read as it stands, or a factor
    whose form has only the (0, 0) term, such as I or (2*I).  A term
    cancels in the int sum exactly where it does in the exact one, as
    both differ by that nonzero factor, so the keys come out in the loop's
    order and the canonical form is the loop's.  From the first factor
    whose form is neither, the loop itself takes over."""
    num = {(0, 0): 1}
    scalar, roots, turns = (1, 0, 0, 0, 1), 0, 0  # the exact factor as an unreduced (n0, n1, n2, n3, den)
    for j, f in enumerate(factors):
        if isinstance(f, Symbol) and f.name in _LETTERS:
            dagger, plain, r, t = _LETTERS[f.name]
            roots, turns = roots + r, turns + t
            out: dict = {}
            get = out.get
            for (m, k), c in num.items():
                if dagger:
                    if k:
                        out[m, k - 1] = get((m, k - 1), 0) + c * k
                    out[m + 1, k] = get((m + 1, k), 0) + c
                if plain:
                    out[m, k + 1] = get((m, k + 1), 0) + plain * c
            num = {key: c for key, c in out.items() if c}
            continue
        if isinstance(f, Scalar):
            scalar = _times(scalar, f.value._n)
            continue
        form = normal_order(f)
        if form._num.keys() <= _SCALAR_KEYS:
            scalar = _times(scalar, form._num.get((0, 0), (0, 0, 0, 0)) + (form._den,))
            continue
        acc = _word_form(num, scalar, roots, turns) * form
        for g in factors[j + 1:]:
            acc = acc * normal_order(g)
        return acc
    return _word_form(num, scalar, roots, turns)


def _word_form(num: dict, scalar: tuple, roots: int, turns: int) -> NormalForm:
    """The form sum num[key] times scalar (1/sqrt2)^roots i^turns."""
    half, odd = divmod(roots, 2)
    n = (0, 0, 1, 0) if odd else (1, 0, 0, 0)  # (1/sqrt2)^roots = sqrt2^odd / 2^(half + odd)
    for _ in range(turns % 4):
        n = (-n[1], n[0], -n[3], n[2])  # times i
    f0, f1, f2, f3, den = _times(scalar, n + (2 ** (half + odd),))
    if not (f0 or f1 or f2 or f3):
        return NormalForm()
    return NormalForm._reduced({key: (c * f0, c * f1, c * f2, c * f3) for key, c in num.items()}, den)


def normal_order(expr: OperatorExpr | str) -> NormalForm:
    """Rewrite an expression (or source text) to canonical normal form."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return NormalForm({(0, 0): expr.value})
    if isinstance(expr, Symbol):
        return _LEAVES[expr.name]
    if isinstance(expr, Product):
        return _word(expr.factors)
    if isinstance(expr, Power):
        return normal_order(expr.base) ** expr.exponent
    if isinstance(expr, Commutator):
        return normal_order(expr.left).commutator(normal_order(expr.right))
    raise TypeError(f"not an operator expression: {expr!r}")


@lru_cache(maxsize=10)
def _leaf_matrix(name: str, dim: int) -> np.ndarray:
    """The dense dim x dim matrix of a symbol.  Cached, and so read-only:
    ten entries hold the five symbols at two dims."""
    if name == "I":
        matrix = np.eye(dim, dtype=complex)
    else:
        builders = {
            "a": fock.Band.annihilator,
            "ad": fock.Band.creator,
            "q": fock.Band.position,
            "p": fock.Band.momentum,
        }
        matrix = builders[name](dim).to_dense()
    matrix.flags.writeable = False
    return matrix


def _matrix_of(expr: OperatorExpr, dim: int) -> np.ndarray:
    """The matrix of a factor, to be read only: a symbol's is its shared leaf."""
    return _leaf_matrix(expr.name, dim) if isinstance(expr, Symbol) else expr_to_matrix(expr, dim)


def expr_to_matrix(expr: OperatorExpr | str, dim: int) -> np.ndarray:
    """Evaluate the expression directly as truncated matrices (the
    independent route against NormalForm.to_matrix).  The result is a
    new array, the caller's to change."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return expr.value.to_complex() * _leaf_matrix("I", dim)
    if isinstance(expr, Symbol):
        return _leaf_matrix(expr.name, dim).copy()
    if isinstance(expr, Product):
        # the leading Scalar factors as one number c, times the first other factor's matrix
        factors, c = expr.factors, None
        while factors and isinstance(factors[0], Scalar):
            c = factors[0].value.to_complex() if c is None else c * factors[0].value.to_complex()
            factors = factors[1:]
        if not factors:
            return c * _leaf_matrix("I", dim)
        out = expr_to_matrix(factors[0], dim) if c is None else c * _matrix_of(factors[0], dim)
        for f in factors[1:]:
            out = out @ _matrix_of(f, dim)
        return out
    if isinstance(expr, Power):
        return np.linalg.matrix_power(expr_to_matrix(expr.base, dim), expr.exponent)
    if isinstance(expr, Commutator):
        L = expr_to_matrix(expr.left, dim)
        R = expr_to_matrix(expr.right, dim)
        return L @ R - R @ L
    raise TypeError(f"not an operator expression: {expr!r}")


# ---------------------------------------------------------------------------
# Identity checks


def vacuum_expectation(nf: NormalForm) -> ExactScalar:
    """<psi_0| . |psi_0> of a normal form: its (0, 0) coefficient."""
    return nf.coeff(0, 0)


class IdentityCheck:
    __slots__ = ("equal", "difference")

    def __init__(self, equal: bool, difference: NormalForm):
        self.equal, self.difference = equal, difference


def verify_identity(lhs: OperatorExpr | str, rhs: OperatorExpr | str) -> IdentityCheck:
    """Exact equality of two expressions via canonical normal forms."""
    diff = normal_order(lhs) - normal_order(rhs)
    return IdentityCheck(diff.is_zero(), diff)


_EXACT_N_MAX = 20


def fock_norm_exact(n: int, operator: str = "none") -> Fraction:
    """Exact squared norm <op psi_n, op psi_n> for psi_n = (a†)^n psi_0.

    operator: "none" -> n!;  "adag" -> (n+1)!;  "a" -> n * n!.
    Computed as the vacuum expectation of a^n (op† op) (a†)^n.
    """
    if not 0 <= n <= _EXACT_N_MAX:
        raise ValueError(f"n must be in 0..{_EXACT_N_MAX}, got {n}")
    middles = {
        "none": NormalForm({(0, 0): ONE}),
        "a": NormalForm({(1, 1): ONE}),  # a† a
        "adag": NormalForm({(1, 1): ONE, (0, 0): ONE}),  # a a† = a† a + 1
    }
    if operator not in middles:
        raise ValueError(f"operator must be one of {sorted(middles)}, got {operator!r}")
    left = NormalForm({(0, n): ONE})
    right = NormalForm({(n, 0): ONE})
    value = vacuum_expectation(left * middles[operator] * right)
    return value.as_rational()


class SeriesOrder:
    """One Taylor order of a formal-series identity check."""

    __slots__ = ("k", "lhs", "rhs")

    def __init__(self, k: int, lhs: NormalForm, rhs: NormalForm):
        self.k, self.lhs, self.rhs = k, lhs, rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def conjugation_series(n: int, order: int) -> list[SeriesOrder]:
    """Compare e^{-itq} p^n e^{itq} with (p + tI)^n order by order in t.

    Left side: Hadamard expansion, coefficient of t^k is
    ad_{-iq}^k(p^n) / k!.  The nested commutators terminate at k = n
    because [q, [q, p]] = 0: once one is the zero form, every later one
    is too, and none is computed.
    """
    if not 1 <= n <= 6:
        raise ValueError("n must be in 1..6")
    if not 1 <= order <= 10:
        raise ValueError("order must be in 1..10")
    q = normal_order(Symbol("q"))
    p = normal_order(Symbol("p"))
    minus_iq = q.scale(-I)
    out = []
    nested = p**n
    kfact = Fraction(1)
    for k in range(order + 1):
        if k > 0:
            if not nested.is_zero():
                nested = minus_iq.commutator(nested)
            kfact *= k
        lhs = nested.scale(ExactScalar.rational(Fraction(1) / kfact))
        if k <= n:
            rhs = (p ** (n - k)).scale(ExactScalar.rational(math.comb(n, k)))
        else:
            rhs = NormalForm()
        out.append(SeriesOrder(k, lhs, rhs))
    return out


_EXP_COMMUTATOR_ORDER_MAX = 24


def exp_commutator_series(order: int) -> list[SeriesOrder]:
    """Compare p e^{itq} - e^{itq} p with t e^{itq} order by order in t.

    Coefficient of t^k on the left is (i^k / k!) [p, q^k]; on the right
    it is i^{k-1}/(k-1)! q^{k-1} for k >= 1 and zero at k = 0.  The order
    is at most 24, as conjugation_series bounds its own: the series
    builds q^0..q^order.
    """
    if not 1 <= order <= _EXP_COMMUTATOR_ORDER_MAX:
        raise ValueError(f"order must be in 1..{_EXP_COMMUTATOR_ORDER_MAX}")
    q = normal_order(Symbol("q"))
    p = normal_order(Symbol("p"))
    out = []
    ik = ONE
    kfact = Fraction(1)
    for k in range(order + 1):
        if k > 0:
            ik = ik * I
            kfact *= k
        qk = q**k
        lhs = p.commutator(qk).scale(ik * ExactScalar.rational(Fraction(1) / kfact))
        if k == 0:
            rhs = NormalForm()
        else:
            prev_fact = kfact / k
            rhs = prev.scale((ik / I) * ExactScalar.rational(Fraction(1) / prev_fact))
        out.append(SeriesOrder(k, lhs, rhs))
        prev = qk  # q^(k-1) of the next order
    return out
