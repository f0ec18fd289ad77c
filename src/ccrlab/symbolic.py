"""Exact normal-ordering engine for words in {a, a†, q, p, I}.

Expressions are parsed into a small AST and rewritten into the canonical
normal form: a finite sum of monomials (a†)^m a^k with coefficients in
Q(i, sqrt2).  The only algebraic fact used is the single rule
a·a† -> a†·a + 1, through its closed form for a^k a†^m;  q and p enter
through their ladder combinations q = (a + a†)/sqrt2 and
p = (a - a†)/(i sqrt2).  Because the normal form is canonical, operator
identities are decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .exact import ExactScalar, HALF_SQRT2, I, ONE
from . import fock

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Scalar:
    value: ExactScalar


@dataclass(frozen=True)
class Symbol:
    name: str  # one of 'a', 'ad', 'q', 'p', 'I'


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Quotient:
    num: "OperatorExpr"
    den: "OperatorExpr"  # must normal-order to a pure scalar


@dataclass(frozen=True)
class Power:
    base: "OperatorExpr"
    exponent: int  # >= 0


@dataclass(frozen=True)
class Commutator:
    left: "OperatorExpr"
    right: "OperatorExpr"


OperatorExpr = Union[Scalar, Symbol, Sum, Product, Quotient, Power, Commutator]

_SYMBOLS = ("a", "ad", "q", "p", "I")


# ---------------------------------------------------------------------------
# Parser


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


_PUNCT = set("+-*/^()[],")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(("punct", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def parse(self) -> OperatorExpr:
        e = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)
        return e

    def expr(self) -> OperatorExpr:
        terms = [self.term()]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.term()
            if op == "-":
                t = Product((Scalar(-ONE), t))
            terms.append(t)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> OperatorExpr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            if op == "*":
                if isinstance(node, Product):
                    node = Product(node.factors + (rhs,))
                else:
                    node = Product((node, rhs))
            else:
                node = Quotient(node, rhs)
        return node

    def unary(self) -> OperatorExpr:
        if self.peek()[1] == "-":
            self.next()
            return Product((Scalar(-ONE), self.unary()))
        return self.power()

    def power(self) -> OperatorExpr:
        base = self.primary()
        while self.peek()[1] == "^":
            self.next()
            kind, val, at = self.next()
            if kind != "number":
                raise ParseError("power exponent must be a nonnegative integer", at)
            base = Power(base, int(val))
        return base

    def primary(self) -> OperatorExpr:
        kind, val, at = self.next()
        if kind == "number":
            return Scalar(ExactScalar.rational(int(val)))
        if kind == "ident":
            if val in _SYMBOLS:
                return Symbol(val)
            if val == "i":
                return Scalar(I)
            if val == "sqrt2":
                return Scalar(ExactScalar(Fraction(0), Fraction(0), Fraction(1)))
            raise ParseError(f"unknown identifier {val!r}", at)
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if val == "[":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return Commutator(left, right)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)


def parse(text: str) -> OperatorExpr:
    """Parse an operator expression.  Whitespace-insensitive; ^ binds
    tighter than * and /, which bind tighter than + and -."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Single-rule word rewriting: a letter word over {'a', 'd'} ('d' = a†)
# reduces to normally ordered monomials with integer coefficients.


def _order_key(word: str) -> tuple:
    """(length, inversions): each rewrite lowers one and keeps the other."""
    return len(word), sum(word[j:].count("d") for j, letter in enumerate(word) if letter == "a")


def word_rewrite_stats(word: tuple) -> tuple:
    """Fixpoint of the rewrite rule a·d -> d·a + (drop both).

    Returns (terms, max_applications) where terms is a tuple of
    ((m, k), integer coefficient) for the word rewritten as a sum of
    d^m a^k, and max_applications is the longest chain of rule
    applications along any derivation path.  Each application either
    removes one inversion or shortens the word, so rewriting terminates
    within (word length)^2 applications per monomial path.  Taking words
    largest `_order_key` first rewrites each once, all paths' coefficients
    summed.  Nothing in the engine calls it: it is the literal oracle for
    `_reorder`.
    """
    pending = {"".join(word): (1, 0)}
    done: dict[str, int] = {}
    max_apps = 0
    while pending:
        w = max(pending, key=_order_key)
        c, depth = pending.pop(w)
        j = w.find("ad")  # the first inversion
        if j < 0:
            done[w] = c
            max_apps = max(max_apps, depth)
            continue
        for successor in (w[:j] + "da" + w[j + 2 :], w[:j] + w[j + 2 :]):
            c0, d0 = pending.get(successor, (0, 0))
            pending[successor] = (c0 + c, max(d0, depth + 1))
    terms = tuple(sorted(((w.count("d"), w.count("a")), c) for w, c in done.items() if c))
    return terms, max_apps


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


# ---------------------------------------------------------------------------
# Normal form


class NormalForm:
    """Finite sum of monomials (a†)^m a^k with ExactScalar coefficients.

    Canonical: zero coefficients are never stored, so two normal forms
    are equal iff their maps are identical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for (m, k), c in (terms or {}).items():
            c = ExactScalar.coerce(c)
            if not c.is_zero():
                clean[(int(m), int(k))] = c
        self._terms = clean

    # -- access ---------------------------------------------------------
    def coeff(self, m: int, k: int) -> ExactScalar:
        return self._terms.get((m, k), ExactScalar())

    def items(self) -> list:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalForm) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "NormalForm") -> "NormalForm":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, ExactScalar()) + c
        return NormalForm(out)

    def __neg__(self) -> "NormalForm":
        return NormalForm({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + (-other)

    def scale(self, s) -> "NormalForm":
        s = ExactScalar.coerce(s)
        return NormalForm({key: c * s for key, c in self._terms.items()})

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        out: dict = {}
        for (m1, k1), c1 in self._terms.items():
            for (m2, k2), c2 in other._terms.items():
                c12 = c1 * c2
                for (mm, kk), w in _reorder(k1, m2):
                    key = (m1 + mm, kk + k2)
                    out[key] = out.get(key, ExactScalar()) + c12 * w
        return NormalForm(out)

    def __pow__(self, n: int) -> "NormalForm":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        acc = NormalForm({(0, 0): ONE})
        for _ in range(n):
            acc = acc * self
        return acc

    def adjoint(self) -> "NormalForm":
        """Coefficient-conjugated transpose (m,k) -> (k,m); the adjoint of
        a normally ordered monomial is already normally ordered."""
        return NormalForm({(k, m): c.conjugate() for (m, k), c in self._terms.items()})

    # -- rendering / export ------------------------------------------------
    def to_expr_text(self) -> str:
        """Render as parseable source text (round-trips through parse)."""
        if self.is_zero():
            return "0"
        parts = []
        for (m, k), c in self.items():
            factors = [f"({_scalar_source(c)})"]
            if m:
                factors.append(f"ad^{m}" if m > 1 else "ad")
            if k:
                factors.append(f"a^{k}" if k > 1 else "a")
            if len(factors) == 1:
                factors.append("I")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_matrix(self, dim: int) -> np.ndarray:
        """Assemble sum of coeff * (a†)^m a^k as a dim x dim matrix."""
        A = fock.build_annihilator(dim)
        Ad = A.conj().T
        max_m = max((m for (m, _k) in self._terms), default=0)
        max_k = max((k for (_m, k) in self._terms), default=0)
        a_pow = [np.eye(dim, dtype=complex)]
        for _ in range(max_k):
            a_pow.append(A @ a_pow[-1])
        ad_pow = [np.eye(dim, dtype=complex)]
        for _ in range(max_m):
            ad_pow.append(Ad @ ad_pow[-1])
        out = np.zeros((dim, dim), dtype=complex)
        for (m, k), c in self._terms.items():
            out += c.to_complex() * (ad_pow[m] @ a_pow[k])
        return out

    def __repr__(self) -> str:
        return f"NormalForm({self.to_expr_text()})"


def _scalar_source(s: ExactScalar) -> str:
    parts = []
    for frac, unit in ((s.r0, None), (s.r1, "i"), (s.r2, "sqrt2"), (s.r3, "i*sqrt2")):
        if frac == 0:
            continue
        mag = abs(frac)
        body = f"{mag.numerator}/{mag.denominator}" if mag.denominator != 1 else str(mag.numerator)
        if unit is not None:
            body = unit if mag == 1 else f"{body}*{unit}"
        parts.append(("- " if frac < 0 else "+ ") + body)
    if not parts:
        return "0"
    first = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([first] + parts[1:])


_LEAF_FORMS = {
    "a": {(0, 1): ONE},
    "ad": {(1, 0): ONE},
    "I": {(0, 0): ONE},
    # q = (a + a†)/sqrt2,  p = (a - a†)/(i sqrt2)
    "q": {(1, 0): HALF_SQRT2, (0, 1): HALF_SQRT2},
    "p": {(1, 0): I * HALF_SQRT2, (0, 1): -I * HALF_SQRT2},
}


def normal_order(expr: OperatorExpr | str) -> NormalForm:
    """Rewrite an expression (or source text) to canonical normal form."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return NormalForm({(0, 0): expr.value})
    if isinstance(expr, Symbol):
        return NormalForm(_LEAF_FORMS[expr.name])
    if isinstance(expr, Sum):
        acc = NormalForm()
        for t in expr.terms:
            acc = acc + normal_order(t)
        return acc
    if isinstance(expr, Product):
        acc = NormalForm({(0, 0): ONE})
        for f in expr.factors:
            acc = acc * normal_order(f)
        return acc
    if isinstance(expr, Quotient):
        den = normal_order(expr.den)
        if any(key != (0, 0) for key in den._terms):
            raise ValueError("division is only defined by scalar expressions")
        if den.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return normal_order(expr.num).scale(den.coeff(0, 0).inverse())
    if isinstance(expr, Power):
        return normal_order(expr.base) ** expr.exponent
    if isinstance(expr, Commutator):
        left, right = normal_order(expr.left), normal_order(expr.right)
        return left * right - right * left
    raise TypeError(f"not an operator expression: {expr!r}")


def adjoint_expr(expr: OperatorExpr | str) -> OperatorExpr:
    """Formal adjoint of an expression tree."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return Scalar(expr.value.conjugate())
    if isinstance(expr, Symbol):
        swap = {"a": "ad", "ad": "a"}
        return Symbol(swap.get(expr.name, expr.name))
    if isinstance(expr, Sum):
        return Sum(tuple(adjoint_expr(t) for t in expr.terms))
    if isinstance(expr, Product):
        return Product(tuple(adjoint_expr(f) for f in reversed(expr.factors)))
    if isinstance(expr, Quotient):
        return Quotient(adjoint_expr(expr.num), adjoint_expr(expr.den))
    if isinstance(expr, Power):
        return Power(adjoint_expr(expr.base), expr.exponent)
    if isinstance(expr, Commutator):
        return Commutator(adjoint_expr(expr.right), adjoint_expr(expr.left))
    raise TypeError(f"not an operator expression: {expr!r}")


def operator_word_length(expr: OperatorExpr | str) -> int:
    """Max ladder-word length of any monomial in the expansion; bounds how
    far the expression can move Fock modes (guard-band sizing)."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return 0
    if isinstance(expr, Symbol):
        return 0 if expr.name == "I" else 1
    if isinstance(expr, Sum):
        return max(operator_word_length(t) for t in expr.terms)
    if isinstance(expr, Product):
        return sum(operator_word_length(f) for f in expr.factors)
    if isinstance(expr, Quotient):
        return operator_word_length(expr.num)
    if isinstance(expr, Power):
        return expr.exponent * operator_word_length(expr.base)
    if isinstance(expr, Commutator):
        return operator_word_length(expr.left) + operator_word_length(expr.right)
    raise TypeError(f"not an operator expression: {expr!r}")


def expr_to_matrix(expr: OperatorExpr | str, dim: int) -> np.ndarray:
    """Evaluate the expression directly as truncated matrices (the
    independent route against NormalForm.to_matrix)."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Scalar):
        return expr.value.to_complex() * np.eye(dim, dtype=complex)
    if isinstance(expr, Symbol):
        builders = {
            "a": fock.build_annihilator,
            "ad": fock.build_creator,
            "q": fock.build_position,
            "p": fock.build_momentum,
        }
        if expr.name == "I":
            return np.eye(dim, dtype=complex)
        return builders[expr.name](dim)
    if isinstance(expr, Sum):
        out = np.zeros((dim, dim), dtype=complex)
        for t in expr.terms:
            out += expr_to_matrix(t, dim)
        return out
    if isinstance(expr, Product):
        out = np.eye(dim, dtype=complex)
        for f in expr.factors:
            out = out @ expr_to_matrix(f, dim)
        return out
    if isinstance(expr, Quotient):
        den = normal_order(expr.den)
        if any(key != (0, 0) for key in den._terms) or den.is_zero():
            raise ValueError("division is only defined by nonzero scalar expressions")
        return expr_to_matrix(expr.num, dim) / den.coeff(0, 0).to_complex()
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


@dataclass(frozen=True)
class IdentityCheck:
    equal: bool
    difference: NormalForm


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


@dataclass(frozen=True)
class SeriesOrder:
    """One Taylor order of a formal-series identity check."""

    k: int
    lhs: NormalForm
    rhs: NormalForm

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def conjugation_series(n: int, order: int) -> list[SeriesOrder]:
    """Compare e^{-itq} p^n e^{itq} with (p + tI)^n order by order in t.

    Left side: Hadamard expansion, coefficient of t^k is
    ad_{-iq}^k(p^n) / k!.  The nested commutators terminate at k = n
    because [q, [q, p]] = 0.
    """
    if not 1 <= n <= 6:
        raise ValueError("n must be in 1..6")
    if not 1 <= order <= 10:
        raise ValueError("order must be in 1..10")
    q = normal_order(Symbol("q"))
    p = normal_order(Symbol("p"))
    identity = NormalForm({(0, 0): ONE})
    minus_iq = q.scale(-I)
    out = []
    nested = p**n
    kfact = Fraction(1)
    for k in range(order + 1):
        if k > 0:
            nested = minus_iq * nested - nested * minus_iq
            kfact *= k
        lhs = nested.scale(ExactScalar.rational(Fraction(1) / kfact))
        if k <= n:
            rhs = (p ** (n - k)).scale(ExactScalar.rational(math.comb(n, k)))
        else:
            rhs = NormalForm()
        out.append(SeriesOrder(k, lhs, rhs))
    return out


def exp_commutator_series(order: int) -> list[SeriesOrder]:
    """Compare p e^{itq} - e^{itq} p with t e^{itq} order by order in t.

    Coefficient of t^k on the left is (i^k / k!) [p, q^k]; on the right
    it is i^{k-1}/(k-1)! q^{k-1} for k >= 1 and zero at k = 0.
    """
    if order < 1:
        raise ValueError("order must be positive")
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
        lhs = (p * qk - qk * p).scale(ik * ExactScalar.rational(Fraction(1) / kfact))
        if k == 0:
            rhs = NormalForm()
        else:
            prev_fact = kfact / k
            rhs = (q ** (k - 1)).scale((ik / I) * ExactScalar.rational(Fraction(1) / prev_fact))
        out.append(SeriesOrder(k, lhs, rhs))
    return out
