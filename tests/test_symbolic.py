"""Parser, normal ordering, exact identity proofs, matrix homomorphism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ccrlab import fock, symbolic
from ccrlab.exact import ExactScalar, I, ONE
from ccrlab.rng import SplitMix64
from ccrlab.reports import random_word_source
from ccrlab.symbolic import (
    Commutator,
    NormalForm,
    ParseError,
    Power,
    Product,
    Scalar,
    Sum,
    Symbol,
    _reorder,
    adjoint_expr,
    conjugation_series,
    exp_commutator_series,
    expr_to_matrix,
    fock_norm_exact,
    normal_order,
    operator_word_length,
    parse,
    vacuum_expectation,
    verify_identity,
    word_rewrite_stats,
)


# -- parser ------------------------------------------------------------------


def test_parse_commutator():
    e = parse("[p,q]")
    assert isinstance(e, Commutator)
    assert e.left == Symbol("p") and e.right == Symbol("q")


def test_parse_power():
    e = parse("q^3")
    assert e == Power(Symbol("q"), 3)


def test_parse_precedence():
    # ^ over *, * over +
    e = parse("a*q^2 + p")
    assert isinstance(e, Sum)
    assert isinstance(e.terms[0], Product)
    assert e.terms[0].factors[1] == Power(Symbol("q"), 2)


def test_parse_scalar_division():
    nf = normal_order("1/sqrt2 * (a + ad)")
    half_sqrt2 = ExactScalar(Fraction(0), Fraction(0), Fraction(1, 2))
    assert nf.coeff(0, 1) == half_sqrt2
    assert nf.coeff(1, 0) == half_sqrt2


def test_parse_whitespace_insensitive():
    assert normal_order(" [ p , q ] ") == normal_order("[p,q]")


def test_parse_unknown_identifier_position():
    with pytest.raises(ParseError) as err:
        parse("q + foo")
    assert err.value.position == 4


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("q + ")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("(q")
    with pytest.raises(ParseError):
        parse("q )")


def test_parse_bad_exponent():
    with pytest.raises(ParseError):
        parse("q^-2")
    with pytest.raises(ParseError):
        parse("q^p")


def test_division_by_operator_rejected():
    with pytest.raises(ValueError):
        normal_order("q / p")
    with pytest.raises(ZeroDivisionError):
        normal_order("q / 0")


# -- normal ordering ---------------------------------------------------------


def test_single_rule_fixpoint():
    nf = normal_order("a*ad")
    assert nf.coeff(1, 1) == ONE and nf.coeff(0, 0) == ONE
    assert len(nf.items()) == 2


def test_ccr_in_pq_form():
    nf = normal_order("[p,q]")
    assert nf.items() == [((0, 0), -I)]


def test_quartic_word():
    nf = normal_order("a*a*ad*ad")
    want = {(2, 2): ONE, (1, 1): ExactScalar.rational(4), (0, 0): ExactScalar.rational(2)}
    assert dict(nf.items()) == want


def test_power_zero_is_identity():
    assert normal_order("q^0") == normal_order("I")


def test_linearity_exact():
    gen = SplitMix64(3)
    for _ in range(30):
        x = random_word_source(gen, 4)
        y = random_word_source(gen, 4)
        assert normal_order(f"({x}) + ({y})") == normal_order(x) + normal_order(y)


def test_idempotence_on_rendered_form():
    gen = SplitMix64(4)
    for _ in range(30):
        nf = normal_order(random_word_source(gen, 5))
        assert normal_order(nf.to_expr_text()) == nf


def test_adjoint_consistency():
    gen = SplitMix64(5)
    for _ in range(30):
        e = parse(random_word_source(gen, 5))
        assert normal_order(adjoint_expr(e)) == normal_order(e).adjoint()


def test_adjoint_of_hermitian_symbols():
    for name in ("q", "p", "I"):
        nf = normal_order(Symbol(name))
        assert nf.adjoint() == nf


def test_rewrite_termination_bound():
    for k, m in ((1, 1), (3, 2), (5, 5), (6, 3)):
        word = ("a",) * k + ("d",) * m
        _, apps = word_rewrite_stats(word)
        assert apps <= len(word) ** 2


def test_reorder_agrees_with_literal_rewriter():
    for k in range(0, 12):
        for m in range(0, 12):
            literal, _ = word_rewrite_stats(("a",) * k + ("d",) * m)
            assert _reorder(k, m) == literal


# -- vacuum expectations and exact norms --------------------------------------


def test_vacuum_expectation_examples():
    assert vacuum_expectation(normal_order("a^3 * ad^3")).as_rational() == 6
    assert vacuum_expectation(normal_order("ad*a")).is_zero()


def test_vacuum_expectation_matches_matrix():
    src = "a^2 * ad^2 * a * ad"
    exact = vacuum_expectation(normal_order(src)).to_complex()
    mat = expr_to_matrix(src, 12)
    assert abs(exact - mat[0, 0]) < 1e-12
    assert exact == 2.0


def test_fock_norm_exact_values():
    assert fock_norm_exact(4, "none") == 24
    assert fock_norm_exact(4, "adag") == 120
    assert fock_norm_exact(4, "a") == 96  # n * n!, not the naive n!
    assert fock_norm_exact(0, "a") == 0
    for n in range(11):
        assert fock_norm_exact(n) == math.factorial(n)
        assert fock_norm_exact(n, "adag") == math.factorial(n + 1)
        assert fock_norm_exact(n, "a") == n * math.factorial(n)


def test_fock_norm_exact_range_and_operator_validation():
    with pytest.raises(ValueError):
        fock_norm_exact(21)
    with pytest.raises(ValueError):
        fock_norm_exact(-1)
    with pytest.raises(ValueError):
        fock_norm_exact(3, "number")


# -- identities ----------------------------------------------------------------


def test_verify_identity_ccr():
    assert verify_identity("[p,q]", "-i*I").equal


def test_verify_identity_pq_squared():
    res = verify_identity("[p,q^2]", "-2*i*q")
    assert res.equal and res.difference.is_zero()


def test_verify_identity_sign_flip_difference():
    res = verify_identity("[p,q]", "i*I")
    assert not res.equal
    assert res.difference.items() == [((0, 0), ExactScalar(0, -2))]


@pytest.mark.parametrize("n", range(1, 11))
def test_commutation_identity_all_orders(n):
    rhs = "-i*I" if n == 1 else f"-{n}*i*q^{n-1}"
    assert verify_identity(f"[p,q^{n}]", rhs).equal


def test_conjugation_series_n1():
    records = conjugation_series(1, 6)
    p = normal_order("p")
    identity = normal_order("I")
    assert records[0].lhs == p and records[0].rhs == p
    assert records[1].lhs == identity and records[1].rhs == identity
    for rec in records[2:]:
        assert rec.lhs.is_zero() and rec.rhs.is_zero() and rec.equal


def test_conjugation_series_n2_first_order():
    records = conjugation_series(2, 4)
    assert records[1].lhs == normal_order("2*p")
    assert all(rec.equal for rec in records)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugation_series_exact(n):
    assert all(rec.equal for rec in conjugation_series(n, 8))


def test_conjugation_series_limits():
    with pytest.raises(ValueError):
        conjugation_series(7, 4)
    with pytest.raises(ValueError):
        conjugation_series(2, 11)


def test_exp_commutator_series_orders():
    records = exp_commutator_series(8)
    assert all(rec.equal for rec in records)
    assert records[0].lhs.is_zero()


# -- matrix homomorphism --------------------------------------------------------


def test_normal_form_to_matrix_simple():
    nf = normal_order("ad*a")
    assert np.abs(nf.to_matrix(5) - np.diag(np.arange(5.0))).max() < 1e-14


def test_homomorphism_random_words():
    gen = SplitMix64(99)
    dim = 12
    for _ in range(60):
        src = random_word_source(gen, 6)
        expr = parse(src)
        g = dim - max(operator_word_length(expr), 1)
        direct = expr_to_matrix(expr, dim)
        assembled = normal_order(expr).to_matrix(dim)
        assert np.abs(direct[:g, :g] - assembled[:g, :g]).max() < 1e-10


def test_word_length():
    assert operator_word_length("q^3 * p") == 4
    assert operator_word_length("I + 2*a") == 1
    assert operator_word_length("[q, p^2]") == 3


def test_normal_form_algebra():
    x = normal_order("q")
    assert (x - x).is_zero()
    assert (x * NormalForm({(0, 0): ONE})) == x
    with pytest.raises(ValueError):
        x ** (-1)
