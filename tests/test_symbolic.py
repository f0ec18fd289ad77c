"""Parser, normal ordering, exact identity proofs, matrix homomorphism."""

import functools
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccrlab import fock, symbolic
from ccrlab.exact import HALF_SQRT2, ExactScalar, I, ONE, ZERO, _times, _to_complex
from ccrlab.rng import SplitMix64
from ccrlab.reports import RunConfig
from ccrlab.suites import (
    _CONJUGATE, _DAGGER, _WORD_COEFFS, _word_expr, _word_matrices, _word_text, random_words, symbolic_suite,
)
from ccrlab.symbolic import (
    Commutator,
    NormalForm,
    ParseError,
    Power,
    Product,
    Scalar,
    Symbol,
    _reorder,
    conjugation_series,
    exp_commutator_series,
    expr_to_matrix,
    fock_norm_exact,
    normal_order,
    parse,
    vacuum_expectation,
    verify_identity,
)

import dense_fock as dense


# -- parser ------------------------------------------------------------------


def test_parse_commutator():
    e = parse("[p,q]")
    assert isinstance(e, Commutator)
    assert e.left == Symbol("p") and e.right == Symbol("q")


def test_parse_power():
    e = parse("q^3")
    assert e == Power(Symbol("q"), 3)


def test_parse_precedence():
    # ^ over unary -, unary - over *
    assert parse("a*q^2*p") == Product((Symbol("a"), Power(Symbol("q"), 2), Symbol("p")))
    assert parse("-q^2*a") == Product((Scalar(-ONE), Power(Symbol("q"), 2), Symbol("a")))


def _form_sum(*texts):
    """The sum of the texts' normal forms, left to right."""
    return functools.reduce(operator.add, map(normal_order, texts))


def test_parse_scalar_division():
    nf = _form_sum("1/sqrt2 * a", "1/sqrt2 * ad")
    half_sqrt2 = ExactScalar(Fraction(0), Fraction(0), Fraction(1, 2))
    assert nf.coeff(0, 1) == half_sqrt2
    assert nf.coeff(1, 0) == half_sqrt2


@pytest.mark.parametrize("text, value", [
    ("(1/2)", ExactScalar.rational(Fraction(1, 2))), ("(-i)", -I), ("-16*i", I * -16), ("1/sqrt2", HALF_SQRT2),
    ("(-1/2*i*sqrt2)", -I * HALF_SQRT2), ("((1/3)/(2*i))", ExactScalar.rational(Fraction(1, 6)) / I),
])
def test_parser_folds_scalar_arithmetic_into_one_leaf(text, value):
    assert parse(text) == Scalar(value)


# texts that are no word, and the position of the first token that cannot continue one:
# a + or a binary -, a / after an operator, or a divisor that is no nonzero scalar
_NOT_WORDS = {"a + b": 2, "a - b": 2, "(q + p)*a": 3, "q/2": 1, "q/a": 1, "q / p": 2, "q / 0": 2,
              "q/(1-1)": 1, "2/q": 2, "1/0": 2, "1/(1-1)": 4, "1/(0)": 2}


@pytest.mark.parametrize("text", list(_NOT_WORDS))
def test_a_text_that_is_no_word_is_refused_at_its_first_bad_token(text):
    for route in (parse, normal_order, lambda text: expr_to_matrix(text, 4)):
        with pytest.raises(ParseError) as err:
            route(text)
        assert err.value.position == _NOT_WORDS[text]


def test_parse_whitespace_insensitive():
    assert normal_order(" [ p , q ] ") == normal_order("[p,q]")


def test_parse_unknown_identifier_position():
    with pytest.raises(ParseError) as err:
        parse("q * foo")
    assert err.value.position == 4


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("q * ")
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


def test_nodes_are_equal_by_type_and_fields():
    a, q = Symbol("a"), Symbol("q")
    two = Scalar(ExactScalar.rational(2))
    equal_pairs = [(Symbol("a"), a), (Product((a, q)), Product((a, q))), (Power(q, 2), Power(Symbol("q"), 2)),
                   (Commutator(a, two), Commutator(a, Scalar(ExactScalar.rational(2)))),
                   (parse("[q, 2 * a]"), Commutator(q, Product((two, a))))]
    for x, y in equal_pairs:
        assert x == y and hash(x) == hash(y)
    unequal_pairs = [(Product((a, q)), Commutator(a, q)), (a, q), (Power(q, 2), Power(q, 3)),
                     (Commutator(a, q), Commutator(q, a)), (Product((a, q)), Product((q, a))),
                     (a, "a"), (Product((a,)), (a,))]
    for x, y in unequal_pairs:
        assert x != y and not x == y
    assert len({Product((a, q)), Commutator(a, q), Product((a, q))}) == 2
    tree = parse("(1/2) * [q, p^3] * a")
    assert pickle.loads(pickle.dumps(tree)) == tree
    with pytest.raises(AttributeError):
        parse("q * a").factors[0].name = "p"
    with pytest.raises(AttributeError):
        del parse("q^2").exponent


def test_parse_memo_shares_frozen_trees_and_never_caches_errors(monkeypatch):
    tree = parse("q * ad^2 * [p, a]")
    assert parse("q * ad^2 * [p, a]") == tree
    with pytest.raises(AttributeError):
        tree.factors = ()
    for _ in range(3):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("q * foo")
    assert 0 < parse.cache_info().maxsize <= 1024
    calls = 0
    tokenize = symbolic._tokenize

    def counted(text):
        nonlocal calls
        calls += 1
        return tokenize(text)

    monkeypatch.setattr(symbolic, "_tokenize", counted)
    parse.cache_clear()
    word = "(1/2) * q * ad * p * a"
    normal_order(word).to_matrix(8)
    expr_to_matrix(word, 8)
    assert calls == 1


_PUNCTUATION = set("+-*/^()[],")


def _reference_tokenize(text):
    """The character-by-character scanner that one regular expression
    replaced, kept as the reference of its tokens and positions: it read a
    number as a run of str.isdigit characters, which also takes "²"."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCTUATION:
            tokens.append((c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("", n))
    return tokens


# the grammar's characters, whitespace of several kinds, underscores, other letters, an
# Arabic-Indic digit (decimal) and characters that start no token
_token_texts = st.text(st.sampled_from(list("aqpdI isqrt2 0123456789+-*/^()[],_\t\n") +
                                       ["\u00a0", "\u2028", "\u00e9", "\u03bb", "\u0663", "$", "#", "."]),
                       max_size=24)


@given(_token_texts)
@example("q_1 + 2sqrt2 - \u0663*a")
@example("(1/2)*ad^2 $")
@settings(max_examples=400, deadline=None)
def test_tokens_are_the_character_scanner(text):
    # the same tokens at the same positions, or the same ParseError
    try:
        want = _reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            symbolic._tokenize(text)
        assert (str(got.value), got.value.position) == (str(err), err.position)
        return
    assert symbolic._tokenize(text) == [tok for tok, _ in want]
    assert [m.start() for m in symbolic._TOKEN.finditer(text)] + [len(text)] == [at for _, at in want]


def test_a_numeric_character_that_is_no_decimal_starts_no_token():
    # the scanner read "2²" as one number that int() then refused; "½" it refused as here
    for text, at in (("q^2\u00b2", 3), ("\u00b2 * q", 0), ("\u00bd * q", 0)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.position == at


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


def test_adjoint_of_hermitian_symbols():
    for name in ("q", "p", "I"):
        nf = normal_order(Symbol(name))
        assert nf.adjoint() == nf


def _text_word_source(gen, max_len):
    """The seeded word as parser text, drawn as the symbolic suite drew it when
    a word was its text: the reference for random_words' draws."""
    length = gen.randint(1, max_len)
    letters = [("a", "ad", "q", "p")[gen.randint(0, 3)] for _ in range(length)]
    if gen.randint(0, 4) == 0:
        letters[gen.randint(0, length - 1)] = "I"
    coeff = _WORD_COEFFS[gen.randint(0, len(_WORD_COEFFS) - 1)]
    return f"({coeff}) * " + " * ".join(letters)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_words_are_the_text_draws(seed):
    # the symbolic suite's streams: matrix_homomorphism's, adjoint_commutes' and sum_and_difference's
    for offset, count, max_len in ((7, 200, 6), (8, 50, 5), (9, 100, 4)):
        gen, reference = SplitMix64(seed + offset), SplitMix64(seed + offset)
        want = [_text_word_source(reference, max_len) for _ in range(count)]
        assert [_word_text(*word) for word in random_words(gen, count, max_len)] == want


def _suite_words(seed):
    """The symbolic suite's seeded words as its checks draw them: matrix_homomorphism's,
    adjoint_commutes' each followed by its adjoint, and sum_and_difference's."""
    for offset, count, max_len in ((7, 200, 6), (8, 50, 5), (9, 100, 4)):
        for coeff, letters in random_words(SplitMix64(seed + offset), count, max_len):
            yield coeff, letters
            if offset == 8:
                yield _CONJUGATE.get(coeff, coeff), [_DAGGER.get(x, x) for x in reversed(letters)]


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_word_records_are_their_texts(seed):
    # each seeded word built from its letters against the text route that parses it: the same tree,
    # the same form, the same matrix
    for word in _suite_words(seed):
        text, expr = _word_text(*word), _word_expr(*word)
        assert expr == symbolic.parse(text), text
        assert normal_order(expr) == normal_order(text), text
        assert np.array_equal(expr_to_matrix(expr, 12), expr_to_matrix(text, 12)), text


def _is_word(tree) -> bool:
    """Whether a tree has only the nodes of a word."""
    if isinstance(tree, Product):
        return all(map(_is_word, tree.factors))
    if isinstance(tree, Power):
        return _is_word(tree.base)
    if isinstance(tree, Commutator):
        return _is_word(tree.left) and _is_word(tree.right)
    return isinstance(tree, (Scalar, Symbol))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_the_symbolic_suite_parses_words_only(seed, monkeypatch):
    # its fixed texts, parsed and normal-ordered as the suite runs them; its seeded words are letter
    # records, and no text of one is parsed
    texts, parse_text = [], symbolic.parse
    monkeypatch.setattr(symbolic, "parse", lambda text: texts.append(text) or parse_text(text))
    records = symbolic_suite(RunConfig(suite="symbolic", seed=seed))
    assert [r.name for r in records if r.status not in ("pass", "flagged")] == []
    assert texts and all(_is_word(parse_text(text)) for text in texts)
    assert set(texts).isdisjoint(_word_text(*word) for word in _suite_words(seed))


def _symbolic_status(name, seed=7):
    return next(r.status for r in symbolic_suite(RunConfig(suite="symbolic", seed=seed)) if r.name == name)


@pytest.mark.parametrize("defect", ["no conjugation", "no key swap"])
def test_adjoint_commutes_catches_a_defective_adjoint(monkeypatch, defect):
    assert _symbolic_status("adjoint_commutes") == "pass"

    def adjoint(self):
        if defect == "no conjugation":
            num = {(k, m): n for (m, k), n in self._num.items()}
        else:
            num = {key: (n0, -n1, n2, -n3) for key, (n0, n1, n2, n3) in self._num.items()}
        return NormalForm._reduced(num, self._den)

    monkeypatch.setattr(NormalForm, "adjoint", adjoint)
    assert _symbolic_status("adjoint_commutes") == "fail"


@pytest.mark.parametrize("defect", ["sum for difference", "no reduction"])
def test_sum_and_difference_catches_a_defective_merge(monkeypatch, defect):
    assert _symbolic_status("sum_and_difference") == "pass"
    merge = NormalForm._merge

    def defective(self, other, sign):
        if defect == "sum for difference":
            return merge(self, other, 1)
        form = merge(self, other, sign)  # the same sum over twice the denominator, not canonical
        wide = object.__new__(NormalForm)
        wide._den, wide._num = 2 * form._den, {key: tuple(2 * x for x in n) for key, n in form._num.items()}
        return wide

    monkeypatch.setattr(NormalForm, "_merge", defective)
    assert _symbolic_status("sum_and_difference") == "fail"


# -- the literal rewriter: the oracle for _reorder ------------------------------
# A letter word over {'a', 'd'} ('d' = a†) reduces to normally ordered
# monomials with integer coefficients by the single rule a·d -> d·a + 1.


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
    summed.
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


@pytest.mark.parametrize("n", [*range(1, 11), 200])
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


def _conjugation_reference(n: int, order: int, bracket=lambda x, y: x * y - y * x) -> list:
    """Every order's nested commutator computed, the zero ones too, by
    bracket: two products and their difference unless another is given."""
    minus_iq = normal_order("-i*q")
    nested, out = normal_order("p") ** n, []
    for k in range(order + 1):
        if k:
            nested = bracket(minus_iq, nested)
        lhs = nested.scale(ExactScalar(Fraction(1, math.factorial(k))))
        rhs = normal_order(f"{math.comb(n, k)} * p^{n - k}") if k <= n else NormalForm()
        out.append((k, lhs, rhs))
    return out


def test_conjugation_series_stops_nesting_at_zero_with_the_same_orders():
    for n in range(1, 7):
        for order in range(1, 11):
            got = conjugation_series(n, order)
            assert [(r.k, r.lhs, r.rhs) for r in got] == _conjugation_reference(n, order)
            # a commutator with a linear side inserts its terms in its own order, not the products'
            want = _conjugation_reference(n, order, NormalForm.commutator)
            assert [(list(r.lhs._num), list(r.rhs._num)) for r in got] == [
                (list(lhs._num), list(rhs._num)) for _, lhs, rhs in want]


def test_conjugation_series_limits():
    with pytest.raises(ValueError):
        conjugation_series(7, 4)
    with pytest.raises(ValueError):
        conjugation_series(2, 11)


def test_exp_commutator_series_orders():
    records = exp_commutator_series(8)
    assert all(rec.equal for rec in records)
    assert records[0].lhs.is_zero()


def test_exp_commutator_series_limits():
    for order in (0, -1, 25, 10**6):
        with pytest.raises(ValueError, match="order must be in 1..24"):
            exp_commutator_series(order)
    assert all(rec.equal for rec in exp_commutator_series(24))


# -- matrix homomorphism --------------------------------------------------------


def test_normal_form_to_matrix_simple():
    nf = normal_order("ad*a")
    assert np.abs(nf.to_matrix(5) - np.diag(np.arange(5.0))).max() < 1e-14


def test_expr_to_matrix_returns_arrays_the_caller_owns():
    # the leaf matrices are cached and shared; matrix_power(M, 1) returns M itself
    dim = 6
    want = {
        "q": dense.build_position(dim),
        "q^1": dense.build_position(dim),
        "ad": dense.build_creator(dim),
        "I": np.eye(dim),
        "p^0": np.eye(dim),
        "2": 2 * np.eye(dim),
        "q*ad": dense.build_position(dim) @ dense.build_creator(dim),
    }
    for source in want:
        got = expr_to_matrix(source, dim)
        assert got.flags.writeable and got.flags.owndata, source
        got[...] = 99.0
        for other, matrix in want.items():
            assert np.array_equal(expr_to_matrix(other, dim), matrix), (source, other)


def test_homomorphism_random_words():
    dim = 12
    for coeff, letters in random_words(SplitMix64(99), 60, 6):
        expr = parse(_word_text(coeff, letters))
        g = dim - max(len(letters) - letters.count("I"), 1)
        direct = expr_to_matrix(expr, dim)
        assembled = normal_order(expr).to_matrix(dim)
        assert np.abs(direct[:g, :g] - assembled[:g, :g]).max() < 1e-10


def _reference_to_matrix(nf, dim):
    """NormalForm.to_matrix before it added its terms into the output's
    diagonals in place: a dict of diagonals, one Band, then to_dense."""
    diagonals = {}
    for (m, k), n in nf._num.items():
        d = _to_complex(*n, nf._den) * symbolic._ladder_term(dim, m, k).diagonals[k - m]
        diagonals[k - m] = diagonals[k - m] + d if k - m in diagonals else d
    return fock.Band._unchecked(dim, diagonals).to_dense()


def _reference_expr_to_matrix(expr, dim):
    """expr_to_matrix before a product started from its leading scalars:
    every product a left fold of matrix products from np.eye(dim)."""
    if isinstance(expr, Product):
        out = np.eye(dim, dtype=complex)
        for f in expr.factors:
            out = out @ _reference_expr_to_matrix(f, dim)
        return out
    if isinstance(expr, Power):
        return np.linalg.matrix_power(_reference_expr_to_matrix(expr.base, dim), expr.exponent)
    if isinstance(expr, Commutator):
        left, right = _reference_expr_to_matrix(expr.left, dim), _reference_expr_to_matrix(expr.right, dim)
        return left @ right - right @ left
    return expr_to_matrix(expr, dim)  # a Scalar or a Symbol


def _seeded_words(seed):
    """The symbolic suite's 200 matrix_homomorphism words at dim 12, and 48
    words of 8 letters at dim 32 as the exact_proofs benchmark draws them."""
    gen = SplitMix64(seed + 7)
    words = [(_word_text(*word), 12) for word in random_words(gen, 200, 6)]
    gen = SplitMix64(seed)
    for _ in range(48):
        letters = [("a", "ad", "q", "p")[gen.randint(0, 3)] for _ in range(8)]
        words.append((f"({_WORD_COEFFS[gen.randint(0, len(_WORD_COEFFS) - 1)]}) * " + " * ".join(letters), 32))
    return words


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_matrices_are_the_reference_routes(seed):
    # the assembled matrix byte for byte, signed zeros included; the direct one equal
    for src, dim in _seeded_words(seed):
        nf = normal_order(src)
        assert nf.to_matrix(dim).tobytes() == _reference_to_matrix(nf, dim).tobytes(), src
        assert np.array_equal(expr_to_matrix(src, dim), _reference_expr_to_matrix(parse(src), dim)), src
    for src in ("2", "2*i*3", "sqrt2*I", "(2*I)*q*p", "i*(q * p)*a", "q^2*3", "[q, p]*i", "-q", "(1/3)*a*2"):
        assert np.array_equal(expr_to_matrix(src, 6), _reference_expr_to_matrix(parse(src), 6)), src


def test_normal_form_algebra():
    x = normal_order("q")
    assert (x - x).is_zero()
    assert (x * NormalForm({(0, 0): ONE})) == x
    with pytest.raises(ValueError):
        x ** (-1)
    # a numpy exponent would wrap silently in den ** n: 2 ** np.int64(70) is 0
    assert x ** np.int64(70) == x**70
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        x**2.0


def test_normal_form_rejects_non_monomial_exponents():
    for key in ((-1, 0), (0, -2), (1.5, 0), (0, 2.0), ("1", 0), (None, 1)):
        with pytest.raises(ValueError, match="exponents"):
            NormalForm({key: ONE})
    assert NormalForm({(np.int64(2), 1): ONE}) == NormalForm({(2, 1): ONE})


# -- the closed form of q^n and p^n: an oracle independent of the engine --------
# e^{t(a+a†)} = e^{ta†} e^{ta} e^{t²/2} and e^{t(a-a†)} = e^{-ta†} e^{ta} e^{-t²/2}:
# the coefficient of t^n/n! gives each monomial of q^n and p^n.


def _closed_form_power(n: int, momentum: bool) -> dict:
    """{(m, k): coefficient of a†^m a^k} in q^n, or in p^n if momentum."""
    # 2^(-n/2), with 2^(-1/2) = sqrt2/2 for odd n
    root = ExactScalar.rational(Fraction(1, 2 ** (n // 2))) * (HALF_SQRT2 if n % 2 else ONE)
    if momentum:
        root = root * (ONE, -I, -ONE, I)[n % 4]  # (-i)^n
    out = {}
    for m in range(n + 1):
        for k in range(n - m + 1):
            j, odd = divmod(n - m - k, 2)
            if odd:
                continue
            c = Fraction(math.factorial(n), math.factorial(m) * math.factorial(k) * math.factorial(j) * 2**j)
            if momentum and (m + j) % 2:
                c = -c
            out[(m, k)] = root * ExactScalar.rational(c)
    return out


@pytest.mark.parametrize("n", range(25))
def test_powers_of_q_and_p_match_closed_form(n):
    for symbol, momentum in (("q", False), ("p", True)):
        want = _closed_form_power(n, momentum)
        nf = normal_order(f"{symbol}^{n}")
        assert dict(nf.items()) == want
        for (m, k), c in want.items():
            assert nf.coeff(m, k) == c


# -- the per-term reference ------------------------------------------------------
# NormalForm as one ExactScalar per monomial, every term of a product
# multiplied and added as a scalar: the stored integer numerators over one
# denominator must agree with it exactly, insertion order included.


class TermwiseForm:
    """Sum of monomials (a†)^m a^k with one ExactScalar per term."""

    def __init__(self, terms: dict | None = None):
        clean = {}
        for (m, k), c in (terms or {}).items():
            c = ExactScalar.coerce(c)
            if not c.is_zero():
                clean[(int(m), int(k))] = c
        self._terms = clean

    def coeff(self, m, k):
        return self._terms.get((m, k), ZERO)

    def items(self):
        return sorted(self._terms.items())

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, ZERO) + c
        return TermwiseForm(out)

    def __neg__(self):
        return TermwiseForm({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = ExactScalar.coerce(s)
        return TermwiseForm({key: c * s for key, c in self._terms.items()})

    def __mul__(self, other):
        out = {}
        for (m1, k1), c1 in self._terms.items():
            for (m2, k2), c2 in other._terms.items():
                c12 = c1 * c2
                for (mm, kk), w in _reorder(k1, m2):
                    key = (m1 + mm, kk + k2)
                    out[key] = out.get(key, ZERO) + c12 * w
        return TermwiseForm(out)

    def adjoint(self):
        return TermwiseForm({(k, m): c.conjugate() for (m, k), c in self._terms.items()})

    def to_matrix(self, dim):
        A = dense.build_annihilator(dim)
        a_pow, ad_pow = [np.eye(dim, dtype=complex)], [np.eye(dim, dtype=complex)]
        for _ in range(max((max(key) for key in self._terms), default=0)):
            a_pow.append(A @ a_pow[-1])
            ad_pow.append(A.conj().T @ ad_pow[-1])
        out = np.zeros((dim, dim), dtype=complex)
        for (m, k), c in self._terms.items():
            out += c.to_complex() * (ad_pow[m] @ a_pow[k])
        return out


def _agrees(nf: NormalForm, ref: TermwiseForm):
    assert nf.items() == ref.items()
    assert list(nf._num) == list(ref._terms)  # insertion order, which to_matrix sums in
    for m in range(8):
        for k in range(8):
            assert nf.coeff(m, k) == ref.coeff(m, k)
    # canonical: positive denominator, content 1, integer tuples, no zero tuple
    den, num = nf._den, nf._num
    assert type(den) is int and den > 0
    assert all(type(n) is tuple and len(n) == 4 and all(type(x) is int for x in n) and any(n)
               for n in num.values())
    assert math.gcd(den, *(x for n in num.values() for x in n)) == 1
    # equal to the same form built from its coefficients, hash included
    built = NormalForm(dict(ref.items()))
    assert nf == built and hash(nf) == hash(built)


# rationals whose denominators are not only powers of 2
_fracs = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 35, 105))),
)
_scalars = st.builds(ExactScalar, _fracs, _fracs, _fracs, _fracs)
_monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
_terms = st.dictionaries(_monomials, _scalars, max_size=6)


@given(_terms, _terms, _scalars)
@settings(max_examples=200, deadline=None)
def test_normal_form_agrees_with_termwise_reference(ta, tb, s):
    a, b = NormalForm(ta), NormalForm(tb)
    ra, rb = TermwiseForm(ta), TermwiseForm(tb)
    _agrees(a, ra)
    _agrees(a * b, ra * rb)
    _agrees(a + b, ra + rb)
    _agrees(a - b, ra - rb)
    _agrees(a - a, TermwiseForm())
    _agrees(a.scale(-1), -ra)
    _agrees(a.scale(s), ra.scale(s))
    _agrees(a.adjoint(), ra.adjoint())
    assert np.array_equal((a * b).to_matrix(6), (ra * rb).to_matrix(6))  # bit for bit


# Q(i, sqrt2) multiples of a ladder letter: the unit of each component, times a rational
_units = st.sampled_from((ONE, I, ExactScalar(0, 0, 1), ExactScalar(0, 0, 0, 1)))
_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 6)))
_leaf_names = st.sampled_from(("a", "ad", "q", "p", "I"))
_leaf_multiples = st.builds(lambda name, u, r: normal_order(name).scale(u * ExactScalar(r)),
                            _leaf_names, _units, _rationals)
_words = st.lists(_leaf_multiples, min_size=1, max_size=6).map(
    lambda factors: functools.reduce(operator.mul, factors))


def _same_form(got: NormalForm, want: NormalForm):
    assert got == want and got._den == want._den
    assert list(got._num.items()) == list(want._num.items())  # the order to_matrix sums in


@given(st.one_of(_words, _terms.map(NormalForm)), _scalars)
@settings(max_examples=200, deadline=None)
def test_scale_is_the_product_by_a_scalar_form(form, s):
    # `scale` is the one product outside `*`: by the scalar form of s on either side
    scalar = NormalForm({(0, 0): s})
    _same_form(form.scale(s), form * scalar)
    _same_form(form.scale(s), scalar * form)


@given(_terms, _terms)
@example({(1, 0): ONE, (0, 1): I}, {(2, 2): ONE, (0, 1): I, (1, 1): Fraction(1, 3)})
@settings(max_examples=200, deadline=None)
def test_difference_is_the_sum_with_the_negation(ta, tb):
    # one merge: the keys of a, then the new keys of b, with cancelled keys dropped
    a, b = NormalForm(ta), NormalForm(tb)
    _same_form(a - b, a + b.scale(-1))
    _same_form(a - a, NormalForm())


def test_power_chains_are_the_general_loop():
    # two-term bases listing a† first or a first, two-component coefficients, one-term bases
    bases = [normal_order(text) for text in ("q", "p", "-i*q", "(1/2)*p", "sqrt2*a", "ad", "(1/3)*ad")]
    for base in bases + [_form_sum("a", "2*ad"), _form_sum("q", "i*q", "sqrt2*ad")]:
        want = NormalForm({(0, 0): ONE})
        for n in range(1, 65):
            want = want * base
            got = base**n
            assert got == want and got._den == want._den and list(got._num) == list(want._num), n


def _loop_product(a, b):
    """NormalForm.__mul__ as every pair of terms, with no pass of its own for
    a scalar form: the reference of that pass."""
    out = {}
    for (m1, k1), n1 in a._num.items():
        for (m2, k2), n2 in b._num.items():
            c = _times(n1 + (1,), n2 + (1,))[:4]
            for (mm, kk), w in _reorder(k1, m2):
                key = (m1 + mm, kk + k2)
                out[key] = tuple(x + w * y for x, y in zip(out.get(key, (0, 0, 0, 0)), c))
    return NormalForm._reduced({key: n for key, n in out.items() if any(n)}, a._den * b._den)


@given(st.one_of(_words, _terms.map(NormalForm)), st.one_of(st.just(ZERO), _scalars))
@settings(max_examples=200, deadline=None)
def test_products_by_a_scalar_form_are_the_pair_loop(form, s):
    scalar = NormalForm({(0, 0): s})
    _same_form(form * scalar, _loop_product(form, scalar))
    _same_form(scalar * form, _loop_product(scalar, form))
    _same_form(scalar * scalar, _loop_product(scalar, scalar))


# scalar subtrees of numbers, i, sqrt2 and I: the parser folds the products and quotients
# of Scalars into one leaf, and leaves powers and products with I as trees
_SCALAR_SUBTREES = ("(-1/2*i*sqrt2)", "(sqrt2^2)", "(2*I)", "((1/3)/(2*i))", "(2^0)", "(-(1/4)*sqrt2)")
# scalar factors the parser does not make, built by hand: leaves of more than one component,
# products of Scalars, and the symbol I
_HAND_BUILT_SCALARS = (Scalar(ONE + I), Scalar(ExactScalar(Fraction(1, 2), Fraction(1, 2))),
                       Scalar(ExactScalar(0, 0, Fraction(-1, 4), Fraction(3, 2))), Product((Scalar(-ONE), Scalar(I))),
                       Product((Scalar(ExactScalar.rational(Fraction(1, 3))), Scalar(ExactScalar.rational(2)), Scalar(I))),
                       Symbol("I"))
_word_factors = st.lists(
    st.one_of(st.sampled_from(("a", "ad", "q", "p", "I") + _WORD_COEFFS + ("0",) + _SCALAR_SUBTREES).map(parse),
              st.sampled_from(_HAND_BUILT_SCALARS)),
    min_size=1, max_size=12,
)


@given(_word_factors, st.one_of(st.none(), st.sampled_from(("q^2", "(a * ad)", "[p, q]", "2*p"))),
       st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_words_are_the_left_fold_of_the_general_loop(factors, compound, at):
    # letters and scalars in any order, which the int-coefficient word kernel runs: a Scalar
    # leaf such as (1/2) or (-1/2*i*sqrt2) as the parser folds it or (1 + i) as built by hand,
    # which it reads as it stands, or a power or a Product of Scalars or I, which it reads
    # through their forms; from a compound factor on, when one is inserted, the
    # factor-by-factor loop
    if compound is not None:
        factors.insert(at, parse(compound))
    want = functools.reduce(_loop_product, map(normal_order, factors), normal_order("I"))
    got = normal_order(Product(tuple(factors)))
    assert got._den == want._den
    assert list(got._num.items()) == list(want._num.items())  # the order to_matrix sums in


_big = st.integers(-(2**80), 2**80)
_big_terms = st.tuples(st.integers(2**53, 2**80), _big, _big, _big, st.sampled_from((3, 7, 21)))


@given(st.dictionaries(_monomials.filter(any), _big_terms, min_size=1, max_size=6),
       st.integers(2**53 + 1, 2**60).filter(lambda d: d % 3 and d % 7))
@settings(max_examples=60, deadline=None)
def test_to_matrix_is_the_exact_scalar_route(terms, big):
    # numerators above 2^53 that share a factor 3, 7 or 21 with the shared denominator;
    # the (0, 0) term (1, 0, -1, 0) keeps the form's content 1
    num = {(0, 0): (1, 0, -1, 0)}
    num.update({key: tuple(f * x for x in n) for key, (*n, f) in terms.items()})
    nf = NormalForm._reduced(num, 21 * big)
    assert nf._den == 21 * big and any(math.gcd(nf._den, *n) > 1 for n in nf._num.values())
    dim = 8
    want = np.zeros((dim, dim), dtype=complex)
    for m, k in nf._num:
        want += nf.coeff(m, k).to_complex() * symbolic._ladder_term(dim, m, k).to_dense()
    assert np.array_equal(nf.to_matrix(dim), want)


def test_equal_forms_have_equal_hashes():
    q = normal_order("q")
    pairs = [
        (q * q, normal_order("q^2")),
        (NormalForm({(1, 2): Fraction(2, 4)}), NormalForm({(1, 2): Fraction(1, 2)})),
        (NormalForm({(1, 0): ONE, (0, 1): I}), NormalForm({(0, 1): I, (1, 0): ONE})),
        (NormalForm({(0, 0): 3, (2, 0): ZERO}), NormalForm({(0, 0): Fraction(9, 3)})),
        (normal_order("[p,q]"), NormalForm({(0, 0): -I})),
        (q - q, NormalForm()),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert q != q.scale(2) and NormalForm({(0, 0): ONE}) != ONE


# -- powers: the closed form of a linear base, n right products of any other -----


def _loop_power(base: NormalForm, n: int) -> NormalForm:
    """base^n as n right products from the identity, the oracle of `**`."""
    acc = NormalForm({(0, 0): ONE})
    for _ in range(n):
        acc = acc * base
    return acc


_small_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _scalars, min_size=1, max_size=3)


@given(
    st.one_of(st.sampled_from([*map(normal_order, ("q", "p", "a", "ad", "I")), _form_sum("q", "p"), _form_sum("p", "q"),
                               normal_order("i*q*p") - normal_order("a^2")]),
              _small_terms.map(NormalForm)),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_cached_powers_are_the_loop_products(base, exponents):
    for n in exponents:
        got, want = base**n, _loop_power(base, n)
        assert got == want
        assert list(got._num) == list(want._num)  # the order to_matrix sums in


def test_equal_bases_in_another_term_order_keep_their_own_powers():
    x = NormalForm({(1, 0): ONE, (0, 1): I, (0, 0): HALF_SQRT2})
    y = NormalForm({(0, 0): HALF_SQRT2, (0, 1): I, (1, 0): ONE})
    assert x == y and list(x._num) != list(y._num)
    for base in (x, y, x):
        for n in (3, 5):
            assert list((base**n)._num) == list(_loop_power(base, n)._num)


def test_one_term_powers_are_one_monomial():
    # c^n by a loop, not by recursion: the exponent is not bounded by the stack
    assert normal_order("a") ** 3000 == NormalForm({(0, 3000): ONE})
    assert normal_order("ad") ** 3000 == NormalForm({(3000, 0): ONE})


def test_linear_powers_run_no_products(monkeypatch):
    products = 0
    plain = NormalForm.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return plain(self, other)

    monkeypatch.setattr(NormalForm, "__mul__", counted)
    normal_order("q^24")
    assert products == 0
    for n in range(1, 17):
        normal_order(f"[p,q^{n}]")  # a commutator with a linear side is one pass
        assert products == 0, n


def test_linear_powers_are_cached_closed_forms():
    # [p, q^n] and its right side q^(n-1) n share q^n through a bounded cache: each power it hands out
    # is the closed form, term order included
    for name in ("q", "p"):
        base = normal_order(name)
        for n in range(31):
            got, want = normal_order(f"{name}^{n}"), base._linear_power(n)
            assert got._den == want._den and list(got._num.items()) == list(want._num.items()), (name, n)
    assert 0 < symbolic._cached_linear_power.cache_info().maxsize <= 256


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_word_matrices_are_the_per_word_route(seed):
    # the matrix_homomorphism check's stacked products give each word's expr_to_matrix, byte for byte
    words = random_words(SplitMix64(seed + 7), 200, 6)
    want = np.array([expr_to_matrix(_word_expr(*word), 12) for word in words])
    assert _word_matrices(words, 12).tobytes() == want.tobytes()


def test_leaves_are_built_once():
    for name in ("a", "ad", "q", "p", "I"):
        assert normal_order(name) is normal_order(Symbol(name))
    assert normal_order("q") == NormalForm({(1, 0): HALF_SQRT2, (0, 1): HALF_SQRT2})


def _per_term_power(base: NormalForm, n: int) -> NormalForm:
    """x^n of a two-term linear base by the closed form with one division
    of n! per weight, over the keys in the order of n right products: the
    oracle of the weight recurrence in `_linear_power`."""
    x, y = [(1, 0, 0, 0, 1)], [(1, 0, 0, 0, 1)]
    for _ in range(n):
        x.append(_times(x[-1], base._num[1, 0] + (1,)))
        y.append(_times(y[-1], base._num[0, 1] + (1,)))
    if next(iter(base._num)) == (1, 0):
        keys = ((m, k) for m in range(n, -1, -1) for k in range((n - m) % 2, n - m + 1, 2))
    else:
        keys = ((m, m + d) for d in range(n, -n - 1, -2) for m in range(max(0, -d), (n - d) // 2 + 1))
    fact = [math.factorial(e) for e in range(n + 1)]
    num = {}
    for m, k in keys:
        j = (n - m - k) // 2
        w = fact[n] // (fact[m] * fact[k] * fact[j]) << (n // 2 - j)
        c0, c1, c2, c3, _ = _times(x[m + j], y[k + j])
        num[m, k] = (w * c0, w * c1, w * c2, w * c3)
    return NormalForm._reduced(num, base._den ** n << n // 2)


def test_linear_powers_are_the_per_term_closed_form():
    # a† listed first (q, and the two-component sum) and a listed first, every component
    for words in (("q",), ("q", "i*q", "sqrt2*ad"), ("a", "2*ad"),
                  ("(1/3)*a", "(2/5)*ad", "i*sqrt2*ad", "-(1/7)*i*ad")):
        base = _form_sum(*words)
        for n in [*range(40), 64, 99, 128, 157, 200]:
            got, want = base._linear_power(n), _per_term_power(base, n)
            assert got == want and got._den == want._den, (words, n)
            assert list(got._num.items()) == list(want._num.items()), (words, n)


_linear_forms = st.tuples(_scalars, _scalars, st.booleans()).map(
    lambda t: NormalForm({(0, 1): t[1], (1, 0): t[0]} if t[2] else {(1, 0): t[0], (0, 1): t[1]}))
_scalar_forms = _scalars.map(lambda s: NormalForm({(0, 0): s}))


@given(_linear_forms, st.one_of(_terms.map(NormalForm), _linear_forms, _scalar_forms, _words))
@settings(max_examples=300, deadline=None)
def test_commutator_is_the_two_products(linear, form):
    # the linear side on the left, on the right, or both; zero and scalar forms; and
    # any pair without a linear side, which takes the products themselves
    for x, y in ((linear, form), (form, linear), (linear, linear), (form, form)):
        got, want = x.commutator(y), x * y - y * x
        assert got == want and got._den == want._den


_small_or_big = st.one_of(st.integers(-8, 8), _big)


@given(st.dictionaries(_monomials, st.tuples(st.tuples(*[_small_or_big] * 4).filter(any), st.integers(0, 3)),
                      max_size=5),
       st.integers(0, 90), st.sampled_from((1, 3, 5, 12)), st.integers(0, 90))
@example({(1, 0): ((2, 0, 0, 0), 0), (0, 1): ((1, 0, 0, 0), 0)}, 2, 1, 0)  # an odd numerator after an even one
@settings(max_examples=300, deadline=None)
def test_reduced_divides_out_the_gcd_content(num, twos, odd, content):
    # denominators 2^twos times 1, 3, 5 or 12; numerators sharing a factor 2^content with
    # them, each tuple with up to 3 more factors 2 of its own
    num = {key: tuple(x << content + own for x in n) for key, (n, own) in num.items()}
    den = odd << twos
    g = math.gcd(den, *(x for n in num.values() for x in n))
    nf = NormalForm._reduced(dict(num), den)
    assert nf._den == den // g
    assert list(nf._num.items()) == [(key, tuple(x // g for x in n)) for key, n in num.items()]
