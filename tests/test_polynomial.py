from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symroot import CountVector, from_coefficients, iteration_matrix, parse_polynomial
from symroot.counting import step_counts
from symroot.errors import (
    EmptyInputError,
    ExponentTooLargeError,
    NonIntegerCoefficientError,
    NotMonicError,
    PolynomialSyntaxError,
    ZeroDegreeError,
)
from symroot.polynomial import MAX_EXPONENT, MonicPolynomial


def test_parse_golden():
    p = parse_polynomial("x^2 - x - 1")
    assert p.degree == 2
    assert p.a == (1, 1)


def test_parse_sign_convention():
    assert parse_polynomial("x^2 - 3x + 1").a == (3, -1)
    assert parse_polynomial("x^2 + 3x + 1").a == (-3, -1)


def test_parse_missing_terms_are_zero():
    p = parse_polynomial("x^3 - 2")
    assert p.degree == 3
    assert p.a == (0, 0, 2)


def test_parse_not_monic():
    with pytest.raises(NotMonicError):
        parse_polynomial("2x^2 - 1")
    with pytest.raises(NotMonicError):
        parse_polynomial("-x^2 + 1")


def test_parse_grammar_variants():
    # optional *, free whitespace, summed repeated powers, leading sign
    assert parse_polynomial("x^2-x-1") == parse_polynomial(" x ^ 2 - 1 * x - 1 ")
    assert parse_polynomial("x^2 + x^2 - x^2 - 5").a == (0, 5)
    assert parse_polynomial("+x - 2").a == (2,)
    assert parse_polynomial("x").a == (0,)
    assert parse_polynomial("3x^0 + x").a == (-3,)


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(PolynomialSyntaxError) as e:
        parse_polynomial("x^2 + @")
    assert e.value.offset == 6
    for text in ("x^", "x^\u00b2 - 1", "x^\u0662 - 1"):  # only ASCII digits are numbers
        with pytest.raises(PolynomialSyntaxError) as e:
            parse_polynomial(text)
        assert e.value.offset == 2
    with pytest.raises(PolynomialSyntaxError) as e:
        parse_polynomial("")
    assert e.value.offset == 0
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x 2")  # juxtaposition is not multiplication
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x^-2")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("3*")


def test_parse_exponent_bound():
    assert parse_polynomial(f"x^{MAX_EXPONENT} - 1").degree == MAX_EXPONENT
    # raised at the exponent while parsing, before a coefficient tuple of
    # that length is built: a 10^40 exponent would not fit in memory
    for text, offset in ((f"x^{MAX_EXPONENT + 1}", 2), ("x^2 - 3x^ " + "9" * 40 + " + 1", 10)):
        with pytest.raises(ExponentTooLargeError) as e:
            parse_polynomial(text)
        assert isinstance(e.value, PolynomialSyntaxError)
        assert e.value.offset == offset


def test_parse_degree_errors():
    with pytest.raises(ZeroDegreeError):
        parse_polynomial("5")
    with pytest.raises(ZeroDegreeError):
        parse_polynomial("x - x")  # cancels to the zero polynomial


def test_from_coefficients():
    assert from_coefficients((-1, -1, 1)).a == (1, 1)
    assert from_coefficients((-2, 0, 0, 1)).a == (0, 0, 2)
    assert from_coefficients((1, 3, 1)).a == (-3, -1)


def test_from_coefficients_errors():
    with pytest.raises(EmptyInputError):
        from_coefficients(())
    with pytest.raises(ZeroDegreeError):
        from_coefficients((1,))
    with pytest.raises(NotMonicError):
        from_coefficients((-1, 2))
    with pytest.raises(NonIntegerCoefficientError):
        from_coefficients((0.5, 1))
    with pytest.raises(NonIntegerCoefficientError):
        MonicPolynomial((1, True))


def test_iteration_matrix_examples():
    for a in ((1, 1), (2,), (0, 1, 1)):
        p = MonicPolynomial(a)
        # the count-step matrix is held as its polynomial
        assert iteration_matrix(p) is p


def test_iteration_matrix_type_checks_shape_only():
    # the matrix is its polynomial: MonicPolynomial checks the degree and
    # that every a_i is an exact integer; step_counts checks the vector's
    # length (test_step_counts_dimension_mismatch)
    assert iteration_matrix(MonicPolynomial((5, 5))).degree == 2
    with pytest.raises(ZeroDegreeError):
        iteration_matrix(MonicPolynomial(()))
    with pytest.raises(NonIntegerCoefficientError):
        iteration_matrix(MonicPolynomial((1.5,)))
    with pytest.raises(NonIntegerCoefficientError):
        iteration_matrix(MonicPolynomial((1, True)))


def test_eval_at():
    p = MonicPolynomial((1, 1))  # x^2 - x - 1
    assert p.eval_at(2) == 1
    assert p.eval_at(0) == -1
    assert MonicPolynomial((0, 0, 2)).eval_at(Fraction(3, 2)) == Fraction(11, 8)


def test_render():
    assert MonicPolynomial((1, 1)).render() == "x^2 - x - 1"
    assert MonicPolynomial((3, -1)).render() == "x^2 - 3x + 1"
    assert MonicPolynomial((0, 0, 2)).render() == "x^3 - 2"
    assert MonicPolynomial((-2,)).render() == "x + 2"
    assert MonicPolynomial((0,)).render() == "x"


coeff_lists = st.lists(st.integers(min_value=-10, max_value=10), min_size=1, max_size=8)


@given(coeff_lists)
def test_round_trip_through_coefficients(a):
    p = MonicPolynomial(tuple(a))
    # ascending standard coefficients c_k = -a_(m-k), then the leading 1
    assert from_coefficients([-x for x in reversed(a)] + [1]) == p


@given(coeff_lists)
def test_round_trip_through_text(a):
    p = MonicPolynomial(tuple(a))
    assert parse_polynomial(p.render()) == p


@given(coeff_lists, st.lists(st.integers(-10**30, 10**30), min_size=8, max_size=8))
def test_iteration_matrix_is_identity_plus_companion(a, raw):
    # the band must act exactly as the dense identity plus companion matrix
    p = MonicPolynomial(tuple(a))
    m = p.degree
    companion = [[p.a[j] if i == 0 else int(j == i - 1) for j in range(m)] for i in range(m)]
    dense = [[companion[i][j] + int(i == j) for j in range(m)] for i in range(m)]
    v = CountVector(tuple(raw[:m]))
    product = tuple(sum(dense[i][j] * v.n[j] for j in range(m)) for i in range(m))
    assert step_counts(iteration_matrix(p), v).n == product
