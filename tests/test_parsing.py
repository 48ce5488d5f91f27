from __future__ import annotations

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from starquant import (BudgetExceeded, GaussianObservable, IndexOutOfRange,
                       NegativeExponent, ObservableParseError, ObservableSyntaxError,
                       PhasePolynomial, Scalar, parse_observable)
from starquant.parsing import (MAX_POWER_BITS, MAX_POWER_TERMS, parse_complex_constant,
                               parse_rational)
from starquant.render import pretty_polynomial

from conftest import polynomials

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))


def test_parses_the_canonical_commutation_witness():
    got = parse_observable("q*p + i*lambda/2", 1)
    assert got == GaussianObservable(Q * P + PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1, 2))))


def test_parses_indexed_coordinates():
    got = parse_observable("p1^2 + p2^2 + q1^2*q2", 2)
    p1 = PhasePolynomial.coordinate_p(0, 2)
    p2 = PhasePolynomial.coordinate_p(1, 2)
    q1 = PhasePolynomial.coordinate_q(0, 2)
    q2 = PhasePolynomial.coordinate_q(1, 2)
    assert got.body == p1 * p1 + p2 * p2 + q1 * q1 * q2
    assert got.rate == 0


def test_whitespace_and_parentheses():
    a = parse_observable("q * p+i  *lambda/ 2", 1)
    b = parse_observable("q*p + i*lambda/2", 1)
    assert a == b
    sq = parse_observable("(q + p)^2", 1)
    assert sq.body == Q * Q + Q * P * 2 + P * P
    assert parse_observable("i^2 + 1", 1).body.is_zero()


def test_unary_minus_only_leads():
    assert parse_observable("-q + p", 1).body == P - Q
    assert parse_observable("-(q + p)", 1).body == (Q + P).scale(-1)
    with pytest.raises(ObservableSyntaxError):
        parse_observable("q - -p", 1)


def test_lambda_powers():
    assert parse_observable("lambda^-2", 1).body == PhasePolynomial.lam(1, -2)
    assert parse_observable("lambda^3", 1).body == PhasePolynomial.lam(1, 3)
    assert parse_observable("q^0", 1).body == PhasePolynomial.one(1)


def test_negative_exponent_is_rejected_off_lambda():
    with pytest.raises(NegativeExponent) as err:
        parse_observable("q^-1", 1)
    assert err.value.line == 1 and err.value.column == 3
    with pytest.raises(NegativeExponent):
        parse_observable("(q + 1)^-2", 1)


def test_power_term_budget():
    # (q + p + 1)^n has C(n + 2, 2) terms: 990 for n = 43, 1035 for n = 44
    assert MAX_POWER_TERMS == 1000
    assert len(parse_observable("(q+p+1)^43", 1).body.terms) == 990
    with pytest.raises(BudgetExceeded, match="^1:2: power 44 of a 3-term base"):
        parse_observable(" (q+p+1)^44", 1)
    with pytest.raises(BudgetExceeded):
        parse_complex_constant("(1+lambda)^5000")
    with pytest.raises(BudgetExceeded):
        parse_observable("(q+p)^" + "9" * 4000, 1)
    assert parse_observable("(q+p)^0", 1) == parse_observable("1", 1)
    # bases of one term, or none, are never refused
    assert parse_observable("(2*q1*p2)^3000", 2).body.terms
    assert parse_observable("(q-q)^5000", 1).is_zero()


def test_power_bit_budget():
    # c^n needs up to n times the bits of |Re c| + |Im c| - 1 and of den - 1;
    # 2^(20 digits) would run until memory runs out
    assert MAX_POWER_BITS == 2 ** 16
    t0 = time.perf_counter()
    for text in ("2^12345678901234567890", "((2)^12345678901234567890)^1",
                 "(1+i)^12345678901234567890", "(q/2)^12345678901234567890",
                 "(10^30*q+p)^999", "2^65537"):
        with pytest.raises(BudgetExceeded, match="bits"):
            parse_observable(text, 1)
    assert time.perf_counter() - t0 < 1
    assert parse_complex_constant("2^65536") == Scalar.of(2 ** 65536)
    assert parse_complex_constant("(1/4)^32768") == Scalar.of(Fraction(1, 4 ** 32768))
    # units and zero grow no bits, whatever the power
    assert parse_complex_constant("i^12345678901234567890") == Scalar.of(-1)
    assert parse_observable("(-q)^12345678901234567890", 1) == parse_observable(
        "q^12345678901234567890", 1)
    assert parse_observable("0^12345678901234567890", 1).is_zero()


def test_index_range_checks():
    with pytest.raises(IndexOutOfRange) as err:
        parse_observable("q5", 2)
    assert err.value.column == 1
    with pytest.raises(IndexOutOfRange):
        parse_observable("p0", 2)
    assert parse_observable("q3", 3).body == PhasePolynomial.coordinate_q(2, 3)
    with pytest.raises(ObservableSyntaxError):
        parse_observable("q", 2)  # bare coordinate needs an index here


def test_division_is_by_rational_constants_only():
    assert parse_observable("q/2", 1).body == Q.scale(Fraction(1, 2))
    assert parse_observable("(q+1)/3", 1).body == (Q + PhasePolynomial.one(1)).scale(Fraction(1, 3))
    assert parse_observable("4/2/3", 1).body == PhasePolynomial.constant(1, Fraction(2, 3))
    assert parse_observable("q/(1+1)", 1).body == Q.scale(Fraction(1, 2))
    for bad in ("q/p", "q/0", "q/lambda", "q/i", "q/(1-1)"):
        with pytest.raises(ObservableSyntaxError):
            parse_observable(bad, 1)


def test_error_positions_are_1_based():
    with pytest.raises(ObservableSyntaxError) as err:
        parse_observable("q +\n r", 1)
    assert (err.value.line, err.value.column) == (2, 2)
    assert str(err.value).startswith("2:2:")
    with pytest.raises(ObservableSyntaxError) as err:
        parse_observable("q $ p", 1)
    assert (err.value.line, err.value.column) == (1, 3)


def test_syntax_rejections():
    for bad in ("", "q q", "(q", "q^", "q^x", "q*", "lambda2", "foo", "q+"):
        with pytest.raises(ObservableParseError):
            parse_observable(bad, 1)
    with pytest.raises(ValueError):
        parse_observable("q", 0)


def test_envelope_rate_is_attached():
    got = parse_observable("q", 1, Fraction(2))
    assert got.rate == Fraction(2)


@given(polynomials(dim=1, max_terms=4, max_degree=3, min_lambda=-2, max_lambda=2))
@settings(max_examples=60)
def test_printed_form_parses_back_dim1(poly):
    assert parse_observable(pretty_polynomial(poly), 1).body == poly


@given(polynomials(dim=2, max_terms=3, max_degree=2, min_lambda=-1, max_lambda=1))
@settings(max_examples=40)
def test_printed_form_parses_back_dim2(poly):
    assert parse_observable(pretty_polynomial(poly), 2).body == poly


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -2 ") == Fraction(-2)
    assert parse_rational("0/5") == Fraction(0)
    for bad in ("1/0", "abc", "1.5.2"):
        with pytest.raises(ObservableSyntaxError):
            parse_rational(bad)


def test_huge_exponents_are_refused_fast():
    # Fraction would compute 10**30000000 (about a minute)
    for text in ("1e30000000", "-2.5E-30000000", "1e0_000_000_000_000_000_000_030_000_000"):
        t0 = time.perf_counter()
        with pytest.raises(ObservableSyntaxError, match="exponent"):
            parse_rational(text)
        assert time.perf_counter() - t0 < 1
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
    with pytest.raises(ObservableSyntaxError, match="exponent"):
        parse_rational(f"1e{limit + 1}")
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    assert parse_rational(" 1e0005 ") == 100000


def test_parse_complex_constant():
    assert parse_complex_constant("1") == Scalar.of(1)
    assert parse_complex_constant("-1/2") == Scalar.of(Fraction(-1, 2))
    assert parse_complex_constant("1/2 + i") == Scalar(Fraction(1, 2), Fraction(1))
    assert parse_complex_constant("3*i/4") == Scalar(Fraction(0), Fraction(3, 4))
    assert parse_complex_constant("(2 + i)^2") == Scalar(Fraction(3), Fraction(4))
    with pytest.raises(ObservableSyntaxError):
        parse_complex_constant("q")
