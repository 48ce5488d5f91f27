from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from starquant import (DimensionMismatch, EnvelopeMismatch, GaussianObservable,
                       PhasePolynomial, Scalar, conjugate, differentiate,
                       restrict_zero_section, substitute_momenta)

from conftest import observables, polynomials

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)


def test_construction_drops_zeros_and_validates():
    poly = PhasePolynomial(1, {(0, (1,), (0,)): Scalar.of(0),
                               (2, (0,), (1,)): Scalar.of(3)})
    assert list(poly.terms) == [(2, (0,), (1,))]
    with pytest.raises(DimensionMismatch):
        PhasePolynomial(2, {(0, (1,), (0, 0)): Scalar.of(1)})
    with pytest.raises(ValueError):
        PhasePolynomial(1, {(0, (-1,), (0,)): Scalar.of(1)})


def test_canonical_term_order():
    poly = P * P + Q + PhasePolynomial.lam(1, -1) + PhasePolynomial.one(1)
    keys = [key for key, _ in poly.sorted_terms()]
    assert keys == sorted(keys)
    assert keys[0][0] == -1  # lambda^-1 sorts first


@given(polynomials(dim=2, max_terms=3), polynomials(dim=2, max_terms=3),
       polynomials(dim=2, max_terms=3))
def test_ring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == PhasePolynomial.zero(2)


def test_envelope_derivative_rule():
    env = GaussianObservable(PhasePolynomial.one(1), Fraction(1, 2))
    # d/dq e^{-q^2/2} = -q e^{-q^2/2}
    assert env.diff_q(0) == GaussianObservable(-Q, Fraction(1, 2))
    f = GaussianObservable(P, 1)
    assert f.diff_q(0) == GaussianObservable(Q * P * (-2), 1)
    assert f.diff_p(0) == GaussianObservable(PhasePolynomial.one(1), 1)


@given(observables(dim=2, rate=1, max_terms=3), observables(dim=2, rate=1, max_terms=3))
def test_leibniz_rule_with_envelopes(f, g):
    product = f * g
    for index in range(2):
        lhs = product.diff_q(index)
        rhs = f.diff_q(index) * g + f * g.diff_q(index)
        assert lhs == rhs
        assert product.diff_p(index) == f.diff_p(index) * g + f * g.diff_p(index)


@given(observables(dim=1, rate=2, max_terms=4))
def test_partials_commute(f):
    assert f.diff_q(0).diff_p(0) == f.diff_p(0).diff_q(0)


def test_momentum_substitution():
    # p^2 with p -> p + u picks up 2up + u^2
    u = Q * Q * (-3)
    shifted = (P * P).substitute_momenta([u])
    assert shifted == P * P + Q * Q * P * (-6) + Q ** 4 * 9
    # base polynomials are untouched
    assert (Q * Q).substitute_momenta([u]) == Q * Q


def test_restrict_and_conjugate():
    f = Q * P + PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1, 2)))
    # p goes to 0; the lambda term has no momentum dependence and stays
    assert f.restrict_zero_section() == PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1, 2)))
    assert (Q + PhasePolynomial.one(1)).restrict_zero_section() == Q + PhasePolynomial.one(1)
    assert f.conjugate() == Q * P + PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(-1, 2)))
    assert f.conjugate().conjugate() == f


def test_envelope_rates_must_match_for_sums():
    a = GaussianObservable(Q, 1)
    b = GaussianObservable(P, 2)
    with pytest.raises(EnvelopeMismatch):
        a + b
    assert (a * b).rate == 3
    # zero body collapses to the rate-free zero
    zero = GaussianObservable(PhasePolynomial.zero(1), 5)
    assert zero.rate == 0
    assert a + zero == a


def test_degrees_and_lambda_split():
    f = P * P * PhasePolynomial.lam(1, 1) + Q
    assert f.degree_p() == 2
    assert f.min_lambda_order() == 0 and f.max_lambda_order() == 1
    parts = f.lambda_components()
    assert parts[0] == Q and parts[1] == P * P
    assert PhasePolynomial.zero(1).degree_p() == -1


def test_module_level_wrappers():
    f = GaussianObservable(Q * P, 1)
    assert differentiate(f, "p") == GaussianObservable(Q, 1)
    with pytest.raises(DimensionMismatch):
        differentiate(f, "q2")
    assert restrict_zero_section(f) == GaussianObservable(PhasePolynomial.zero(1))
    assert conjugate(f) == f
    assert substitute_momenta(f, [Q]) == GaussianObservable(Q * P + Q * Q, 1)
