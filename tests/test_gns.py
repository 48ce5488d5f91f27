from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from starquant import (GaussianObservable, IntegralValue, LaurentSeries,
                       NonIntegrable, NotInIdeal, PhasePolynomial, Scalar,
                       SchrodingerOperator, conjugate, gaussian_moment,
                       gelfand_member0, inner0, inner0_factorized,
                       laurent_is_positive, momenta_decompose, omega0,
                       op_apply_base, op_compose, pi0, project_H0, star,
                       weyl_check, weyl_symmetrize_oracle)

from conftest import base_polynomials, observables, polynomials
from test_star import random_polynomial

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)


def obs(poly, rate=0):
    return GaussianObservable(poly, rate)


def series(terms):
    return LaurentSeries({k: Scalar.of(v) for k, v in terms.items()})


# -- the state and its moments ------------------------------------------


def test_gaussian_moment_frozen_values():
    # (e-1)!! / (2c)^(e/2), checked by hand for the first few even e
    assert gaussian_moment(0, Fraction(1)) == 1
    assert gaussian_moment(2, Fraction(1)) == Fraction(1, 2)
    assert gaussian_moment(4, Fraction(1)) == Fraction(3, 4)
    assert gaussian_moment(6, Fraction(2)) == Fraction(15, 64)
    assert gaussian_moment(3, Fraction(5)) == 0


def test_gaussian_moment_against_quadrature():
    for exponent in range(0, 9):
        for rate in (Fraction(1), Fraction(1, 2), Fraction(3)):
            numeric, _ = quad(lambda x: x ** exponent * math.exp(-rate * x * x),
                              -40, 40)
            normalized = numeric / math.sqrt(math.pi / rate)
            assert abs(float(gaussian_moment(exponent, rate)) - normalized) < 1e-9


def test_omega0_examples():
    assert omega0(obs(Q * Q, 1)) == IntegralValue(series({0: Fraction(1, 2)}), 1, 1)
    assert omega0(obs(P * 17, 1)).is_zero()  # restriction kills momenta
    assert omega0(obs(Q, 1)).is_zero()  # odd moment
    with pytest.raises(NonIntegrable):
        omega0(obs(Q * Q))


def test_omega0_two_dimensional_factorizes():
    q1q2 = PhasePolynomial.monomial(2, 0, (2, 4), (0, 0))
    value = omega0(GaussianObservable(q1q2, Fraction(1, 2)))
    expect = gaussian_moment(2, Fraction(1, 2)) * gaussian_moment(4, Fraction(1, 2))
    assert value == IntegralValue(series({0: expect}), Fraction(1, 2), 2)


def test_inner0_momentum_example():
    f = obs(P, 1)
    expect = IntegralValue(series({2: Fraction(1, 4)}), 2, 1)
    assert inner0(f, f) == expect
    assert inner0_factorized(f, f) == expect


@given(observables(dim=1, rate=1, max_terms=3, max_degree=2),
       observables(dim=1, rate=1, max_terms=3, max_degree=2))
@settings(max_examples=40)
def test_inner0_two_routes_agree(f, g):
    assert inner0(f, g) == inner0_factorized(f, g)


@given(observables(dim=1, rate=1, max_terms=3, max_degree=2))
@settings(max_examples=40)
def test_inner0_positivity(f):
    value = inner0(f, f)
    if value.is_zero():
        assert gelfand_member0(f)
    else:
        assert laurent_is_positive(value.coeff)
        assert not gelfand_member0(f)


def test_l2_form_on_base_functions():
    phi = obs(Q + PhasePolynomial.one(1), 1)
    psi = obs(Q * Q, 1)
    # base functions multiply pointwise under star, so this is the plain
    # weighted L^2 pairing with combined weight e^{-2q^2}
    direct = omega0(obs((Q + PhasePolynomial.one(1)) * (Q * Q), 2))
    assert inner0(phi, psi) == direct


# -- the null ideal ------------------------------------------------------


def test_ideal_membership_examples():
    assert gelfand_member0(obs(P))
    assert gelfand_member0(star(obs(Q), obs(P)))
    assert not gelfand_member0(obs(P, 1))
    assert not gelfand_member0(obs(Q))
    assert project_H0(obs(P, 1)) == GaussianObservable(
        Q * PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1))), 1)


def test_decompose_examples():
    assert momenta_decompose(P) == [PhasePolynomial.one(1)]
    assert momenta_decompose(star(obs(Q), obs(P)).body) == [Q]
    assert momenta_decompose(P * P) == [P]
    with pytest.raises(NotInIdeal):
        momenta_decompose(Q)


def test_decompose_reconstructs_constructed_members():
    rng = random.Random(31415)
    for dim in (1, 2):
        for _ in range(15):
            gs = [random_polynomial(rng, dim, 2, 0, 1, 2) for _ in range(dim)]
            member = GaussianObservable.zero(dim)
            for k, g in enumerate(gs):
                member = member + star(obs(g), obs(PhasePolynomial.coordinate_p(k, dim)))
            assert gelfand_member0(member)
            parts = momenta_decompose(member.body)
            rebuilt = GaussianObservable.zero(dim)
            for k, g in enumerate(parts):
                rebuilt = rebuilt + star(obs(g), obs(PhasePolynomial.coordinate_p(k, dim)))
            assert rebuilt == member


@given(polynomials(dim=1, max_terms=3, max_degree=2),
       polynomials(dim=1, max_terms=2, max_degree=2))
@settings(max_examples=30)
def test_left_ideal_closure(f, g):
    member = star(obs(g), obs(P))
    assert gelfand_member0(star(obs(f), member))


# -- operators -----------------------------------------------------------


def test_pi0_closed_forms():
    minus_i = Scalar(Fraction(0), Fraction(-1))
    assert pi0(obs(P)) == SchrodingerOperator(
        1, {(1, (1,)): PhasePolynomial.constant(1, minus_i)})
    assert pi0(obs(P * P)) == SchrodingerOperator(
        1, {(2, (2,)): PhasePolynomial.constant(1, -1)})
    assert pi0(star(obs(Q), obs(P))) == SchrodingerOperator(
        1, {(1, (1,)): Q.scale(minus_i)})
    assert pi0(obs(Q * Q)) == SchrodingerOperator(1, {(0, (0,)): Q * Q})


def test_weyl_correspondence_dim1():
    for total in range(7):
        for a in range(total + 1):
            b = total - a
            assert pi0(obs(Q ** a * P ** b)) == weyl_symmetrize_oracle((a,), (b,))


def test_weyl_correspondence_dim2():
    for a1 in range(3):
        for a2 in range(2):
            for b1 in range(3):
                for b2 in range(2):
                    if a1 + a2 + b1 + b2 > 4:
                        continue
                    alpha, beta = (a1, a2), (b1, b2)
                    f = GaussianObservable(PhasePolynomial.monomial(2, 0, alpha, beta))
                    assert pi0(f) == weyl_symmetrize_oracle(alpha, beta)


def test_weyl_check_sweeps_every_monomial_once():
    # C(D + 2n, 2n) monomials in 2n variables have total degree <= D
    for dim, top in [(1, d) for d in range(7)] + [(2, d) for d in range(5)]:
        assert weyl_check(dim, top) == (comb(top + 2 * dim, 2 * dim), [])
    with pytest.raises(ValueError):
        weyl_check(0, 2)


@given(polynomials(dim=1, max_terms=2, max_degree=2),
       polynomials(dim=1, max_terms=2, max_degree=2))
@settings(max_examples=30)
def test_representation_property(f, g):
    assert pi0(star(obs(f), obs(g))) == op_compose(pi0(obs(f)), pi0(obs(g)))


@given(polynomials(dim=1, max_terms=2, max_degree=2),
       base_polynomials(dim=1, max_terms=2, max_degree=2))
@settings(max_examples=30)
def test_operators_act_like_left_star_multiplication(f, phi):
    vector = GaussianObservable(phi, 1)
    lhs = op_apply_base(pi0(obs(f)), vector)
    rhs = project_H0(star(obs(f), vector))
    assert lhs == rhs


def test_op_compose_matches_sequential_application():
    rng = random.Random(2718)
    for _ in range(10):
        a = pi0(obs(random_polynomial(rng, 1, 2, 0, 1, 2)))
        b = pi0(obs(random_polynomial(rng, 1, 2, 0, 1, 2)))
        phi = GaussianObservable(random_polynomial(rng, 1, 2, 0, 0, 2).restrict_zero_section(), 1)
        assert op_apply_base(op_compose(a, b), phi) == op_apply_base(a, op_apply_base(b, phi))


def test_oracle_rejects_long_words():
    with pytest.raises(ValueError):
        weyl_symmetrize_oracle((5,), (4,))
