from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from starquant import (DimensionMismatch, GaussianObservable, IntegralValue,
                       LaurentSeries, NonIntegrable, NotInIdeal, PhasePolynomial, Scalar,
                       SchrodingerOperator, conjugate, gaussian_moment,
                       gelfand_member0, inner0, inner0_factorized,
                       laurent_is_positive, momenta_decompose, omega0,
                       op_apply_base, op_compose, pi0, project_H0, s_map, star,
                       weyl_check, weyl_symmetrize_oracle)
from starquant.gns import MAX_MOMENT_EXPONENT, MAX_WEYL_MONOMIALS, MAX_WORD_LENGTH

from conftest import base_polynomials, observables, polynomials, refused, scalars
from oracles import (reference_omega0, reference_op_apply_base, reference_op_compose,
                     reference_pi0)
from test_star import kernel, random_polynomial

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


def test_gaussian_moment_exponent_budget():
    assert gaussian_moment(MAX_MOMENT_EXPONENT, Fraction(1)) > 0
    assert gaussian_moment(10 ** 8 + 1, Fraction(1)) == 0  # odd: no product
    with refused("a Gaussian moment", MAX_MOMENT_EXPONENT + 2, MAX_MOMENT_EXPONENT, "degrees"):
        gaussian_moment(MAX_MOMENT_EXPONENT + 2, Fraction(1))


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
    # moments that cancel leave no order behind: q^2 - 1/(2r) at rate r
    # integrates to 0 at lambda^0, so the value is lambda (pi/r)^(1/2)
    r = Fraction(3, 2)
    value = omega0(obs(Q * Q - PhasePolynomial.constant(1, 1 / (2 * r)) + PhasePolynomial.lam(1),
                       r))
    assert value.coeff.terms == {1: Scalar.of(1)}
    assert omega0(obs(Q * Q - PhasePolynomial.constant(1, 1 / (2 * r)), r)).coeff.terms == {}


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


def test_inner0_routes_read_only_their_own_tables(monkeypatch):
    """inner0 builds no symmetrization-map table and inner0_factorized no
    star table, so their agreement compares two independent table families."""
    def refuse(*args):
        raise AssertionError("the other route's table builder ran")

    rng = random.Random(314159)
    rates = [0, Fraction(1, 2), 1, 2]
    for _ in range(40):
        dim = rng.randint(1, 3)
        r, s = rng.choice(rates), rng.choice(rates[1:])
        if rng.randrange(2):
            r, s = s, r
        f = obs(random_polynomial(rng, dim, 4 - dim, -1, 1, 3), r)
        g = obs(random_polynomial(rng, dim, 4 - dim, -1, 1, 3), s)
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_s_table", refuse)
            star_route = inner0(f, g)
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_star_table", refuse)
            factorized = inner0_factorized(f, g)
        assert star_route == factorized


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
    # C(7 + 4, 4) = 330 monomials is over the budget, refused before any work
    assert comb(6 + 4, 4) <= MAX_WEYL_MONOMIALS < comb(7 + 4, 4)
    with refused("degree <= 7 in dim 2", 330, MAX_WEYL_MONOMIALS, "monomials"):
        weyl_check(2, 7)
    assert weyl_check(1, -1) == weyl_check(1, -5) == (0, [])
    # the oracle refuses longer words, so a higher degree is refused up front
    assert comb(MAX_WORD_LENGTH + 1 + 2, 2) <= MAX_WEYL_MONOMIALS
    with refused("a symmetrized word", 9, MAX_WORD_LENGTH, "letters"):
        weyl_check(1, MAX_WORD_LENGTH + 1)
    # degree 0 is one monomial in any dimension, here of 1200 slots
    assert weyl_check(600, 0) == (1, [])


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


def test_operator_constructor_checks():
    assert SchrodingerOperator(1, {(0, (1,)): PhasePolynomial.zero(1)}, 3) == \
        SchrodingerOperator.zero(1)
    assert SchrodingerOperator.zero(1).rate == 0
    with pytest.raises(ValueError):  # a negative derivative order
        SchrodingerOperator(1, {(0, (-1,)): Q})
    with pytest.raises(ValueError):
        SchrodingerOperator(0)
    with pytest.raises(ValueError):
        SchrodingerOperator(1, {(0, (1,)): Q}, -1)
    with pytest.raises(ValueError):  # coefficients are plain q-polynomials
        SchrodingerOperator(1, {(0, (1,)): P})
    with pytest.raises(ValueError):
        SchrodingerOperator(1, {(0, (1,)): PhasePolynomial.lam(1)})
    with pytest.raises(DimensionMismatch):
        SchrodingerOperator(1, {(0, (1, 0)): Q})
    with pytest.raises(DimensionMismatch):
        SchrodingerOperator(2, {(0, (1, 0)): Q})
    with pytest.raises(DimensionMismatch):
        SchrodingerOperator.identity(1) + SchrodingerOperator.zero(2)


RATES = st.sampled_from((0, 1, 2))


def operators(dim: int, rates=RATES):
    key = st.tuples(st.integers(-1, 1), st.tuples(*([st.integers(0, 2)] * dim)))
    terms = st.dictionaries(key, base_polynomials(dim, max_terms=2, max_degree=2),
                            max_size=3)
    return st.builds(SchrodingerOperator, st.just(dim), terms, rates)


@given(st.data())
@settings(max_examples=60)
def test_pi0_matches_grouping_reference(data):
    dim = data.draw(st.sampled_from((1, 2)))
    f = data.draw(observables(dim, data.draw(RATES), max_terms=3, max_degree=2,
                              min_lambda=-1, max_lambda=1))
    assert pi0(f) == reference_pi0(f)


@given(st.data())
@settings(max_examples=60)
def test_op_compose_matches_leibniz_reference(data):
    dim = data.draw(st.sampled_from((1, 2)))
    a, b = data.draw(operators(dim)), data.draw(operators(dim))
    composed = op_compose(a, b)
    assert composed == reference_op_compose(a, b)
    phi = data.draw(base_polynomials(dim, max_terms=2, max_degree=2))
    vector = GaussianObservable(phi, data.draw(st.sampled_from((1, 2))))
    assert op_apply_base(composed, vector) == reference_op_apply_base(composed, vector)
    assert op_apply_base(composed, vector) == op_apply_base(a, op_apply_base(b, vector))


@given(st.data())
@settings(max_examples=40)
def test_op_compose_of_enveloped_symbols_matches_leibniz_reference(data):
    # the reference adds the rates of its operands on its own
    dim = data.draw(st.sampled_from((1, 2)))
    enveloped = operators(dim, st.sampled_from((Fraction(1, 3), 1)))
    a, b = data.draw(enveloped), data.draw(enveloped)
    composed = op_compose(a, b)
    assert composed == reference_op_compose(a, b)
    assert composed.rate == (0 if composed.is_zero() else a.rate + b.rate)


def test_oracle_rejects_long_words():
    with pytest.raises(ValueError):
        weyl_symmetrize_oracle((5,), (4,))


# -- the integer state against the Fraction moments it replaced -----------

@st.composite
def state_inputs(draw):
    dim = draw(st.integers(1, 3))
    rate = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)]))
    # base terms with mostly even exponents, so most moments are nonzero
    exponents = st.tuples(*([st.sampled_from([0, 1, 2, 3, 4, 6])] * dim))
    keys = st.tuples(st.integers(-1, 1), exponents, st.just((0,) * dim))
    base = PhasePolynomial(dim, dict(draw(st.lists(st.tuples(keys, scalars), max_size=4))))
    rest = draw(polynomials(dim, max_terms=2, max_degree=2, min_lambda=-1, max_lambda=1))
    return GaussianObservable(base + rest, rate)


@given(state_inputs())
@settings(max_examples=150)
def test_omega0_matches_the_fraction_route(f):
    if f.rate == 0 and not f.restrict_zero_section().is_zero():
        for route in (omega0, reference_omega0):
            with pytest.raises(NonIntegrable):
                route(f)
        return
    value = reference_omega0(f)
    assert omega0(f) == value
    # less each order's value as a constant, the moments cancel to zero
    z = (0,) * f.dim
    balance = PhasePolynomial(f.dim, {(k, z, z): c for k, c in value.coeff.terms.items()})
    cancelled = f - GaussianObservable(balance, f.rate)
    assert omega0(cancelled).is_zero() and reference_omega0(cancelled).is_zero()


def test_omega0_budget_order_matches_the_fraction_route():
    # exponents are read in order: an odd one first skips the term, a
    # moment exponent over the budget first refuses it
    big = MAX_MOMENT_EXPONENT + 2
    skipped = obs(PhasePolynomial.monomial(2, 0, (3, big), (0, 0)) + PhasePolynomial.one(2), 1)
    assert omega0(skipped) == reference_omega0(skipped) == omega0(obs(PhasePolynomial.one(2), 1))
    over = obs(PhasePolynomial.monomial(2, 0, (big, 3), (0, 0)), 1)
    for route in (omega0, reference_omega0):
        with refused("a Gaussian moment", big, MAX_MOMENT_EXPONENT, "degrees"):
            route(over)


def test_projection_sums_only_the_p_free_slice():
    # s_map holds 11^6 combined entries here, past the byte budget; the
    # projection holds one: per dimension (-i lambda/2)^10 / 10! (10)_10 10!
    f = obs(PhasePolynomial.monomial(6, 0, (10,) * 6, (10,) * 6))
    with refused("the symmetrization map, 1771561 table entries of up to 210 bits",
                 11 ** 6 * (kernel.ENTRY_BYTES + 210 // 4), kernel.MAX_COMBINED, "bytes"):
        s_map(f)
    weight = Fraction(-math.factorial(10), 2 ** 10)
    assert project_H0(f) == obs(PhasePolynomial.lam(6, 60, weight ** 6))
    assert not gelfand_member0(f)
