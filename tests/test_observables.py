from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import (ActionData, DimensionMismatch, EnvelopeMismatch, GaussianObservable,
                       PhasePolynomial, Scalar, conjugate, differentiate, evolve,
                       restrict_zero_section, s_map, star, star_commutator,
                       substitute_momenta)

from starquant.observables import _compositions, _Numerators, _sum_of_products

from conftest import base_polynomials, observables, polynomials
from oracles import reference_poly_mul, reference_substitute_momenta

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


def test_compositions_come_in_lexicographic_order():
    # weyl_check and the oracles sweep monomials in this order
    for total in range(7):
        for slots in range(1, 6):
            assert list(_compositions(total, slots)) == [
                c for c in itertools.product(range(total + 1), repeat=slots) if sum(c) == total]


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


def test_gaussian_constructor_validates_the_rate():
    for bad in (-1, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussianObservable(Q, bad)
    with pytest.raises(ValueError, match="nonnegative"):
        GaussianObservable(PhasePolynomial.zero(1), -1)
    assert GaussianObservable(PhasePolynomial.zero(1), 5).rate == 0
    assert type(GaussianObservable(Q, 2).rate) is Fraction


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


# few distinct coefficients, so sums and products cancel often
_UNITS = st.sampled_from([Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1),
                          Scalar(Fraction(1, 2)), Scalar(-2, Fraction(1, 3))])


@st.composite
def _operands(draw):
    dim = draw(st.integers(1, 3))
    kw = dict(dim=dim, max_terms=3, max_degree=2, min_lambda=-1, max_lambda=1,
              coeffs=_UNITS)
    f, g = draw(polynomials(**kw)), draw(polynomials(**kw))
    shifts = [draw(base_polynomials(dim, max_terms=2, max_degree=2, coeffs=_UNITS))
              for _ in range(dim)]
    return f, g, shifts, draw(st.integers(0, 2)), draw(st.integers(0, 2))


def _assert_canonical(r) -> None:
    poly = r.body if isinstance(r, GaussianObservable) else r
    assert PhasePolynomial(poly.dim, poly.terms) == poly
    assert not any(c.is_zero() for c in poly.terms.values())


@given(_operands())
def test_arithmetic_results_are_canonical(case):
    """Results built by the trusted constructor equal their checked rebuild."""
    f, g, shifts, r, s = case
    F, G = GaussianObservable(f, r), GaussianObservable(g, s)
    results = [f + g, f - g, f - (f + g), -f, f * g, (f + g) * (f - g),
               f.scale(Scalar(0, 1)), f.scale(0), f.mul_lambda(-1), f.conjugate(),
               f.restrict_zero_section(), f.substitute_momenta(shifts),
               *f.lambda_components().values(),
               star(F, G), star(F, G) - star(G, F), star_commutator(F, G),
               star_commutator(F, F), s_map(F), s_map(F, "backward")]
    for k in range(f.dim):
        results += [f.diff_q(k), f.diff_p(k), F.diff_q(k)]
    for result in results:
        _assert_canonical(result)


# -- trusted constructors: arithmetic results equal their checked rebuild --

TRUSTED_RATES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)])
_q = PhasePolynomial.coordinate_q
ACTIONS = {1: ActionData(_q(0, 1) ** 3), 2: ActionData(_q(0, 2) ** 3 - _q(1, 2) ** 2),
           3: ActionData(_q(0, 3) * _q(1, 3) ** 2 + _q(2, 3))}


def _assert_trusted(r: GaussianObservable, rate: Fraction) -> None:
    """r equals its rebuild by the public constructor, and its rate is a
    Fraction that is ``rate`` when the body is nonzero and 0 when it is zero."""
    assert GaussianObservable(r.body, r.rate) == r
    assert type(r.rate) is Fraction
    assert r.rate == (0 if r.body.is_zero() else rate)
    _assert_canonical(r)


@given(_operands(), TRUSTED_RATES, TRUSTED_RATES)
@settings(max_examples=40)
def test_trusted_results_equal_their_checked_rebuild(case, r, s):
    f, g, shifts, _, _ = case
    F, G, H = GaussianObservable(f, r), GaussianObservable(g, s), GaussianObservable(g, r)
    p_cubed = PhasePolynomial.monomial(f.dim, 0, (0,) * f.dim, (3,) + (0,) * (f.dim - 1))
    action, t = ACTIONS[f.dim], Fraction(-2, 3)
    cases = [(F + H, r), (F - H, r), (F - F, r), (F + H - H, r), (-F, r),
             (F * G, r + s), ((F + H) * (F - H), 2 * r), (F * (G - G), r + s), (F * g, r),
             (F.scale(Scalar(0, 1)), r), (F.scale(0), r), (F.mul_lambda(-1), r),
             (F.conjugate(), r), (F.restrict_zero_section(), r),
             (F.substitute_momenta(shifts), r), (star(F, G), r + s),
             (star(F, G) - star(G, F), r + s), (star(F, F - F), r), (s_map(F), r),
             (s_map(F, "backward"), r), (evolve(F, t, action), r),
             (evolve(F * p_cubed, t, action), r), (evolve(F - F, t, action), r)]
    for k in range(f.dim):
        cases += [(F.diff_q(k), r), (F.diff_p(k), r), ((F - H).diff_q(k), r)]
    for result, rate in cases:
        _assert_trusted(result, rate)


# -- the one-denominator ring against the term-by-term routes it replaced --

RATES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)])


@st.composite
def ring_cases(draw):
    dim = draw(st.integers(1, 3))
    poly = polynomials(dim, max_terms=3, max_degree=2, min_lambda=-1, max_lambda=1)
    shifts = [draw(base_polynomials(dim, max_terms=2, max_degree=2)) for _ in range(dim)]
    return draw(poly), draw(poly), shifts


@given(ring_cases(), RATES, RATES)
def test_product_matches_the_term_by_term_route(case, r, s):
    f, g, _ = case
    # in (f + g)(f - g) the cross terms cancel to zero
    for x, y in ((f, g), (f + g, f - g)):
        want = reference_poly_mul(x, y)
        assert x * y == want
        assert GaussianObservable(x, r) * GaussianObservable(y, s) == GaussianObservable(want, r + s)


@given(ring_cases(), RATES)
def test_substitution_matches_repeated_products(case, rate):
    f, _, shifts = case
    # p_k - u_k becomes p_k: the binomial terms of the shift cancel to zero
    cancelled = f
    for k, u in enumerate(shifts):
        cancelled = cancelled * (PhasePolynomial.coordinate_p(k, f.dim) - u)
    for x in (f, cancelled):
        want = reference_substitute_momenta(x, shifts)
        assert x.substitute_momenta(shifts) == want
        assert (GaussianObservable(x, rate).substitute_momenta(shifts)
                == GaussianObservable(want, rate))
    momenta = PhasePolynomial.monomial(f.dim, 0, (0,) * f.dim, (1,) * f.dim)
    assert cancelled.substitute_momenta(shifts) == f.substitute_momenta(shifts) * momenta


@st.composite
def product_jobs(draw):
    """(dim, jobs): jobs (k, re, im, den, a, b) of the one sum-of-products
    routine with PhasePolynomial factors, over unrelated denominators."""
    dim = draw(st.integers(1, 3))
    poly = polynomials(dim, max_terms=3, max_degree=2, min_lambda=-1, max_lambda=1)
    jobs = [(draw(st.integers(-1, 1)), draw(st.integers(-4, 4)), draw(st.integers(-4, 4)),
             draw(st.sampled_from([1, 2, 3, 5, 12, 35])), draw(poly), draw(poly))
            for _ in range(draw(st.integers(1, 4)))]
    return dim, jobs


@given(product_jobs())
def test_sum_of_products_matches_the_scaled_reference_products(case):
    dim, jobs = case
    k, re, im, den, a, b = jobs[0]
    # the same product with the opposite weight, factors swapped: it cancels jobs[0]
    cancel = (k, -re, -im, den, b, a)
    for chosen in (jobs, jobs + [cancel], [jobs[0], cancel]):
        want = PhasePolynomial.zero(dim)
        for k, re, im, den, a, b in chosen:
            weight = Scalar(Fraction(re, den), Fraction(im, den))
            want = want + reference_poly_mul(a, b).mul_lambda(k).scale(weight)
        got = _sum_of_products(dim, [(k, re, im, den, a._numerators(), b._numerators())
                                     for k, re, im, den, a, b in chosen])
        assert got == want
        assert PhasePolynomial(dim, got.terms) == got
    assert got.is_zero() and not got.terms


@given(ring_cases(), st.sampled_from([Fraction(0), Fraction(-1), Fraction(2, 3),
                                      Fraction(-5, 2)]))
def test_folded_shift_matches_the_scaled_shifts(case, c):
    f, _, shifts = case
    assert f._shift_momenta(shifts, c) == f.substitute_momenta([u.scale(c) for u in shifts])


# -- the Leibniz enumerator's numerator pairs against reduced derivatives --

def _reduced(pair: _Numerators, dim: int, rate) -> GaussianObservable:
    (den, nums), = pair.parts.values()
    return GaussianObservable(PhasePolynomial._from_numerators(dim, nums, den), rate)


@given(st.data())
def test_numerator_pair_derivatives_match_the_reduced_ones(data):
    dim = data.draw(st.integers(1, 3))
    rate = data.draw(RATES)
    f = data.draw(observables(dim, rate, max_terms=3, max_degree=3, min_lambda=-1,
                              max_lambda=1))
    steps = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, dim - 1)),
                               max_size=6))
    pair, want = _Numerators.of(f), f
    assert pair.is_zero() == want.is_zero()
    for momentum, k in steps:
        if want.is_zero():
            break
        pair = pair.diff_p(k) if momentum else pair.diff_q(k)
        want = want.diff_p(k) if momentum else want.diff_q(k)
        assert pair.is_zero() == want.is_zero()
        if not want.is_zero():
            assert _reduced(pair, dim, rate) == want


def test_numerator_pair_envelope_rule_cancels_to_zero_terms():
    # d/dq ((q^2 + 1/r) e^{-r q^2}) = -2 r q^3 e^{-r q^2}: the q terms cancel
    r = Fraction(2, 3)
    f = GaussianObservable(Q * Q + PhasePolynomial.constant(1, 1 / r), r)
    d = _Numerators.of(f).diff_q(0)
    (_, nums), = d.parts.values()
    assert list(nums) == [(0, (3,), (0,))]
    assert _reduced(d, 1, r) == GaussianObservable(Q ** 3 * (-2 * r), r)
    assert _Numerators.of(GaussianObservable(P, r)).diff_p(0).diff_p(0).is_zero()
