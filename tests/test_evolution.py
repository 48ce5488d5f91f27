from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from starquant import (ActionData, GaussianObservable, IntegralValue,
                       LaurentSeries, PhasePolynomial, Scalar, SchrodingerOperator,
                       conjugate, evolve, evolve_t_polynomial, fiber_flow,
                       gelfand_member0, gelfand_member1, inner0, omega0, omega1,
                       pi0, pi1, star, star_commutator, t_operator_apply)

from conftest import polynomials
from oracles import picard_evolve
from test_star import random_polynomial

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))


def obs(poly, rate=0):
    return GaussianObservable(poly, rate)


S_QUAD = ActionData(Q * Q * Fraction(1, 2))
S_CUBE = ActionData(Q ** 3)
ACTIONS_1D = (S_QUAD, S_CUBE, ActionData(Q ** 4 - Q))

Q1 = PhasePolynomial.coordinate_q(0, 2)
Q2 = PhasePolynomial.coordinate_q(1, 2)
ACTIONS_2D = (ActionData((Q1 * Q1 + Q2 * Q2) * Fraction(1, 2)),
              ActionData(Q1 * Q2),
              ActionData(Q1 ** 3 + Q2 * Q2 * Fraction(1, 2)))


def random_cases(rng, count, degrees=(3, 2)):
    """(f, t, s) in dims 1 and 2, with and without an envelope.

    ``degrees`` caps the exponents of f in dims 1 and 2.
    """
    for _ in range(count):
        dim = rng.choice((1, 2))
        actions = ACTIONS_1D if dim == 1 else ACTIONS_2D
        f = GaussianObservable(random_polynomial(rng, dim, degrees[dim - 1], 0, 1, 2),
                               rng.randrange(2))
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        yield f, t, rng.choice(actions)


def test_action_data_validation():
    with pytest.raises(ValueError):
        ActionData(Q * P)
    with pytest.raises(ValueError):
        ActionData(Q * PhasePolynomial.lam(1))
    with pytest.raises(ValueError):
        ActionData(Q.scale(I))
    assert S_CUBE.gradient[0] == Q * Q * 3


def test_fiber_flow_translates_momenta():
    assert fiber_flow(obs(P), 1, S_QUAD) == obs(P - Q)
    assert fiber_flow(obs(P), -1, S_QUAD) == obs(P + Q)
    assert fiber_flow(obs(Q ** 2), 7, S_CUBE) == obs(Q ** 2)
    # flow composes additively in t
    f = obs(P ** 2 + Q * P)
    assert fiber_flow(fiber_flow(f, Fraction(1, 3), S_CUBE), Fraction(2, 3), S_CUBE) \
        == fiber_flow(f, 1, S_CUBE)


def test_cubic_correction_closed_form():
    result = evolve(obs(P ** 3), 1, S_CUBE)
    expect = (P - Q * Q * 3) ** 3 + PhasePolynomial.lam(1, 2, Fraction(3, 2))
    assert result == obs(expect)
    # general rational t: the fiber part shifts by 3tq^2, the quantum
    # correction is linear in t
    t = Fraction(5, 7)
    result_t = evolve(obs(P ** 3), t, S_CUBE)
    expect_t = (P - Q * Q * (3 * t)) ** 3 + PhasePolynomial.lam(1, 2, Fraction(3, 2) * t)
    assert result_t == obs(expect_t)


def test_quadratic_hamiltonians_evolve_classically():
    rng = random.Random(5150)
    checked = 0
    while checked < 10:
        body = random_polynomial(rng, 1, 2, 0, 1, 3)
        if body.degree_p() > 2:
            continue
        checked += 1
        f = obs(body)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert evolve(f, t, S_CUBE) == fiber_flow(f, t, S_CUBE)


def test_evolution_matches_picard_oracle():
    rng = random.Random(161803)
    for _ in range(12):
        f = obs(random_polynomial(rng, 1, 3, 0, 1, 2))
        s = ACTIONS_1D[rng.randrange(len(ACTIONS_1D))]
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        assert evolve(f, t, s) == picard_evolve(f, t, s)
    # the dim-2 action family and envelopes of rate 1
    for f, t, s in random_cases(random.Random(314159), 16):
        assert evolve(f, t, s) == picard_evolve(f, t, s)


def test_t_polynomial_sums_to_evolve():
    for f, t, s in random_cases(random.Random(577215), 16):
        coeffs = evolve_t_polynomial(f, s)
        total = GaussianObservable.zero(f.dim)
        for m, c in enumerate(coeffs):
            total = total + c.scale(t ** m)
        assert total == evolve(f, t, s)


def test_group_law_and_inverse():
    f = obs(P ** 3 + Q * P)
    for s in (S_QUAD, S_CUBE):
        a = evolve(evolve(f, Fraction(1, 2), s), Fraction(1, 2), s)
        assert a == evolve(f, 1, s)
        assert evolve(evolve(f, 1, s), -1, s) == f


@given(polynomials(dim=1, max_terms=2, max_degree=2),
       polynomials(dim=1, max_terms=2, max_degree=2))
@settings(max_examples=25)
def test_evolution_is_a_star_automorphism(f, g):
    t = Fraction(1, 2)
    lhs = evolve(star(obs(f), obs(g)), t, S_CUBE)
    rhs = star(evolve(obs(f), t, S_CUBE), evolve(obs(g), t, S_CUBE))
    assert lhs == rhs


@given(polynomials(dim=1, max_terms=3, max_degree=2))
@settings(max_examples=25)
def test_evolution_is_real(f):
    t = Fraction(-2, 3)
    assert conjugate(evolve(obs(f), t, S_CUBE)) == evolve(conjugate(obs(f)), t, S_CUBE)


def test_heisenberg_equation_holds_as_t_polynomial():
    # coefficients of A_t f must satisfy (m+1) c_{m+1} = (i/lambda)[S, c_m]
    s_obs = obs(S_CUBE.action)
    for f in (obs(P ** 3), obs(P ** 2 * Q), obs(P ** 4 - Q * P)):
        coeffs = evolve_t_polynomial(f, S_CUBE)
        assert coeffs[0] == f
        for m, c in enumerate(coeffs):
            derivative = coeffs[m + 1].scale(m + 1) if m + 1 < len(coeffs) \
                else GaussianObservable.zero(1)
            bracket = star_commutator(s_obs, c).mul_lambda(-1).scale(I)
            assert derivative == bracket
        # evaluating the polynomial reproduces evolve at rational times
        t = Fraction(3, 2)
        total = GaussianObservable.zero(1)
        for m, c in enumerate(coeffs):
            total = total + c.scale(t ** m)
        assert total == evolve(f, t, S_CUBE)


def test_dressing_operators():
    # the lambda-order-one piece of the dressed flow vanishes identically
    rng = random.Random(42424)
    for _ in range(8):
        f = obs(random_polynomial(rng, 1, 3, 0, 0, 2))
        assert t_operator_apply(f, Fraction(1, 2), 1, S_CUBE).is_zero()
    # order two on p^3 is exactly the cubic correction
    assert t_operator_apply(obs(P ** 3), 1, 2, S_CUBE) == \
        obs(PhasePolynomial.lam(1, 2, Fraction(3, 2)))


def test_dressing_is_the_undressed_flow():
    # T_t f is A_t f pulled back along the fiber flow at -t, sliced by lambda order
    for f, t, s in random_cases(random.Random(141421), 24, degrees=(5, 4)):
        dressed = fiber_flow(evolve(f, t, s), -t, s)
        for r in range(1, 5):
            picked = {key: c for key, c in dressed.body.terms.items() if key[0] == r}
            want = GaussianObservable(PhasePolynomial(f.dim, picked), dressed.rate)
            assert t_operator_apply(f, t, r, s) == want


def test_omega1_examples():
    assert omega1(obs(P, 1), S_QUAD).is_zero()
    assert omega1(obs(P - Q, 1), S_QUAD).is_zero()
    plain = GaussianObservable(PhasePolynomial.one(1), 1)
    assert omega1(plain, S_CUBE) == IntegralValue(
        LaurentSeries.from_scalar(1), 1, 1)


def test_gns_unitarity_transfer():
    rng = random.Random(271828)
    for _ in range(10):
        f = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2), 1)
        g = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2), 1)
        lhs = omega0(star(conjugate(f), g))
        moved = star(conjugate(evolve(f, 1, S_QUAD)), evolve(g, 1, S_QUAD))
        assert lhs == omega1(moved, S_QUAD)


def test_transported_ideal_generators():
    for s in (S_QUAD, S_CUBE):
        for k in range(s.dim):
            generator = obs(PhasePolynomial.coordinate_p(k, s.dim) - s.gradient[k])
            assert gelfand_member1(generator, s)
    assert not gelfand_member1(obs(P), S_QUAD)
    # left multiples stay inside
    rng = random.Random(1123)
    generator = obs(P - S_CUBE.gradient[0])
    for _ in range(10):
        g = obs(random_polynomial(rng, 1, 2, 0, 1, 2))
        assert gelfand_member1(star(g, generator), S_CUBE)


def test_pi1_closed_forms():
    minus_i = Scalar(Fraction(0), Fraction(-1))
    assert pi1(obs(P), S_QUAD) == SchrodingerOperator(
        1, {(1, (1,)): PhasePolynomial.constant(1, minus_i), (0, (0,)): Q})
    assert pi1(obs(Q), S_QUAD) == SchrodingerOperator(1, {(0, (0,)): Q})
    # p^2 + V with V = E - (S')^2 lands on the eigenvalue plus transport tail
    energy = Fraction(1)
    v = PhasePolynomial.constant(1, energy) - Q * Q
    op = pi1(obs(P * P + v), S_QUAD)
    expect = SchrodingerOperator(1, {
        (0, (0,)): PhasePolynomial.constant(1, energy),
        (1, (0,)): PhasePolynomial.constant(1, minus_i),
        (1, (1,)): Q.scale(minus_i * 2),
        (2, (2,)): PhasePolynomial.constant(1, -1),
    })
    assert op == expect
