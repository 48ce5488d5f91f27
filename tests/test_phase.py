from __future__ import annotations

import importlib
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import (ActionData, DimensionMismatch, GaussianObservable, PhasePolynomial,
                       PhaseMismatch, PhaseSymbol, Scalar, conjugate_by_phase,
                       evolve, omega0, phase_star, s_map, star)

from starquant.observables import _Numerators

from conftest import base_polynomials, polynomials, real_scalars
from oracles import picard_evolve, reference_phase_star, reference_poly_mul, reference_star
from test_star import random_polynomial

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))
kernel = importlib.import_module("starquant.star")

S_QUAD = ActionData(Q * Q * Fraction(1, 2))
S_CUBE = ActionData(Q ** 3)


def test_phase_construction_and_tau_bookkeeping():
    sym = PhaseSymbol(S_QUAD, {Fraction(1): Q, Fraction(1): P})
    assert sym.terms == {Fraction(1): P}
    both = PhaseSymbol(S_QUAD, {Fraction(0): Q}) + PhaseSymbol(S_QUAD, {Fraction(1): P})
    assert both.sorted_terms() == [(Fraction(0), Q), (Fraction(1), P)]
    # cancelling amplitudes drop the tau slot entirely
    gone = both + PhaseSymbol(S_QUAD, {Fraction(1): P.scale(-1)})
    assert gone.terms == {Fraction(0): Q}
    assert PhaseSymbol(S_QUAD).is_zero()


def test_phase_constructor_checks_the_amplitude_dimension():
    with pytest.raises(DimensionMismatch):
        PhaseSymbol(S_QUAD, {Fraction(1): PhasePolynomial.one(2)})
    with pytest.raises(DimensionMismatch):
        PhaseSymbol(S_QUAD, {Fraction(1): Q, 0: PhasePolynomial.zero(2)})
    # the lift of a polynomial checks its dimension before the trusted build
    for h in (PhasePolynomial.one(2), PhasePolynomial.zero(2)):
        with pytest.raises(DimensionMismatch):
            PhaseSymbol.from_polynomial(S_QUAD, h)
        with pytest.raises(DimensionMismatch):
            conjugate_by_phase(h, S_QUAD, 1)
    assert PhaseSymbol.from_polynomial(S_QUAD, PhasePolynomial.zero(1)).is_zero()


def test_pointwise_mul_adds_phases():
    a = PhaseSymbol.pure_phase(S_QUAD, Fraction(1, 2))
    b = PhaseSymbol.pure_phase(S_QUAD, Fraction(1, 3))
    assert a.pointwise_mul(b) == PhaseSymbol.pure_phase(S_QUAD, Fraction(5, 6))
    # phase 1 is reached as 1/2 + 1/2 and as 1 + 0: one amplitude, summed
    one = PhasePolynomial.one(1)
    c = PhaseSymbol(S_QUAD, {Fraction(1, 2): one, Fraction(1): one})
    d = PhaseSymbol(S_QUAD, {Fraction(1, 2): one, Fraction(0): one})
    assert c.pointwise_mul(d) == PhaseSymbol(
        S_QUAD, {Fraction(1, 2): one, Fraction(1): one.scale(2), Fraction(3, 2): one})


def test_phase_derivative_rule():
    # d/dq e^{i tau S/lambda} = i tau S' lambda^{-1} e^{i tau S/lambda}
    tau = Fraction(3, 2)
    sym = PhaseSymbol.pure_phase(S_CUBE, tau)
    expect = PhaseSymbol(
        S_CUBE, {tau: S_CUBE.gradient[0].scale(I * tau).mul_lambda(-1)})
    assert sym.diff_q(0) == expect
    assert sym.diff_p(0).is_zero()


def test_bare_phases_compose_under_star():
    # no momentum dependence, so the star product of two phases is pointwise
    a = phase_star(PhaseSymbol.pure_phase(S_CUBE, 1),
                   PhaseSymbol.pure_phase(S_CUBE, 2))
    assert a == PhaseSymbol.pure_phase(S_CUBE, 3)
    unit = phase_star(PhaseSymbol.pure_phase(S_CUBE, 1),
                      PhaseSymbol.pure_phase(S_CUBE, -1))
    assert unit == PhaseSymbol.from_polynomial(S_CUBE, PhasePolynomial.one(1))


@st.composite
def polynomial_pairs(draw):
    dim = draw(st.integers(1, 2))
    # dim 2 gets lower degrees so the reference expansion stays quick
    draw_poly = polynomials(dim, max_terms=3, max_degree=4 - dim, min_lambda=-1,
                            max_lambda=1)
    return draw(draw_poly), draw(draw_poly)


@given(polynomial_pairs())
@settings(max_examples=60)
def test_phase_star_at_tau_zero_matches_reference_star(pair):
    # with no phase, phase_star is the Weyl star product; the reference is
    # the generic multinomial expansion of the test oracles
    f, g = pair
    q = PhasePolynomial.coordinate_q(0, f.dim)
    s = ActionData(q * q * q)
    want = PhaseSymbol.from_polynomial(s, reference_star(f, g).body)
    assert phase_star(PhaseSymbol.from_polynomial(s, f), g) == want
    assert phase_star(f, PhaseSymbol.from_polynomial(s, g)) == want


def test_momentum_against_phase():
    # p * e^{i tau S/lambda} = (p + tau S'/2) e^{...}, and the reverse
    # order flips the sign of the shift
    for s, tau in ((S_QUAD, Fraction(1)), (S_CUBE, Fraction(-2, 3))):
        phase = PhaseSymbol.pure_phase(s, tau)
        shift = s.gradient[0].scale(Fraction(tau, 2))
        assert phase_star(P, phase) == PhaseSymbol(s, {tau: P + shift})
        assert phase_star(phase, P) == PhaseSymbol(s, {tau: P - shift})


def test_phase_star_requires_an_action():
    with pytest.raises(PhaseMismatch):
        phase_star(P, Q)
    with pytest.raises(PhaseMismatch):
        phase_star(PhaseSymbol.pure_phase(S_QUAD, 1),
                   PhaseSymbol.pure_phase(S_CUBE, 1))
    with pytest.raises(ValueError):
        phase_star(GaussianObservable(P, 1), PhaseSymbol.pure_phase(S_QUAD, 1))


def test_conjugation_matches_evolution_on_the_stated_grid():
    hams = [P, P * P, P ** 3]
    for s in (S_QUAD, S_CUBE):
        for h in hams:
            for t in (1, -1):
                direct = conjugate_by_phase(h, s, t)
                flowed = evolve(GaussianObservable(h), t, s)
                assert direct == flowed.body, (h, s.action, t)


def test_conjugation_matches_evolution_at_rational_times():
    rng = random.Random(987654)
    for _ in range(10):
        h = random_polynomial(rng, 1, 3, 0, 1, 3)
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
        s = S_CUBE if rng.random() < 0.5 else S_QUAD
        assert conjugate_by_phase(h, s, t) == evolve(GaussianObservable(h), t, s).body


def test_conjugation_two_dimensional():
    q1 = PhasePolynomial.coordinate_q(0, 2)
    q2 = PhasePolynomial.coordinate_q(1, 2)
    p1 = PhasePolynomial.coordinate_p(0, 2)
    p2 = PhasePolynomial.coordinate_p(1, 2)
    s = ActionData(q1 * q1 * q2)
    h = p1 * p2 + q2 * p1
    direct = conjugate_by_phase(h, s, Fraction(1, 2))
    flowed = evolve(GaussianObservable(h), Fraction(1, 2), s)
    assert direct == flowed.body


@given(polynomials(dim=1, max_terms=3, max_degree=3))
@settings(max_examples=30)
def test_conjugation_matches_evolution_property(h):
    assert conjugate_by_phase(h, S_CUBE, 1) == evolve(GaussianObservable(h), 1, S_CUBE).body


def test_conjugation_group_property():
    h = P ** 3 + Q * P
    once = conjugate_by_phase(h, S_CUBE, Fraction(1, 3))
    twice = conjugate_by_phase(once, S_CUBE, Fraction(2, 3))
    assert twice == conjugate_by_phase(h, S_CUBE, 1)
    assert conjugate_by_phase(once, S_CUBE, Fraction(-1, 3)) == h


def test_conjugation_rejects_envelopes():
    with pytest.raises(ValueError):
        conjugate_by_phase(GaussianObservable(P, 2), S_QUAD, 1)


def test_phase_star_termination_bound():
    # expansion stops once momentum derivatives are exhausted; symbols of
    # p-degree a and b never produce lambda orders past a + b
    rng = random.Random(31415)
    for _ in range(6):
        f = PhaseSymbol(S_CUBE, {Fraction(1): random_polynomial(rng, 1, 2, 0, 0, 2)})
        g = PhaseSymbol(S_CUBE, {Fraction(-1): random_polynomial(rng, 1, 2, 0, 0, 2)})
        prod = phase_star(f, g)
        for _tau, amp in prod.sorted_terms():
            assert amp.min_lambda_order() >= -(f.degree_p() + g.degree_p())


# -- the one-denominator phase star against the running sum it replaced --

PHASES = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)])


@st.composite
def phase_pairs(draw):
    dim = draw(st.integers(1, 3))
    action = draw(base_polynomials(dim, max_terms=2, max_degree=3, coeffs=real_scalars))
    s = ActionData(action)
    amps = polynomials(dim, max_terms=2, max_degree=3 - dim // 2, min_lambda=-1,
                       max_lambda=1)
    return (PhaseSymbol(s, draw(st.dictionaries(PHASES, amps, max_size=2))),
            PhaseSymbol(s, draw(st.dictionaries(PHASES, amps, max_size=2))))


@given(phase_pairs(), PHASES)
@settings(max_examples=40)
def test_phase_star_matches_the_running_sum(pair, t):
    f, g = pair
    assert phase_star(f, g) == reference_phase_star(f, g)
    # dressing with e^{i t S/lambda} and its inverse: every phase other
    # than the ones f already carries cancels to zero
    left, right = PhaseSymbol.pure_phase(f.s, t), PhaseSymbol.pure_phase(f.s, -t)
    dressed = phase_star(left, f)
    assert dressed == reference_phase_star(left, f)
    assert phase_star(dressed, right) == reference_phase_star(dressed, right)


@given(phase_pairs())
@settings(max_examples=40)
def test_pointwise_mul_matches_the_per_phase_products(pair):
    f, g = pair
    want: dict = {}
    for t1, a1 in f.terms.items():
        for t2, a2 in g.terms.items():
            amp = reference_poly_mul(a1, a2)
            want[t1 + t2] = want[t1 + t2] + amp if t1 + t2 in want else amp
    assert f.pointwise_mul(g) == PhaseSymbol(f.s, want)
    # (f + g)(f - g) = f^2 - g^2: the cross products cancel phase by phase
    assert (f + g).pointwise_mul(f + g.scale(-1)) == (f.pointwise_mul(f)
                                                       + g.pointwise_mul(g).scale(-1))


def _assert_trusted(r: PhaseSymbol) -> None:
    """r equals its rebuild by the public constructor, and its terms meet
    the trusted constructor's precondition."""
    assert PhaseSymbol(r.s, r.terms) == r
    for tau, amp in r.terms.items():
        assert type(tau) is Fraction and not amp.is_zero() and amp.dim == r.dim


@given(phase_pairs(), PHASES)
@settings(max_examples=40)
def test_phase_results_equal_their_checked_rebuild(pair, t):
    f, g = pair
    s, one = f.s, PhasePolynomial.one(f.dim)
    left, right = PhaseSymbol.pure_phase(s, t), PhaseSymbol.pure_phase(s, -t)
    # (e^{iS/2} + e^{-iS/2}) (e^{iS/2} - e^{-iS/2}): the tau = 0 products cancel
    plus = PhaseSymbol(s, {Fraction(1, 2): one, Fraction(-1, 2): one})
    minus = PhaseSymbol(s, {Fraction(1, 2): one, Fraction(-1, 2): one.scale(-1)})
    # the tau = 0 amplitude 1 differentiates to zero
    bare = PhaseSymbol(s, {0: one, t: one})
    results = [phase_star(f, g), phase_star(phase_star(left, f), right),
               phase_star(plus, minus), plus.pointwise_mul(minus), f.pointwise_mul(g),
               f.scale(0), f.scale(I), f.mul_lambda(-1)]
    for k in range(f.dim):
        results += [f.diff_q(k), f.diff_p(k), bare.diff_q(k), bare.diff_p(k)]
    assert phase_star(plus, minus).terms.keys() == {1, -1}
    for r in results:
        _assert_trusted(r)


def test_phase_route_and_evolution_never_call_the_star_kernel(monkeypatch):
    # conjugate_by_phase and evolve cross-check each other and the kernel,
    # so neither may reach the kernel's tables or its sum
    q1, q2 = (PhasePolynomial.coordinate_q(j, 2) for j in range(2))
    p1, p2 = (PhasePolynomial.coordinate_p(j, 2) for j in range(2))
    cases = [(P ** 4 + Q * P ** 2, S_CUBE, Fraction(2, 3)),
             (P ** 3 * Q, S_QUAD, Fraction(-1, 2)),
             (p1 ** 3 * p2 + q2 * p1, ActionData(q1 * q1 * q2 + q2 ** 3), Fraction(1, 3))]
    want = [picard_evolve(GaussianObservable(h), t, s).body for h, s, t in cases]

    def no_kernel(*args, **kwargs):
        raise AssertionError("the star kernel was called")

    for name in ("_star_table", "_s_table", "_sum"):
        monkeypatch.setattr(kernel, name, no_kernel)
    for (h, s, t), expect in zip(cases, want):
        assert conjugate_by_phase(h, s, t) == expect
        assert evolve(GaussianObservable(h), t, s).body == expect


# -- the phase form of the Leibniz numerator pairs ------------------------

def _symbol(pair: _Numerators, s: ActionData) -> PhaseSymbol:
    return PhaseSymbol(s, {Fraction(*tau): PhasePolynomial._from_numerators(s.dim, nums, den)
                           for tau, (den, nums) in pair.parts.items()})


def _phase_form(f: PhaseSymbol) -> _Numerators:
    return _Numerators(f._numerators(), grads=[g._numerators() for g in f.s.gradient])


@given(phase_pairs(), st.data())
@settings(max_examples=40)
def test_numerator_pair_phase_derivatives_match_the_symbol_ones(pair, data):
    f, _ = pair
    steps = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, f.dim - 1)),
                               max_size=5))
    nums, want = _phase_form(f), f
    for momentum, k in steps:
        nums = nums.diff_p(k) if momentum else nums.diff_q(k)
        want = want.diff_p(k) if momentum else want.diff_q(k)
        assert nums.is_zero() == want.is_zero()
        assert _symbol(nums, f.s) == want


def test_numerator_pair_phase_rule_cancels_to_zero_terms():
    # amp = lambda q^2 + 2i lambda^2 under e^{i S/lambda}, S = q^2/2:
    # d/dq amp + i lambda^-1 q amp = 2 lambda q + i q^3 - 2 lambda q
    lam = PhasePolynomial.lam(1)
    f = PhaseSymbol(S_QUAD, {Fraction(1): lam * Q * Q + PhasePolynomial.lam(1, 2, 2 * I)})
    d = _phase_form(f).diff_q(0)
    (_, nums), = d.parts.values()
    assert list(nums) == [(0, (3,), (0,))]
    assert _symbol(d, S_QUAD) == PhaseSymbol(S_QUAD, {Fraction(1): (Q ** 3).scale(I)})
    assert _symbol(d, S_QUAD) == f.diff_q(0)


# -- bookkeeping per call -------------------------------------------------

@contextmanager
def fraction_calls():
    """{name: calls} of Fraction.__new__, __hash__ and __add__ inside the block."""
    counts = dict.fromkeys(("__new__", "__hash__", "__add__"), 0)
    saved = {name: Fraction.__dict__[name] for name in counts}

    def counting(name):
        inner = getattr(Fraction, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return call

    for name in counts:
        setattr(Fraction, name, counting(name))
    try:
        yield counts
    finally:
        for name, method in saved.items():
            setattr(Fraction, name, method)


def test_fraction_work_per_call_does_not_grow_with_the_input():
    # phases are int pairs inside the phase star and only its result's keys
    # are Fractions, so a warm call does the same Fraction work at any size;
    # phases kept as Fractions added two and hashed more per Leibniz node
    s, t = ActionData(Q ** 3 + Q * Q * Fraction(1, 2)), Fraction(2, 3)
    left = PhaseSymbol.pure_phase(s, t)
    calls = {"conjugate_by_phase": lambda h, base: conjugate_by_phase(h, s, t),
             "phase_star": lambda h, base: phase_star(left, h),
             "star": lambda h, base: star(GaussianObservable(h, Fraction(1, 2)),
                                          GaussianObservable(base, Fraction(1, 3))),
             "s_map": lambda h, base: s_map(GaussianObservable(h, 1)),
             "omega0": lambda h, base: omega0(GaussianObservable(h + base, 1))}
    for name, call in calls.items():
        counts = []
        for n in (1, 4, 8):
            # h = sum_j q^j p^(n-j) and base = sum_j q^j, j <= n
            h, base = (sum((Q ** j * P ** (k * (n - j)) for j in range(n + 1)),
                           PhasePolynomial.zero(1)) for k in (1, 0))
            call(h, base)
            with fraction_calls() as count:
                call(h, base)
            counts.append(count)
        assert counts[0] == counts[1] == counts[2], (name, counts)
