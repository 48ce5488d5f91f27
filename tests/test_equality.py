"""Equality and hashing of the exact types, against plain references.

Most library-against-oracle assertions of this suite are an ``==`` on
``Scalar``, ``LaurentSeries``, ``IntegralValue``, ``PhasePolynomial``,
``GaussianObservable``, ``SchrodingerOperator`` or ``PhaseSymbol``, so a
broken ``==`` would make them pass vacuously (``weyl_check`` decides its
mismatches with ``!=`` on operators).  Each object here is built from a
reference, a ``FractionPair`` or a dict of (re, im) ``Fraction`` pairs, and
compared with an object built another way from a second reference: an
independent draw, the same reference, or the same one perturbed in one
coefficient, one imaginary part, one lambda order, one exponent or
derivative multi-index, the rate, the unit, the phase tau or the action.
The two compare equal exactly when their references do, and equal objects
hash equal.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from starquant import (ActionData, GaussianObservable, IntegralValue, LaurentSeries, PhaseSymbol,
                       PhasePolynomial, Scalar, SchrodingerOperator)

from conftest import term_keys
from oracles import FractionPair

TAUS = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2))
fractions = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=12))
# built nonzero, not filtered: a filter that drops the zero branch of
# ``fractions`` made Hypothesis's filter health check fail now and then
nonzero = st.tuples(st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12),
                    st.sampled_from((1, -1))).map(lambda pair: pair[0] * pair[1])
pairs = st.tuples(fractions, fractions)
rates = st.fractions(min_value=0, max_value=3, max_denominator=4)
series_items = st.lists(st.tuples(st.integers(-2, 3), pairs), max_size=4)


def _agree(a, b, ref_a, ref_b) -> None:
    same = ref_a == ref_b
    assert (a == b) is same and (b == a) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)


def _ref(items) -> dict:
    """The reference of (key, (re, im)) items: the values at one key
    added, and the zero ones dropped."""
    out: dict = {}
    for key, (re, im) in items:
        r, i = out.get(key, (0, 0))
        out[key] = (r + re, i + im)
    return {key: value for key, value in out.items() if value != (0, 0)}


def _perturbed(ref: dict, pick: int, fresh, delta: Fraction, moves) -> list[dict]:
    """ref perturbed at one key: the ``pick``-th, or ``fresh`` when ref is
    empty.  Its real part or its imaginary part gains ``delta``, or its
    term moves to ``move(key)`` for each of ``moves``."""
    key = sorted(ref)[pick % len(ref)] if ref else fresh
    out = [_ref([*ref.items(), (key, (delta, 0))]), _ref([*ref.items(), (key, (0, delta))])]
    if key in ref:
        rest = {k: v for k, v in ref.items() if k != key}
        out += [_ref([*rest.items(), (move(key), ref[key])]) for move in moves]
    return out


# -- Scalar ---------------------------------------------------------------

@given(pairs, pairs, nonzero)
def test_scalar_equality_matches_the_reference(x, y, delta):
    ra = FractionPair(*x)
    a = Scalar(ra.re, ra.im)
    for rb in (FractionPair(*y), ra, ra + FractionPair(delta), ra + FractionPair(0, delta)):
        # by arithmetic, which reduces an unreduced triple, not by the constructor
        b = Scalar(rb.re) + Scalar(0, rb.im)
        _agree(a, b, (ra.re, ra.im), (rb.re, rb.im))


# -- LaurentSeries and IntegralValue -------------------------------------

def _series(ref: dict) -> LaurentSeries:
    return LaurentSeries({k: Scalar(re, im) for k, (re, im) in ref.items()})


def _series_by_sum(ref: dict) -> LaurentSeries:
    """The series of ref as a sum of its terms, highest order first."""
    out = LaurentSeries.zero()
    for k, (re, im) in sorted(ref.items(), reverse=True):
        out = out + LaurentSeries.from_scalar(Scalar(re, im), k)
    return out


def _series_refs(ref: dict, other: list, pick: int, delta: Fraction, shift: int) -> list[dict]:
    return [_ref(other), ref, *_perturbed(ref, pick, 0, delta, [lambda k: k + shift])]


@given(series_items, series_items, st.integers(0, 3), nonzero, st.integers(1, 3))
def test_series_equality_matches_the_reference(items, other, pick, delta, shift):
    ref = _ref(items)
    s = _series(ref)
    for ref_b in _series_refs(ref, other, pick, delta, shift):
        _agree(s, _series_by_sum(ref_b), ref, ref_b)


@given(series_items, series_items, st.integers(0, 3), nonzero, st.integers(1, 3),
       rates.filter(bool), st.integers(0, 3))
def test_integral_value_equality_matches_the_reference(items, other, pick, delta, shift,
                                                       unit_rate, unit_dim):
    ref = _ref(items)
    unit = (unit_rate, unit_dim)
    refs = [(ref_b, unit) for ref_b in _series_refs(ref, other, pick, delta, shift)]
    refs += [(ref, (unit_rate + abs(delta), unit_dim)), (ref, (unit_rate, unit_dim + 1))]
    a = IntegralValue(_series(ref), *unit)
    for ref_b, unit_b in refs:
        # a zero value is equal to every zero value, whatever its unit
        _agree(a, IntegralValue(_series_by_sum(ref_b), *unit_b),
               (ref, unit) if ref else None, (ref_b, unit_b) if ref_b else None)


# -- PhasePolynomial and GaussianObservable --------------------------------

def _poly(dim: int, ref: dict) -> PhasePolynomial:
    return PhasePolynomial(dim, {key: Scalar(re, im) for key, (re, im) in ref.items()})


def _poly_by_sum(dim: int, ref: dict) -> PhasePolynomial:
    """The polynomial of ref as a sum of its monomials, last key first."""
    out = PhasePolynomial.zero(dim)
    for (k, alpha, beta), (re, im) in sorted(ref.items(), reverse=True):
        out = out + PhasePolynomial.monomial(dim, k, alpha, beta, Scalar(re, im))
    return out


@st.composite
def poly_refs(draw, phases: bool = False):
    """(dim, ref, refs): a polynomial's reference and the references to
    compare it with.  With ``phases`` each key (k, alpha, beta) leads with
    a phase tau, and a term also moves to another phase."""
    dim = draw(st.integers(1, 3))
    keys = term_keys(dim, 2, -1, 1)
    if phases:
        keys = st.tuples(st.sampled_from(TAUS), keys).map(lambda key: (key[0], *key[1]))
    items = st.lists(st.tuples(keys, pairs), max_size=4)
    ref = _ref(draw(items))
    j, shift, lead = draw(st.integers(0, dim - 1)), draw(st.integers(1, 2)), int(phases)

    def raise_exponent(key, i):
        exponents = list(key[lead + i])
        exponents[j] += shift
        return key[:lead + i] + (tuple(exponents),) + key[lead + i + 1:]

    moves = [lambda key: key[:lead] + (key[lead] + shift, *key[lead + 1:]),  # the lambda order
             lambda key: raise_exponent(key, 1), lambda key: raise_exponent(key, 2)]
    if phases:
        moves.append(lambda key: (key[0] + Fraction(1, 3), *key[1:]))
    perturbed = _perturbed(ref, draw(st.integers(0, 3)), draw(keys), draw(nonzero), moves)
    return dim, ref, [_ref(draw(items)), ref, *perturbed]


@given(poly_refs())
def test_polynomial_equality_matches_the_reference(case):
    dim, ref, refs = case
    f = _poly(dim, ref)
    for ref_b in refs:
        _agree(f, _poly_by_sum(dim, ref_b), (dim, ref), (dim, ref_b))
    # no zero polynomial of another dimension is equal
    _agree(PhasePolynomial.zero(dim), PhasePolynomial.zero(dim + 1), dim, dim + 1)


@given(poly_refs(), rates, rates, nonzero)
def test_observable_equality_matches_the_reference(case, rate, other_rate, delta):
    dim, ref, refs = case
    others = [(ref_b, rate) for ref_b in refs]
    others += [(ref, other_rate), (ref, rate + abs(delta))]
    f = GaussianObservable(_poly(dim, ref), rate)
    for ref_b, rate_b in others:
        # a zero body carries no envelope
        _agree(f, GaussianObservable(_poly_by_sum(dim, ref_b), rate_b),
               (ref, rate if ref else 0), (ref_b, rate_b if ref_b else 0))


# -- SchrodingerOperator ---------------------------------------------------

def _operator(dim: int, ref: dict, rate: Fraction) -> SchrodingerOperator:
    """The operator of ref, keyed (k, alpha, gamma), from its grouped form."""
    groups: dict = {}
    for (k, alpha, gamma), (re, im) in ref.items():
        groups.setdefault((k, gamma), {})[(0, alpha, (0,) * dim)] = (re, im)
    return SchrodingerOperator(dim, {key: _poly(dim, part) for key, part in groups.items()}, rate)


def _operator_by_sum(dim: int, ref: dict, rate: Fraction) -> SchrodingerOperator:
    """The operator of ref as a sum of one-term operators, last key first."""
    out = SchrodingerOperator.zero(dim)
    for (k, alpha, gamma), (re, im) in sorted(ref.items(), reverse=True):
        coeff = PhasePolynomial.monomial(dim, 0, alpha, (0,) * dim, Scalar(re, im))
        out = out + SchrodingerOperator(dim, {(k, gamma): coeff}, rate)
    return out


@given(poly_refs(), rates, rates, nonzero)
def test_operator_equality_matches_the_reference(case, rate, other_rate, delta):
    # the third slot of a key is the derivative multi-index gamma
    dim, ref, refs = case
    others = [(ref_b, rate) for ref_b in refs]
    others += [(ref, other_rate), (ref, rate + abs(delta))]
    a = _operator(dim, ref, rate)
    for ref_b, rate_b in others:
        # a zero operator carries no envelope
        _agree(a, _operator_by_sum(dim, ref_b, rate_b),
               (ref, rate if ref else 0), (ref_b, rate_b if ref_b else 0))
    _agree(SchrodingerOperator.zero(dim), SchrodingerOperator.zero(dim + 1), dim, dim + 1)


# -- PhaseSymbol -----------------------------------------------------------

def _symbol(dim: int, action: dict, ref: dict) -> PhaseSymbol:
    """The symbol of ref, keyed (tau, k, alpha, beta), from its amplitudes."""
    groups: dict = {}
    for (tau, *key), value in ref.items():
        groups.setdefault(tau, {})[tuple(key)] = value
    return PhaseSymbol(ActionData(_poly(dim, action)),
                       {tau: _poly(dim, part) for tau, part in groups.items()})


def _symbol_by_sum(dim: int, action: dict, ref: dict) -> PhaseSymbol:
    """The symbol of ref as a sum of one-term symbols, over the action built
    as a sum too."""
    s = ActionData(_poly_by_sum(dim, action))
    out = PhaseSymbol(s)
    for (tau, k, alpha, beta), (re, im) in sorted(ref.items(), reverse=True):
        out = out + PhaseSymbol(s, {tau: PhasePolynomial.monomial(dim, k, alpha, beta,
                                                                  Scalar(re, im))})
    return out


@given(poly_refs(phases=True), st.data())
def test_phase_symbol_equality_matches_the_reference(case, data):
    dim, ref, refs = case
    # a real action in q alone: (0, alpha, 0) keys of real values
    zero = (0,) * dim
    action_items = st.lists(st.tuples(
        st.tuples(st.just(0), st.tuples(*[st.integers(0, 3)] * dim), st.just(zero)),
        st.tuples(fractions, st.just(Fraction(0)))), max_size=3)
    action = _ref(data.draw(action_items))
    moved = _perturbed(action, data.draw(st.integers(0, 3)), (0, (1,) * dim, zero),
                       data.draw(nonzero), [])[0]
    others = [(action, ref_b) for ref_b in refs]
    others += [(_ref(data.draw(action_items)), ref), (moved, ref)]
    a = _symbol(dim, action, ref)
    for action_b, ref_b in others:
        _agree(a, _symbol_by_sum(dim, action_b, ref_b), (action, ref), (action_b, ref_b))
