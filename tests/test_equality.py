"""Equality and hashing of the exact types, against plain references.

Most library-against-oracle assertions of this suite are an ``==`` on
``Scalar``, ``LaurentSeries``, ``IntegralValue``, ``PhasePolynomial`` or
``GaussianObservable``, so a broken ``==`` would make them pass vacuously.
Each object here is built from a reference, a ``FractionPair`` or a dict
of (re, im) ``Fraction`` pairs, and compared with an object built another
way from a second reference: an independent draw, the same reference, or
the same one perturbed in one coefficient, one imaginary part, one lambda
order, one exponent, the rate or the unit.  The two compare equal exactly
when their references do, and equal objects hash equal.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from starquant import GaussianObservable, IntegralValue, LaurentSeries, PhasePolynomial, Scalar

from conftest import term_keys
from oracles import FractionPair

fractions = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=12))
nonzero = fractions.filter(bool)
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
def poly_refs(draw):
    """(dim, ref, refs): a polynomial's reference and the references to
    compare it with."""
    dim = draw(st.integers(1, 3))
    items = st.lists(st.tuples(term_keys(dim, 2, -1, 1), pairs), max_size=4)
    ref = _ref(draw(items))
    j, shift = draw(st.integers(0, dim - 1)), draw(st.integers(1, 2))

    def raise_exponent(key, i):
        exponents = list(key[i])
        exponents[j] += shift
        return key[:i] + (tuple(exponents),) + key[i + 1:]

    moves = [lambda key: (key[0] + shift, *key[1:]),  # the lambda order
             lambda key: raise_exponent(key, 1), lambda key: raise_exponent(key, 2)]
    fresh = draw(term_keys(dim, 2, -1, 1))
    perturbed = _perturbed(ref, draw(st.integers(0, 3)), fresh, draw(nonzero), moves)
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
