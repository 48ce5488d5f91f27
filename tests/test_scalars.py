from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starquant import IntegralValue, LaurentSeries, Scalar, i_power, laurent_is_positive

from conftest import real_scalars, scalars
from oracles import FractionPair


def series(terms: dict[int, Scalar | int]) -> LaurentSeries:
    return LaurentSeries({k: Scalar.of(v) for k, v in terms.items()})


def test_scalar_arithmetic_basics():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(Fraction(-2), Fraction(1, 3))
    assert a + b == Scalar(Fraction(-3, 2), Fraction(10, 3))
    # (1/2 + 3i)(-2 + i/3) = -1 + i/6 - 6i - 1 = -2 - 35i/6
    assert a * b == Scalar(Fraction(-2), Fraction(-35, 6))
    assert (a / b) * b == a
    assert a.conjugate() == Scalar(Fraction(1, 2), Fraction(-3))
    assert complex(a) == 0.5 + 3j


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == [
        Scalar.of(1), Scalar(Fraction(0), Fraction(1)),
        Scalar.of(-1), Scalar(Fraction(0), Fraction(-1))]
    assert i_power(-1) == i_power(3)
    assert i_power(6) == Scalar.of(-1)


@given(scalars, scalars, scalars)
def test_scalar_field_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if not b.is_zero():
        assert (a / b) * b == a


wide_fractions = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=60))
fraction_pairs = st.tuples(wide_fractions, wide_fractions)


def _agrees(s: Scalar, ref: FractionPair) -> None:
    assert (s.re, s.im) == (ref.re, ref.im)
    assert s == Scalar(ref.re, ref.im)
    assert str(s) == str(ref)
    assert repr(s) == repr(ref)
    assert complex(s) == complex(ref)
    assert (s.is_zero(), s.is_real(), bool(s)) == (ref.is_zero(), ref.is_real(),
                                                   not ref.is_zero())
    # the hash of the (re, im) dataclass this class replaced
    assert hash(s) == hash((ref.re, ref.im)) == hash(ref)
    # canonical triple: positive denominator, no common factor, zero is (0, 0, 1)
    assert s.den > 0 and gcd(s.re_num, s.im_num, s.den) == 1
    if s.is_zero():
        assert (s.re_num, s.im_num, s.den) == (0, 0, 1)


@given(fraction_pairs, fraction_pairs, st.integers(-6, 6))
def test_scalar_matches_fraction_pair_reference(x, y, k):
    a, b = Scalar(*x), Scalar(*y)
    ra, rb = FractionPair(*x), FractionPair(*y)
    rk = FractionPair(k)
    _agrees(a, ra)
    _agrees(a + b, ra + rb)
    _agrees(a - b, ra - rb)
    _agrees(a * b, ra * rb)
    _agrees(-a, -ra)
    _agrees(a.conjugate(), ra.conjugate())
    # mixed with plain rationals on either side
    _agrees(a + k, ra + rk)
    _agrees(k + a, rk + ra)
    _agrees(a - k, ra - rk)
    _agrees(k - a, rk - ra)
    _agrees(a * k, ra * rk)
    _agrees(a * y[0], ra * FractionPair(y[0]))
    _agrees(k * a, rk * ra)
    if rb.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        _agrees(a / b, ra / rb)


def test_scalar_constructor_forms():
    assert Scalar() == Scalar(0, 0) == Scalar.of(0)
    assert Scalar("1/2", -3) == Scalar(Fraction(1, 2), Fraction(-3))
    assert Scalar(re=Fraction(2, 4), im=Fraction(-6, 8)) == Scalar(Fraction(1, 2),
                                                                    Fraction(-3, 4))
    c = Scalar(Fraction(1, 6), Fraction(1, 4))
    assert (c.re_num, c.im_num, c.den) == (2, 3, 12)
    assert Scalar(1) != 1  # a Scalar compares equal only to a Scalar
    assert repr(Scalar(1)) == "Scalar(re=Fraction(1, 1), im=Fraction(0, 1))"


def test_series_arithmetic():
    s = series({-1: 1, 1: 2})
    t = series({0: 3, 2: -1})
    assert s * t == series({-1: 3, 1: 5, 3: -2})
    assert (s + t) - t == s
    assert s.shift(2) == series({1: 1, 3: 2})
    assert s.truncate(0) == series({-1: 1})
    assert s.min_order() == -1 and s.max_order() == 1


def test_series_inverse_geometric():
    # (1 - lambda)^{-1} = 1 + lambda + lambda^2 + ... exactly per order
    s = series({0: 1, 1: -1})
    assert s.inverse(3) == series({0: 1, 1: 1, 2: 1, 3: 1})
    # principal parts shift the valuation: (lambda^2)^{-1} = lambda^{-2}
    assert series({2: 1}).inverse(0) == series({-2: 1})
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero().inverse(2)


@given(st.lists(st.tuples(st.integers(-2, 3), real_scalars), max_size=4),
       st.integers(0, 4))
def test_series_inverse_is_right_inverse(items, through):
    s = LaurentSeries(dict(items))
    if s.is_zero():
        return
    u = s.inverse(through)
    assert (s * u).truncate(through) == LaurentSeries.one()
    assert u.min_order() == -s.min_order()
    assert u.max_order() <= through - s.min_order()


def test_positivity_uses_lowest_order():
    assert laurent_is_positive(series({-2: 1, 0: -100}))
    assert not laurent_is_positive(series({-2: -1, 0: 100}))
    assert not laurent_is_positive(LaurentSeries.zero())
    with pytest.raises(ValueError):
        laurent_is_positive(LaurentSeries({0: Scalar(Fraction(0), Fraction(1))}))


@given(st.lists(st.tuples(st.integers(-2, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)), max_size=4))
def test_positivity_trichotomy(items):
    s = LaurentSeries({k: Scalar.of(v) for k, v in items})
    flags = [s.is_zero(), laurent_is_positive(s), laurent_is_positive(-s)]
    assert flags.count(True) == 1


def test_integral_value_units():
    a = IntegralValue(series({0: 1}), 2, 1)
    b = IntegralValue(series({1: 1}), 2, 1)
    assert (a + b).coeff == series({0: 1, 1: 1})
    with pytest.raises(ValueError):
        a + IntegralValue(series({0: 1}), 3, 1)
    # zero compares equal regardless of the attached unit
    assert IntegralValue(LaurentSeries.zero(), 2, 1) == IntegralValue(LaurentSeries.zero(), 5, 2)
    assert a != IntegralValue(series({0: 1}), 2, 2)
    assert a.scale(Fraction(1, 2)).coeff == series({0: Scalar.of(Fraction(1, 2))})
    assert a.is_positive()
