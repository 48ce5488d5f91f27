from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import (ActionData, GaussianObservable, GridFunction1D,
                       IntegralValue, LaurentSeries, PhasePolynomial, Scalar,
                       SchrodingerOperator, eigenproblem_hierarchy, pi0, star)
from starquant.render import (_SLICE, _floats, dumps, frac_str, grid_json, json_chunks,
                              observable_json, operator_json, pretty_observable,
                              pretty_operator, pretty_polynomial, pretty_series,
                              pretty_value, value_json)

from conftest import polynomials, refused, scalars

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))


def test_frac_str_always_carries_a_denominator():
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(Fraction(-3, 4)) == "-3/4"
    assert frac_str(Fraction(6, 4)) == "3/2"


def test_integers_past_the_digit_limit_are_refused_by_length():
    limit = sys.get_int_max_str_digits()
    widest = 10 ** limit - 1  # limit digits: printed
    assert frac_str(Fraction(-widest, 7)) == f"-{widest}/7"
    assert pretty_polynomial(Q.scale(Fraction(1, widest))) == f"1/{widest}*q"
    for huge, digits in ((Fraction(10 ** limit), limit + 1), (Fraction(1, -10 ** limit), limit + 1),
                         (Fraction(3, 10 ** (2 * limit)), 2 * limit + 1)):
        with refused("printing an integer", digits, limit, "digits"):
            frac_str(huge)
    with refused("printing an integer", limit + 1, limit, "digits"):
        pretty_polynomial(Q.scale(Scalar(Fraction(0), Fraction(10 ** limit))))
    assert sys.get_int_max_str_digits() == limit


def test_pretty_polynomial_frozen_forms():
    assert pretty_polynomial(PhasePolynomial.zero(1)) == "0"
    assert pretty_polynomial(PhasePolynomial.one(1)) == "1"
    assert pretty_polynomial(Q * P - PhasePolynomial.one(1)) == "-1 + q*p"
    assert pretty_polynomial(Q.scale(Fraction(-1, 2))) == "-1/2*q"
    assert pretty_polynomial(PhasePolynomial.lam(1, 1, I)) == "i*lambda"
    assert pretty_polynomial(PhasePolynomial.lam(1, -2, Scalar(Fraction(0), Fraction(3, 4)))) \
        == "3*i/4*lambda^-2"
    mixed = PhasePolynomial.constant(1, Scalar(Fraction(1, 2), Fraction(1)))
    assert pretty_polynomial(mixed * Q) == "(1/2 + i)*q"
    two_d = PhasePolynomial.coordinate_q(0, 2) * PhasePolynomial.coordinate_p(1, 2) ** 2
    assert pretty_polynomial(two_d) == "q1*p2^2"
    # canonical order puts lambda terms after the matching base terms
    witness = star(GaussianObservable(Q), GaussianObservable(P)).body
    assert pretty_polynomial(witness) == "q*p + i/2*lambda"


def test_pretty_observable_shows_envelope():
    assert pretty_observable(GaussianObservable(Q)) == "q"
    assert pretty_observable(GaussianObservable(Q, Fraction(3, 2))) \
        == "(q) * exp(-3/2*|q|^2)"


def test_pretty_operator_frozen_forms():
    minus_i = Scalar(Fraction(0), Fraction(-1))
    d1 = SchrodingerOperator(1, {
        (0, (0,)): PhasePolynomial.constant(1, minus_i),
        (0, (1,)): Q.scale(minus_i * 2),
    })
    assert pretty_operator(d1) == "-i - 2*i*q*d"
    assert pretty_operator(SchrodingerOperator.zero(1)) == "0"
    assert pretty_operator(SchrodingerOperator.identity(2)) == "1"
    multi = SchrodingerOperator(2, {(1, (1, 2)): PhasePolynomial.coordinate_q(0, 2)})
    assert pretty_operator(multi) == "lambda*q1*d1*d2^2"
    summed = SchrodingerOperator(1, {(0, (1,)): Q + PhasePolynomial.one(1)})
    assert pretty_operator(summed) == "(1 + q)*d"
    enveloped = pi0(GaussianObservable(P, 1))
    assert "* exp(-1*|q|^2)" in pretty_operator(enveloped)


def test_pretty_series_and_value():
    s = LaurentSeries({-1: Scalar.of(1), 1: Scalar(Fraction(0), Fraction(-1, 2))})
    assert pretty_series(s) == "lambda^-1 - i/2*lambda"
    v = IntegralValue(s, 2, 1)
    assert pretty_value(v) == "(lambda^-1 - i/2*lambda) * (pi/2)^(1/2)"
    assert pretty_value(IntegralValue(LaurentSeries.zero(), 2, 1)) == "0"
    scalar_only = IntegralValue(LaurentSeries.from_scalar(3), 1, 0)
    assert pretty_value(scalar_only) == "3"


@given(poly=polynomials(dim=2, min_lambda=-2, max_lambda=2),
       rate=st.sampled_from([0, Fraction(1, 2), 3]),
       items=st.lists(st.tuples(st.integers(-3, 3), scalars), max_size=4),
       unit_rate=st.sampled_from([Fraction(1, 2), 1, 3]), unit_dim=st.integers(0, 3))
def test_str_is_the_pretty_form(poly, rate, items, unit_rate, unit_dim):
    obs = GaussianObservable(poly, rate)
    assert str(obs) == pretty_observable(obs)
    series = LaurentSeries(dict(items))
    assert str(series) == pretty_series(series)
    value = IntegralValue(series, unit_rate, unit_dim)
    assert str(value) == pretty_value(value)


def test_pretty_value_parenthesizes_a_fractional_rate():
    s = LaurentSeries.from_scalar(1)
    assert pretty_value(IntegralValue(s, Fraction(1, 2), 1)) == "(1) * (pi/(1/2))^(1/2)"
    assert pretty_value(IntegralValue(s, 3, 2)) == "(1) * (pi/3)^(2/2)"


def test_pretty_value_parenthesizes_a_mixed_coefficient_once():
    mixed = LaurentSeries.from_scalar(Scalar(Fraction(1), Fraction(1)))
    assert pretty_value(IntegralValue(mixed, Fraction(1, 2), 1)) == "(1 + i) * (pi/(1/2))^(1/2)"
    half = LaurentSeries.from_scalar(Scalar(Fraction(1, 2), Fraction(1, 2)))
    assert pretty_value(IntegralValue(half, 1, 1)) == "(1/2 + i/2) * (pi/1)^(1/2)"
    lam = LaurentSeries({1: Scalar(Fraction(1), Fraction(1))})
    assert pretty_value(IntegralValue(lam, 1, 1)) == "((1 + i)*lambda) * (pi/1)^(1/2)"
    two = LaurentSeries({0: Scalar(Fraction(1), Fraction(1)), 1: Scalar.of(1)})
    assert pretty_value(IntegralValue(two, 1, 1)) == "((1 + i) + lambda) * (pi/1)^(1/2)"


def test_observable_json_schema():
    obs = GaussianObservable(Q * P + PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1, 2))))
    assert observable_json(obs) == {
        "dim": 1,
        "envelope": "0/1",
        "terms": [
            {"l": 0, "q": [1], "p": [1], "re": "1/1", "im": "0/1"},
            {"l": 1, "q": [0], "p": [0], "re": "0/1", "im": "1/2"},
        ],
    }


def test_value_and_operator_json_schema():
    v = IntegralValue(LaurentSeries({2: Scalar.of(Fraction(1, 4))}), 2, 1)
    assert value_json(v) == {
        "unit": {"c": "2/1", "n": 1},
        "series": {"2": {"re": "1/4", "im": "0/1"}},
    }
    op = SchrodingerOperator(1, {(1, (1,)): PhasePolynomial.constant(1, Scalar(Fraction(0), Fraction(-1)))})
    assert operator_json(op) == {
        "dim": 1,
        "rate": "0/1",
        "terms": [
            {"l": 1, "d": [1],
             "coeff": [{"l": 0, "q": [0], "p": [0], "re": "0/1", "im": "-1/1"}]},
        ],
    }


def test_dumps_is_single_line_with_trailing_newline():
    text = dumps({"b": 1, "a": [1, 2]})
    assert text == '{"b": 1, "a": [1, 2]}\n'


def test_hierarchy_operators_render_like_the_transport_equation():
    s = ActionData(Q * Q * Fraction(1, 2))
    ham = P * P + PhasePolynomial.one(1) - Q * Q
    hier = eigenproblem_hierarchy(ham, s, 1, 3)
    assert pretty_operator(hier.order(1)) == "-i - 2*i*q*d"
    assert pretty_operator(hier.order(2)) == "-d^2"


def test_grid_json_bytes_match_per_sample_floats():
    re = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1e300, 1 / 3])
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, re[::-1]
    grid = GridFunction1D(0.0, 1.0, len(re), 0, values)
    assert np.signbit(grid.values.real[0]) and np.signbit(grid.values.imag[-1])
    old = {"a": 0.0, "b": 1.0, "n": len(re), "pad": 0,
           "re": [float(v) for v in grid.values.real],
           "im": [float(v) for v in grid.values.imag]}
    assert dumps(grid_json(grid)) == json.dumps(old) + "\n"


# The last eight sit where orjson's text differs from float.__repr__'s:
# fixed notation below 1e-4 and exponents without sign or padding.
EDGE_FLOATS = (-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308,
               1e-05, -1.5e-05, 9.999999999999999e-05, 1e-04, 1e-06,
               9999999999999998.0, 1e+16, 1e+100)


@pytest.mark.parametrize("length", [1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 7])
@settings(max_examples=20)
@given(pool=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_json_is_the_list_encoding_byte_for_byte(length, pool, seed):
    """Float grids, written a slice at a time, give the bytes of json.dumps on
    the float lists, and no chunk holds more than one slice of values."""
    rng = np.random.default_rng(seed)
    values = np.empty(length, dtype=complex)
    values.real = np.array(pool)[rng.integers(len(pool), size=length)]
    values.imag = np.array(pool)[rng.integers(len(pool), size=length)]
    real = values.real.copy()

    def grid(re, im):
        return {"a": 0.0, "b": 1.0, "n": length, "pad": 0, "re": re, "im": im}

    payload = {"sprime": grid(real, np.zeros(length)),
               "orders": [grid(values.real, values.imag), grid(values.imag, real)],
               "residuals": {"norms": [1e-5, 0.0], "tol": 1e-5, "passed": True}}
    old = {"sprime": grid(real.tolist(), [0.0] * length),
           "orders": [grid(values.real.tolist(), values.imag.tolist()),
                      grid(values.imag.tolist(), real.tolist())],
           "residuals": payload["residuals"]}
    chunks = list(json_chunks(payload))
    assert "".join(chunks) == dumps(payload) == json.dumps(old) + "\n"
    assert max(map(len, chunks)) <= 26 * _SLICE  # a float takes at most 24 characters


def test_float_text_sweep_is_the_list_encoding():
    """Every binary exponent with a few mantissas, every power of ten, the
    neighbours of both, and random finite bit patterns, written from
    strided views, give the bytes of json.dumps on the float lists."""
    rng = np.random.default_rng(2022)
    mantissas = np.array([1.0, 1.1, 1.5, 1.9999999999999998])
    structured = np.concatenate([np.ldexp(mantissas[:, None], np.arange(-1074, 1024)).ravel(),
                                 10.0 ** np.arange(-323, 309)])
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        structured = np.concatenate([structured, np.nextafter(structured, 0.0),
                                     np.nextafter(structured, np.inf)])
    structured = structured[np.isfinite(structured)]
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([structured, -structured, bits[np.isfinite(bits)]])
    grid = np.empty(len(values), dtype=complex)
    grid.real, grid.imag = values, rng.permutation(values)
    for view in (grid.real, grid.imag):
        assert "".join(_floats(view)) == json.dumps(view.tolist())
