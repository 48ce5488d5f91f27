from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from starquant import (ActionData, GaussianObservable, GridFunction1D,
                       IntegralValue, LaurentSeries, PhasePolynomial, Scalar,
                       SchrodingerOperator, eigenproblem_hierarchy, pi0, star)
from starquant.render import (dumps, frac_str, grid_json, observable_json,
                              operator_json, pretty_observable, pretty_operator,
                              pretty_polynomial, pretty_series, pretty_value,
                              value_json)

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))


def test_frac_str_always_carries_a_denominator():
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(Fraction(-3, 4)) == "-3/4"
    assert frac_str(Fraction(6, 4)) == "3/2"


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


def test_pretty_value_parenthesizes_a_fractional_rate():
    s = LaurentSeries.from_scalar(1)
    assert pretty_value(IntegralValue(s, Fraction(1, 2), 1)) == "(1) * (pi/(1/2))^(1/2)"
    assert pretty_value(IntegralValue(s, 3, 2)) == "(1) * (pi/3)^(2/2)"


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
    assert json.dumps(grid_json(grid)) == json.dumps(old)
