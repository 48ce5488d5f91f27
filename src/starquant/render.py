"""Deterministic text and JSON rendering.

Pretty output for polynomials conforms to the CLI expression grammar,
so printing and reparsing is the identity on canonical forms.  JSON
encodes every rational as the string "num/den" and emits terms in
canonical order, which makes output byte-reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import IntegralValue, LaurentSeries, Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .gns import SchrodingerOperator
    from .observables import GaussianObservable, PhasePolynomial
    from .wkb import GridFunction1D, TransportHierarchy, WKBSolution


def frac_str(x: Fraction) -> str:
    """Fixed num/den form used everywhere in JSON."""
    return f"{x.numerator}/{x.denominator}"


def _human(x: Fraction) -> str:
    return str(x)


def _imag_factor(mag: Fraction) -> str:
    if mag == 1:
        return "i"
    if mag.denominator == 1:
        return f"{mag.numerator}*i"
    if mag.numerator == 1:
        return f"i/{mag.denominator}"
    return f"{mag.numerator}*i/{mag.denominator}"


def _mixed(c: Scalar) -> str:
    sign = "+" if c.im > 0 else "-"
    return f"{_human(c.re)} {sign} {_imag_factor(abs(c.im))}"


def _signed_coeff(c: Scalar) -> tuple[int, str | None]:
    """Split a scalar into a sign and an optional leading factor."""
    if c.im == 0:
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        return sign, None if mag == 1 else _human(mag)
    if c.re == 0:
        sign = 1 if c.im > 0 else -1
        return sign, _imag_factor(abs(c.im))
    return 1, f"({_mixed(c)})"


def _coord(letter: str, index: int, dim: int) -> str:
    return letter if dim == 1 else f"{letter}{index + 1}"


def _power(symbol: str, exponent: int) -> str:
    return symbol if exponent == 1 else f"{symbol}^{exponent}"


def _monomial_factors(k: int, alpha: tuple[int, ...], beta: tuple[int, ...],
                      dim: int) -> list[str]:
    parts = []
    if k:
        parts.append(_power("lambda", k))
    for j, e in enumerate(alpha):
        if e:
            parts.append(_power(_coord("q", j, dim), e))
    for j, e in enumerate(beta):
        if e:
            parts.append(_power(_coord("p", j, dim), e))
    return parts


def _join_terms(chunks: list[tuple[int, str]]) -> str:
    if not chunks:
        return "0"
    out = []
    for idx, (sign, body) in enumerate(chunks):
        if idx == 0:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f" {'+' if sign > 0 else '-'} {body}")
    return "".join(out)


def pretty_polynomial(poly: "PhasePolynomial") -> str:
    chunks = []
    for (k, alpha, beta), c in poly.sorted_terms():
        sign, factor = _signed_coeff(c)
        factors = ([factor] if factor else []) + _monomial_factors(k, alpha, beta, poly.dim)
        chunks.append((sign, "*".join(factors) if factors else "1"))
    return _join_terms(chunks)


def pretty_observable(obs: "GaussianObservable") -> str:
    if obs.rate == 0:
        return pretty_polynomial(obs.body)
    return f"({pretty_polynomial(obs.body)}) * exp(-{_human(obs.rate)}*|q|^2)"


def pretty_operator(op: "SchrodingerOperator") -> str:
    chunks: list[tuple[int, str]] = []
    for (k, gamma), coeff in op.sorted_terms():
        derivative = []
        for j, e in enumerate(gamma):
            if e:
                derivative.append(_power(_coord("d", j, op.dim), e))
        prefix = [_power("lambda", k)] if k else []
        terms = coeff.sorted_terms()
        if len(terms) == 1:
            (_, alpha, _), c = terms[0]
            sign, factor = _signed_coeff(c)
            factors = ([factor] if factor else []) + prefix
            factors += _monomial_factors(0, alpha, (0,) * op.dim, op.dim)
            factors += derivative
            chunks.append((sign, "*".join(factors) if factors else "1"))
        else:
            factors = prefix + [f"({pretty_polynomial(coeff)})"] + derivative
            chunks.append((1, "*".join(factors)))
    body = _join_terms(chunks)
    if op.rate == 0:
        return body
    return f"[{body}] * exp(-{_human(op.rate)}*|q|^2)"


def pretty_series(series: LaurentSeries) -> str:
    chunks: list[tuple[int, str]] = []
    for k, c in series.sorted_items():
        sign, factor = _signed_coeff(c)
        factors = ([factor] if factor else []) + ([_power("lambda", k)] if k else [])
        chunks.append((sign, "*".join(factors) if factors else "1"))
    return _join_terms(chunks)


def pretty_value(value: IntegralValue) -> str:
    if value.coeff.is_zero():
        return "0"
    series = pretty_series(value.coeff)
    if value.unit_dim == 0:
        return series
    rate = value.unit_rate
    unit = _human(rate) if rate.denominator == 1 else f"({_human(rate)})"
    return f"({series}) * (pi/{unit})^({value.unit_dim}/2)"


# -- JSON builders -----------------------------------------------------


def observable_terms_json(poly: "PhasePolynomial") -> list[dict]:
    return [
        {"l": k, "q": list(alpha), "p": list(beta),
         "re": frac_str(c.re), "im": frac_str(c.im)}
        for (k, alpha, beta), c in poly.sorted_terms()
    ]


def observable_json(obs: "GaussianObservable") -> dict:
    return {
        "dim": obs.dim,
        "envelope": frac_str(obs.rate),
        "terms": observable_terms_json(obs.body),
    }


def value_json(value: IntegralValue) -> dict:
    series = {
        str(k): {"re": frac_str(c.re), "im": frac_str(c.im)}
        for k, c in value.coeff.sorted_items()
    }
    return {
        "unit": {"c": frac_str(Fraction(value.unit_rate)), "n": value.unit_dim},
        "series": series,
    }


def operator_json(op: "SchrodingerOperator") -> dict:
    return {
        "dim": op.dim,
        "rate": frac_str(op.rate),
        "terms": [
            {"l": k, "d": list(gamma), "coeff": observable_terms_json(coeff)}
            for (k, gamma), coeff in op.sorted_terms()
        ],
    }


def grid_json(grid: "GridFunction1D") -> dict:
    return {
        "a": grid.a,
        "b": grid.b,
        "n": grid.n,
        "pad": grid.pad,
        "re": grid.values.real.tolist(),
        "im": grid.values.imag.tolist(),
    }


def hierarchy_json(hierarchy: "TransportHierarchy") -> dict:
    return {
        "dim": hierarchy.ham.dim,
        "energy": frac_str(hierarchy.energy),
        "orders": [
            {"order": j, "terms": operator_json(op)["terms"]}
            for j, op in enumerate(hierarchy.orders)
        ],
    }


def solution_json(solution: "WKBSolution") -> dict:
    return {
        "sprime": grid_json(solution.sprime),
        "orders": [grid_json(g) for g in solution.orders],
    }


def dumps(payload: dict) -> str:
    """Canonical JSON text: one line, insertion order, trailing newline."""
    return json.dumps(payload) + "\n"
