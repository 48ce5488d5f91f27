"""Deterministic text and JSON rendering.

Pretty output for polynomials conforms to the CLI expression grammar,
so printing and reparsing is the identity on canonical forms.  JSON
encodes every rational as the string "num/den" and emits terms in
canonical order, which makes output byte-reproducible.

The JSON builders return payloads of dicts, lists and scalars, except
that a grid payload holds its float arrays as they are.  ``json_chunks``
writes a payload as a sequence of strings, an array one slice at a
time, so neither a whole float list nor the whole text is ever built;
``dumps`` joins the same chunks.  An array's text is the same bytes as
``json.dumps(values.tolist())``: orjson encodes each slice and its text
is rewritten to the ``float.__repr__`` form.  This module does not
import numpy, and imports orjson only to write an array.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import BudgetExceeded
from .scalars import IntegralValue, LaurentSeries, Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .evolution import TransportHierarchy
    from .gns import SchrodingerOperator
    from .observables import GaussianObservable, PhasePolynomial
    from .wkb import GridFunction1D, WKBSolution


_LOG10_2 = math.log10(2)
# Floats of a grid array per chunk: a slice lives as a copy (8 B a value)
# and its text only while it is written.
_SLICE = 4096


def _int_str(n: int) -> str:
    """Decimal form of n; BudgetExceeded past the interpreter's digit limit.

    The digit count comes from the bit length, so an integer too long
    to print is refused without converting it; the interpreter-wide
    limit (``sys.set_int_max_str_digits``) is left as it is.
    """
    limit = sys.get_int_max_str_digits()
    bits = abs(n).bit_length()
    if limit and bits * _LOG10_2 >= limit:
        digits = int((bits - 1) * _LOG10_2) + 1
        if abs(n) >= 10 ** digits:
            digits += 1
        if digits > limit:
            raise BudgetExceeded("printing an integer", digits, limit, "digits")
    return str(n)


def frac_str(x: Fraction) -> str:
    """Fixed num/den form used everywhere in JSON."""
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _human(x: Fraction) -> str:
    return _int_str(x.numerator) if x.denominator == 1 else frac_str(x)


def _imag_factor(mag: Fraction) -> str:
    if mag == 1:
        return "i"
    if mag.denominator == 1:
        return f"{_int_str(mag.numerator)}*i"
    if mag.numerator == 1:
        return f"i/{_int_str(mag.denominator)}"
    return f"{_int_str(mag.numerator)}*i/{_int_str(mag.denominator)}"


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
    return (([_power("lambda", k)] if k else []) + _powers("q", alpha, dim)
            + _powers("p", beta, dim))


def _powers(letter: str, exponents: tuple[int, ...], dim: int) -> list[str]:
    """The powers of the coordinates named letter with a nonzero exponent."""
    return [_power(_coord(letter, j, dim), e) for j, e in enumerate(exponents) if e]


def _join_terms(chunks: list[tuple[int, str]]) -> str:
    if not chunks:
        return "0"
    (sign, body), rest = chunks[0], chunks[1:]
    return (body if sign > 0 else f"-{body}") + "".join(
        f" {'+' if sign > 0 else '-'} {body}" for sign, body in rest)


def _chunk(c: Scalar, factors: list[str]) -> tuple[int, str]:
    """The sign and the body of the term c times factors."""
    sign, factor = _signed_coeff(c)
    factors = ([factor] if factor else []) + factors
    return sign, "*".join(factors) if factors else "1"


def pretty_polynomial(poly: "PhasePolynomial") -> str:
    return _join_terms([_chunk(c, _monomial_factors(k, alpha, beta, poly.dim))
                        for (k, alpha, beta), c in poly.sorted_terms()])


def pretty_observable(obs: "GaussianObservable") -> str:
    if obs.rate == 0:
        return pretty_polynomial(obs.body)
    return f"({pretty_polynomial(obs.body)}) * exp(-{_human(obs.rate)}*|q|^2)"


def pretty_operator(op: "SchrodingerOperator") -> str:
    chunks: list[tuple[int, str]] = []
    for (k, gamma), coeff in op.sorted_terms():
        derivative = _powers("d", gamma, op.dim)
        prefix = [_power("lambda", k)] if k else []
        terms = coeff.sorted_terms()
        if len(terms) == 1:
            (_, alpha, _), c = terms[0]
            chunks.append(_chunk(c, prefix + _powers("q", alpha, op.dim) + derivative))
        else:
            factors = prefix + [f"({pretty_polynomial(coeff)})"] + derivative
            chunks.append((1, "*".join(factors)))
    body = _join_terms(chunks)
    if op.rate == 0:
        return body
    return f"[{body}] * exp(-{_human(op.rate)}*|q|^2)"


def pretty_series(series: LaurentSeries) -> str:
    return _join_terms([_chunk(c, [_power("lambda", k)] if k else [])
                        for k, c in series.sorted_items()])


def pretty_value(value: IntegralValue) -> str:
    if value.coeff.is_zero():
        return "0"
    series = pretty_series(value.coeff)
    if value.unit_dim == 0:
        return series
    terms = value.coeff.sorted_items()
    if not (len(terms) == 1 and terms[0][0] == 0 and series.startswith("(")):
        series = f"({series})"  # else _signed_coeff has put it in parentheses
    rate = value.unit_rate
    unit = _human(rate) if rate.denominator == 1 else f"({_human(rate)})"
    return f"{series} * (pi/{unit})^({value.unit_dim}/2)"


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
    """The grid's payload; "re" and "im" are views of its values, which
    ``json_chunks`` writes as float lists a slice at a time."""
    return {
        "a": grid.a,
        "b": grid.b,
        "n": grid.n,
        "pad": grid.pad,
        "re": grid.values.real,
        "im": grid.values.imag,
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


def _exponent(match: re.Match) -> str:
    """orjson's exponent (e16, e-7) as float.__repr__ writes it (e+16, e-07)."""
    return f"e{int(match[1]):+03d}"


def _fixed(match: re.Match) -> str:
    """float.__repr__ of a token 0.0000d..., which orjson writes for
    1e-5 <= |x| < 1e-4; a match inside a longer number (10.00001) stays."""
    start = match.start()
    if start and match.string[start - 1].isdigit():
        return match[0]
    return repr(float(match[0]))


def _floats(values) -> Iterator[str]:
    """A 1-d float array as the same bytes as json.dumps(values.tolist()).

    orjson writes the shortest round-trip digits, as float.__repr__ does,
    but joins with "," and spells 1e-5 <= |x| < 1e-4 and exponents in its
    own way; those tokens are rewritten only in a slice that holds them.
    orjson writes NaN and infinities as null, so such a slice goes through
    json.dumps as it is.
    """
    import orjson

    yield "["
    for start in range(0, len(values), _SLICE):
        if start:
            yield ", "
        part = values[start:start + _SLICE]
        raw = orjson.dumps(part.copy(), option=orjson.OPT_SERIALIZE_NUMPY)
        if b"n" in raw:  # null
            yield json.dumps(part.tolist())[1:-1]
            continue
        text = raw[1:-1].replace(b",", b", ").decode()
        if "e" in text:
            text = re.sub(r"e(-?\d+)", _exponent, text)
        if "0.0000" in text:
            text = re.sub(r"0\.0000\d+", _fixed, text)
        yield text
    yield "]"


def _chunks(value) -> Iterator[str]:
    try:
        text = json.dumps(value)
    except TypeError:  # a float array inside: walk down to it
        text = None
    if text is not None:
        yield text
    elif isinstance(value, dict):  # never empty here: it holds an array
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{json.dumps(key)}: "
            yield from _chunks(item)
            sep = ", "
        yield "}"
    elif isinstance(value, (list, tuple)):
        sep = "["
        for item in value:
            yield sep
            yield from _chunks(item)
            sep = ", "
        yield "]"
    else:
        yield from _floats(value)


def json_chunks(payload: dict) -> Iterator[str]:
    """Canonical JSON text as a sequence of strings: one line, insertion
    order, trailing newline.  A value json can encode whole is one chunk."""
    yield from _chunks(payload)
    yield "\n"


def dumps(payload: dict) -> str:
    """The whole canonical JSON text, the join of ``json_chunks``."""
    return "".join(json_chunks(payload))
