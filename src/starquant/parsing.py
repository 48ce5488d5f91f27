"""Parser for observable expressions used on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' exponent)?
    base   := integer | 'i' | 'lambda' | 'q' index? | 'p' index? | '(' expr ')'

Multiplication is always explicit.  Division is only by nonzero
rational constants.  Exponents are nonnegative integers except on
``lambda``, which admits negative powers.  Bare ``q``/``p`` are only
valid in dimension one; otherwise indices are 1-based (``q1`` .. ``qn``).
Parentheses nest at most ``MAX_DEPTH`` levels deep, so hostile input
fails with a positioned syntax error instead of exhausting the stack.
A power of a t-term base may have up to C(n + t - 1, t - 1) terms; one
above ``MAX_POWER_TERMS`` raises ``BudgetExceeded`` before expanding, as
does a power whose coefficients may need more than ``MAX_POWER_BITS`` bits,
and one whose term bound times coefficient bits exceeds ``MAX_POWER_WORK``.
The leading unary minus is accepted so canonically printed observables
(whose first term may carry a negative coefficient) parse back.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import BudgetExceeded, StarquantError
from .observables import GaussianObservable, PhasePolynomial
from .scalars import I, ONE, Rat, Scalar


MAX_DEPTH = 100
# Most terms a power of a sum may expand to: (q+p)^999 parses in about
# 1.5 s on 2 vCPUs, and the cost grows as the square of the term count.
MAX_POWER_TERMS = 1000
# Most bits a power's coefficients may grow to: c^n needs up to n times
# the bits of |Re c| + |Im c| and of the denominator, so 2^(10^20) would
# otherwise run until memory runs out.  2^65536 takes microseconds and is
# far past the int-to-str limit (4300 digits by default) of any output.
MAX_POWER_BITS = 2 ** 16
# Most terms times coefficient bits a power may expand to, the two bounds
# above multiplied: each may pass alone while the expansion runs for
# seconds.  (4*q+p)^999, 1000 terms of 1998 bits, parses in about 1.3 s on
# 2 vCPUs; (2^64*q+p)^999 took 10.7 s.
MAX_POWER_WORK = 2 ** 21
# the exponent of a decimal numeral such as '2.5e-3' (Fraction's own syntax)
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


class ObservableParseError(StarquantError):
    """Base for parse failures; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ObservableSyntaxError(ObservableParseError):
    pass


class IndexOutOfRange(ObservableParseError):
    pass


class NegativeExponent(ObservableParseError):
    pass


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, NAME, OP, END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("NUMBER", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ObservableSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            self.fail(f"expected {op!r}", tok)
        return self.advance()

    def fail(self, expected: str, tok: _Token | None = None):
        tok = tok or self.peek()
        found = repr(tok.text) if tok.kind != "END" else "end of input"
        raise ObservableSyntaxError(f"{expected}, found {found}", tok.line, tok.column)

    @staticmethod
    def integer(tok: _Token) -> int:
        """The value of a NUMBER token.  int() refuses a numeral longer than
        the interpreter's int-from-string limit (sys.get_int_max_str_digits)
        and one of digits it does not read, such as superscripts; either is
        a syntax error at the numeral's position."""
        try:
            return int(tok.text)
        except ValueError:
            raise ObservableSyntaxError(f"unreadable numeral of {len(tok.text)} digits",
                                        tok.line, tok.column) from None

    # -- grammar -------------------------------------------------------

    def parse(self) -> PhasePolynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            self.fail("expected '+', '-', '*', '/', '^' or end of input", tok)
        return result

    def expr(self) -> PhasePolynomial:
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if tok.text == "+" else acc - rhs
            else:
                return acc

    def term(self) -> PhasePolynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                rhs_tok = self.peek()
                rhs = self.factor()
                if tok.text == "*":
                    acc = acc * rhs
                else:
                    value = _constant_of(rhs)
                    if value is None or not value.is_real() or value.is_zero():
                        raise ObservableSyntaxError(
                            "division is only by nonzero rational constants",
                            rhs_tok.line, rhs_tok.column)
                    acc = acc.scale(ONE / value)
            else:
                return acc

    def factor(self) -> PhasePolynomial:
        base_tok = self.peek()
        base = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exponent = self.exponent(base_tok, base)
            if exponent < 0:
                # only reachable for lambda, checked in exponent()
                return PhasePolynomial.lam(self.dim, exponent)
            t = len(base.terms)
            priced = f"{base_tok.line}:{base_tok.column}: power {exponent} of a {t}-term base"
            terms = 1
            if t > 1 and exponent > 0:
                # C(top, t - 1) >= top once t >= 2 and exponent >= 1
                top = exponent + t - 1
                terms = top if top > MAX_POWER_TERMS else comb(top, t - 1)
                if terms > MAX_POWER_TERMS:
                    raise BudgetExceeded(priced, terms, MAX_POWER_TERMS, "terms")
            # units (1, -1, i, -i) add no bits; (x - 1).bit_length() >= log2(x)
            growth = max(((abs(c.re_num) + abs(c.im_num) - 1).bit_length()
                          + (c.den - 1).bit_length() for c in base.terms.values()),
                         default=0)
            bits = exponent * growth
            if bits > MAX_POWER_BITS:
                raise BudgetExceeded(priced, bits, MAX_POWER_BITS, "coefficient bits")
            if terms * bits > MAX_POWER_WORK:
                raise BudgetExceeded(f"{priced}, {terms} terms of up to {bits} bits",
                                     terms * bits, MAX_POWER_WORK, "term-bits")
            return base ** exponent
        return base

    def exponent(self, base_tok: _Token, base: PhasePolynomial) -> int:
        tok = self.peek()
        negative = False
        if tok.kind == "OP" and tok.text == "-":
            if not _is_lambda(base):
                raise NegativeExponent(
                    f"negative exponent on {base_tok.text!r} (only lambda admits one)",
                    tok.line, tok.column)
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.fail("expected an integer exponent", tok)
        self.advance()
        value = self.integer(tok)
        return -value if negative else value

    def base(self) -> PhasePolynomial:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return PhasePolynomial.constant(self.dim, Fraction(self.integer(tok)))
        if tok.kind == "NAME":
            self.advance()
            return self.named(tok)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_DEPTH:
                raise ObservableSyntaxError(
                    f"parentheses nested deeper than {MAX_DEPTH} levels",
                    tok.line, tok.column)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        self.fail("expected a number, 'i', 'lambda', 'q', 'p' or '('", tok)
        raise AssertionError  # pragma: no cover

    def named(self, tok: _Token) -> PhasePolynomial:
        text = tok.text
        head = text.rstrip("0123456789")
        digits = text[len(head):]
        if head == "i" and not digits:
            return PhasePolynomial.constant(self.dim, I)
        if head == "lambda" and not digits:
            return PhasePolynomial.lam(self.dim)
        if head in ("q", "p"):
            if digits:
                index = int(digits)
                if not 1 <= index <= self.dim:
                    raise IndexOutOfRange(
                        f"{text!r} outside 1..{self.dim}", tok.line, tok.column)
                index -= 1
            else:
                if self.dim != 1:
                    raise ObservableSyntaxError(
                        f"bare {head!r} needs an index in dimension {self.dim}",
                        tok.line, tok.column)
                index = 0
            if head == "q":
                return PhasePolynomial.coordinate_q(index, self.dim)
            return PhasePolynomial.coordinate_p(index, self.dim)
        raise ObservableSyntaxError(f"unknown name {text!r}", tok.line, tok.column)


def _is_lambda(poly: PhasePolynomial) -> bool:
    if len(poly.terms) != 1:
        return False
    ((k, alpha, beta), c), = poly.terms.items()
    return k == 1 and not any(alpha) and not any(beta) and c == ONE


def _constant_of(poly: PhasePolynomial) -> Scalar | None:
    if poly.is_zero():
        return Scalar.of(0)
    if len(poly.terms) != 1:
        return None
    ((k, alpha, beta), c), = poly.terms.items()
    if k != 0 or any(alpha) or any(beta):
        return None
    return c


def parse_observable(text: str, n: int, envelope_rate: Rat = 0) -> GaussianObservable:
    """Parse an expression over dimension n, attaching the envelope rate."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    poly = _Parser(text, n).parse()
    return GaussianObservable(poly, Fraction(envelope_rate))


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'a', 'a/b' or a decimal such as '-2.5e-3'.

    Fraction computes 10**exponent with no bound, so an exponent whose
    magnitude exceeds the int-from-string limit (sys.get_int_max_str_digits)
    is a syntax error, raised before any arithmetic.
    """
    exponent, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if exponent and limit:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or digits and int(digits) > limit:
            raise ObservableSyntaxError(f"exponent of {text.strip()[:40]!r} exceeds {limit}",
                                        1, 1)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ObservableSyntaxError(f"not a rational number: {text!r}", 1, 1) from exc


def parse_complex_constant(text: str) -> Scalar:
    """A constant expression such as '1', '-1/2' or '1/2 + i'."""
    poly = _Parser(text, 1).parse()
    value = _constant_of(poly)
    if value is None:
        raise ObservableSyntaxError(f"expected a constant, got {text!r}", 1, 1)
    return value
