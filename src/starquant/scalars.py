"""Exact scalar tower: complex rationals and formal Laurent series.

Coefficients in the symbolic tier live in Q(i): complex numbers whose
real and imaginary parts are rationals, so equality is decidable and
every operation is exact.  A ``Scalar`` stores such a number over one
common denominator, as the integer triple (re_num, im_num, den) of
(re_num + i*im_num)/den; arithmetic is integer arithmetic followed by a
single three-way gcd.  On top of that sit finite Laurent series in
the deformation parameter (written ``lambda`` throughout), with at most
finitely many negative orders.  The real series form an ordered field:
a nonzero series is positive exactly when its lowest nonvanishing
coefficient is positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

Rat = Union[int, Fraction]


def _frac(x: Rat | str) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Scalar:
    """A complex number with rational real and imaginary parts.

    The value is (re_num + i*im_num)/den with den > 0 and
    gcd(re_num, im_num, den) == 1, so zero is (0, 0, 1).  The triple is
    canonical: every triple with den > 0 that names a value is a
    positive integer multiple of one primitive triple, and dividing by
    the gcd, as every constructor does, leaves that one.  Equality is
    therefore a comparison of triples, and the real and imaginary parts
    are read back as ``Fraction`` properties.  Instances are immutable
    by convention.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re: Rat | str = 0, im: Rat | str = 0):
        re, im = _frac(re), _frac(im)
        a, b = re.denominator, im.denominator
        den = a // gcd(a, b) * b
        # re and im are in lowest terms, so no common factor is left
        self.re_num = re.numerator * (den // a)
        self.im_num = im.numerator * (den // b)
        self.den = den

    @staticmethod
    def _raw(re_num: int, im_num: int, den: int) -> "Scalar":
        """(re_num + i*im_num)/den for any integers with den > 0."""
        g = gcd(re_num, im_num, den)
        s = object.__new__(Scalar)
        s.re_num = re_num // g
        s.im_num = im_num // g
        s.den = den // g
        return s

    @staticmethod
    def of(x: "Scalar | Rat") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        x = _frac(x)
        return Scalar._raw(x.numerator, 0, x.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def __add__(self, other: "Scalar | Rat") -> "Scalar":
        o = Scalar.of(other)
        d, e = self.den, o.den
        if d == e:
            return Scalar._raw(self.re_num + o.re_num, self.im_num + o.im_num, d)
        return Scalar._raw(self.re_num * e + o.re_num * d,
                           self.im_num * e + o.im_num * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | Rat") -> "Scalar":
        return self + -Scalar.of(other)

    def __rsub__(self, other: "Scalar | Rat") -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other: "Scalar | Rat") -> "Scalar":
        o = Scalar.of(other)
        a, b, c, d = self.re_num, self.im_num, o.re_num, o.im_num
        return Scalar._raw(a * c - b * d, a * d + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar | Rat") -> "Scalar":
        o = Scalar.of(other)
        a, b, c, d = self.re_num, self.im_num, o.re_num, o.im_num
        n2 = c * c + d * d
        if n2 == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a + ib)/s / ((c + id)/t) = t (a + ib)(c - id) / (s (c^2 + d^2))
        t = o.den
        return Scalar._raw((a * c + b * d) * t, (b * c - a * d) * t, self.den * n2)

    def conjugate(self) -> "Scalar":
        return Scalar._raw(self.re_num, -self.im_num, self.den)

    def is_zero(self) -> bool:
        return not (self.re_num or self.im_num)

    def is_real(self) -> bool:
        return not self.im_num

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.re_num == other.re_num and self.im_num == other.im_num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re_num / self.den, self.im_num / self.den)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i" if im != 1 else "i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{re} {sign} {imag}"

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
I = Scalar(Fraction(0), Fraction(1))


def i_power(n: int) -> Scalar:
    """i**n for any integer n, computed exactly."""
    return (ONE, I, -ONE, -I)[n % 4]


class LaurentSeries:
    """Formal Laurent series in lambda with Scalar coefficients.

    Only finitely many terms are stored, so the principal part is
    automatically finite.  Instances are immutable by convention; all
    arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar | Rat] | None = None):
        clean: dict[int, Scalar] = {}
        if terms:
            for k, c in terms.items():
                s = Scalar.of(c)
                if not s.is_zero():
                    clean[int(k)] = s
        self.terms: dict[int, Scalar] = clean

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries()

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries({0: ONE})

    @staticmethod
    def from_scalar(c: Scalar | Rat, order: int = 0) -> "LaurentSeries":
        return LaurentSeries({order: Scalar.of(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def min_order(self) -> int:
        if not self.terms:
            raise ValueError("zero series has no leading order")
        return min(self.terms)

    def max_order(self) -> int:
        if not self.terms:
            raise ValueError("zero series has no trailing order")
        return max(self.terms)

    def coefficient(self, k: int) -> Scalar:
        return self.terms.get(k, ZERO)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return LaurentSeries(out)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        out: dict[int, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, ZERO) + c1 * c2
        return LaurentSeries(out)

    def scale(self, c: Scalar | Rat) -> "LaurentSeries":
        s = Scalar.of(c)
        return LaurentSeries({k: v * s for k, v in self.terms.items()})

    def shift(self, orders: int) -> "LaurentSeries":
        return LaurentSeries({k + orders: v for k, v in self.terms.items()})

    def conjugate(self) -> "LaurentSeries":
        return LaurentSeries({k: v.conjugate() for k, v in self.terms.items()})

    def truncate(self, order: int) -> "LaurentSeries":
        """Drop every term of lambda-order greater than ``order``."""
        return LaurentSeries({k: v for k, v in self.terms.items() if k <= order})

    def inverse(self, through: int) -> "LaurentSeries":
        """Multiplicative inverse up to lambda-order ``through``.

        The result u satisfies self * u == 1 modulo terms of order
        strictly greater than ``through``.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero series is not invertible")
        m = self.min_order()
        lead = self.terms[m]
        # relative tail h: self = lambda^m * lead * (1 + h), ord(h) >= 1
        h = LaurentSeries({k - m: v / lead for k, v in self.terms.items() if k != m})
        # the lambda^m factors cancel in self * u, so the geometric sum
        # (1 + h)^{-1} = sum_j (-h)^j is needed through relative order `through`
        acc = LaurentSeries.one()
        power = LaurentSeries.one()
        for _ in range(max(through, 0)):
            power = -(power * h).truncate(through)
            if power.is_zero():
                break
            acc = acc + power
        return acc.shift(-m).scale(ONE / lead).truncate(through - m)

    def sorted_items(self) -> list[tuple[int, Scalar]]:
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        from .render import pretty_series
        return pretty_series(self)

    __repr__ = __str__


def laurent_is_positive(s: LaurentSeries) -> bool:
    """Sign test for the ordered field of real Laurent series.

    A nonzero real series is positive exactly when its lowest
    nonvanishing coefficient is a positive rational.  Raises
    ValueError on series with nonreal coefficients.
    """
    if not s.is_real():
        raise ValueError("positivity is defined for real series only")
    if s.is_zero():
        return False
    return s.terms[s.min_order()].re > 0


class IntegralValue:
    """An exact Gaussian integral: series coefficient times (pi/c)^(n/2).

    The transcendental unit (pi/c)^(n/2) is carried symbolically as the
    pair (c, n); values are only added or compared when the units agree.
    The zero value is unit-agnostic.
    """

    __slots__ = ("coeff", "unit_rate", "unit_dim")

    def __init__(self, coeff: LaurentSeries, unit_rate: Rat, unit_dim: int):
        self.coeff = coeff
        self.unit_rate = _frac(unit_rate)
        self.unit_dim = int(unit_dim)
        if self.unit_rate <= 0:
            raise ValueError("unit rate must be positive")

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def same_unit(self, other: "IntegralValue") -> bool:
        return self.unit_rate == other.unit_rate and self.unit_dim == other.unit_dim

    def __add__(self, other: "IntegralValue") -> "IntegralValue":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if not self.same_unit(other):
            raise ValueError("cannot add integral values with different units")
        return IntegralValue(self.coeff + other.coeff, self.unit_rate, self.unit_dim)

    def scale(self, c: Scalar | Rat) -> "IntegralValue":
        return IntegralValue(self.coeff.scale(c), self.unit_rate, self.unit_dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegralValue):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.same_unit(other) and self.coeff == other.coeff

    def __hash__(self):
        if self.is_zero():
            return hash(0)
        return hash((self.coeff, self.unit_rate, self.unit_dim))

    def is_positive(self) -> bool:
        # the unit (pi/c)^(n/2) is a positive real, so the sign is the
        # sign of the series coefficient
        return laurent_is_positive(self.coeff)

    def __str__(self) -> str:
        from .render import pretty_value
        return pretty_value(self)

    __repr__ = __str__
