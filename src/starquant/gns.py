"""States, their ideals, and the induced configuration-space operators.

The distinguished state integrates an observable over the zero section
q -> (q, 0) of T*R^n.  Everything it induces is computed exactly here:

* ``omega0`` evaluates the state by closed-form Gaussian moments.
* ``inner0`` is the sesquilinear form omega0(conj(f) * g); it factorizes
  through the symmetrization map as an honest L^2 pairing of the two
  projected wave functions, and both routes are implemented so they can
  be checked against each other.  omega0 reads only the zero section, so
  each route sums only the p-free block of its own kernel's jobs, which
  ``star._p_free`` reads off each table: ``inner0`` cuts the star jobs,
  ``inner0_factorized`` and ``project_H0`` the symmetrization-map jobs.
* the null ideal of the form is detected by ``gelfand_member0`` and made
  constructive by ``momenta_decompose``, which peels a polynomial
  member into left star-multiples of the momenta.
* ``pi0`` realizes observables as differential operators in q acting on
  the quotient.  A ``SchrodingerOperator`` is stored as its phase-space
  symbol, with the momentum p_k standing for d/dq^k, so operators share
  the polynomial arithmetic of ``GaussianObservable``: ``pi0`` is the
  symmetrization map followed by p_k -> -i lambda d/dq^k, and
  ``op_compose`` is the standard-ordered symbol product.
  ``weyl_symmetrize_oracle`` provides the independent
  operator-ordering average that pi0 must reproduce on monomials, and
  ``weyl_check`` sweeps that comparison over all monomials up to a degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Sequence

from .errors import BudgetExceeded, DimensionMismatch, NonIntegrable, NotInIdeal
from .observables import (GaussianObservable, Observable, PhasePolynomial, TermKey,
                          _compositions, _leibniz_terms, _Numerators, _sum_of_products)
from .scalars import I, IntegralValue, LaurentSeries, Rat, Scalar, i_power
from .star import _s_map_zero_section, _star_zero_section, s_map, star

OpKey = tuple[int, tuple[int, ...]]
_UNIT_RATE = Fraction(1)  # the unit rate of a zero value

# Longest operator word weyl_symmetrize_oracle averages: a word of m
# letters has up to m! orderings, each composed factor by factor.
MAX_WORD_LENGTH = 8

# Most monomials one weyl_check sweeps.  A sweep under this cap ends in
# about 2 s on 2 vCPUs (dim 2, degree <= 6 is the slowest); dim 2,
# degree 8 (495) takes 50 s.
MAX_WEYL_MONOMIALS = 300

# Largest exponent gaussian_moment takes.  (e-1)!! is e/2 big-integer
# products: e = 10^4 takes about 9 ms, 10^5 1.3 s and 2*10^5 4 s on
# 2 vCPUs, and 10^8 runs for minutes.  Tests and benchmark workloads stay
# far below it.
MAX_MOMENT_EXPONENT = 10_000


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _moment_numerator(alpha: Sequence[int]) -> int:
    """prod_j (alpha_j - 1)!!, or 0 at the first odd exponent; an even
    exponent above ``MAX_MOMENT_EXPONENT`` met before it raises."""
    out = 1
    for e in alpha:
        if e % 2:
            return 0
        if e > MAX_MOMENT_EXPONENT:
            raise BudgetExceeded("a Gaussian moment", e, MAX_MOMENT_EXPONENT, "degrees")
        out *= _double_factorial(e - 1)
    return out


def gaussian_moment(exponent: int, rate: Fraction) -> Fraction:
    """integral of x^exponent e^{-rate x^2} dx over R, divided by sqrt(pi/rate).

    Odd exponents integrate to zero; even ones give
    (exponent-1)!! / (2 rate)^(exponent/2); even exponents above
    ``MAX_MOMENT_EXPONENT`` raise ``BudgetExceeded``.
    """
    top = _moment_numerator((exponent,))
    if not top:
        return Fraction(0)
    rate, m = Fraction(rate), exponent // 2
    return Fraction(top * rate.denominator ** m, (2 * rate.numerator) ** m)


def omega0(f: Observable) -> IntegralValue:
    """Integrate the zero-section restriction of f over configuration space.

    The moment of q^alpha at rate rn/rd is prod_j (alpha_j - 1)!!
    (rd/(2 rn))^(alpha_j/2); each lambda order is summed in integers over
    one common denominator and reduced once.
    """
    obs = GaussianObservable.of(f)
    base = obs.restrict_zero_section()
    n = obs.dim
    if base.is_zero():
        return IntegralValue._make(LaurentSeries._from_clean({}), _UNIT_RATE, n)
    if base.rate == 0:
        raise NonIntegrable("restriction is a nonzero polynomial with no envelope")
    up, down = base.rate.denominator, 2 * base.rate.numerator
    jobs, common = [], 1
    for (k, alpha, _), c in base.body.terms.items():
        moment = _moment_numerator(alpha)
        if moment:
            h = sum(alpha) // 2
            moment *= up ** h
            den = c.den * down ** h
            common = lcm(common, den)
            jobs.append((k, c.re_num * moment, c.im_num * moment, den))
    acc: dict[int, list[int]] = {}
    for k, re, im, den in jobs:
        t = common // den
        slot = acc.setdefault(k, [0, 0])
        slot[0] += re * t
        slot[1] += im * t
    return IntegralValue._make(LaurentSeries._from_clean(
        {k: Scalar._raw(re, im, common) for k, (re, im) in acc.items() if re or im}), base.rate, n)


def inner0(f: Observable, g: Observable) -> IntegralValue:
    """The sesquilinear form omega0(conj(f) * g), star route.

    omega0 reads only the zero section, so only the p-free slice of the
    star kernel's tables is summed, never the whole product.
    """
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    return omega0(_star_zero_section(fo.conjugate(), go))


def inner0_factorized(f: Observable, g: Observable) -> IntegralValue:
    """Same form computed through the symmetrization map.

    The star product never enters: both arguments are pushed to base
    functions first and the result is a plain weighted L^2 pairing.  Each
    side sums only the p-free slice of its symmetrization-map tables, the
    part that survives restriction to the zero section.
    """
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    left = _s_map_zero_section(fo.conjugate(), "backward")
    right = _s_map_zero_section(go, "forward")
    return omega0(left * right)


def project_H0(f: Observable) -> GaussianObservable:
    """Orthogonal projection of f onto the base-function realization.

    That is S f restricted to the zero section; only the p-free slice of
    the symmetrization map's tables is summed, never the whole of S f.
    """
    return _s_map_zero_section(f, "forward")


def gelfand_member0(f: Observable) -> bool:
    """Exact membership test for the null ideal of the flat state."""
    return project_H0(f).is_zero()


def momenta_decompose(f: "PhasePolynomial | GaussianObservable") -> list[PhasePolynomial]:
    """Write an ideal member as sum_k star(g_k, p_k), exactly.

    Peels the momentum dependence from the top down: the currently
    highest p-monomial c q^alpha p^beta is matched by the left factor
    g = c q^alpha p^(beta - e_k); subtracting star(g, p_k) cancels it
    and only feeds terms of strictly lower p-degree back in, so the loop
    terminates with a zero residual whenever f is a member at all.
    """
    if isinstance(f, GaussianObservable):
        if f.rate != 0:
            raise ValueError("decomposition is defined on the polynomial tier")
        poly = f.body
    else:
        poly = f
    if not gelfand_member0(GaussianObservable(poly)):
        raise NotInIdeal("observable is not annihilated by the projection")
    n = poly.dim
    parts = [PhasePolynomial.zero(n) for _ in range(n)]
    residual = poly
    while True:
        momentum_keys = [key for key in residual.terms if any(key[2])]
        if not momentum_keys:
            break
        k, alpha, beta = max(momentum_keys, key=lambda key: (key[2], key[1], key[0]))
        idx = next(j for j, e in enumerate(beta) if e)
        beta_less = beta[:idx] + (beta[idx] - 1,) + beta[idx + 1:]
        g = PhasePolynomial(n, {(k, alpha, beta_less): residual.terms[(k, alpha, beta)]})
        parts[idx] = parts[idx] + g
        residual = residual - star(g, PhasePolynomial.coordinate_p(idx, n)).body
    if not residual.is_zero():  # unreachable once membership holds
        raise NotInIdeal("decomposition left a nonzero base residual")
    return parts


class SchrodingerOperator:
    """Differential operator sum_k lambda^k c_{k,gamma}(q) d^gamma/dq^gamma.

    Stored as one phase-space symbol, the ``GaussianObservable`` whose
    term lambda^k c q^alpha p^gamma stands for lambda^k c q^alpha d^gamma:
    the p-exponent is the derivative order, and the symbol's envelope
    exp(-rate |q|^2) multiplies the whole operator.  The constructor and
    ``sorted_terms`` use the grouped form {(k, gamma): c(q)}.
    """

    __slots__ = ("symbol",)

    def __init__(self, dim: int, terms: Mapping[OpKey, PhasePolynomial] | None = None,
                 rate: Rat = 0):
        flat: dict[TermKey, Scalar] = {}
        for (k, gamma), coeff in (terms or {}).items():
            gamma = tuple(int(g) for g in gamma)
            if len(gamma) != dim:
                raise DimensionMismatch("derivative multi-index length != dim")
            if coeff.dim != dim:
                raise DimensionMismatch("coefficient dimension mismatch")
            if not coeff.is_base_only() or not coeff.is_lambda_free():
                raise ValueError("operator coefficients must be plain q-polynomials")
            for (_, alpha, _), c in coeff.terms.items():
                flat[(int(k), alpha, gamma)] = c
        # the symbol refuses dim < 1, negative derivative orders and rates
        self.symbol = GaussianObservable(PhasePolynomial(dim, flat), rate)

    @staticmethod
    def _of(symbol: GaussianObservable) -> "SchrodingerOperator":
        """Trusted constructor for arithmetic results; takes ``symbol`` over."""
        op = object.__new__(SchrodingerOperator)
        op.symbol = symbol
        return op

    @staticmethod
    def zero(dim: int) -> "SchrodingerOperator":
        return SchrodingerOperator(dim)

    @staticmethod
    def identity(dim: int) -> "SchrodingerOperator":
        return SchrodingerOperator(
            dim, {(0, (0,) * dim): PhasePolynomial.one(dim)})

    @property
    def dim(self) -> int:
        return self.symbol.dim

    @property
    def rate(self) -> Fraction:
        return self.symbol.rate

    def is_zero(self) -> bool:
        return self.symbol.is_zero()

    def _check(self, other: "SchrodingerOperator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "SchrodingerOperator") -> "SchrodingerOperator":
        self._check(other)  # the symbol sum skips it when one side is zero
        return SchrodingerOperator._of(self.symbol + other.symbol)

    def __sub__(self, other: "SchrodingerOperator") -> "SchrodingerOperator":
        return self + (-other)

    def __neg__(self) -> "SchrodingerOperator":
        return SchrodingerOperator._of(-self.symbol)

    def scale(self, c: Scalar | Rat) -> "SchrodingerOperator":
        return SchrodingerOperator._of(self.symbol.scale(c))

    def mul_lambda(self, orders: int) -> "SchrodingerOperator":
        return SchrodingerOperator._of(self.symbol.mul_lambda(orders))

    def lambda_components(self) -> dict[int, "SchrodingerOperator"]:
        return {k: SchrodingerOperator._of(GaussianObservable(part, self.rate))
                for k, part in self.symbol.body.lambda_components().items()}

    def sorted_terms(self) -> list[tuple[OpKey, PhasePolynomial]]:
        """The grouped form ((k, gamma), c(q)), in key order."""
        groups: dict[OpKey, dict[TermKey, Scalar]] = {}
        for (k, alpha, gamma), c in self.symbol.body.terms.items():
            groups.setdefault((k, gamma), {})[(0, alpha, (0,) * self.dim)] = c
        return sorted((key, PhasePolynomial._from_clean(self.dim, t))
                      for key, t in groups.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchrodingerOperator) and self.symbol == other.symbol

    def __hash__(self):
        return hash(self.symbol)

    def __str__(self) -> str:
        from .render import pretty_operator
        return pretty_operator(self)

    def __repr__(self) -> str:
        return f"SchrodingerOperator(dim={self.dim}, rate={self.rate}, terms={dict(self.sorted_terms())!r})"


def op_compose(a: SchrodingerOperator, b: SchrodingerOperator) -> SchrodingerOperator:
    """Operator product a . b as the standard-ordered product of the symbols,

        sum_delta (1/delta!) (d_p^delta sigma_a) (d_q^delta sigma_b),

    which is the generalized Leibniz rule; d_q also differentiates the
    envelope of sigma_b, and envelope rates add.
    """
    a._check(b)
    jobs = [(0, 1, 0, w, da.parts[0, 1], db.parts[0, 1]) for _, da, db, w in
            _leibniz_terms(_Numerators.of(a.symbol), _Numerators.of(b.symbol),
                           [(j, True) for j in range(a.dim)])]
    return SchrodingerOperator._of(GaussianObservable._make(
        _sum_of_products(a.dim, jobs), a.rate + b.rate))


def op_apply_base(a: SchrodingerOperator, phi: Observable) -> GaussianObservable:
    """Apply the operator to a base function (no momentum dependence).

    a(phi) is the operator a . phi applied to 1, so it is the
    zero-section restriction of the symbol of a . phi.
    """
    obs = GaussianObservable.of(phi)
    if not obs.is_base_only():
        raise ValueError("operators act on base functions only")
    if a.dim != obs.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {obs.dim}")
    return op_compose(a, SchrodingerOperator._of(obs)).symbol.restrict_zero_section()


def pi0(f: Observable) -> SchrodingerOperator:
    """Represent an observable as a differential operator on base functions.

    With g = S f, a monomial lambda^k c q^alpha p^beta of g contributes
    the operator term (-i)^{|beta|} c q^alpha lambda^(k+|beta|)
    d^beta/dq^beta: one configuration derivative per momentum factor,
    evaluated through the zero section.
    """
    g = s_map(f, "forward")
    symbol = {(k + sum(beta), alpha, beta): c * i_power(-sum(beta))
              for (k, alpha, beta), c in g.body.terms.items()}
    return SchrodingerOperator._of(
        GaussianObservable._make(PhasePolynomial._from_clean(g.dim, symbol), g.rate))


def weyl_symmetrize_oracle(alpha: Sequence[int], beta: Sequence[int]) -> SchrodingerOperator:
    """Average of all orderings of the operator word q^alpha (-i lambda d/dq)^beta.

    Composes the elementary factors exactly for every distinct ordering
    of the multiset word and averages; this is the textbook totally
    symmetric quantization, computed with no reference to the star
    product or the symmetrization map.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(alpha) != len(beta):
        raise DimensionMismatch("multi-index lengths differ")
    n = len(alpha)
    total = sum(alpha) + sum(beta)
    if total > MAX_WORD_LENGTH:
        raise ValueError(f"operator word longer than {MAX_WORD_LENGTH} factors")
    letters: list[tuple[str, int]] = []
    for j in range(n):
        letters += [("q", j)] * alpha[j]
    for j in range(n):
        letters += [("p", j)] * beta[j]
    if not letters:
        return SchrodingerOperator.identity(n)

    def elementary(kind: str, j: int) -> SchrodingerOperator:
        if kind == "q":
            coeff = PhasePolynomial.coordinate_q(j, n)
            return SchrodingerOperator(n, {(0, (0,) * n): coeff})
        gamma = tuple(1 if m == j else 0 for m in range(n))
        return SchrodingerOperator(n, {(1, gamma): PhasePolynomial.constant(n, -I)})

    words = sorted(set(itertools.permutations(letters)))
    acc = SchrodingerOperator.zero(n)
    for word in words:
        composed = elementary(*word[0])
        for letter in word[1:]:
            composed = op_compose(composed, elementary(*letter))
        acc = acc + composed
    return acc.scale(Fraction(1, len(words)))


def weyl_check(dim: int, max_degree: int
               ) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Compare pi0 with the symmetrized words on every monomial q^alpha p^beta.

    Sweeps all monomials of total degree at most ``max_degree`` in
    increasing degree and returns the number checked together with the
    (alpha, beta) pairs where the two operators differ.  A degree above
    ``MAX_WORD_LENGTH``, which the oracle refuses, or a sweep of more
    than ``MAX_WEYL_MONOMIALS`` monomials raises ``BudgetExceeded``
    before any work.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if max_degree > MAX_WORD_LENGTH:
        raise BudgetExceeded("a symmetrized word", max_degree, MAX_WORD_LENGTH, "letters")
    # C(top, 2n) >= top once max_degree >= 1, so a large dimension or
    # degree is refused before the binomial itself gets costly
    top = max_degree + 2 * dim
    if max_degree >= 1:
        count = top if top > MAX_WEYL_MONOMIALS else comb(top, 2 * dim)
        if count > MAX_WEYL_MONOMIALS:
            raise BudgetExceeded(f"degree <= {max_degree} in dim {dim}", count,
                                 MAX_WEYL_MONOMIALS, "monomials")
    checked = 0
    mismatches = []
    for degree in range(max_degree + 1):
        for combo in _compositions(degree, 2 * dim):
            alpha, beta = combo[:dim], combo[dim:]
            f = GaussianObservable(PhasePolynomial.monomial(dim, 0, alpha, beta))
            checked += 1
            if pi0(f) != weyl_symmetrize_oracle(alpha, beta):
                mismatches.append((alpha, beta))
    return checked, mismatches
