"""States, their ideals, and the induced configuration-space operators.

The distinguished state integrates an observable over the zero section
q -> (q, 0) of T*R^n.  Everything it induces is computed exactly here:

* ``omega0`` evaluates the state by closed-form Gaussian moments.
* ``inner0`` is the sesquilinear form omega0(conj(f) * g); it factorizes
  through the symmetrization map as an honest L^2 pairing of the two
  projected wave functions, and both routes are implemented so they can
  be checked against each other.
* the null ideal of the form is detected by ``gelfand_member0`` and made
  constructive by ``momenta_decompose``, which peels a polynomial
  member into left star-multiples of the momenta.
* ``pi0`` realizes observables as differential operators in q acting on
  the quotient; ``weyl_symmetrize_oracle`` provides the independent
  operator-ordering average that pi0 must reproduce on monomials, and
  ``weyl_check`` sweeps that comparison over all monomials up to a degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .errors import (BudgetExceeded, DimensionMismatch, EnvelopeMismatch, NonIntegrable,
                     NotInIdeal)
from .observables import GaussianObservable, Observable, PhasePolynomial, _compositions
from .scalars import I, IntegralValue, LaurentSeries, Rat, Scalar, ZERO, i_power
from .star import s_map, star

OpKey = tuple[int, tuple[int, ...]]

# Most monomials one weyl_check sweeps.  The oracle refuses words longer
# than 8 factors, so a sweep under this cap ends in about 2 s on 2 vCPUs
# (dim 2, degree <= 6 is the slowest); dim 2, degree 8 (495) takes 50 s.
MAX_WEYL_MONOMIALS = 300


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_moment(exponent: int, rate: Fraction) -> Fraction:
    """integral of x^exponent e^{-rate x^2} dx over R, divided by sqrt(pi/rate).

    Odd exponents integrate to zero; even ones give
    (exponent-1)!! / (2 rate)^(exponent/2).
    """
    if exponent % 2 == 1:
        return Fraction(0)
    m = exponent // 2
    return Fraction(_double_factorial(exponent - 1), 1) / (2 * rate) ** m


def omega0(f: Observable) -> IntegralValue:
    """Integrate the zero-section restriction of f over configuration space."""
    obs = GaussianObservable.of(f)
    base = obs.restrict_zero_section()
    n = obs.dim
    if base.is_zero():
        return IntegralValue(LaurentSeries.zero(), Fraction(1), n)
    if base.rate == 0:
        raise NonIntegrable("restriction is a nonzero polynomial with no envelope")
    series: dict[int, Scalar] = {}
    for (k, alpha, _), c in base.body.terms.items():
        moment = Fraction(1)
        for e in alpha:
            moment *= gaussian_moment(e, base.rate)
            if moment == 0:
                break
        if moment == 0:
            continue
        series[k] = series.get(k, ZERO) + c * moment
    return IntegralValue(LaurentSeries(series), base.rate, n)


def inner0(f: Observable, g: Observable) -> IntegralValue:
    """The sesquilinear form omega0(conj(f) * g), star route."""
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    return omega0(star(fo.conjugate(), go))


def inner0_factorized(f: Observable, g: Observable) -> IntegralValue:
    """Same form computed through the symmetrization map.

    The star product never enters: both arguments are pushed to base
    functions first and the result is a plain weighted L^2 pairing.
    """
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    left = s_map(fo.conjugate(), "backward").restrict_zero_section()
    right = s_map(go, "forward").restrict_zero_section()
    return omega0(left * right)


def project_H0(f: Observable) -> GaussianObservable:
    """Orthogonal projection of f onto the base-function realization."""
    return s_map(f, "forward").restrict_zero_section()


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

    Coefficients are base-only, lambda-free polynomials in q; the
    lambda-grading lives in the term key.  An optional global Gaussian
    factor exp(-rate |q|^2) multiplies the whole operator, which keeps
    the class closed under the representation of enveloped observables.
    """

    __slots__ = ("dim", "rate", "terms")

    def __init__(self, dim: int, terms: Mapping[OpKey, PhasePolynomial] | None = None,
                 rate: Rat = 0):
        self.dim = int(dim)
        rate = rate if isinstance(rate, Fraction) else Fraction(rate)
        if rate < 0:
            raise ValueError("operator envelope rate must be nonnegative")
        clean: dict[OpKey, PhasePolynomial] = {}
        if terms:
            for (k, gamma), coeff in terms.items():
                gamma = tuple(int(g) for g in gamma)
                if len(gamma) != dim:
                    raise DimensionMismatch("derivative multi-index length != dim")
                if coeff.dim != dim:
                    raise DimensionMismatch("coefficient dimension mismatch")
                if not coeff.is_base_only() or not coeff.is_lambda_free():
                    raise ValueError("operator coefficients must be plain q-polynomials")
                if not coeff.is_zero():
                    clean[(int(k), gamma)] = coeff
        if not clean:
            rate = Fraction(0)
        self.terms = clean
        self.rate = rate

    @staticmethod
    def zero(dim: int) -> "SchrodingerOperator":
        return SchrodingerOperator(dim)

    @staticmethod
    def identity(dim: int) -> "SchrodingerOperator":
        return SchrodingerOperator(
            dim, {(0, (0,) * dim): PhasePolynomial.one(dim)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "SchrodingerOperator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "SchrodingerOperator") -> "SchrodingerOperator":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.rate != other.rate:
            raise EnvelopeMismatch("cannot add operators with different envelope rates")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
        return SchrodingerOperator(self.dim, out, self.rate)

    def __sub__(self, other: "SchrodingerOperator") -> "SchrodingerOperator":
        return self + other.scale(Scalar.of(-1))

    def __neg__(self) -> "SchrodingerOperator":
        return self.scale(Scalar.of(-1))

    def scale(self, c: Scalar | Rat) -> "SchrodingerOperator":
        s = Scalar.of(c)
        if s.is_zero():
            return SchrodingerOperator.zero(self.dim)
        return SchrodingerOperator(
            self.dim, {key: coeff.scale(s) for key, coeff in self.terms.items()},
            self.rate)

    def mul_lambda(self, orders: int) -> "SchrodingerOperator":
        return SchrodingerOperator(
            self.dim, {(k + orders, g): c for (k, g), c in self.terms.items()},
            self.rate)

    def lambda_components(self) -> dict[int, "SchrodingerOperator"]:
        buckets: dict[int, dict[OpKey, PhasePolynomial]] = {}
        for (k, gamma), coeff in self.terms.items():
            buckets.setdefault(k, {})[(0, gamma)] = coeff
        return {k: SchrodingerOperator(self.dim, t, self.rate)
                for k, t in sorted(buckets.items())}

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SchrodingerOperator) and self.dim == other.dim
                and self.rate == other.rate and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.rate, frozenset(self.terms.items())))

    def __str__(self) -> str:
        from .render import pretty_operator
        return pretty_operator(self)

    def __repr__(self) -> str:
        return f"SchrodingerOperator(dim={self.dim}, rate={self.rate}, terms={dict(self.sorted_terms())!r})"


def op_compose(a: SchrodingerOperator, b: SchrodingerOperator) -> SchrodingerOperator:
    """Operator product a . b via the generalized Leibniz rule.

    Each derivative of ``a`` distributes over b's coefficient (with its
    envelope, if any) and the remaining derivatives; envelope rates add.
    """
    a._check(b)
    n = a.dim
    out: dict[OpKey, PhasePolynomial] = {}
    for (k1, g1), c1 in a.terms.items():
        for (k2, g2), c2 in b.terms.items():
            wrapped = GaussianObservable(c2, b.rate)
            for delta in itertools.product(*(range(e + 1) for e in g1)):
                binom = 1
                for ge, de in zip(g1, delta):
                    binom *= comb(ge, de)
                deriv = wrapped
                for j, d in enumerate(delta):
                    for _ in range(d):
                        deriv = deriv.diff_q(j)
                if deriv.is_zero():
                    continue
                gamma = tuple(ge - de + g2e for ge, de, g2e in zip(g1, delta, g2))
                coeff = (c1 * deriv.body).scale(binom)
                key = (k1 + k2, gamma)
                prev = out.get(key)
                out[key] = coeff if prev is None else prev + coeff
    return SchrodingerOperator(n, out, a.rate + b.rate)


def op_apply_base(a: SchrodingerOperator, phi: Observable) -> GaussianObservable:
    """Apply the operator to a base function (no momentum dependence)."""
    obs = GaussianObservable.of(phi)
    if not obs.is_base_only():
        raise ValueError("operators act on base functions only")
    if a.dim != obs.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {obs.dim}")
    out = GaussianObservable.zero(a.dim)
    for (k, gamma), coeff in a.terms.items():
        deriv = obs
        for j, d in enumerate(gamma):
            for _ in range(d):
                deriv = deriv.diff_q(j)
        if deriv.is_zero():
            continue
        out = out + GaussianObservable(coeff.mul_lambda(k), a.rate) * deriv
    return out


def pi0(f: Observable) -> SchrodingerOperator:
    """Represent an observable as a differential operator on base functions.

    With g = S f, a monomial lambda^k c q^alpha p^beta of g contributes
    the operator term (-i)^{|beta|} c q^alpha lambda^(k+|beta|)
    d^beta/dq^beta: one configuration derivative per momentum factor,
    evaluated through the zero section.
    """
    g = s_map(f, "forward")
    n = g.dim
    out: dict[OpKey, PhasePolynomial] = {}
    for (k, alpha, beta), c in g.body.terms.items():
        order = sum(beta)
        key = (k + order, beta)
        coeff = PhasePolynomial(n, {(0, alpha, (0,) * n): c * i_power(-order)})
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    return SchrodingerOperator(n, out, g.rate)


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
    if total > 8:
        raise ValueError("operator word longer than 8 factors")
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
    (alpha, beta) pairs where the two operators differ.  A sweep of more
    than ``MAX_WEYL_MONOMIALS`` monomials raises ``BudgetExceeded``
    before any work.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    # C(top, 2n) >= top once max_degree >= 1, so a large dimension or
    # degree is refused before the binomial itself gets costly
    top = max_degree + 2 * dim
    if max_degree >= 1 and (top > MAX_WEYL_MONOMIALS
                            or comb(top, 2 * dim) > MAX_WEYL_MONOMIALS):
        raise BudgetExceeded(f"degree <= {max_degree} in dim {dim} has C({top}, {2 * dim}) "
                             f"monomials; at most {MAX_WEYL_MONOMIALS} are checked")
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
