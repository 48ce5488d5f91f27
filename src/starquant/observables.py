"""Symbolic observables on flat phase space T*R^n.

The exact tier works with two closed classes of functions of
(q^1..q^n, p_1..p_n):

* ``PhasePolynomial`` -- polynomials in q and p whose coefficients are
  complex rationals times integer powers of the deformation parameter
  lambda.  A term is keyed by (lambda-order k, q-exponents alpha,
  p-exponents beta); the canonical ordering sorts by k, then alpha,
  then beta lexicographically, which makes printing and serialization
  deterministic.

* ``GaussianObservable`` -- a polynomial body times an isotropic
  Gaussian envelope exp(-c*|q|^2) with exact rational rate c >= 0.
  The class is closed under derivatives, products (rates add) and the
  momentum substitutions used by fiber flows; sums require matching
  rates because a sum of distinct envelopes is not representable.

Sums of products go over one denominator, in one routine.
``_sum_of_products`` puts the factors of its jobs over the lcm of their
denominators, adds plain integer numerators per output term
(``_products``) and reduces each output coefficient once
(``PhasePolynomial._from_numerators``), never one ``Scalar`` at a time.
The product, operator composition, the odd-order tail of the flow, the
phase derivative and the phase star all call it.  The momentum
substitution (``PhasePolynomial.substitute_momenta``) shifts one p_k at a
time: it calls ``_products`` once per momentum, on powers of the shift
built the same way, and reduces once at the end.  The fiber flow shifts
by c*u_k with c = -t: c^j goes into the weight of the job against u_k^j,
so no scaled shift is built, and the j = 0 group, the terms as they are,
is added straight into the sum over its common denominator instead of
being multiplied by 1.  The Leibniz enumerator (``_leibniz_terms``) of
operator composition, the odd-order tail and the phase star runs on
``_Numerators``: numerator pairs whose derivatives are integer steps
(the envelope and phase rules included) that reduce nothing, and that
``_products`` takes as they are.  Two sums keep their own pass: the
star kernel's ``star._sum`` rotates by i^n, filters by order, prices
entries against the byte budget and pauses the collector, so sharing
would make the routine branch on its caller; the flat state
``gns.omega0`` weighs scalar moments and forms no products.

Public constructors validate; arithmetic results skip the checks.
``PhasePolynomial(...)``, ``GaussianObservable(...)`` and ``PhaseSymbol(...)``
check and normalize outside input.  Every arithmetic result is built by a
trusted constructor (``PhasePolynomial._from_clean``,
``GaussianObservable._make``, ``PhaseSymbol._from_clean``) whose
preconditions the arithmetic already guarantees.

Everything here is pure: no method mutates its receiver.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatch, EnvelopeMismatch
from .scalars import ONE, Rat, Scalar, ZERO, _frac

TermKey = tuple[int, tuple[int, ...], tuple[int, ...]]
_NO_RATE = Fraction(0)  # the rate of a zero or unenveloped observable


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative ints summing to ``total``, the
    first slot slowest, each ascending: stars and bars, with the slots - 1
    bars placed in lexicographic order among total + slots - 1 places."""
    end = total + slots - 1
    for bars in combinations(range(end), slots - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


def _leibniz_terms(left, right, slots: Sequence[tuple[int, bool]]) -> list:
    """(delta, L^delta left, R^delta right, delta!) for every multi-index
    delta that leaves both factors nonzero.

    Slot (j, p_left) takes d/dp_j of one factor and d/dq^j of the other;
    ``p_left`` says the left one takes the momentum derivative.  delta
    grows one slot at a time from its parent, so each derivative is taken
    once.  The momentum side is differentiated first and a branch ends
    when it vanishes, so a factor whose q-derivatives never vanish (an
    envelope, a phase) costs no step past it.  Duck-typed over
    ``diff_p``, ``diff_q`` and ``is_zero``: the library passes
    ``_Numerators``, the test oracles reduced observables and symbols.
    """
    if left.is_zero() or right.is_zero():
        return []
    parts = [((), left, right, 1)]
    for j, p_left in slots:
        p, q = (0, 1) if p_left else (1, 0)
        grown = []
        for delta, *pair, w in parts:
            d = 0
            while True:
                grown.append((delta + (d,), pair[0], pair[1], w))
                pair[p] = pair[p].diff_p(j)
                if pair[p].is_zero():
                    break
                pair[q] = pair[q].diff_q(j)
                if pair[q].is_zero():
                    break
                d += 1
                w *= d
        parts = grown
    return parts


def _products(jobs: Sequence[tuple]) -> tuple[int, dict]:
    """(L, acc): the sum over jobs (k, re, im, den, a, b) of
    lambda^k (re + i*im)/den times the product of a and b, two
    ``_numerators()`` pairs, as integer numerators acc[key] = [re, im]
    over their lcm L, unreduced: (L, acc) is itself such a pair."""
    jobs = [(k, re, im, den * da * db, na, nb) for k, re, im, den, (da, na), (db, nb) in jobs]
    common = lcm(*(job[3] for job in jobs))
    acc: dict = {}
    for k, re, im, den, na, nb in jobs:
        t = common // den
        re, im = re * t, im * t
        for (k1, a1, b1), (u, v) in na.items():
            k1, r1, i1 = k1 + k, re * u - im * v, re * v + im * u
            for (k2, a2, b2), (r2, i2) in nb.items():
                key = (k1 + k2, tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                else:
                    slot[0] += r1 * r2 - i1 * i2
                    slot[1] += r1 * i2 + i1 * r2
    return common, acc


def _sum_of_products(dim: int, jobs: Sequence[tuple]) -> "PhasePolynomial":
    """``_products`` with each output coefficient reduced once."""
    common, acc = _products(jobs)
    return PhasePolynomial._from_numerators(dim, acc, common)


class _Numerators:
    """An observable or a phase symbol as unreduced numerator pairs, for
    ``_leibniz_terms``.

    ``parts[tau]`` is the ``_numerators()`` pair of the amplitude of
    e^{i tau S/lambda} (tau = 0 for an observable), all under the envelope
    exp(-(rn/rd) |q|^2).  Derivatives are integer steps on the pairs and
    reduce nothing, so ``_products`` takes them as they are; an empty
    part is dropped, which makes ``is_zero`` exact.  ``grads`` holds the
    pairs of d_k S for the phase rule; a phase form has no envelope.
    """

    __slots__ = ("parts", "rn", "rd", "grads")

    def __init__(self, parts: dict, rate: Fraction = _NO_RATE, grads: Sequence = ()):
        self.parts = parts
        self.rn, self.rd = rate.numerator, rate.denominator
        self.grads = grads

    @staticmethod
    def of(f: "Observable") -> "_Numerators":
        obs = GaussianObservable.of(f)
        return _Numerators({0: obs.body._numerators()} if obs.body.terms else {}, obs.rate)

    def _with(self, parts: dict) -> "_Numerators":
        out = object.__new__(_Numerators)
        out.parts, out.rn, out.rd, out.grads = parts, self.rn, self.rd, self.grads
        return out

    def is_zero(self) -> bool:
        return not self.parts

    def diff_p(self, index: int) -> "_Numerators":
        parts = {}
        for tau, (den, nums) in self.parts.items():
            out = {}
            for (k, alpha, beta), (re, im) in nums.items():
                e = beta[index]
                if e:
                    out[k, alpha, beta[:index] + (e - 1,) + beta[index + 1:]] = (re * e, im * e)
            if out:
                parts[tau] = (den, out)
        return self._with(parts)

    def diff_q(self, index: int) -> "_Numerators":
        rn, rd, parts = self.rn, self.rd, {}
        for tau, (den, nums) in self.parts.items():
            if tau:  # plus i tau lambda^-1 (d_k S) amp from the phase factor
                top, acc = _products(((-1, 0, tau.numerator, tau.denominator, (den, nums),
                                       self.grads[index]),))
                m = top // den
            else:  # over den * rd: the envelope's -2 (rn/rd) q_k comes in below
                top, acc, m = den * rd, {}, rd
            for (k, alpha, beta), (re, im) in nums.items():
                e = alpha[index]
                if e:
                    key, e = (k, alpha[:index] + (e - 1,) + alpha[index + 1:], beta), e * m
                    slot = acc.get(key)
                    if slot is None:
                        acc[key] = [re * e, im * e]
                    else:
                        slot[0] += re * e
                        slot[1] += im * e
            if rn:
                w = -2 * rn
                for (k, alpha, beta), (re, im) in nums.items():
                    key = (k, alpha[:index] + (alpha[index] + 1,) + alpha[index + 1:], beta)
                    slot = acc.get(key)
                    if slot is None:
                        acc[key] = [re * w, im * w]
                    else:
                        slot[0] += re * w
                        slot[1] += im * w
            if tau or rn:  # the two rules may cancel
                acc = {key: v for key, v in acc.items() if v[0] or v[1]}
            if acc:
                parts[tau] = (top, acc)
        return self._with(parts)


class PhasePolynomial:
    """Polynomial in (q, p) over complex rationals, graded by lambda."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[TermKey, Scalar | Rat] | None = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        clean: dict[TermKey, Scalar] = {}
        if terms:
            for (k, alpha, beta), c in terms.items():
                alpha = tuple(int(a) for a in alpha)
                beta = tuple(int(b) for b in beta)
                if len(alpha) != dim or len(beta) != dim:
                    raise DimensionMismatch(
                        f"multi-index length != dim={dim}: {alpha}, {beta}")
                if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
                    raise ValueError("negative exponent in multi-index")
                s = Scalar.of(c)
                if not s.is_zero():
                    key = (int(k), alpha, beta)
                    prev = clean.get(key)
                    s = s if prev is None else prev + s
                    if s.is_zero():
                        clean.pop(key, None)
                    else:
                        clean[key] = s
        self.terms: dict[TermKey, Scalar] = clean

    @staticmethod
    def _from_clean(dim: int, terms: dict[TermKey, Scalar]) -> "PhasePolynomial":
        """Trusted constructor for arithmetic results; takes ``terms`` over.

        Precondition: ``dim >= 1``, every key is (int k, alpha, beta) with
        alpha and beta tuples of ``dim`` nonnegative ints, and no
        coefficient is zero.  Nothing is checked or copied; the public
        constructor is the one for outside input.
        """
        poly = object.__new__(PhasePolynomial)
        poly.dim = dim
        poly.terms = terms
        return poly

    @staticmethod
    def _from_numerators(dim: int, acc: Mapping[TermKey, Sequence[int]],
                         den: int) -> "PhasePolynomial":
        """Trusted constructor from integer numerators: acc[key] = (re, im)
        stands for (re + i*im)/den, and each nonzero one is reduced once."""
        raw = Scalar._raw
        return PhasePolynomial._from_clean(
            dim, {key: raw(re, im, den) for key, (re, im) in acc.items() if re or im})

    def _numerators(self) -> tuple[int, dict]:
        """(L, {key: (re, im)}): the terms as integer numerators over the
        lcm L of their denominators."""
        den = lcm(*(c.den for c in self.terms.values()))
        return den, {key: (c.re_num * (den // c.den), c.im_num * (den // c.den))
                     for key, c in self.terms.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "PhasePolynomial":
        return PhasePolynomial(dim)

    @staticmethod
    def constant(dim: int, c: Scalar | Rat) -> "PhasePolynomial":
        z = (0,) * dim
        return PhasePolynomial(dim, {(0, z, z): Scalar.of(c)})

    @staticmethod
    def one(dim: int) -> "PhasePolynomial":
        return PhasePolynomial.constant(dim, ONE)

    @staticmethod
    def coordinate_q(index: int, dim: int) -> "PhasePolynomial":
        """The coordinate function q^index, 0-based index."""
        if not 0 <= index < dim:
            raise DimensionMismatch(f"coordinate index {index} outside 0..{dim - 1}")
        alpha = tuple(1 if j == index else 0 for j in range(dim))
        return PhasePolynomial(dim, {(0, alpha, (0,) * dim): ONE})

    @staticmethod
    def coordinate_p(index: int, dim: int) -> "PhasePolynomial":
        """The momentum coordinate p_index, 0-based index."""
        if not 0 <= index < dim:
            raise DimensionMismatch(f"coordinate index {index} outside 0..{dim - 1}")
        beta = tuple(1 if j == index else 0 for j in range(dim))
        return PhasePolynomial(dim, {(0, (0,) * dim, beta): ONE})

    @staticmethod
    def lam(dim: int, order: int = 1, c: Scalar | Rat = 1) -> "PhasePolynomial":
        """c * lambda**order as a polynomial."""
        z = (0,) * dim
        return PhasePolynomial(dim, {(order, z, z): Scalar.of(c)})

    @staticmethod
    def monomial(dim: int, k: int, alpha: Sequence[int], beta: Sequence[int],
                 c: Scalar | Rat = 1) -> "PhasePolynomial":
        return PhasePolynomial(dim, {(k, tuple(alpha), tuple(beta)): Scalar.of(c)})

    # -- predicates and gradings --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_base_only(self) -> bool:
        """True when no term depends on the momenta."""
        return all(not any(beta) for (_, _, beta) in self.terms)

    def is_lambda_free(self) -> bool:
        return all(k == 0 for (k, _, _) in self.terms)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def degree_p(self) -> int:
        """Total p-degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(beta) for (_, _, beta) in self.terms)

    def degree_q(self) -> int:
        if not self.terms:
            return -1
        return max(sum(alpha) for (_, alpha, _) in self.terms)

    def min_lambda_order(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no lambda grading")
        return min(k for (k, _, _) in self.terms)

    def max_lambda_order(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no lambda grading")
        return max(k for (k, _, _) in self.terms)

    def lambda_components(self) -> dict[int, "PhasePolynomial"]:
        """Split into {order: lambda-free polynomial} with the grading removed."""
        buckets: dict[int, dict[TermKey, Scalar]] = {}
        for (k, alpha, beta), c in self.terms.items():
            buckets.setdefault(k, {})[(0, alpha, beta)] = c
        return {k: PhasePolynomial._from_clean(self.dim, t)
                for k, t in sorted(buckets.items())}

    def coefficient(self, k: int, alpha: Sequence[int], beta: Sequence[int]) -> Scalar:
        return self.terms.get((k, tuple(alpha), tuple(beta)), ZERO)

    # -- arithmetic ----------------------------------------------------

    def _check_dim(self, other: "PhasePolynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                c = prev + c
                if c.is_zero():
                    del out[key]
                else:
                    out[key] = c
        return PhasePolynomial._from_clean(self.dim, out)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + (-other)

    def __neg__(self) -> "PhasePolynomial":
        return PhasePolynomial._from_clean(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "PhasePolynomial | Scalar | Rat") -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            self._check_dim(other)
            return _sum_of_products(
                self.dim, ((0, 1, 0, 1, self._numerators(), other._numerators()),))
        return self.scale(other)

    def __rmul__(self, other: "Scalar | Rat") -> "PhasePolynomial":
        return self.scale(other)

    def scale(self, c: Scalar | Rat) -> "PhasePolynomial":
        s = Scalar.of(c)
        if s.is_zero():
            return PhasePolynomial.zero(self.dim)
        return PhasePolynomial._from_clean(self.dim, {k: v * s for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "PhasePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = PhasePolynomial.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_lambda(self, orders: int) -> "PhasePolynomial":
        """Multiply by lambda**orders (orders may be negative)."""
        return PhasePolynomial._from_clean(
            self.dim,
            {(k + orders, a, b): c for (k, a, b), c in self.terms.items()})

    # -- calculus ------------------------------------------------------

    def diff_q(self, index: int) -> "PhasePolynomial":
        out: dict[TermKey, Scalar] = {}
        for (k, alpha, beta), c in self.terms.items():
            e = alpha[index]
            if e == 0:
                continue
            alpha2 = alpha[:index] + (e - 1,) + alpha[index + 1:]
            out[(k, alpha2, beta)] = Scalar._raw(c.re_num * e, c.im_num * e, c.den)
        return PhasePolynomial._from_clean(self.dim, out)

    def diff_p(self, index: int) -> "PhasePolynomial":
        out: dict[TermKey, Scalar] = {}
        for (k, alpha, beta), c in self.terms.items():
            e = beta[index]
            if e == 0:
                continue
            beta2 = beta[:index] + (e - 1,) + beta[index + 1:]
            out[(k, alpha, beta2)] = Scalar._raw(c.re_num * e, c.im_num * e, c.den)
        return PhasePolynomial._from_clean(self.dim, out)

    def conjugate(self) -> "PhasePolynomial":
        """Complex conjugation; lambda is treated as a real parameter."""
        return PhasePolynomial._from_clean(
            self.dim, {k: c.conjugate() for k, c in self.terms.items()})

    def restrict_zero_section(self) -> "PhasePolynomial":
        """Pull back along p = 0: every term with a momentum factor dies."""
        return PhasePolynomial._from_clean(
            self.dim,
            {key: c for key, c in self.terms.items() if not any(key[2])})

    def substitute_momenta(self, shifts: Sequence["PhasePolynomial"]) -> "PhasePolynomial":
        """Substitute p_k -> p_k + u_k for base polynomials u_k.

        One momentum at a time: as (p_k + u_k)^e = sum_j C(e, j) p_k^(e-j) u_k^j,
        the terms go into one ``_products`` job per j against u_k^j, itself
        built by unreduced products up to the highest j met.  A zero u_k
        leaves p_k alone.  Each dimension's sum stays unreduced, and the
        result is reduced once.
        """
        if len(shifts) != self.dim:
            raise DimensionMismatch(f"need {self.dim} shift polynomials")
        for u in shifts:
            self._check_dim(u)
            if not u.is_base_only():
                raise ValueError("momentum substitution requires base-only shifts")
        return self._shift_momenta(shifts, 1)

    def _shift_momenta(self, shifts: Sequence["PhasePolynomial"], c: Rat) -> "PhasePolynomial":
        """``substitute_momenta`` of the shifts c*u_k, unchecked.

        c^j goes into the weight of the job against u_k^j, so the scaled
        shifts are never built.  The j = 0 group is added straight into the
        sum, over its common denominator.
        """
        c = _frac(c)
        if not c:
            return self
        cn, cd = c.numerator, c.denominator
        den, nums = self._numerators()
        for k, u in enumerate(shifts):
            if u.is_zero():
                continue
            groups: dict[int, dict] = {}
            for (lam, alpha, beta), (re, im) in nums.items():
                e, w = beta[k], 1
                for j in range(1, e + 1):
                    w = w * (e - j + 1) // j  # C(e, j)
                    groups.setdefault(j, {})[lam, alpha, beta[:k] + (e - j,) + beta[k + 1:]] = (
                        re * w, im * w)
            if not groups:
                continue
            powers = [None, u._numerators()]  # powers[j] is u_k^j
            while len(powers) <= len(groups):
                powers.append(_products(((0, 1, 0, 1, powers[-1], powers[1]),)))
            common, acc = _products([(0, cn ** j, 0, cd ** j, (den, group), powers[j])
                                     for j, group in groups.items()])
            t = common // den  # every job's denominator is a multiple of den
            for key, (re, im) in nums.items():
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [re * t, im * t]
                else:
                    slot[0] += re * t
                    slot[1] += im * t
            den, nums = common, acc
        return PhasePolynomial._from_numerators(self.dim, nums, den)

    # -- ordering, equality, display ----------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Scalar]]:
        """Terms in the canonical (k, alpha, beta) order."""
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PhasePolynomial)
                and self.dim == other.dim and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __str__(self) -> str:
        from .render import pretty_polynomial
        return pretty_polynomial(self)

    def __repr__(self) -> str:
        return f"PhasePolynomial(dim={self.dim}, {dict(self.sorted_terms())!r})"


class GaussianObservable:
    """body * exp(-rate * |q|^2) with a PhasePolynomial body.

    The envelope rate is an exact nonnegative rational.  A vanishing
    body normalizes the rate to zero so that equality is canonical.
    """

    __slots__ = ("body", "rate")

    def __init__(self, body: PhasePolynomial, rate: Rat = 0):
        rate = _frac(rate)
        if rate.numerator < 0:
            raise ValueError("envelope rate must be nonnegative")
        self.body = body
        self.rate = rate if body.terms else _NO_RATE

    @staticmethod
    def _make(body: PhasePolynomial, rate: Fraction) -> "GaussianObservable":
        """Trusted constructor for arithmetic results; takes ``body`` over.
        Precondition: ``rate`` is a ``Fraction`` >= 0.  A zero body gets rate 0."""
        obs = object.__new__(GaussianObservable)
        obs.body = body
        obs.rate = rate if body.terms else _NO_RATE
        return obs

    @staticmethod
    def of(x: "GaussianObservable | PhasePolynomial") -> "GaussianObservable":
        if isinstance(x, GaussianObservable):
            return x
        return GaussianObservable._make(x, _NO_RATE)

    @staticmethod
    def zero(dim: int) -> "GaussianObservable":
        return GaussianObservable._make(PhasePolynomial.zero(dim), _NO_RATE)

    @property
    def dim(self) -> int:
        return self.body.dim

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def is_base_only(self) -> bool:
        return self.body.is_base_only()

    def degree_p(self) -> int:
        return self.body.degree_p()

    def _check_rate(self, other: "GaussianObservable") -> None:
        if self.rate != other.rate and not (self.is_zero() or other.is_zero()):
            raise EnvelopeMismatch(
                f"cannot add envelopes with rates {self.rate} and {other.rate}")

    def __add__(self, other: "GaussianObservable") -> "GaussianObservable":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self._check_rate(other)
        return GaussianObservable._make(self.body + other.body, self.rate)

    def __sub__(self, other: "GaussianObservable") -> "GaussianObservable":
        return self + (-other)

    def __neg__(self) -> "GaussianObservable":
        return GaussianObservable._make(-self.body, self.rate)

    def __mul__(self, other: "GaussianObservable | PhasePolynomial | Scalar | Rat") -> "GaussianObservable":
        if isinstance(other, GaussianObservable):
            return GaussianObservable._make(self.body * other.body, self.rate + other.rate)
        if isinstance(other, PhasePolynomial):
            return GaussianObservable._make(self.body * other, self.rate)
        return self.scale(other)

    def __rmul__(self, other: "Scalar | Rat") -> "GaussianObservable":
        return self.scale(other)

    def scale(self, c: Scalar | Rat) -> "GaussianObservable":
        return GaussianObservable._make(self.body.scale(c), self.rate)

    def mul_lambda(self, orders: int) -> "GaussianObservable":
        return GaussianObservable._make(self.body.mul_lambda(orders), self.rate)

    def diff_q(self, index: int) -> "GaussianObservable":
        # d/dq_i (B * e^{-c|q|^2}) = (dB/dq_i - 2c q_i B) * e^{-c|q|^2}
        body = self.body.diff_q(index)
        if self.rate:
            qi = PhasePolynomial.coordinate_q(index, self.dim)
            body = body - (qi * self.body).scale(2 * self.rate)
        return GaussianObservable._make(body, self.rate)

    def diff_p(self, index: int) -> "GaussianObservable":
        return GaussianObservable._make(self.body.diff_p(index), self.rate)

    def conjugate(self) -> "GaussianObservable":
        return GaussianObservable._make(self.body.conjugate(), self.rate)

    def restrict_zero_section(self) -> "GaussianObservable":
        return GaussianObservable._make(self.body.restrict_zero_section(), self.rate)

    def substitute_momenta(self, shifts: Sequence[PhasePolynomial]) -> "GaussianObservable":
        return GaussianObservable._make(self.body.substitute_momenta(shifts), self.rate)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GaussianObservable)
                and self.rate == other.rate and self.body == other.body)

    def __hash__(self):
        return hash((self.body, self.rate))

    def __str__(self) -> str:
        from .render import pretty_observable
        return pretty_observable(self)

    def __repr__(self) -> str:
        return f"GaussianObservable({self.body!r}, rate={self.rate})"


Observable = Union[GaussianObservable, PhasePolynomial]


def differentiate(f: Observable, var: str) -> GaussianObservable:
    """Exact partial derivative along a named variable.

    ``var`` is a coordinate name in the CLI convention: "q" or "p"
    (dimension one), or "q2", "p1", ... with 1-based indices.
    """
    obs = GaussianObservable.of(f)
    name = var.strip()
    if not name or name[0] not in "qp":
        raise ValueError(f"unknown variable {var!r}")
    idx_text = name[1:]
    index = int(idx_text) - 1 if idx_text else 0
    if not 0 <= index < obs.dim:
        raise DimensionMismatch(f"variable {var!r} outside dimension {obs.dim}")
    return obs.diff_q(index) if name[0] == "q" else obs.diff_p(index)


def restrict_zero_section(f: Observable) -> GaussianObservable:
    return GaussianObservable.of(f).restrict_zero_section()


def substitute_momenta(f: Observable, shifts: Sequence[PhasePolynomial]) -> GaussianObservable:
    return GaussianObservable.of(f).substitute_momenta(shifts)


def conjugate(f: Observable) -> GaussianObservable:
    return GaussianObservable.of(f).conjugate()
