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

Everything here is pure: no method mutates its receiver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatch, EnvelopeMismatch
from .scalars import ONE, Rat, Scalar, ZERO, _frac

TermKey = tuple[int, tuple[int, ...], tuple[int, ...]]


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative ints summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


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
        return {k: PhasePolynomial(self.dim, t) for k, t in sorted(buckets.items())}

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
            out[key] = out.get(key, ZERO) + c
        return PhasePolynomial(self.dim, out)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + (-other)

    def __neg__(self) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "PhasePolynomial | Scalar | Rat") -> "PhasePolynomial":
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        out: dict[TermKey, Scalar] = {}
        for (k1, a1, b1), c1 in self.terms.items():
            for (k2, a2, b2), c2 in other.terms.items():
                key = (k1 + k2,
                       tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                prod = c1 * c2
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        return PhasePolynomial(self.dim, out)

    def __rmul__(self, other: "Scalar | Rat") -> "PhasePolynomial":
        return self.scale(other)

    def scale(self, c: Scalar | Rat) -> "PhasePolynomial":
        s = Scalar.of(c)
        if s.is_zero():
            return PhasePolynomial.zero(self.dim)
        return PhasePolynomial(self.dim, {k: v * s for k, v in self.terms.items()})

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
        return PhasePolynomial(
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
            out[(k, alpha2, beta)] = c * e
        return PhasePolynomial(self.dim, out)

    def diff_p(self, index: int) -> "PhasePolynomial":
        out: dict[TermKey, Scalar] = {}
        for (k, alpha, beta), c in self.terms.items():
            e = beta[index]
            if e == 0:
                continue
            beta2 = beta[:index] + (e - 1,) + beta[index + 1:]
            out[(k, alpha, beta2)] = c * e
        return PhasePolynomial(self.dim, out)

    def conjugate(self) -> "PhasePolynomial":
        """Complex conjugation; lambda is treated as a real parameter."""
        return PhasePolynomial(
            self.dim, {k: c.conjugate() for k, c in self.terms.items()})

    def restrict_zero_section(self) -> "PhasePolynomial":
        """Pull back along p = 0: every term with a momentum factor dies."""
        return PhasePolynomial(
            self.dim,
            {key: c for key, c in self.terms.items() if not any(key[2])})

    def substitute_momenta(self, shifts: Sequence["PhasePolynomial"]) -> "PhasePolynomial":
        """Substitute p_k -> p_k + u_k for base polynomials u_k."""
        if len(shifts) != self.dim:
            raise DimensionMismatch(f"need {self.dim} shift polynomials")
        for u in shifts:
            self._check_dim(u)
            if not u.is_base_only():
                raise ValueError("momentum substitution requires base-only shifts")
        shifted_p = [PhasePolynomial.coordinate_p(k, self.dim) + shifts[k]
                     for k in range(self.dim)]
        # cache powers of each (p_k + u_k)
        pow_cache: list[dict[int, PhasePolynomial]] = [
            {0: PhasePolynomial.one(self.dim)} for _ in range(self.dim)]

        def power(k: int, e: int) -> PhasePolynomial:
            cache = pow_cache[k]
            if e not in cache:
                cache[e] = power(k, e - 1) * shifted_p[k]
            return cache[e]

        out = PhasePolynomial.zero(self.dim)
        for (k, alpha, beta), c in self.terms.items():
            acc = PhasePolynomial(self.dim, {(k, alpha, (0,) * self.dim): c})
            for j, bj in enumerate(beta):
                if bj:
                    acc = acc * power(j, bj)
            out = out + acc
        return out

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
        if rate < 0:
            raise ValueError("envelope rate must be nonnegative")
        if body.is_zero():
            rate = Fraction(0)
        self.body = body
        self.rate = rate

    @staticmethod
    def of(x: "GaussianObservable | PhasePolynomial") -> "GaussianObservable":
        if isinstance(x, GaussianObservable):
            return x
        return GaussianObservable(x)

    @staticmethod
    def zero(dim: int) -> "GaussianObservable":
        return GaussianObservable(PhasePolynomial.zero(dim))

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
        return GaussianObservable(self.body + other.body, self.rate)

    def __sub__(self, other: "GaussianObservable") -> "GaussianObservable":
        return self + (-other)

    def __neg__(self) -> "GaussianObservable":
        return GaussianObservable(-self.body, self.rate)

    def __mul__(self, other: "GaussianObservable | PhasePolynomial | Scalar | Rat") -> "GaussianObservable":
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        o = GaussianObservable.of(other)
        return GaussianObservable(self.body * o.body, self.rate + o.rate)

    def __rmul__(self, other: "Scalar | Rat") -> "GaussianObservable":
        return self.scale(other)

    def scale(self, c: Scalar | Rat) -> "GaussianObservable":
        return GaussianObservable(self.body.scale(c), self.rate)

    def mul_lambda(self, orders: int) -> "GaussianObservable":
        return GaussianObservable(self.body.mul_lambda(orders), self.rate)

    def diff_q(self, index: int) -> "GaussianObservable":
        # d/dq_i (B * e^{-c|q|^2}) = (dB/dq_i - 2c q_i B) * e^{-c|q|^2}
        body = self.body.diff_q(index)
        if self.rate:
            qi = PhasePolynomial.coordinate_q(index, self.dim)
            body = body - (qi * self.body).scale(2 * self.rate)
        return GaussianObservable(body, self.rate)

    def diff_p(self, index: int) -> "GaussianObservable":
        return GaussianObservable(self.body.diff_p(index), self.rate)

    def conjugate(self) -> "GaussianObservable":
        return GaussianObservable(self.body.conjugate(), self.rate)

    def restrict_zero_section(self) -> "GaussianObservable":
        return GaussianObservable(self.body.restrict_zero_section(), self.rate)

    def substitute_momenta(self, shifts: Sequence[PhasePolynomial]) -> "GaussianObservable":
        return GaussianObservable(self.body.substitute_momenta(shifts), self.rate)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GaussianObservable)
                and self.rate == other.rate and self.body == other.body)

    def __hash__(self):
        return hash((self.body, self.rate))

    def __str__(self) -> str:
        if not self.rate:
            return str(self.body)
        return f"({self.body}) * exp(-{self.rate}*|q|^2)"

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
