"""Oscillatory symbols a(q,p) e^{i tau S(q)/lambda} and their star products.

Differentiating the phase factor trades one configuration derivative
for a lambda^{-1}:

    d/dq^k (a e^{i tau S/lambda})
        = (da/dq^k + i tau (d_k S) lambda^{-1} a) e^{i tau S/lambda},

so star products of symbols live in Laurent polynomials of bounded
principal part.  The sums still terminate: every bidifferential factor
spends one momentum derivative, and phases carry no momentum.

The payoff is the conjugation identity: dressing an observable with the
time-t phase pair reproduces the Heisenberg flow,

    e^{i t S/lambda} * H * e^{-i t S/lambda} = A_t H,

computed here by another route than the evolution module: no fiber
flow and no odd-order source, only the star expansion of the phase
symbols.  The two routes share the polynomial layer and its Leibniz-term
enumerator, and neither calls the star kernel in ``star.py``, so their
agreement is a sharp cross-check of both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DimensionMismatch, PhaseMismatch
from .evolution import ActionData
from .observables import (GaussianObservable, PhasePolynomial, _leibniz_terms,
                          _Numerators, _sum_of_products)
from .scalars import Rat, Scalar, i_power


class PhaseSymbol:
    """Finite sum of polynomial amplitudes times phases e^{i tau S/lambda}."""

    __slots__ = ("s", "terms")

    def __init__(self, s: ActionData,
                 terms: Mapping[Fraction, PhasePolynomial] | None = None):
        self.s = s
        clean: dict[Fraction, PhasePolynomial] = {}
        if terms:
            for tau, amp in terms.items():
                if amp.dim != s.dim:
                    raise DimensionMismatch("amplitude dimension != action dimension")
                if not amp.is_zero():
                    tau = Fraction(tau)
                    prev = clean.get(tau)
                    amp = amp if prev is None else prev + amp
                    if amp.is_zero():
                        clean.pop(tau, None)
                    else:
                        clean[tau] = amp
        self.terms = clean

    @staticmethod
    def _from_clean(s: ActionData, terms: dict[Fraction, PhasePolynomial]) -> "PhaseSymbol":
        """Trusted constructor for arithmetic results: keeps the nonzero
        amplitudes of ``terms``.  Precondition: every key is a ``Fraction``
        and every amplitude a PhasePolynomial of dimension ``s.dim``."""
        sym = object.__new__(PhaseSymbol)
        sym.s = s
        sym.terms = {tau: amp for tau, amp in terms.items() if amp.terms}
        return sym

    @staticmethod
    def pure_phase(s: ActionData, tau: Rat) -> "PhaseSymbol":
        """The bare symbol e^{i tau S/lambda}."""
        return PhaseSymbol(s, {Fraction(tau): PhasePolynomial.one(s.dim)})

    @staticmethod
    def from_polynomial(s: ActionData, poly: PhasePolynomial) -> "PhaseSymbol":
        return PhaseSymbol(s, {Fraction(0): poly})

    @property
    def dim(self) -> int:
        return self.s.dim

    def is_zero(self) -> bool:
        return not self.terms

    def degree_p(self) -> int:
        if not self.terms:
            return -1
        return max(a.degree_p() for a in self.terms.values())

    def __add__(self, other: "PhaseSymbol") -> "PhaseSymbol":
        self._check(other)
        out = dict(self.terms)
        for tau, amp in other.terms.items():
            out[tau] = out.get(tau, PhasePolynomial.zero(self.dim)) + amp
        return PhaseSymbol._from_clean(self.s, out)

    def scale(self, c: Scalar | Rat) -> "PhaseSymbol":
        return PhaseSymbol._from_clean(self.s, {t: a.scale(c) for t, a in self.terms.items()})

    def mul_lambda(self, orders: int) -> "PhaseSymbol":
        return PhaseSymbol._from_clean(
            self.s, {t: a.mul_lambda(orders) for t, a in self.terms.items()})

    def pointwise_mul(self, other: "PhaseSymbol") -> "PhaseSymbol":
        self._check(other)
        return _per_phase(self.s, ((0, 1, 0, 1, self._numerators(), other._numerators()),))

    def _numerators(self) -> dict[Fraction, tuple[int, dict]]:
        """{tau: the ``_numerators()`` pair of the amplitude of tau}."""
        return {tau: amp._numerators() for tau, amp in self.terms.items()}

    def diff_q(self, index: int) -> "PhaseSymbol":
        grad, out = self.s.gradient[index], {}
        for tau, amp in self.terms.items():
            d = amp.diff_q(index)
            if tau:  # plus i tau lambda^-1 (d_k S) amp from the phase factor
                d = d + _sum_of_products(self.dim, ((-1, 0, tau.numerator, tau.denominator,
                                                     amp._numerators(), grad._numerators()),))
            out[tau] = d
        return PhaseSymbol._from_clean(self.s, out)

    def diff_p(self, index: int) -> "PhaseSymbol":
        return PhaseSymbol._from_clean(
            self.s, {tau: amp.diff_p(index) for tau, amp in self.terms.items()})

    def _check(self, other: "PhaseSymbol") -> None:
        if self.s != other.s:
            raise PhaseMismatch("phase symbols built over different actions")

    def sorted_terms(self) -> list[tuple[Fraction, PhasePolynomial]]:
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PhaseSymbol) and self.s == other.s
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.s, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for tau, amp in self.sorted_terms():
            if tau == 0:
                chunks.append(f"({amp})")
            else:
                chunks.append(f"({amp}) * exp(i*({tau})*S/lambda)")
        return " + ".join(chunks)

    __repr__ = __str__


def _as_symbol(x: "PhaseSymbol | PhasePolynomial | GaussianObservable",
               s: ActionData | None) -> PhaseSymbol:
    if isinstance(x, PhaseSymbol):
        return x
    if isinstance(x, GaussianObservable):
        if x.rate != 0:
            raise ValueError("phase star is defined on the polynomial tier")
        x = x.body
    if s is None:
        raise PhaseMismatch("no action available to lift a polynomial")
    return PhaseSymbol.from_polynomial(s, x)


def _per_phase(s: ActionData, pairs: Iterable[tuple]) -> PhaseSymbol:
    """The sum over pairs (k, re, im, den, f, g) of lambda^k (re + i*im)/den
    times the amplitude products of f and g, two symbols given as
    {tau: numerator pair}, one ``_sum_of_products`` per phase t1 + t2."""
    jobs: dict[Fraction, list] = {}
    for k, re, im, den, f, g in pairs:
        for t1, n1 in f.items():
            for t2, n2 in g.items():
                jobs.setdefault(t1 + t2, []).append((k, re, im, den, n1, n2))
    return PhaseSymbol._from_clean(
        s, {tau: _sum_of_products(s.dim, js) for tau, js in jobs.items()})


def phase_star(f: "PhaseSymbol | PhasePolynomial | GaussianObservable",
               g: "PhaseSymbol | PhasePolynomial | GaussianObservable") -> PhaseSymbol:
    """Weyl star product extended to oscillatory symbols.

    Same expansion and prefactors as the polynomial star; the phase
    derivative rule feeds lambda^{-1} terms into the amplitudes.  At
    least one side must be a PhaseSymbol, and matching actions are
    enforced when both are.
    """
    s = f.s if isinstance(f, PhaseSymbol) else (g.s if isinstance(g, PhaseSymbol) else None)
    fs = _as_symbol(f, s)
    gs = _as_symbol(g, s)
    fs._check(gs)
    n = fs.dim
    # delta = (a, c) pairs d_q^a d_p^c f with d_p^a d_q^c g, weighted
    # (i lambda/2)^b (-1)^|c| / (a! c!) with b = |a| + |c|
    slots = [(j, False) for j in range(n)] + [(j, True) for j in range(n)]
    grads = [g._numerators() for g in fs.s.gradient]
    pairs = []
    for delta, left, right, w in _leibniz_terms(_Numerators(fs._numerators(), grads=grads),
                                                _Numerators(gs._numerators(), grads=grads),
                                                slots):
        b = sum(delta)
        rot, sign = i_power(b), (-1) ** sum(delta[n:])
        pairs.append((b, sign * rot.re_num, sign * rot.im_num, w << b, left.parts, right.parts))
    return _per_phase(fs.s, pairs)


def conjugate_by_phase(h: "PhasePolynomial | GaussianObservable", s: ActionData,
                       t: Rat) -> PhasePolynomial:
    """e^{i t S/lambda} * H * e^{-i t S/lambda}, reduced to a plain observable.

    All oscillatory factors must cancel; a surviving phase or a
    lambda^{-1} residue in the amplitude would flag an inconsistency and
    raises.  The result coincides with the Heisenberg flow at time t.
    """
    if isinstance(h, GaussianObservable):
        if h.rate != 0:
            raise ValueError("conjugation identity is stated on the polynomial tier")
        h = h.body
    t = Fraction(t)
    left = PhaseSymbol.pure_phase(s, t)
    right = PhaseSymbol.pure_phase(s, -t)
    dressed = phase_star(phase_star(left, h), right)
    residue = {tau: amp for tau, amp in dressed.terms.items() if tau != 0}
    if residue:
        raise PhaseMismatch(f"uncancelled phases remain: {sorted(residue)}")
    result = dressed.terms.get(Fraction(0), PhasePolynomial.zero(s.dim))
    if not result.is_zero() and result.min_lambda_order() < 0:
        raise PhaseMismatch("negative lambda orders survived conjugation")
    return result
