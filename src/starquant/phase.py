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

computed here by a completely different route than the evolution
module (no fiber flow, no odd-order source), which makes it a sharp
cross-check of both.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .errors import DimensionMismatch, PhaseMismatch
from .evolution import ActionData
from .observables import GaussianObservable, PhasePolynomial, _compositions
from .scalars import I, Rat, Scalar, i_power


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
        return PhaseSymbol(self.s, out)

    def scale(self, c: Scalar | Rat) -> "PhaseSymbol":
        return PhaseSymbol(self.s, {t: a.scale(c) for t, a in self.terms.items()})

    def mul_lambda(self, orders: int) -> "PhaseSymbol":
        return PhaseSymbol(self.s, {t: a.mul_lambda(orders) for t, a in self.terms.items()})

    def pointwise_mul(self, other: "PhaseSymbol") -> "PhaseSymbol":
        self._check(other)
        out: dict[Fraction, PhasePolynomial] = {}
        for t1, a1 in self.terms.items():
            for t2, a2 in other.terms.items():
                tau = t1 + t2
                prod = a1 * a2
                prev = out.get(tau)
                out[tau] = prod if prev is None else prev + prod
        return PhaseSymbol(self.s, out)

    def diff_q(self, index: int) -> "PhaseSymbol":
        out: dict[Fraction, PhasePolynomial] = {}
        for tau, amp in self.terms.items():
            d = amp.diff_q(index)
            if tau:
                d = d + (amp * self.s.gradient[index]).scale(I * tau).mul_lambda(-1)
            if not d.is_zero():
                prev = out.get(tau)
                out[tau] = d if prev is None else prev + d
        return PhaseSymbol(self.s, out)

    def diff_p(self, index: int) -> "PhaseSymbol":
        return PhaseSymbol(
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


class _SymbolDerivCache:
    def __init__(self, f: PhaseSymbol):
        self.n = f.dim
        zero = (0,) * self.n
        self.cache: dict[tuple[tuple[int, ...], tuple[int, ...]], PhaseSymbol] = {
            (zero, zero): f}

    def get(self, aq: tuple[int, ...], ap: tuple[int, ...]) -> PhaseSymbol:
        key = (aq, ap)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        for i, e in enumerate(aq):
            if e:
                val = self.get(aq[:i] + (e - 1,) + aq[i + 1:], ap).diff_q(i)
                break
        else:
            for i, e in enumerate(ap):
                if e:
                    val = self.get(aq, ap[:i] + (e - 1,) + ap[i + 1:]).diff_p(i)
                    break
            else:  # pragma: no cover
                raise AssertionError
        self.cache[key] = val
        return val


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
    if fs.is_zero() or gs.is_zero():
        return PhaseSymbol(fs.s)
    out = fs.pointwise_mul(gs)
    bound = max(fs.degree_p() + gs.degree_p(), 0)
    df, dg = _SymbolDerivCache(fs), _SymbolDerivCache(gs)
    for b in range(1, bound + 1):
        fact_b = factorial(b)
        layer = PhaseSymbol(fs.s)
        for combo in _compositions(b, 2 * n):
            a, c = combo[:n], combo[n:]
            left = df.get(a, c)
            if left.is_zero():
                continue
            right = dg.get(c, a)
            if right.is_zero():
                continue
            denom = 1
            for e in combo:
                denom *= factorial(e)
            coeff = Scalar.of(Fraction((-1) ** sum(c) * fact_b, denom))
            layer = layer + left.pointwise_mul(right).scale(coeff)
        if layer.is_zero():
            continue
        out = out + layer.scale(i_power(b) * Fraction(1, 2 ** b * fact_b)).mul_lambda(b)
    return out


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
