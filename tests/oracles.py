"""Independent cross-check routes used only by the tests.

Each oracle reaches the same object as the library through a different
derivation, so agreement is evidence rather than tautology:

* ``bopp_star`` realizes the star product as symmetrized operator words
  in the shifted coordinates q + (i lambda/2) d_p, p - (i lambda/2) d_q
  applied to the right factor (no bidifferential expansion involved).
* ``picard_evolve`` integrates the Heisenberg equation order by order
  in t, using only the star commutator.
* ``reference_bidiff_M``, ``reference_star``, ``reference_star_commutator``
  and ``reference_s_map`` are the generic expansions that the library's
  factorized kernel replaced: D^b expanded multinomially over the 2n
  slot operators with memoized mixed partial derivatives, and S as the
  iterated Laplacian-type series.  They share no code with the kernel.
* ``exact_poly_at`` evaluates a real q-polynomial at a float point in
  exact rational arithmetic, the reference for the grid tier's
  floating-point evaluator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from starquant import ActionData, GaussianObservable, PhasePolynomial, star_commutator
from starquant.errors import DimensionMismatch
from starquant.observables import _compositions
from starquant.scalars import I, ONE, Scalar, i_power

_HALF_I = Scalar(Fraction(0), Fraction(1, 2))


def _apply_letter(letter: tuple[str, int], g: GaussianObservable) -> GaussianObservable:
    kind, j = letter
    n = g.dim
    if kind == "q":
        shift = g.diff_p(j).mul_lambda(1).scale(_HALF_I)
        return g * PhasePolynomial.coordinate_q(j, n) + shift
    shift = g.diff_q(j).mul_lambda(1).scale(-_HALF_I)
    return g * PhasePolynomial.coordinate_p(j, n) + shift


def bopp_star_monomial(alpha: tuple[int, ...], beta: tuple[int, ...],
                       g: GaussianObservable) -> GaussianObservable:
    letters = []
    for j, e in enumerate(alpha):
        letters += [("q", j)] * e
    for j, e in enumerate(beta):
        letters += [("p", j)] * e
    words = sorted(set(itertools.permutations(letters)))
    acc = GaussianObservable.zero(g.dim)
    for word in words:
        h = g
        for letter in reversed(word):
            h = _apply_letter(letter, h)
        acc = acc + h
    return acc.scale(Fraction(1, len(words)))


def bopp_star(f: PhasePolynomial, g: GaussianObservable) -> GaussianObservable:
    """f must be a polynomial; g may carry an envelope."""
    acc = GaussianObservable.zero(g.dim)
    for (k, alpha, beta), c in f.terms.items():
        acc = acc + bopp_star_monomial(alpha, beta, g).scale(c).mul_lambda(k)
    return acc


def picard_evolve(f: GaussianObservable, t: Fraction,
                  s: ActionData) -> GaussianObservable:
    """Term-by-term solution of df/dt = (i/lambda)[S, f]; finite for polynomials."""
    s_obs = GaussianObservable(s.action)
    coeff = GaussianObservable.of(f)
    total = coeff
    m = 0
    while not coeff.is_zero():
        m += 1
        bracket = star_commutator(s_obs, coeff)
        coeff = bracket.mul_lambda(-1).scale(Scalar(Fraction(0), Fraction(1, m)))
        total = total + coeff.scale(Fraction(t) ** m)
    return total


class _DerivCache:
    """Incremental mixed partial derivatives of a fixed observable."""

    def __init__(self, f: GaussianObservable):
        zero = (0,) * f.dim
        self.cache = {(zero, zero): f}

    def get(self, aq: tuple[int, ...], ap: tuple[int, ...]) -> GaussianObservable:
        key = (aq, ap)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        for i, e in enumerate(aq):
            if e:
                val = self.get(aq[:i] + (e - 1,) + aq[i + 1:], ap).diff_q(i)
                break
        else:
            i = next(i for i, e in enumerate(ap) if e)
            val = self.get(aq, ap[:i] + (ap[i] - 1,) + ap[i + 1:]).diff_p(i)
        self.cache[key] = val
        return val


def reference_bidiff_M(f, g, b: int) -> GaussianObservable:
    """M_b(f,g) = sum_{|a|+|c|=b} b!/(a! c!) (-1)^{|c|} (d_q^a d_p^c f)(d_p^a d_q^c g)."""
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    if fo.dim != go.dim:
        raise DimensionMismatch(f"dim {fo.dim} vs {go.dim}")
    n = fo.dim
    if fo.is_zero() or go.is_zero():
        return GaussianObservable.zero(n)
    df, dg = _DerivCache(fo), _DerivCache(go)
    out = GaussianObservable.zero(n)
    for combo in _compositions(b, 2 * n):
        a, c = combo[:n], combo[n:]
        left = df.get(a, c)
        right = dg.get(c, a)
        if left.is_zero() or right.is_zero():
            continue
        denom = 1
        for e in combo:
            denom *= factorial(e)
        coeff = Fraction((-1) ** sum(c) * factorial(b), denom)
        out = out + (left * right).scale(coeff)
    return out


def reference_order_bound(f, g) -> int:
    """Largest b for which M_b(f, g) can be nonzero."""
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    bound = fo.degree_p() + go.degree_p()
    # without an envelope, a factor also dies once all its variables
    # are differentiated away
    for h in (fo, go):
        if h.rate == 0:
            bound = min(bound, max((sum(a) + sum(p) for (_, a, p) in h.body.terms),
                                   default=0))
    return max(bound, 0)


def _reference_sum(f, g, orders: range, weight: int) -> GaussianObservable:
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    out = GaussianObservable.zero(fo.dim)
    for b in orders:
        coeff = i_power(b) * Fraction(weight, 2 ** b * factorial(b))
        out = out + reference_bidiff_M(fo, go, b).scale(coeff).mul_lambda(b)
    return out


def reference_star(f, g) -> GaussianObservable:
    return _reference_sum(f, g, range(reference_order_bound(f, g) + 1), 1)


def reference_star_commutator(f, g) -> GaussianObservable:
    return _reference_sum(f, g, range(1, reference_order_bound(f, g) + 1, 2), 2)


def reference_s_map(f, direction: str = "forward") -> GaussianObservable:
    """S = exp(-+(i lambda/2) Delta) summed until Delta^m f vanishes."""
    obs = GaussianObservable.of(f)
    sign_i = -I if direction == "forward" else I
    out = term = obs
    phase = ONE
    m = 0
    while True:
        m += 1
        nxt = GaussianObservable.zero(obs.dim)
        for k in range(obs.dim):
            nxt = nxt + term.diff_q(k).diff_p(k)
        if nxt.is_zero():
            return out
        term = nxt
        phase = phase * sign_i
        coeff = phase * Fraction(1, 2 ** m * factorial(m))
        out = out + term.scale(coeff).mul_lambda(m)


def exact_poly_at(poly: PhasePolynomial, x: float) -> Fraction:
    """The real q-polynomial ``poly`` at the float ``x``, with no rounding."""
    total = Fraction(0)
    for (_, alpha, _), c in poly.terms.items():
        total += c.re * Fraction(x) ** alpha[0]
    return total
