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
* ``reference_star_table`` and ``reference_s_table`` build the kernel's
  1-d tables entry by entry from ``Fraction`` weights and falling
  factorials, with P(a, m, r) differentiated in ``Fraction`` arithmetic:
  the route the integer tables replaced.
* ``reference_pi0``, ``reference_op_compose`` and
  ``reference_op_apply_base`` are the operator routes that the symbol
  calculus replaced: pi0 grouped term by term into {(k, gamma): c(q)},
  composition by the generalized Leibniz rule on those grouped terms,
  and application by differentiating the argument term by term.  They
  see operators only through the public constructor and ``sorted_terms``.
* ``reference_poly_mul``, ``reference_substitute_momenta``,
  ``reference_phase_star``, ``reference_source_apply`` and
  ``reference_omega0`` are the ring routes that summing over one common
  denominator replaced: one ``Scalar`` product and sum per pair of terms,
  (p_k + u_k)^e as repeated products, the phase star and the odd-order
  tail R of the flow as running sums, and the state as a sum of
  ``Fraction`` moments.
* ``exact_transport`` solves the transport recursion of the grid tier in
  closed form for S' = q^m, as finite sums of rational powers of q with
  ``Fraction`` coefficients, from any left endpoint a = r^2 with r
  rational: the reference for every order of ``solve_transport_1d``,
  which the grid tier otherwise checks only through order 1.
* ``exact_poly_at`` evaluates a real q-polynomial at a float point in
  exact rational arithmetic, the reference for the grid tier's
  floating-point evaluator.
* ``FractionPair`` is a complex rational kept as two ``Fraction``s, the
  representation ``Scalar`` had before it became an integer triple; it
  is the reference for ``Scalar`` arithmetic, printing and hashing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm, prod

from starquant import (ActionData, GaussianObservable, IntegralValue, LaurentSeries,
                       PhasePolynomial, PhaseSymbol, SchrodingerOperator, star_commutator)
from starquant.errors import BudgetExceeded, DimensionMismatch, NonIntegrable
from starquant.gns import MAX_MOMENT_EXPONENT
from starquant.observables import _compositions, _leibniz_terms
from starquant.phase import _as_symbol
from starquant.scalars import I, ONE, ZERO, Scalar, i_power

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


def _reference_deriv(a: int, m: int, rate: Fraction) -> list[tuple[int, Fraction]]:
    """P(a, m, rate), with d^m(q^a e^{-rate q^2}) = P(a, m, rate) e^{-rate q^2},
    as sorted (exponent, coefficient) pairs."""
    if not rate:
        return [(a - m, Fraction(perm(a, m)))] if m <= a else []
    poly = {a: Fraction(1)}
    for _ in range(m):
        nxt: dict[int, Fraction] = {}
        for e, c in poly.items():
            if e:
                nxt[e - 1] = nxt.get(e - 1, 0) + e * c
            nxt[e + 1] = nxt.get(e + 1, 0) - 2 * rate * c
        poly = {e: c for e, c in nxt.items() if c}
    return sorted(poly.items())


def _reference_top(a: int, m: int, rate: Fraction) -> int:
    return m if rate else min(a, m)


def reference_star_table(a: int, b: int, r: Fraction, c: int, d: int,
                         s: Fraction) -> list[tuple[int, int, int, Fraction]]:
    """The 1-d product kernel of q^a p^b e^{-r q^2} and q^c p^d e^{-s q^2}
    as sorted (n, x, y, w): w (i lambda)^n q^x p^y e^{-(r+s) q^2}, w != 0."""
    acc: dict[tuple[int, int], Fraction] = {}
    rights = [_reference_deriv(c, m, s) for m in range(_reference_top(c, b, s) + 1)]
    for j in range(_reference_top(a, d, r) + 1):
        left = _reference_deriv(a, j, r)
        for m, right in enumerate(rights):
            n = j + m
            w = Fraction((-1) ** m * comb(n, j) * perm(b, m) * perm(d, j),
                         2 ** n * factorial(n))
            for x, u in left:
                for y, v in right:
                    acc[n, x + y] = acc.get((n, x + y), 0) + w * u * v
    return [(n, x, b + d - n, w) for (n, x), w in sorted(acc.items()) if w]


def reference_s_table(a: int, b: int, rate: Fraction,
                      sign: int) -> list[tuple[int, int, int, Fraction]]:
    """The 1-d kernel of S (sign -1) or its inverse (sign +1) on
    q^a p^b e^{-rate q^2}, in the form of ``reference_star_table``."""
    out = []
    for m in range(_reference_top(a, b, rate) + 1):
        w = Fraction(sign ** m * perm(b, m), 2 ** m * factorial(m))
        out += [(m, x, b - m, w * u) for x, u in _reference_deriv(a, m, rate)]
    return out


def reference_pi0(f) -> SchrodingerOperator:
    """S f with each lambda^k c q^alpha p^beta grouped into the operator term
    (-i)^|beta| c q^alpha lambda^(k+|beta|) d^beta."""
    g = reference_s_map(f, "forward")
    n = g.dim
    out: dict = {}
    for (k, alpha, beta), c in g.body.terms.items():
        order = sum(beta)
        key = (k + order, beta)
        coeff = PhasePolynomial(n, {(0, alpha, (0,) * n): c * i_power(-order)})
        out[key] = out[key] + coeff if key in out else coeff
    return SchrodingerOperator(n, out, g.rate)


def reference_op_compose(a: SchrodingerOperator, b: SchrodingerOperator) -> SchrodingerOperator:
    """a . b by the generalized Leibniz rule: each derivative of a term of
    ``a`` distributes over a term of ``b`` (envelope included)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    out: dict = {}
    for (k1, g1), c1 in a.sorted_terms():
        for (k2, g2), c2 in b.sorted_terms():
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
                out[key] = out[key] + coeff if key in out else coeff
    return SchrodingerOperator(a.dim, out, a.rate + b.rate)


def reference_op_apply_base(a: SchrodingerOperator, phi: GaussianObservable) -> GaussianObservable:
    """sum over the terms of ``a`` of lambda^k c(q) e^{-rate |q|^2} d^gamma phi."""
    out = GaussianObservable.zero(a.dim)
    for (k, gamma), coeff in a.sorted_terms():
        deriv = phi
        for j, d in enumerate(gamma):
            for _ in range(d):
                deriv = deriv.diff_q(j)
        if not deriv.is_zero():
            out = out + GaussianObservable(coeff.mul_lambda(k), a.rate) * deriv
    return out


def reference_poly_mul(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """f * g with one Scalar product and one Scalar sum per pair of terms."""
    out: dict = {}
    for (k1, a1, b1), c1 in f.terms.items():
        for (k2, a2, b2), c2 in g.terms.items():
            key = (k1 + k2, tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)))
            prod = c1 * c2
            acc = out.get(key)
            out[key] = prod if acc is None else acc + prod
    return PhasePolynomial(f.dim, out)


def reference_substitute_momenta(f: PhasePolynomial, shifts) -> PhasePolynomial:
    """p_k -> p_k + u_k, with (p_k + u_k)^e as e repeated products, each
    power formed once a call."""
    n = f.dim
    powers = [[PhasePolynomial.one(n)] for _ in range(n)]
    out = PhasePolynomial.zero(n)
    for (k, alpha, beta), c in f.terms.items():
        acc = PhasePolynomial(n, {(k, alpha, (0,) * n): c})
        for j, e in enumerate(beta):
            shifted = PhasePolynomial.coordinate_p(j, n) + shifts[j]
            while len(powers[j]) <= e:
                powers[j].append(reference_poly_mul(powers[j][-1], shifted))
            acc = reference_poly_mul(acc, powers[j][e])
        out = out + acc
    return out


def reference_phase_star(f, g) -> PhaseSymbol:
    """The phase star as a running sum: each Leibniz term becomes a
    PhaseSymbol of amplitude products, scaled and added to the total."""
    s = f.s if isinstance(f, PhaseSymbol) else g.s
    fs, gs = _as_symbol(f, s), _as_symbol(g, s)
    n = fs.dim
    out = PhaseSymbol(fs.s)
    slots = [(j, False) for j in range(n)] + [(j, True) for j in range(n)]
    for delta, left, right, w in _leibniz_terms(fs, gs, slots):
        b = sum(delta)
        coeff = i_power(b) * Fraction((-1) ** sum(delta[n:]), 2 ** b * w)
        for t1, a1 in left.terms.items():
            for t2, a2 in right.terms.items():
                amp = reference_poly_mul(a1, a2).scale(coeff).mul_lambda(b)
                out = out + PhaseSymbol(fs.s, {t1 + t2: amp})
    return out


def reference_source_apply(f: GaussianObservable, s: ActionData) -> GaussianObservable:
    """The odd-order tail R of the flow as a running sum: each Leibniz term
    of order b >= 3 odd is a product, scaled by i^(b+1) / (2^(b-1) a!) and
    lambda^(b-1), and added to the total."""
    out = GaussianObservable.zero(f.dim)
    slots = [(j, False) for j in range(f.dim)]
    for a, ds, df, w in _leibniz_terms(s.action, f, slots):
        b = sum(a)
        if b >= 3 and b % 2:
            coeff = i_power(b + 1) * Fraction(1, 2 ** (b - 1) * w)
            out = out + (GaussianObservable(ds) * df).scale(coeff).mul_lambda(b - 1)
    return out


def reference_gaussian_moment(exponent: int, rate: Fraction) -> Fraction:
    """(exponent - 1)!! / (2 rate)^(exponent/2) in Fractions; 0 when odd."""
    if exponent % 2 == 1:
        return Fraction(0)
    if exponent > MAX_MOMENT_EXPONENT:
        raise BudgetExceeded("a Gaussian moment", exponent, MAX_MOMENT_EXPONENT, "degrees")
    return Fraction(prod(range(exponent - 1, 0, -2))) / (2 * rate) ** (exponent // 2)


def reference_omega0(f) -> IntegralValue:
    """omega0 as a sum of Scalar coefficients times Fraction moments, the
    moments of a term multiplied in the order of its exponents."""
    base = GaussianObservable.of(f).restrict_zero_section()
    n = base.dim
    if base.is_zero():
        return IntegralValue(LaurentSeries.zero(), Fraction(1), n)
    if base.rate == 0:
        raise NonIntegrable("restriction is a nonzero polynomial with no envelope")
    series: dict = {}
    for (k, alpha, _), c in base.body.terms.items():
        moment = Fraction(1)
        for e in alpha:
            moment *= reference_gaussian_moment(e, base.rate)
            if moment == 0:
                break
        if moment:
            series[k] = series.get(k, ZERO) + c * moment
    return IntegralValue(LaurentSeries(series), base.rate, n)


def exact_transport(m: int, order: int,
                    root: Fraction = Fraction(1)) -> list[dict[Fraction, Fraction]]:
    """phi_0 .. phi_order for S' = q^m (m >= 1) from a = root^2, with
    phi_0(a) = 1 and phi_r(a) = 0 for r >= 1; root is a positive rational.

    Entry r is {e: c} with phi_r = i^r sum_e c q^e, and phi_0 = root^m
    q^(-m/2).  Each order follows from the last by the recursion

        phi_r = q^(-m/2) (i/2) Integral_a^q s^(-m/2) phi_(r-1)''(s) ds,

    term by term: c q^e gives c e (e-1) / (2 f) (q^(f - m/2) - a^f q^(-m/2))
    with f = e - 1 - m/2.  Every exponent is -m/2 - j (m+1), so f is the
    negative integer -(j+1) (m+1): no power integrates to a log, and
    a^f = root^(2f) is rational.
    """
    half = Fraction(m, 2)
    orders = [{-half: root ** m}]
    for _ in range(order):
        nxt: dict[Fraction, Fraction] = {}
        for e, c in orders[-1].items():
            f = e - 1 - half
            w = c * e * (e - 1) / (2 * f)
            for power, weight in ((f - half, w), (-half, -w * root ** int(2 * f))):
                nxt[power] = nxt.get(power, 0) + weight
        orders.append({e: c for e, c in nxt.items() if c})
    return orders


def exact_poly_at(poly: PhasePolynomial, x: float) -> Fraction:
    """The real q-polynomial ``poly`` at the float ``x``, with no rounding."""
    total = Fraction(0)
    for (_, alpha, _), c in poly.terms.items():
        total += c.re * Fraction(x) ** alpha[0]
    return total


class FractionPair:
    """A complex rational as a (re, im) pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o: "FractionPair") -> "FractionPair":
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "FractionPair") -> "FractionPair":
        return FractionPair(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "FractionPair":
        return FractionPair(-self.re, -self.im)

    def __mul__(self, o: "FractionPair") -> "FractionPair":
        return FractionPair(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def __truediv__(self, o: "FractionPair") -> "FractionPair":
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero scalar")
        return FractionPair((self.re * o.re + self.im * o.im) / n2,
                            (self.im * o.re - self.re * o.im) / n2)

    def conjugate(self) -> "FractionPair":
        return FractionPair(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re} {sign} {imag}"

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"
