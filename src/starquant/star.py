"""The Weyl star product and the symmetrization map on T*R^n.

Convention.  We expand the product as

    f * g = sum_b (1/b!) (i*lambda/2)^b M_b(f, g),

where M_b applies b copies of the mixed bidifferential operator

    D = sum_k ( d/dq^k (x) d/dp_k  -  d/dp_k (x) d/dq^k )

to f (x) g and restricts to the diagonal.  The prefactor is pinned by
two anchors rather than taken on faith: with it, q * p = q p + i*lambda/2
and [q, p]_* = i*lambda, which is exactly what the Schrodinger-type
representation demands when p acts as -i*lambda d/dq.  Any other
normalization of D or of the prefactor breaks one of those anchors.

Factorized kernel (Groenewold 1946, Moyal 1949).  The sum is
exp((i*lambda/2) D) with D = sum_k D_k, where the commuting D_k act on
dimension k alone, and a term q^a p^b exp(-r|q|^2) is a product over
k as well.  The product of two terms is therefore a product over k of
cached 1-d kernels: for q^a p^b e^{-r q^2} and q^c p^d e^{-s q^2},

    sum_{n, j} (i*lambda/2)^n/n! C(n,j) (-1)^(n-j) (b)_{n-j} (d)_j
               P(a, j, r) P(c, n-j, s) p^(b+d-n) e^{-(r+s) q^2},

with falling factorials (x)_m and d^m(q^a e^{-r q^2}) = P(a,m,r) e^{-r q^2}:
(a)_m q^(a-m) for r = 0, a Hermite-type polynomial for r > 0.  Each
order spends a momentum derivative, so n <= b + d; without envelopes P
also vanishes past m = a, so n <= min(a,d) + min(b,c).  M_b(f, g) =
(-1)^b M_b(g, f): the star commutator keeps the odd total orders,
doubled, and M_b is the order-b slice.  Each output coefficient is
summed as an integer triple (re, im, den) and reduced once at the end.

The symmetrization map S = exp(-(i*lambda/2) Delta) with
Delta = sum_k d^2/(dq^k dp_k) intertwines the two orderings used by the
state constructions; its inverse is the conjugate map with the opposite
sign.  Per dimension it is sum_{m <= b} (-+i*lambda/2)^m/m! (b)_m
p^(b-m) P(a, m, r).

Both refuse an input whose tables would exceed a work budget, estimated
from the exponents alone before any table is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, perm

from .errors import BudgetExceeded, DimensionMismatch
from .observables import GaussianObservable, Observable, PhasePolynomial
from .scalars import Scalar

_CACHE_SIZE = 2048  # entries per kernel cache

# 1-d table entries (n, x, y, num, den) stand for
# (num/den) * (i*lambda)^n q^x p^y, with num/den in lowest terms
Table = tuple[tuple[int, int, int, int, int], ...]
# tables are keyed on envelope rates as (numerator, denominator): ints
# hash and compare far faster than Fractions on every lookup
RateKey = tuple[int, int]

# Most table work one star, star_commutator, bidiff_M or s_map call may
# ask for, in the units of _table_work; a larger input raises
# BudgetExceeded before any table is built.  A unit took 1.6-6.6 us cold
# (2 vCPUs, Python 3.11) across products and s_map with and without
# envelopes, so the largest accepted monomial input ends within about
# 3 s (star(q^3400, p^3400) takes 2.7 s).  A product needs one table per
# dimension for each distinct (q, p) exponent pair of f met with one of
# g, priced at those exponents alone.  star(q^200 p^200, q^200 p^200)
# needs 3.4e5 units; the test suite needs at most 2.0e3 and the
# benchmark, its left-out heavy cases included, 8.5e2.
MAX_TABLE_WORK = 500_000


@lru_cache(maxsize=_CACHE_SIZE)
def _hermite(a: int, m: int, rate: Fraction) -> tuple[tuple[int, Fraction], ...]:
    poly = {a: Fraction(1)}
    for _ in range(m):
        # d(c q^e e^{-r q^2}) = (e c q^(e-1) - 2 r c q^(e+1)) e^{-r q^2}
        nxt: dict[int, Fraction] = {}
        for e, c in poly.items():
            if e:
                nxt[e - 1] = nxt.get(e - 1, 0) + e * c
            nxt[e + 1] = nxt.get(e + 1, 0) - 2 * rate * c
        poly = {e: c for e, c in nxt.items() if c}
    return tuple(sorted(poly.items()))


def _deriv(a: int, m: int, rate: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """P(a, m, rate) as (exponent, coefficient) pairs."""
    if rate:
        return _hermite(a, m, rate)
    return ((a - m, perm(a, m)),) if m <= a else ()


def _top(a: int, m: int, rate) -> int:
    """Highest order j <= m for which P(a, j, rate) can be nonzero."""
    return m if rate else min(a, m)


def _table_work(top_f: int, env_f: bool, top_g: int = 0, env_g: bool = False) -> float:
    """Work of one 1-d table from the top derivative order of each factor
    and whether it carries an envelope.

    Without an envelope the derivatives P(a, 0..top) are one term each;
    with one, P(a, j) has up to j + 1 terms and _hermite builds each from
    scratch in j steps.  The table multiplies the terms of its factors,
    and its integers grow with the total order n, which costs about
    (1 + n/128)^1.5 per term (measured).
    """
    terms, build = 1, 0
    for top, env in ((top_f, env_f), (top_g, env_g)):
        if env:
            terms *= (top + 1) * (top + 2) // 2
            build += top * (top + 1) * (top + 2) // 6
        else:
            terms *= top + 1
    return (terms + build) * (1 + (top_f + top_g) / 128) ** 1.5


def _largest(f: GaussianObservable) -> tuple[int, int]:
    """The largest q and p exponents of f over all dimensions."""
    a = b = 0
    for _, alpha, beta in f.body.terms:
        for e in alpha:
            if e > a:
                a = e
        for e in beta:
            if e > b:
                b = e
    return a, b


def _exponent_pairs(f: GaussianObservable) -> list[set[tuple[int, int]]]:
    """Per dimension, the distinct (q, p) exponent pairs of f's terms: each
    pair with one of the other factor's asks for one table there."""
    if not f.body.terms:
        return [set() for _ in range(f.dim)]
    _, alphas, betas = zip(*f.body.terms)
    return [set(zip(qs, ps)) for qs, ps in zip(zip(*alphas), zip(*betas))]


def _check_work(what: str, work: float) -> None:
    if work > MAX_TABLE_WORK:
        raise BudgetExceeded(f"{what} needs about {work:.3g} units of table work; "
                             f"at most {MAX_TABLE_WORK} are done")


@lru_cache(maxsize=_CACHE_SIZE)
def _star_table(a: int, b: int, rk: RateKey, c: int, d: int, sk: RateKey) -> Table:
    r, s = Fraction(*rk), Fraction(*sk)
    acc: dict[tuple[int, int], Fraction] = {}
    # j q-derivatives of the left factor pair with d_p^j of the right, m of
    # the right with d_p^m of the left; only orders with P nonzero are visited
    rights = [_deriv(c, m, s) for m in range(_top(c, b, s) + 1)]
    for j in range(_top(a, d, r) + 1):
        left = _deriv(a, j, r)
        for m, right in enumerate(rights):
            n = j + m
            w = Fraction((-1) ** m * comb(n, j) * perm(b, m) * perm(d, j),
                         2 ** n * factorial(n))
            for x, u in left:
                for y, v in right:
                    acc[n, x + y] = acc.get((n, x + y), 0) + w * u * v
    return tuple((n, x, b + d - n, *w.as_integer_ratio())
                 for (n, x), w in sorted(acc.items()) if w)


@lru_cache(maxsize=_CACHE_SIZE)
def _s_table(a: int, b: int, rk: RateKey, sign: int) -> Table:
    rate, out = Fraction(*rk), []
    for m in range(_top(a, b, rate) + 1):
        w = Fraction(sign ** m * perm(b, m), 2 ** m * factorial(m))
        out += [(m, x, b - m, *(w * u).as_integer_ratio())
                for x, u in _deriv(a, m, rate)]
    return tuple(out)


def _combine(tables: list[Table]
             ) -> list[tuple[int, tuple[int, ...], tuple[int, ...], int, int]]:
    """Product over dimensions of 1-d tables: (n, q-exponents, p-exponents, num, den)."""
    out = [(n, (x,), (y,), u, v) for n, x, y, u, v in tables[0]]
    for table in tables[1:]:
        out = [(n + m, xs + (x,), ys + (y,), u * w, v * z)
               for n, xs, ys, u, v in out for m, x, y, w, z in table]
    return out


def _accumulate(acc: dict, key, re: int, im: int, den: int, power: int) -> None:
    """acc[key] += i^power * (re + i*im)/den in an integer slot [re, im, den]."""
    re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[power % 4]
    slot = acc.get(key)
    if slot is None:
        acc[key] = [re, im, den]
    elif slot[2] == den:
        slot[0] += re
        slot[1] += im
    else:
        old = slot[2]
        g = gcd(old, den)
        u, v = den // g, old // g
        slot[0] = slot[0] * u + re * v
        slot[1] = slot[1] * u + im * v
        slot[2] = old * u


def _body(dim: int, acc: dict) -> PhasePolynomial:
    """The polynomial of the integer slots, zero sums dropped."""
    raw = Scalar._raw
    return PhasePolynomial._from_clean(
        dim, {key: raw(re, im, den) for key, (re, im, den) in acc.items() if re or im})


def _moyal(f: Observable, g: Observable, order: int | None = None,
           odd_only: bool = False) -> GaussianObservable:
    """Sum of the kernel over all pairs of terms.

    With ``order`` set, only that total order is kept and rescaled to
    M_order (no lambda shift); with ``odd_only``, only odd orders are
    kept and doubled.  Otherwise the result is the full star product.
    """
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    if fo.dim != go.dim:
        raise DimensionMismatch(f"dim {fo.dim} vs {go.dim}")
    dim, r, s = fo.dim, fo.rate, go.rate
    env_f, env_g = r != 0, s != 0
    # pricing every term pair at the largest exponents bounds the work
    # from above in a fraction of the time (0.8-1.5 ms against 5.9-6.8 ms
    # per assoc benchmark cycle, whose products take 52-54 ms on 2 vCPUs),
    # so only an input that bound does not admit is priced table by table
    (a, b), (c, d) = _largest(fo), _largest(go)
    pairs = len(fo.body.terms) * len(go.body.terms)
    if pairs * dim * _table_work(_top(a, d, env_f), env_f, _top(c, b, env_g), env_g) \
            > MAX_TABLE_WORK:
        _check_work("the product", sum(
            _table_work(_top(a, d, env_f), env_f, _top(c, b, env_g), env_g)
            for fk, gk in zip(_exponent_pairs(fo), _exponent_pairs(go))
            for a, b in fk for c, d in gk))
    rk, sk = (r.numerator, r.denominator), (s.numerator, s.denominator)
    acc: dict = {}
    for (kf, af, bf), cf in fo.body.terms.items():
        for (kg, ag, bg), cg in go.body.terms.items():
            # cf * cg as an integer triple, reduced only once per output term
            re = cf.re_num * cg.re_num - cf.im_num * cg.im_num
            im = cf.re_num * cg.im_num + cf.im_num * cg.re_num
            den = cf.den * cg.den
            terms = _combine([_star_table(af[k], bf[k], rk, ag[k], bg[k], sk)
                              for k in range(dim)])
            for n, xs, ys, u, v in terms:
                if order is not None:
                    if n == order:
                        u *= 2 ** n * factorial(n)
                        _accumulate(acc, (kf + kg, xs, ys), re * u, im * u, den * v, 0)
                elif not odd_only:
                    _accumulate(acc, (kf + kg + n, xs, ys), re * u, im * u, den * v, n)
                elif n % 2:
                    _accumulate(acc, (kf + kg + n, xs, ys),
                                2 * re * u, 2 * im * u, den * v, n)
    return GaussianObservable(_body(dim, acc), r + s)


def bidiff_M(f: Observable, g: Observable, b: int) -> GaussianObservable:
    """M_b(f, g): the order-b slice of the kernel times b! (2/i)^b."""
    if b < 0:
        raise ValueError("negative bidifferential order")
    return _moyal(f, g, order=b)


def star(f: Observable, g: Observable) -> GaussianObservable:
    """Weyl star product f * g; exact and terminating on this tier."""
    return _moyal(f, g)


def star_commutator(f: Observable, g: Observable) -> GaussianObservable:
    """[f, g]_* computed from the odd-order terms only.

    M_b(f, g) = (-1)^b M_b(g, f), so even orders cancel in the
    commutator and odd orders double.
    """
    return _moyal(f, g, odd_only=True)


def s_map(f: Observable, direction: str = "forward") -> GaussianObservable:
    """Apply S = exp(-(i*lambda/2) Delta) (forward) or its conjugate inverse.

    The backward direction flips the sign in the exponent and is both
    the inverse and the complex conjugate of the forward map.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    obs = GaussianObservable.of(f)
    env = obs.rate != 0
    _check_work("the symmetrization map", sum(
        _table_work(_top(a, b, env), env) for pairs in _exponent_pairs(obs) for a, b in pairs))
    sign = -1 if direction == "forward" else 1
    rk = obs.rate.numerator, obs.rate.denominator
    acc: dict = {}
    for (k, alpha, beta), c in obs.body.terms.items():
        for n, xs, ys, u, v in _combine([_s_table(alpha[j], beta[j], rk, sign)
                                         for j in range(obs.dim)]):
            _accumulate(acc, (k + n, xs, ys), c.re_num * u, c.im_num * u, c.den * v, n)
    return GaussianObservable(_body(obs.dim, acc), obs.rate)
