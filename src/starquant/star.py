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
doubled, and M_b is the order-b slice.

Integer arithmetic.  As C(n,j)/n! = 1/(j! m!) with m = n - j, the
order-n weight splits into C(d,j) P(a,j,r)/2^j times (-1)^m C(b,m)
P(c,m,s)/2^m, and a table is the convolution of those two factors.  Each
factor is built by one-step integer recurrences: C(a,j) (d)_j for r = 0,
and P scaled by powers of the rate's denominator for r > 0.  A table is
stored over its one lowest denominator D.  A term pair's denominator is
its coefficient's times the D of each of its tables; a call puts every
pair over the lcm L of those (one denominator per product, as FLINT's
fmpq_poly does), adds plain integer numerators per output term, and
reduces each output coefficient once.

The symmetrization map S = exp(-(i*lambda/2) Delta) with
Delta = sum_k d^2/(dq^k dp_k) intertwines the two orderings used by the
state constructions; its inverse is the conjugate map with the opposite
sign.  Per dimension it is sum_{m <= b} (-+i*lambda/2)^m/m! (b)_m
p^(b-m) P(a, m, r).

Zero section.  Each kernel builds its jobs, a term or term pair with one
table a dimension, in one place: ``_star_jobs`` for star, star_commutator
and bidiff_M, ``_s_jobs`` for s_map.  An entry of order n of a table holds
p^(top - n) for the table's p-degree top, so its p-free entries are the
last block of the sorted table, when that block's last entry holds p^0.
``_p_free`` reads that cut off each table of a job list and drops a job
with none in some dimension; ``_star_zero_section`` (the star-route inner
product of ``gns``) and ``_s_map_zero_section`` (its projection and
factorized inner product) sum the cut jobs, never the p-dependent rest.

Both refuse an input whose tables would cost more than MAX_TABLE_WORK,
counted from the exponents alone (products, entries and a bound on their
bits) before any table is built, and one whose entries combined over
dimensions would hold more than MAX_COMBINED bytes, before any is combined.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm, log2
from typing import Iterable, Iterator, NamedTuple

from .errors import BudgetExceeded, DimensionMismatch, figure
from .observables import GaussianObservable, Observable, PhasePolynomial

_CACHE_SIZE = 2048  # entries per kernel cache

# A 1-d table (D, entries): each entry (n, (x,), (y,), num) stands for
# (num/D) * (i*lambda)^n q^x p^y, and D is the lowest denominator of all
Entry = tuple[int, tuple[int, ...], tuple[int, ...], int]
Table = tuple[int, tuple[Entry, ...]]
# tables are keyed on envelope rates as (numerator, denominator): ints
# hash and compare far faster than Fractions on every lookup
RateKey = tuple[int, int]

# Most table work one star, star_commutator, bidiff_M or s_map call may
# ask for, in _price's unit: one bit of one table entry, 1.2-2.0 ns cold
# (2 vCPUs, Python 3.11).  A call prices one table per dimension and
# distinct exponent pair, and past the budget raises BudgetExceeded before
# any table is built.  The largest admitted input of each shape ends cold
# in (best of 3, two runs): star(q^4608, p^4608) 0.32-0.34 s, star(q^261
# p^261, q^261 p^261) 0.18-0.29 s, s_map(q^4611 p^4611) 0.28-0.30 s; at
# rate 1 star(q^252, p^252) 0.24-0.28 s, star(q^36 p^36, q^36 p^36)
# 0.19-0.25 s, s_map(q^252 p^252) 0.24-0.28 s, s_map(p^344) 0.23-0.33 s
# (three runs); at rate 1/3 s_map(q^243 p^243) 0.38-0.41 s.  The tests
# that do not probe the line need at most 8.7e7 units, and the benchmark,
# its left-out heavy cases included, 2.2e6.
MAX_TABLE_WORK = 250_000_000
PRODUCT_COST, LIMB, ENTRY_COST = 400, 1000, 4000
# Most bytes one call's combined entries may hold, each at ENTRY_BYTES
# plus a quarter byte per bit (at most one table's bits a dimension); more
# raises BudgetExceeded before any entry is combined.  The peak RSS over
# the 28 MB at start stays below that (2 vCPUs, Python 3.11): 596 B an
# entry in dim 7 (6^7 entries of 6 bits, 187 MB, 1.7 s, admitted), 670 B
# in dim 5 (12^5 of 17 bits), 1281 B in dim 2 (301^2 of 1808 bits, 139 MB).
# So an admitted call peaks below 256 MB.
MAX_COMBINED = 200 << 20
ENTRY_BYTES = 640
Price = NamedTuple("Price", [("cost", int), ("bits", int), ("products", int), ("entries", int)])


@lru_cache(maxsize=_CACHE_SIZE)
def _one(e: int) -> tuple[int]:
    """The exponent 1-tuple (e,), shared by every table entry that holds it."""
    return (e,)


def _hermite(a: int, top: int, rk: RateKey) -> list[list[tuple[int, int]]]:
    """rd^m P(a, m, rn/rd) for m = 0..top as integer (exponent, coefficient)
    pairs, each order one step from the last."""
    rn, rd = rk
    poly, out = {a: 1}, [[(a, 1)]]
    for _ in range(top):
        # d(c q^e e^{-r q^2}) = (e c q^(e-1) - 2 r c q^(e+1)) e^{-r q^2}
        nxt: dict[int, int] = {}
        for e, c in poly.items():
            if e:
                nxt[e - 1] = nxt.get(e - 1, 0) + rd * e * c
            nxt[e + 1] = nxt.get(e + 1, 0) - 2 * rn * c
        poly = {e: c for e, c in nxt.items() if c}
        out.append(list(poly.items()))
    return out


def _factor(a: int, top: int, k: int, rk: RateKey, sign: int) -> list[list[tuple[int, int]]]:
    """sign^m C(k, m) P(a, m, r) / 2^m for m = 0..top as (exponent,
    numerator) pairs over the one denominator (2 rd)^top."""
    out, w = [], 1
    if not rk[0]:
        # P(a, m, 0) = (a)_m q^(a-m), and C(k, m) (a)_m = C(a, m) (k)_m
        # grows by one integer step
        for m in range(top + 1):
            out.append([(a - m, (sign ** m * w) << (top - m))])
            w = w * (a - m) * (k - m) // (m + 1)
        return out
    scale = 2 * rk[1]
    for m, poly in enumerate(_hermite(a, top, rk)):
        u = sign ** m * w * scale ** (top - m)
        out.append([(x, u * c) for x, c in poly])
        w = w * (k - m) // (m + 1)
    return out


def _top(a: int, m: int, rate) -> int:
    """Highest order j <= m for which P(a, j, rate) can be nonzero."""
    return m if rate else min(a, m)


def _hermite_terms(a: int, top: int) -> int:
    """Terms of P(a, m, r > 0) over m = 0..top: min(m, (a + m) // 2) + 1 at
    order m, as the exponents a + m, a + m - 2, ... stop at |a - m| or 0."""
    low = min(top, a)
    # sum_{s <= n} s // 2 = n^2 // 4 gives the orders past a
    high = (a + top) ** 2 // 4 - a * a + top - a if top > a else 0
    return (low + 1) * (low + 2) // 2 + high


def _bits(a: int, top: int, k: int, rk: RateKey) -> int:
    """Bits of the numerators _factor(a, top, k, rk, +-1) holds, at most
    C(a, m) (k)_m 2^(top-m) at order m, or with an envelope (top = k)
    C(k, m) (2 rd)^(k-m) prod_{i<m} (rd (a + i) + 2 rn); orders past
    MAX_TABLE_WORK // ENTRY_COST, whose entries alone exceed the budget,
    are not looked at."""
    rn, rd = rk
    last = min(top, MAX_TABLE_WORK // ENTRY_COST)
    size = best = last * log2(2 * rd) if rn else last
    for m in range(last):
        if rn:
            size += log2((k - m) * (rd * (a + m) + 2 * rn)) - log2(2 * rd * (m + 1))
        else:
            size += log2((a - m) * (k - m)) - log2(2 * (m + 1))
        best = max(best, size)
    # a margin far above the rounding of the sum, and one bit
    return int(best * (1 + 1e-9)) + 2


@lru_cache(maxsize=_CACHE_SIZE)
def _price(*factors: tuple[int, int, RateKey]) -> Price:
    """Price of the 1-d table of factors (a, k, rate), each _factor(a,
    _top(a, k, rate), k, rate): _s_table's one, _star_table's two.  A factor
    has a term an order, or with an envelope min(m, (a + m) // 2) + 1 at most
    at order m (_hermite_terms), each a product of two integers.  The table
    forms a product per pair of factor terms, at PRODUCT_COST + b b' / LIMB
    for b and b' bits, and outputs at most one entry per product and
    min(n, spread) + 1 at total order n, where spread counts the orders of
    its enveloped factors, at ENTRY_COST + bits; ``bits`` bounds every
    integer it forms."""
    products, orders, spread, bits, size, build = 1, 0, 0, 0, 1, 0
    for a, k, rk in factors:
        top = _top(a, k, rk[0])
        b = _bits(a, top, k, rk)
        terms = _hermite_terms(a, top) if rk[0] else top + 1
        build += terms * b * b // 4 if rk[0] else 0
        spread += top if rk[0] else 0
        products *= terms
        orders += top
        bits += b
        size *= b
    bits += products.bit_length()
    s = min(spread, orders)
    entries = min(products, orders + 1 + s * (s + 1) // 2 + (orders - s) * s)
    cost = (products * PRODUCT_COST + (products * size + build) // LIMB
            + entries * (ENTRY_COST + bits))
    return Price(cost, bits, products, entries)


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


def _check_work(what: str, prices: Iterable[Price]) -> tuple[int, int]:
    """The most bits and the top cost of the priced tables; pricing stops
    once over budget."""
    work = bits = top = 0
    for price in prices:
        work += price.cost
        if work > MAX_TABLE_WORK:
            raise BudgetExceeded(f"{what}, at least", work, MAX_TABLE_WORK,
                                 "units of table work")
        bits, top = max(bits, price.bits), max(top, price.cost)
    return bits, top


def _kept(table, top: int):
    """``table`` when a call's costliest table prices ``top``, at most twice
    MAX_TABLE_WORK over the cache's slots (the benchmark's top is 152,708);
    else a cache that lives for the call: one table near the line holds
    about 16 MB, and twelve such calls that kept theirs peaked at 276 MB."""
    if top <= 2 * MAX_TABLE_WORK // _CACHE_SIZE:
        return table
    return lru_cache(None)(table.__wrapped__)


def _table(den: int, acc: dict[tuple[int, int], int], y0: int) -> Table:
    """The table of the nonzero numerators acc[n, x] over den, in lowest terms."""
    keys = sorted(key for key, u in acc.items() if u)
    # factors of two go first by shifts, which are linear in the size of
    # the integers where gcd and division are not
    t = min((u & -u).bit_length() for u in (den, *(acc[key] for key in keys))) - 1
    den, nums = den >> t, [acc[key] >> t for key in keys]
    g = gcd(den, *nums)
    return den // g, tuple((n, _one(x), _one(y0 - n), u // g)
                           for (n, x), u in zip(keys, nums))


@lru_cache(maxsize=_CACHE_SIZE)
def _star_table(a: int, b: int, rk: RateKey, c: int, d: int, sk: RateKey) -> Table:
    # j q-derivatives of the left factor pair with d_p^j of the right, m of
    # the right with d_p^m of the left; only orders with P nonzero are visited
    left = _factor(a, _top(a, d, rk[0]), d, rk, 1)
    right = _factor(c, _top(c, b, sk[0]), b, sk, -1)
    acc: dict[tuple[int, int], int] = {}
    for j, lj in enumerate(left):
        for m, rm in enumerate(right):
            n = j + m
            for x, u in lj:
                for y, v in rm:
                    acc[n, x + y] = acc.get((n, x + y), 0) + u * v
    den = (2 * rk[1]) ** (len(left) - 1) * (2 * sk[1]) ** (len(right) - 1)
    return _table(den, acc, b + d)


@lru_cache(maxsize=_CACHE_SIZE)
def _s_table(a: int, b: int, rk: RateKey, sign: int) -> Table:
    terms = _factor(a, _top(a, b, rk[0]), b, rk, sign)
    return _table((2 * rk[1]) ** (len(terms) - 1),
                  {(m, x): u for m, tm in enumerate(terms) for x, u in tm}, b)


def _combine(tables: list[Table]) -> Iterator[Entry]:
    """Product over two or more dimensions of 1-d tables, over the product of
    their D, entry by entry: only the product of all but the last is held."""
    head = tables[0][1]
    # dim 2 uses tables[0] as is: a product-built head made assoc about 15% slower
    if len(tables) > 2:
        # each key of the head is built once, by product, from its
        # per-dimension parts: growing it one dimension at a time costs time
        # quadratic in dim; orders and numerators are single numbers, so
        # they still grow a dimension at a time
        parts = [entries for _, entries in tables[:-1]]
        weights = [(n, u) for n, _, _, u in head]
        for entries in parts[1:]:
            weights = [(n + m, u * w) for n, u in weights for m, _, _, w in entries]
        xs = product(*([x for _, (x,), _, _ in entries] for entries in parts))
        ys = product(*([y for _, _, (y,), _ in entries] for entries in parts))
        head = [(n, x, y, u) for (n, u), x, y in zip(weights, xs, ys)]
    last = tables[-1][1]
    for n, xs, ys, u in head:
        for m, x, y, w in last:
            yield n + m, xs + x, ys + y, u * w


def _sum(dim: int, what: str, jobs: list, width: int, order: int | None = None,
         odd_only: bool = False) -> PhasePolynomial:
    """Sum the kernel over term pairs over one common denominator.

    A job (k, re, im, den, tables) is a term pair: lambda^k (re + i*im)/den
    times the product of its 1-d tables, of numerators of at most ``width``
    bits.  The first pass prices the combined entries and takes the lcm L
    of the pairs' denominators; the second adds integer numerators over L,
    and each output coefficient is reduced once.  ``order`` and
    ``odd_only`` as in _moyal.
    """
    dens, common, size = [], 1, 0
    for _, _, _, den, tables in jobs:
        count = 1
        for d, entries in tables:
            den *= d
            count *= len(entries)
        dens.append(den)
        common = lcm(common, den)
        size += count
    held = size * (ENTRY_BYTES + dim * width // 4)
    if held > MAX_COMBINED:
        raise BudgetExceeded(f"{what}, {figure(size)} table entries of up to {dim * width} bits",
                             held, MAX_COMBINED, "bytes")
    # every slot and key lives until the sum is done, so the cyclic collector
    # could free none of them, yet near MAX_COMBINED it took half the time
    collecting = gc.isenabled()
    gc.disable()
    try:
        acc: dict = {}
        for (k, re, im, _, tables), den in zip(jobs, dens):
            t = common // den
            re, im = re * t, im * t
            if order is not None:
                # M_order: no i^n and no lambda shift, times 2^n n!
                t = 2 ** order * factorial(order)
                rots = ((re * t, im * t),) * 4
                k -= order
            else:
                if odd_only:
                    re, im = 2 * re, 2 * im
                rots = ((re, im), (-im, re), (-re, -im), (im, -re))  # i^n (re + i*im)
            for n, xs, ys, u in tables[0][1] if dim == 1 else _combine(tables):
                if order is not None and n != order or odd_only and not n & 1:
                    continue
                r, i = rots[n & 3]
                key = (k + n, xs, ys)
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [r * u, i * u]
                else:
                    slot[0] += r * u
                    slot[1] += i * u
        return PhasePolynomial._from_numerators(dim, acc, common)
    finally:
        if collecting:
            gc.enable()


def _star_jobs(f: Observable, g: Observable) -> tuple[int, list, int, Fraction]:
    """(dim, jobs, width, rate) of f * g for ``_sum``, once its table work
    is admitted: a job per term pair, and its numerators' width in bits."""
    fo, go = GaussianObservable.of(f), GaussianObservable.of(g)
    if fo.dim != go.dim:
        raise DimensionMismatch(f"dim {fo.dim} vs {go.dim}")
    dim, r, s = fo.dim, fo.rate, go.rate
    rk, sk = (r.numerator, r.denominator), (s.numerator, s.denominator)
    # all term pairs priced at the largest exponents bound the price, which
    # grows with each exponent; only past that bound is each table priced
    (a, b), (c, d) = _largest(fo), _largest(go)
    pairs = len(fo.body.terms) * len(go.body.terms)
    largest = _price((a, d, rk), (c, b, sk))
    if pairs * dim * largest.cost > MAX_TABLE_WORK:
        _check_work("the product", (
            _price((a, d, rk), (c, b, sk))
            for fk, gk in zip(_exponent_pairs(fo), _exponent_pairs(go))
            for a, b in fk for c, d in gk))
    table = _kept(_star_table, largest.cost)
    # cf * cg as an integer triple, reduced only in the output
    jobs = [(kf + kg, cf.re_num * cg.re_num - cf.im_num * cg.im_num,
             cf.re_num * cg.im_num + cf.im_num * cg.re_num, cf.den * cg.den,
             [table(af[k], bf[k], rk, ag[k], bg[k], sk) for k in range(dim)])
            for (kf, af, bf), cf in fo.body.terms.items()
            for (kg, ag, bg), cg in go.body.terms.items()]
    return dim, jobs, largest.bits, r + s


def _moyal(f: Observable, g: Observable, order: int | None = None,
           odd_only: bool = False) -> GaussianObservable:
    """Sum of the kernel over all pairs of terms.

    With ``order`` set, only that total order is kept and rescaled to
    M_order (no lambda shift); with ``odd_only``, only odd orders are
    kept and doubled.  Otherwise the result is the full star product.
    """
    dim, jobs, width, rate = _star_jobs(f, g)
    return GaussianObservable._make(_sum(dim, "the product", jobs, width, order, odd_only), rate)


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


def _s_jobs(f: Observable, direction: str) -> tuple[int, list, int, Fraction]:
    """(dim, jobs, width, rate) of s_map(f, direction) for ``_sum``, once its
    table work is admitted: a job per term, and its numerators' width in bits."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    obs = GaussianObservable.of(f)
    rk = obs.rate.numerator, obs.rate.denominator
    width, top = _check_work("the symmetrization map", (
        _price((a, b, rk)) for pairs in _exponent_pairs(obs) for a, b in pairs))
    table = _kept(_s_table, top)
    sign = -1 if direction == "forward" else 1
    jobs = [(k, c.re_num, c.im_num, c.den,
             [table(alpha[j], beta[j], rk, sign) for j in range(obs.dim)])
            for (k, alpha, beta), c in obs.body.terms.items()]
    return obs.dim, jobs, width, obs.rate


def s_map(f: Observable, direction: str = "forward") -> GaussianObservable:
    """Apply S = exp(-(i*lambda/2) Delta) (forward) or its conjugate inverse.

    The backward direction flips the sign in the exponent and is both
    the inverse and the complex conjugate of the forward map.
    """
    dim, jobs, width, rate = _s_jobs(f, direction)
    return GaussianObservable._make(_sum(dim, "the symmetrization map", jobs, width), rate)


def _p_free(jobs: list) -> list:
    """The jobs with each table cut to its p-free block, the sorted table's
    last block when its last entry holds p^0; a job with a table whose last
    entry holds a power of p has no p-free entry there, and is dropped."""
    out = []
    for k, re, im, den, tables in jobs:
        cut = []
        for d, entries in tables:
            n, _, (y,), _ = entries[-1]
            if y:
                break
            cut.append((d, entries[bisect_left(entries, (n,)):]))
        else:
            out.append((k, re, im, den, cut))
    return out


def _star_zero_section(f: Observable, g: Observable) -> GaussianObservable:
    """``star(f, g).restrict_zero_section()``, summing only the p-free
    blocks of the product's jobs: a term pair with none in some dimension
    (say no envelope on f and a < d) is dropped before the sum."""
    dim, jobs, width, rate = _star_jobs(f, g)
    return GaussianObservable._make(_sum(dim, "the product", _p_free(jobs), width), rate)


def _s_map_zero_section(f: Observable, direction: str) -> GaussianObservable:
    """``s_map(f, direction).restrict_zero_section()``, summing only the
    p-free blocks of s_map's jobs: a term with none in some dimension (no
    envelope and a < b) is dropped before the sum."""
    dim, jobs, width, rate = _s_jobs(f, direction)
    return GaussianObservable._make(_sum(dim, "the symmetrization map", _p_free(jobs), width),
                                    rate)
