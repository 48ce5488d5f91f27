from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial, gcd, perm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import (BudgetExceeded, EnvelopeMismatch, GaussianObservable,
                       PhasePolynomial, Scalar, bidiff_M, conjugate, i_power, s_map,
                       star, star_commutator)

from conftest import observables, polynomials, refused
from oracles import (bopp_star, reference_bidiff_M, reference_order_bound,
                     reference_s_map, reference_s_table, reference_star,
                     reference_star_commutator, reference_star_table)

# the module, not the function that the package exports under the same name
kernel = importlib.import_module("starquant.star")

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I_HALF = Scalar(Fraction(0), Fraction(1, 2))


def obs(poly, rate=0):
    return GaussianObservable(poly, rate)


def random_polynomial(rng: random.Random, dim: int, max_degree: int,
                      min_lambda: int, max_lambda: int, terms: int) -> PhasePolynomial:
    out = {}
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(min_lambda, max_lambda)
        alpha = tuple(rng.randint(0, max_degree) for _ in range(dim))
        beta = tuple(rng.randint(0, max_degree) for _ in range(dim))
        c = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out[(k, alpha, beta)] = c
    return PhasePolynomial(dim, out)


def test_product_anchors():
    assert star(obs(Q), obs(P)) == obs(Q * P + PhasePolynomial.lam(1, 1, I_HALF))
    assert star(obs(P), obs(Q)) == obs(Q * P - PhasePolynomial.lam(1, 1, I_HALF))
    assert star_commutator(obs(Q), obs(P)) == obs(PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1))))


def test_ccr_in_two_dimensions():
    for k in range(2):
        for l in range(2):
            qk = obs(PhasePolynomial.coordinate_q(k, 2))
            pl = obs(PhasePolynomial.coordinate_p(l, 2))
            expect = (PhasePolynomial.lam(2, 1, Scalar(Fraction(0), Fraction(1)))
                      if k == l else PhasePolynomial.zero(2))
            assert star_commutator(qk, pl) == obs(expect)
            assert star_commutator(qk, obs(PhasePolynomial.coordinate_q(l, 2))).is_zero()
            assert star_commutator(pl, obs(PhasePolynomial.coordinate_p(k, 2))).is_zero()


def test_bidiff_symmetry_and_leading_orders():
    f, g = obs(Q * Q * P), obs(P * P + Q)
    assert bidiff_M(f, g, 0) == f * g
    for b in range(4):
        lhs = bidiff_M(f, g, b)
        rhs = bidiff_M(g, f, b).scale(Scalar.of((-1) ** b))
        assert lhs == rhs


@given(polynomials(dim=1, max_terms=3, max_degree=2, min_lambda=-1, max_lambda=1),
       observables(dim=1, rate=1, max_terms=3, max_degree=2))
@settings(max_examples=30)
def test_star_matches_shifted_word_oracle(f, g):
    assert star(obs(f), g) == bopp_star(f, g)


def test_star_matches_oracle_with_envelopes_dim2():
    rng = random.Random(7041)
    for _ in range(10):
        f = random_polynomial(rng, 2, 2, 0, 1, 2)
        g = GaussianObservable(random_polynomial(rng, 2, 2, 0, 1, 2), rng.randint(0, 2))
        assert star(obs(f), g) == bopp_star(f, g)


def test_associativity_on_seeded_triples():
    rng = random.Random(20260819)
    for dim in (1, 2):
        for _ in range(30):
            f = obs(random_polynomial(rng, dim, 2, -1, 1, 2))
            g = obs(random_polynomial(rng, dim, 2, -1, 1, 2))
            h = obs(random_polynomial(rng, dim, 2, -1, 1, 2))
            assert star(star(f, g), h) == star(f, star(g, h))


def test_associativity_with_envelope_on_the_right():
    rng = random.Random(99)
    for _ in range(10):
        f = obs(random_polynomial(rng, 1, 2, 0, 1, 2))
        g = obs(random_polynomial(rng, 1, 2, 0, 1, 2))
        h = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2), 1)
        assert star(star(f, g), h) == star(f, star(g, h))


@given(polynomials(dim=1, max_terms=3), polynomials(dim=1, max_terms=3))
def test_involution_and_classical_limit(f, g):
    fo, go = obs(f), obs(g)
    # conjugation reverses the product
    assert conjugate(star(fo, go)) == star(conjugate(go), conjugate(fo))
    # lambda-order-zero part of the product of lambda-free factors is pointwise
    product = star(fo, go)
    if not product.is_zero() and f.is_lambda_free() and g.is_lambda_free():
        zero_part = product.body.lambda_components().get(0, PhasePolynomial.zero(1))
        assert zero_part == f * g


@given(polynomials(dim=1, max_terms=3), polynomials(dim=1, max_terms=3))
def test_commutator_leading_order_is_poisson(f, g):
    if not (f.is_lambda_free() and g.is_lambda_free()):
        return
    bracket = star_commutator(obs(f), obs(g))
    poisson = f.diff_q(0) * g.diff_p(0) - f.diff_p(0) * g.diff_q(0)
    # [f, g] = i lambda {f, g} + O(lambda^3)
    first = bracket.body.lambda_components().get(1, PhasePolynomial.zero(1))
    assert first == poisson.scale(Scalar(Fraction(0), Fraction(1)))


def test_degree_termination_bound():
    f = obs(Q ** 3 * P ** 2)
    g = obs(P ** 4)
    assert bidiff_M(f, g, 7).is_zero()
    assert not star(f, g).is_zero()


def test_envelope_product_rates_add():
    f = GaussianObservable(Q, 1)
    g = GaussianObservable(P, 2)
    assert star(f, g).rate == 3
    with pytest.raises(EnvelopeMismatch):
        star(f, g) + GaussianObservable(Q, 1)


def test_s_map_examples_and_inverse():
    qp = Q * P
    assert s_map(obs(qp)) == obs(qp - PhasePolynomial.lam(1, 1, I_HALF))
    assert s_map(obs(qp), "backward") == obs(qp + PhasePolynomial.lam(1, 1, I_HALF))
    # base functions and pure momenta are fixed points
    assert s_map(obs(Q * Q)) == obs(Q * Q)
    assert s_map(obs(P ** 3)) == obs(P ** 3)


@given(observables(dim=2, rate=1, max_terms=3, max_degree=2))
def test_s_map_round_trip_and_conjugation(f):
    assert s_map(s_map(f, "forward"), "backward") == f
    # S-bar = S^{-1}: conjugation swaps the direction
    assert conjugate(s_map(f, "forward")) == s_map(conjugate(f), "backward")


# -- the factorized kernel against the generic expansion it replaced ---

RATES = st.sampled_from([0, 1, 2])


@st.composite
def enveloped(draw, dim: int):
    # higher dimensions get lower degrees so the reference route stays quick
    return draw(observables(dim, draw(RATES), max_terms=2, max_degree=4 - dim,
                            min_lambda=-1, max_lambda=1))


@st.composite
def enveloped_pairs(draw):
    dim = draw(st.integers(1, 3))
    return draw(enveloped(dim)), draw(enveloped(dim))


@given(enveloped_pairs())
@settings(max_examples=40)
def test_kernel_star_and_commutator_match_reference(pair):
    f, g = pair
    assert star(f, g) == reference_star(f, g)
    assert star_commutator(f, g) == reference_star_commutator(f, g)


@given(enveloped_pairs())
@settings(max_examples=40)
def test_kernel_bidiff_slices_match_reference(pair):
    f, g = pair
    for b in range(reference_order_bound(f, g) + 2):
        assert bidiff_M(f, g, b) == reference_bidiff_M(f, g, b)


@given(st.integers(1, 3).flatmap(enveloped))
@settings(max_examples=40)
def test_kernel_s_map_matches_reference(f):
    for direction in ("forward", "backward"):
        assert s_map(f, direction) == reference_s_map(f, direction)


# -- the p-free slice of the symmetrization map -------------------------

SLICE_RATES = st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1, 2])


@st.composite
def slice_inputs(draw, dim=None):
    """An observable in dims 1-3 (or ``dim``) plus one term whose p-degree
    passes its q-degree in some dimension, so that without an envelope it
    drops."""
    dim = dim or draw(st.integers(1, 3))
    rate = draw(SLICE_RATES)
    f = draw(observables(dim, rate, max_terms=3, max_degree=4 - dim, min_lambda=-1,
                         max_lambda=2))
    alpha = draw(st.tuples(*([st.integers(0, 2)] * dim)))
    j = draw(st.integers(0, dim - 1))
    beta = tuple(a + draw(st.integers(1, 2)) if i == j else draw(st.integers(0, 2))
                 for i, a in enumerate(alpha))
    k = draw(st.integers(-1, 2))
    return f + GaussianObservable(PhasePolynomial.monomial(dim, k, alpha, beta, 3), rate)


@given(slice_inputs(), st.sampled_from(["forward", "backward"]))
@settings(max_examples=80)
def test_p_free_slice_matches_the_restricted_s_map(f, direction):
    assert (kernel._s_map_zero_section(f, direction)
            == s_map(f, direction).restrict_zero_section())


def test_p_free_slice_drops_terms_without_an_entry_of_order_b():
    assert kernel._s_map_zero_section(obs(Q * P * P), "forward").is_zero()
    assert kernel._s_map_zero_section(obs(Q * P * P + Q), "backward") == obs(Q)
    # an envelope gives every order an entry
    assert not kernel._s_map_zero_section(obs(Q * P * P, 1), "forward").is_zero()


# -- the p-free slice of the star product --------------------------------

@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(slice_inputs(dim), slice_inputs(dim))))
@settings(max_examples=80)
def test_p_free_slice_matches_the_restricted_star(pair):
    # the rates are drawn per side, and a side at rate 0 whose q-degree is
    # below the other's p-degree leaves some term pairs an empty slice
    f, g = pair
    sliced = kernel._star_zero_section(f, g)
    assert sliced == star(f, g).restrict_zero_section()
    assert sliced.rate == (f.rate + g.rate if sliced.body.terms else 0)


def test_star_slice_drops_pairs_without_a_p_free_entry(monkeypatch):
    summed = []

    def spy(dim, what, jobs, *rest):
        summed.append(jobs)
        return real(dim, what, jobs, *rest)

    real = kernel._sum
    monkeypatch.setattr(kernel, "_sum", spy)
    # p^2 * q has no p-free entry: order 2 would take two q-derivatives of q
    assert kernel._star_zero_section(obs(P * P + Q), obs(Q)) == obs(Q * Q)
    assert kernel._star_zero_section(obs(P * P), obs(Q)).is_zero()
    assert [len(jobs) for jobs in summed] == [1, 0]
    # an envelope on the right gives every order an entry
    assert not kernel._star_zero_section(obs(P * P), obs(Q, 1)).is_zero()
    assert len(summed[-1]) == 1
    assert all(entries for jobs in summed for job in jobs for _, entries in job[4])


# -- the integer tables and the common denominator ----------------------

TABLE_RATES = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3)])
EXPONENTS = st.integers(0, 12)


def rate_key(rate: Fraction) -> tuple[int, int]:
    return rate.numerator, rate.denominator


def as_fractions(table) -> list[tuple[int, int, int, Fraction]]:
    den, entries = table
    assert den > 0 and gcd(den, *(u for *_, u in entries)) == 1
    return [(n, x, y, Fraction(u, den)) for n, (x,), (y,), u in entries]


@given(EXPONENTS, EXPONENTS, TABLE_RATES, EXPONENTS, EXPONENTS, TABLE_RATES)
@settings(max_examples=150)
def test_integer_star_table_matches_fraction_reference(a, b, r, c, d, s):
    table = kernel._star_table.__wrapped__(a, b, rate_key(r), c, d, rate_key(s))
    assert as_fractions(table) == reference_star_table(a, b, r, c, d, s)


@given(EXPONENTS, EXPONENTS, TABLE_RATES, st.sampled_from([-1, 1]))
@settings(max_examples=100)
def test_integer_s_table_matches_fraction_reference(a, b, rate, sign):
    table = kernel._s_table.__wrapped__(a, b, rate_key(rate), sign)
    assert as_fractions(table) == reference_s_table(a, b, rate, sign)


# pairwise coprime denominators put every term pair over its own
# denominator, so the output's common denominator is a true lcm
BIG_DENOMINATORS = st.sampled_from([1, 2, 3, 7919, 65537, 104729, 999959, 999961,
                                    999979, 999983, 2 ** 61 - 1])
big_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), BIG_DENOMINATORS)
big_scalars = st.builds(Scalar, big_fractions, big_fractions)
BIG_RATES = st.sampled_from([0, Fraction(1, 2), Fraction(2, 3), 1, 3])


@st.composite
def big_coefficient_pairs(draw):
    dim = draw(st.integers(1, 2))
    f, g = (draw(observables(dim, draw(BIG_RATES), max_terms=3, max_degree=3 - dim,
                             min_lambda=-1, max_lambda=1, coeffs=big_scalars))
            for _ in range(2))
    return f, g


@given(big_coefficient_pairs())
@settings(max_examples=40)
def test_kernel_with_large_coprime_denominators_matches_reference(pair):
    f, g = pair
    assert star(f, g) == reference_star(f, g)
    assert star_commutator(f, g) == reference_star_commutator(f, g)
    for b in range(reference_order_bound(f, g) + 1):
        assert bidiff_M(f, g, b) == reference_bidiff_M(f, g, b)
    for direction in ("forward", "backward"):
        assert s_map(f, direction) == reference_s_map(f, direction)


def test_cold_large_tables_are_fast():
    # a cold table of exponent 200 or 2000 is one integer convolution
    for f, g in ((Q ** 200 * P ** 200, Q ** 200 * P ** 200), (Q ** 2000, P ** 2000)):
        for cache in (kernel._star_table, kernel._s_table, kernel._one):
            cache.cache_clear()
        start = time.perf_counter()
        star(obs(f), obs(g))
        assert time.perf_counter() - start < 0.3


def _joined_one_dimension_at_a_time(tables):
    """The combined entries with each key grown by one dimension a step."""
    head = tables[0][1]
    for _, entries in tables[1:]:
        head = [(n + m, xs + x, ys + y, u * w)
                for n, xs, ys, u in head for m, x, y, w in entries]
    return head


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_combined_keys_match_joining_one_dimension_at_a_time(dim):
    rng = random.Random(dim)
    for _ in range(20):
        tables = [kernel._star_table(rng.randint(0, 3), rng.randint(0, 3),
                                     (rng.randint(0, 1), rng.randint(1, 2)),
                                     rng.randint(0, 3), rng.randint(0, 3), (0, 1))
                  for _ in range(dim)]
        assert list(kernel._combine(tables)) == _joined_one_dimension_at_a_time(tables)


def test_combining_keys_is_linear_in_the_dimension():
    # 4000 and 8000 took 0.18 and 0.65 s while keys grew one dimension a step
    dim = 8000
    q1, p1 = (obs(PhasePolynomial.coordinate_q(0, dim)),
              obs(PhasePolynomial.coordinate_p(0, dim)))
    start = time.perf_counter()
    product = star(q1, p1)
    assert time.perf_counter() - start < 0.3
    z = (0,) * (dim - 1)
    assert product == obs(PhasePolynomial(dim, {
        (0, (1,) + z, (1,) + z): 1, (1, (0,) + z, (0,) + z): Scalar(0, Fraction(1, 2))}))


def test_large_monomial_product_closed_form():
    a = d = 60
    expect = {(n, (a - n,), (d - n,)): i_power(n) * Fraction(perm(a, n) * perm(d, n),
                                                              2 ** n * factorial(n))
              for n in range(min(a, d) + 1)}
    assert star(obs(Q ** a), obs(P ** d)) == obs(PhasePolynomial(1, expect))


def test_table_work_budget_refuses_before_any_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("table built for an input over the work budget")

    for name in ("_star_table", "_s_table", "_hermite"):
        monkeypatch.setattr(kernel, name, no_table)
    big = obs(Q ** 2000 * P ** 2000)
    for call in (lambda: star(big, big), lambda: star_commutator(big, big),
                 lambda: bidiff_M(big, big, 3),
                 lambda: star(GaussianObservable(Q ** 1000, 1), GaussianObservable(P ** 1000, 1)),
                 lambda: s_map(GaussianObservable(Q ** 300 * P ** 300, 1)),
                 lambda: s_map(obs(Q ** 100000000 * P ** 100000000), "backward")):
        with pytest.raises(BudgetExceeded):
            call()
    # a sum of many moderate terms counts every table it may need
    spread = obs(sum((Q ** e * P ** e for e in range(100, 140)), PhasePolynomial.zero(1)))
    with pytest.raises(BudgetExceeded):
        star(spread, spread)


def test_combined_entry_budget_refuses_before_any_entry(monkeypatch):
    def no_entries(*args):
        raise AssertionError("entries combined for an input over the budget")

    monkeypatch.setattr(kernel, "_combine", no_entries)

    def monomial(dim, a, b):
        return obs(PhasePolynomial.monomial(dim, 0, (a,) * dim, (b,) * dim))

    # cheap tables of 6 entries a dimension of 16 bits, 6^8 entries combined,
    # each at ENTRY_BYTES plus a quarter byte per bit
    f, g = monomial(8, 2, 3), monomial(8, 3, 2)
    product = ("the product, 1679616 table entries of up to 128 bits",
               6 ** 8 * (kernel.ENTRY_BYTES + 128 // 4))
    for call, (priced, held) in (
            (lambda: star(f, g), product), (lambda: star_commutator(f, g), product),
            (lambda: bidiff_M(f, g, 5), product),
            # 11 entries a dimension of 35 bits, 11^6 combined
            (lambda: s_map(monomial(6, 10, 10)),
             ("the symmetrization map, 1771561 table entries of up to 210 bits",
              11 ** 6 * (kernel.ENTRY_BYTES + 210 // 4)))):
        with refused(priced, held, kernel.MAX_COMBINED, "bytes"):
            call()


def test_combined_entry_count_past_the_float_range_is_refused():
    # 2 entries a dimension of 7 bits in dim 1100: 2^1100 combined entries
    # have no float form, and the refusal once raised OverflowError on it
    dim = 1100
    f, g = (obs(PhasePolynomial.monomial(dim, 0, (1,) * dim, (0,) * dim)),
            obs(PhasePolynomial.monomial(dim, 0, (0,) * dim, (1,) * dim)))
    with refused("the product, 1e+300 table entries of up to 7700 bits",
                 2 ** dim * (kernel.ENTRY_BYTES + 7700 // 4), kernel.MAX_COMBINED, "bytes"):
        star(f, g)


def test_combined_entry_budget_line_falls_between_neighbouring_monomials(monkeypatch):
    # the square of q1^e p1^e q2^e p2^e q3^e p3^e combines about 211 MiB of
    # entries at e = 58, past MAX_COMBINED, and about 199 MiB at e = 57;
    # the price is checked before _combine, so the sentinel marks admission
    class Admitted(Exception):
        pass

    def admitted(tables):
        raise Admitted

    monkeypatch.setattr(kernel, "_combine", admitted)

    def square(e):
        return obs(PhasePolynomial.monomial(3, 0, (e,) * 3, (e,) * 3))

    for cache in (kernel._star_table, kernel._s_table, kernel._one):
        cache.cache_clear()
    past = square(58)
    start = time.perf_counter()
    with refused("the product, 205379 table entries of up to 1752 bits", 221_398_562,
                 200 << 20, "bytes"):
        star(past, past)
    assert time.perf_counter() - start < 1.0
    inside = square(57)
    with pytest.raises(Admitted):
        star(inside, inside)


def test_table_work_budget_counts_each_term_pair_at_its_own_exponents():
    # the tables are (150,0|0,150), (0,150|150,0) and two with one entry;
    # pricing each at the largest q and p exponents overall refused it
    f = obs(Q ** 150 + P ** 150)
    assert star(f, f) == sum((star(obs(x), obs(y)) for x in (Q ** 150, P ** 150)
                              for y in (Q ** 150, P ** 150)), obs(PhasePolynomial.zero(1)))
    spread = obs(sum((Q ** (12 * k) + P ** (12 * k) for k in range(1, 6)),
                     PhasePolynomial.zero(1)))
    assert star(spread, spread).body.terms
    assert s_map(obs(Q ** 3000 + P ** 3000)) == obs(Q ** 3000 + P ** 3000)


def test_table_work_budget_admits_large_monomials():
    # one nonzero derivative order each: no work past the first entry
    assert star(obs(P ** 100000000), obs(P ** 100000000)) == obs(P ** 200000000)
    assert s_map(obs(P ** 100000000)) == obs(P ** 100000000)
    assert star(obs(Q ** 2000), obs(PhasePolynomial.one(1))) == obs(Q ** 2000)


def test_tables_priced_past_the_cache_share_are_not_kept():
    # near the line one table holds about 16 MB; kept in the caches, ten
    # calls raised the peak RSS from 17 MB to 242 MB.  A call with a table
    # priced past the caches' share keeps none of its tables
    share = 2 * kernel.MAX_TABLE_WORK // kernel._CACHE_SIZE
    assert kernel._price((4608, 4608, (0, 1)), (0, 0, (0, 1))).cost > share
    for cache in (kernel._star_table, kernel._s_table):
        cache.cache_clear()
    f, g = obs(Q ** 4608 + Q), obs(P ** 4608)
    # the table of q and p^4608, built apart, is the same
    assert star(f, g) == star(obs(Q ** 4608), g) + star(obs(Q), g)
    assert kernel._star_table.cache_info().currsize == 1
    kernel._star_table.cache_clear()
    star(f, g)
    s_map(obs(Q ** 4610 * P ** 4610 + Q * P))
    assert kernel._star_table.cache_info().currsize == kernel._s_table.cache_info().currsize == 0


def test_near_line_calls_stay_below_256_mb():
    # twelve admitted calls in one fresh process: ru_maxrss is in KiB
    code = ("import resource\n"
            "from starquant import parse_observable as parse, star\n"
            "for a in range(4586, 4609, 2):\n"
            "    star(parse(f'q^{a}', 1), parse(f'p^{a}', 1))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(kernel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 256 << 10


def test_enveloped_factor_is_priced_at_its_hermite_terms():
    # P(0, m, r) has m // 2 + 1 terms, not m + 1, so s_map(p^300) at rate 1
    # is admitted and ends cold well inside the budget's time
    f = obs(P ** 300, 1)
    for cache in (kernel._star_table, kernel._s_table, kernel._one):
        cache.cache_clear()
    start = time.perf_counter()
    forward = s_map(f).body
    assert time.perf_counter() - start < 2.0
    # sum_m (m // 2 + 1) terms; order 1 is -(i lambda/2) d_q d_p of p^300 e^{-q^2}
    assert len(forward.terms) == 22801
    assert forward.coefficient(0, (0,), (300,)) == Scalar.of(1)
    assert forward.coefficient(1, (1,), (299,)) == Scalar(0, 300)


# -- the table price ----------------------------------------------------

PRICE_EXPONENTS = st.integers(0, 80)
PRICE_RATES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
                               Fraction(2)])


def most_bits(numbers) -> int:
    return max(abs(u).bit_length() for u in numbers)


@given(PRICE_EXPONENTS, PRICE_EXPONENTS, PRICE_RATES, PRICE_EXPONENTS, PRICE_EXPONENTS,
       PRICE_RATES)
@settings(max_examples=80, deadline=None)
def test_price_bounds_what_the_star_table_builds(a, b, r, c, d, s):
    rk, sk = rate_key(r), rate_key(s)
    price = kernel._price((a, d, rk), (c, b, sk))
    left = kernel._factor(a, kernel._top(a, d, r), d, rk, 1)
    right = kernel._factor(c, kernel._top(c, b, s), b, sk, -1)
    products = sum(map(len, left)) * sum(map(len, right))
    assert price.products >= products
    lefts = [u for terms in left for _, u in terms]
    rights = [v for terms in right for _, v in terms]
    held = [*lefts, *rights, max(map(abs, lefts)) * max(map(abs, rights))]
    if products <= 20_000:
        # the sums before reduction, and the table itself
        acc: dict = {}
        for j, lj in enumerate(left):
            for m, rm in enumerate(right):
                for x, u in lj:
                    for y, v in rm:
                        acc[j + m, x + y] = acc.get((j + m, x + y), 0) + u * v
        den, entries = kernel._star_table.__wrapped__(a, b, rk, c, d, sk)
        assert price.entries >= len(entries)
        held += [*acc.values(), den, *(u for *_, u in entries)]
    assert price.bits >= most_bits(held)


@given(PRICE_EXPONENTS, PRICE_EXPONENTS, PRICE_RATES, st.sampled_from([-1, 1]))
@settings(max_examples=80, deadline=None)
def test_price_bounds_what_the_s_table_builds(a, b, rate, sign):
    rk = rate_key(rate)
    price = kernel._price((a, b, rk))
    terms = kernel._factor(a, kernel._top(a, b, rate), b, rk, sign)
    den, entries = kernel._s_table.__wrapped__(a, b, rk, sign)
    assert price.products >= sum(map(len, terms))
    assert price.entries >= len(entries)
    assert price.bits >= most_bits([*(u for t in terms for _, u in t), den,
                                    *(u for *_, u in entries)])


@given(st.lists(PRICE_EXPONENTS, min_size=4, max_size=4), PRICE_RATES, PRICE_RATES,
       st.integers(0, 3))
@settings(max_examples=300)
def test_price_grows_with_each_exponent(exponents, r, s, which):
    # the product's filter prices every table at the largest exponents,
    # which holds only if no price falls as an exponent grows
    rk, sk = rate_key(r), rate_key(s)
    grown = list(exponents)
    grown[which] += 1
    for price in (lambda a, b, c, d: kernel._price((a, d, rk), (c, b, sk)),
                  lambda a, b, c, d: kernel._price((a, b, rk))):
        before, after = price(*exponents), price(*grown)
        assert after.cost >= before.cost and after.bits >= before.bits


@given(st.lists(st.integers(0, 6000), min_size=4, max_size=4), st.sampled_from([0, 1]),
       st.booleans())
@settings(max_examples=8, deadline=None)
def test_admitted_monomials_near_the_budget_line_end_within_two_seconds(shape, rate, product):
    # scale the drawn exponents up to the largest multiple the budget
    # admits: the price grows with each exponent, so it is found by bisection
    rk = (rate, 1)

    def scaled(k):
        return [e * k // 6000 for e in shape]

    def price(a, b, c, d):
        return (kernel._price((a, d, rk), (c, b, rk)) if product
                else kernel._price((a, b, rk))).cost

    lo, hi = 0, 6000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if price(*scaled(mid)) <= kernel.MAX_TABLE_WORK else (lo, mid - 1)
    a, b, c, d = scaled(lo)
    f, g = obs(Q ** a * P ** b, rate), obs(Q ** c * P ** d, rate)
    for cache in (kernel._star_table, kernel._s_table, kernel._one):
        cache.cache_clear()
    start = time.perf_counter()
    if product:
        star(f, g)
    else:
        s_map(f)
    assert time.perf_counter() - start < 2.0
