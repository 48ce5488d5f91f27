from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

from starquant import BudgetExceeded, GaussianObservable, PhasePolynomial, Scalar

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")
# scripts/mutate.py selects this one (--hypothesis-profile=mutate): a mutant
# is killed by the first failing example, and shrinking it only costs time
settings.register_profile("mutate", settings.get_profile("suite"),
                          phases=[phase for phase in Phase if phase != Phase.shrink])

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, small_fractions, small_fractions)
real_scalars = st.builds(Scalar, small_fractions)


@contextmanager
def refused(priced: str, count: int, limit: int, unit: str):
    """Expect a BudgetExceeded of exactly these four values."""
    with pytest.raises(BudgetExceeded) as info:
        yield
    error = info.value
    assert (error.priced, error.count, error.limit, error.unit) == (priced, count, limit, unit)


def term_keys(dim: int, max_degree: int, min_lambda: int, max_lambda: int):
    exponents = st.tuples(*([st.integers(0, max_degree)] * dim))
    return st.tuples(st.integers(min_lambda, max_lambda), exponents, exponents)


def polynomials(dim: int = 1, max_terms: int = 4, max_degree: int = 2,
                min_lambda: int = 0, max_lambda: int = 1,
                coeffs=scalars) -> st.SearchStrategy[PhasePolynomial]:
    term = st.tuples(term_keys(dim, max_degree, min_lambda, max_lambda), coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda items: PhasePolynomial(dim, dict(items)))


def base_polynomials(dim: int = 1, max_terms: int = 3, max_degree: int = 3,
                     coeffs=scalars) -> st.SearchStrategy[PhasePolynomial]:
    zeros = st.just((0,) * dim)
    exponents = st.tuples(*([st.integers(0, max_degree)] * dim))
    term = st.tuples(st.tuples(st.just(0), exponents, zeros), coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda items: PhasePolynomial(dim, dict(items)))


def observables(dim: int = 1, rate: Fraction | int = 0,
                **kwargs) -> st.SearchStrategy[GaussianObservable]:
    return polynomials(dim, **kwargs).map(
        lambda poly: GaussianObservable(poly, rate))
