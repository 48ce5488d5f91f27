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
applies exp(t L0) in closed form, as the momentum substitution
p -> p - t dS; ``evolve_t_polynomial`` convolves the two series to get
A_t f as a polynomial in t.  No truncation happens anywhere.

The time-one flow transports the flat-state constructions onto the
graph of dS: state, ideal membership and operator realization at t = 1
are all pullbacks along A_{-1}.

The WKB hierarchy is one more.  Given a polynomial Hamiltonian H and an
action S with H(q, dS(q)) = E, the stationary problem pi1(H) - E splits
by lambda order into differential operators D_0, D_1, ... acting on the
base amplitudes:

    sum_{j <= r} D_j phi_{r-j} = 0    at every order r.

D_0 is multiplication by the exact Hamilton-Jacobi residual and
vanishes when the precondition holds.  For the physical family
H = p^2 + V(q) the hierarchy collapses to the classic amplitude
transport

    (Lap S) phi_r + 2 <dS, grad phi_r> = i Lap phi_{r-1},

which ``physical_transport_equation`` builds independently so the two
routes can be compared operator-by-operator.  ``wkb`` solves the 1-d
recursion on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BudgetExceeded, DimensionMismatch, HamiltonJacobiViolated
from .gns import SchrodingerOperator, gelfand_member0, omega0, pi0
from .observables import (GaussianObservable, Observable, PhasePolynomial, _leibniz_terms,
                          _Numerators, _sum_of_products)
from .scalars import I, IntegralValue, Rat, Scalar, _frac

# Largest max_order of eigenproblem_hierarchy.  Orders past the last
# nonzero operator are zero padding, each one printed by the CLI, so an
# unbounded --order (10^6 took 12 s and wrote 32 MB) only grows the
# output; the benchmark and golden runs use orders up to 3.
MAX_HIERARCHY_ORDER = 1000


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
    return GaussianObservable._make(obs.body._shift_momenta(s.gradient, -_frac(t)), obs.rate)


def _fiber_apply(f: GaussianObservable, s: ActionData) -> GaussianObservable:
    """One application of the classical fiber transport L0 to f."""
    jobs = [(0, -1, 0, 1, f.body.diff_p(k)._numerators(), g._numerators())
            for k, g in enumerate(s.gradient)]
    return GaussianObservable._make(_sum_of_products(f.dim, jobs), f.rate)


def _source_apply(f: GaussianObservable, s: ActionData) -> GaussianObservable:
    """One application of the odd-order tail R to f."""
    # Closed form on purpose: R = (i/lambda)[S, f]_* - L0 f would run the
    # star kernel for a first-order term that is then subtracted again;
    # that cost the transport benchmark about 6% of ops_per_s (Python 3.11,
    # 2 vCPUs, three A/B pairs).
    if min(f.degree_p(), s.action.degree_q()) < 3:  # R starts at order 3
        return GaussianObservable.zero(f.dim)
    jobs = []
    for a, ds, df, w in _leibniz_terms(_Numerators.of(s.action), _Numerators.of(f),
                                       [(j, False) for j in range(f.dim)]):
        b = sum(a)
        if b >= 3 and b % 2:  # i^(b+1) / (2^(b-1) a!) lambda^(b-1); i^(b+1) = b % 4 - 2
            jobs.append((b - 1, b % 4 - 2, 0, w << (b - 1), ds.parts[0, 1], df.parts[0, 1]))
    return GaussianObservable._make(_sum_of_products(f.dim, jobs), f.rate)


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
        term = apply(terms[-1], s)
        if term.is_zero():  # before t / m: most series end at the first term
            return terms
        terms.append(term.scale(t / m))
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
    t = _frac(t)
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


def hj_residual(ham: PhasePolynomial, s: ActionData, energy: Rat) -> PhasePolynomial:
    """The exact base polynomial H(q, dS(q)) - E."""
    if ham.dim != s.dim:
        raise DimensionMismatch(f"hamiltonian dim {ham.dim} vs action dim {s.dim}")
    energy = Fraction(energy)
    restricted = fiber_flow(ham, -1, s).body.restrict_zero_section()
    return restricted - PhasePolynomial.constant(ham.dim, energy)


@dataclass
class TransportHierarchy:
    """The lambda-split eigenproblem operators for one (H, S, E) triple."""

    ham: PhasePolynomial
    action: ActionData
    energy: Fraction
    orders: list[SchrodingerOperator]

    def order(self, j: int) -> SchrodingerOperator:
        if j < len(self.orders):
            return self.orders[j]
        return SchrodingerOperator.zero(self.action.dim)

    def min_nonzero_order(self) -> int | None:
        for j, op in enumerate(self.orders):
            if not op.is_zero():
                return j
        return None


def eigenproblem_hierarchy(ham: PhasePolynomial, s: ActionData, energy: Rat,
                           max_order: int) -> TransportHierarchy:
    """The lambda components D_0, D_1, ... of pi1(H) - E.

    Requires a lambda-free Hamiltonian and an action that solves the
    corresponding Hamilton-Jacobi equation exactly; the residual is part
    of the raised error otherwise.  Orders above ``max_order`` that are
    not identically zero are kept, so no equation is silently dropped.
    """
    if not ham.is_lambda_free():
        raise ValueError("hierarchy requires a lambda-free hamiltonian")
    if max_order < 0:
        raise ValueError("max order must be nonnegative")
    if max_order > MAX_HIERARCHY_ORDER:
        raise BudgetExceeded("the WKB hierarchy", max_order, MAX_HIERARCHY_ORDER, "orders")
    energy = Fraction(energy)
    residual = hj_residual(ham, s, energy)
    if not residual.is_zero():
        raise HamiltonJacobiViolated(
            f"action does not solve H(q, dS) = E; residual {residual}",
            residual=residual)
    n = ham.dim
    full = pi1(ham, s) - SchrodingerOperator.identity(n).scale(Scalar.of(energy))
    components = full.lambda_components()
    top = max(max_order, max(components, default=0))
    orders = [components.get(j, SchrodingerOperator.zero(n)) for j in range(top + 1)]
    return TransportHierarchy(ham=ham, action=s, energy=energy, orders=orders)


def physical_transport_equation(s: ActionData, r: int) -> tuple[SchrodingerOperator, SchrodingerOperator]:
    """The classic amplitude transport at order r, built from S alone.

    Returns (lhs, rhs) with lhs acting on phi_r and rhs on phi_{r-1}:

        lhs = (Lap S) + 2 sum_k (d_k S) d/dq^k,    rhs = i Lap.

    The same pair comes back at every order; r is accepted for the
    caller's bookkeeping and validated only.
    """
    if r < 0:
        raise ValueError("transport order must be nonnegative")
    n = s.dim
    lhs = rhs = PhasePolynomial.zero(n)  # operator symbols: p_k is d/dq^k
    for k in range(n):
        p_k = PhasePolynomial.coordinate_p(k, n)
        lhs = lhs + s.gradient[k].diff_q(k) + (s.gradient[k] * p_k).scale(2)
        rhs = rhs + (p_k * p_k).scale(I)
    return (SchrodingerOperator._of(GaussianObservable(lhs)),
            SchrodingerOperator._of(GaussianObservable(rhs)))
