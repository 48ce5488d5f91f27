"""Exact Weyl star-product workbench on flat phase space.

Polynomial observables over an ordered Laurent field, the Weyl star
product with its equivalence map, two GNS-style representations (flat
state and its transport along an action), the Heisenberg flow A_t, and
a formal WKB transport hierarchy with a semi-numeric 1-d solver.
"""

from .errors import (BudgetExceeded, DimensionMismatch, EnvelopeMismatch,
                     GridTooCoarse, HamiltonJacobiViolated, NonIntegrable,
                     NotInIdeal, PhaseMismatch, StarquantError, TurningPointError)
from .evolution import (ActionData, TransportHierarchy, eigenproblem_hierarchy, evolve,
                        evolve_t_polynomial, fiber_flow, gelfand_member1, hj_residual,
                        omega1, physical_transport_equation, pi1, t_operator_apply)
from .gns import (SchrodingerOperator, gaussian_moment, gelfand_member0, inner0,
                  inner0_factorized, momenta_decompose, omega0, op_apply_base,
                  op_compose, pi0, project_H0, weyl_check, weyl_symmetrize_oracle)
from .observables import (GaussianObservable, Observable, PhasePolynomial,
                          conjugate, differentiate, restrict_zero_section,
                          substitute_momenta)
from .parsing import (IndexOutOfRange, NegativeExponent, ObservableParseError,
                      ObservableSyntaxError, parse_observable)
from .phase import PhaseSymbol, conjugate_by_phase, phase_star
from .scalars import (IntegralValue, LaurentSeries, Scalar, i_power,
                      laurent_is_positive)
from .star import bidiff_M, s_map, star, star_commutator

__version__ = "0.1.0"

# The grid names of wkb, which imports numpy, load on first use (PEP 562),
# so `import starquant` and the exact commands start without numpy.
_WKB_NAMES = frozenset((
    "GridFunction1D", "ResidualReport", "WKBSolution", "fornberg_weights",
    "solve_transport_1d", "transport_residuals_1d", "verify_eigen_residual"))


def __getattr__(name):
    if name in _WKB_NAMES:
        from . import wkb
        return getattr(wkb, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _WKB_NAMES)

__all__ = [
    "ActionData", "BudgetExceeded", "DimensionMismatch", "EnvelopeMismatch",
    "GaussianObservable", "GridFunction1D", "GridTooCoarse", "HamiltonJacobiViolated",
    "IndexOutOfRange",
    "IntegralValue", "LaurentSeries", "NegativeExponent", "NonIntegrable",
    "NotInIdeal", "Observable", "ObservableParseError", "ObservableSyntaxError",
    "PhaseMismatch", "PhasePolynomial", "PhaseSymbol", "ResidualReport", "Scalar",
    "SchrodingerOperator", "StarquantError", "TransportHierarchy",
    "TurningPointError", "WKBSolution", "bidiff_M", "conjugate",
    "conjugate_by_phase", "differentiate", "eigenproblem_hierarchy", "evolve",
    "evolve_t_polynomial", "fiber_flow", "fornberg_weights", "gaussian_moment",
    "gelfand_member0", "gelfand_member1", "hj_residual", "i_power", "inner0",
    "inner0_factorized", "laurent_is_positive", "momenta_decompose", "omega0",
    "omega1", "op_apply_base", "op_compose", "parse_observable", "phase_star",
    "physical_transport_equation", "pi0", "pi1", "project_H0",
    "restrict_zero_section", "s_map", "solve_transport_1d", "star",
    "star_commutator", "substitute_momenta", "t_operator_apply",
    "transport_residuals_1d", "verify_eigen_residual", "weyl_check",
    "weyl_symmetrize_oracle",
]
