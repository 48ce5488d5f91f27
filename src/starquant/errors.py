"""Shared exception types for the exact and numeric tiers."""


class StarquantError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(StarquantError):
    """Operands live on phase spaces of different dimension."""


class EnvelopeMismatch(StarquantError):
    """Sum of observables with different Gaussian envelope rates is not representable."""


class NonIntegrable(StarquantError):
    """Integral over configuration space diverges (no Gaussian envelope present)."""


class NotInIdeal(StarquantError):
    """Observable is not a member of the requested Gel'fand ideal."""


class HamiltonJacobiViolated(StarquantError):
    """The action does not solve H(q, dS(q)) = E; carries the exact residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class TurningPointError(StarquantError):
    """S'(q) is not strictly positive somewhere on the sampled interval."""


class GridTooCoarse(StarquantError):
    """Grid has too few samples for the requested stencils."""


class PhaseMismatch(StarquantError):
    """Phase symbols built over different actions cannot be combined."""


class BudgetExceeded(StarquantError):
    """What is ``priced`` needs ``count`` ``unit``s, past a fixed budget's ``limit``."""

    def __init__(self, priced: str, count: int, limit: int, unit: str):
        super().__init__(f"{priced}: {figure(count)} {unit}, over the limit of {figure(limit)}")
        self.priced, self.count, self.limit, self.unit = priced, count, limit, unit


def figure(n: int) -> str:
    """n, or from 10^15 its .3g form capped at 1e+300, as a longer int has no float form."""
    return str(n) if n < 10 ** 15 else f"{min(n, 10 ** 300):.3g}"
