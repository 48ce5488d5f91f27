"""Eigenvalue transport hierarchies and a numeric 1-D amplitude solver.

Symbolic side.  Given a polynomial Hamiltonian H, a polynomial action S
with H(q, dS(q)) = E, and the dressed operator realization, the
stationary problem for the transported observable splits by lambda
order into differential operators D_0, D_1, ... acting on the base
amplitudes:

    sum_{j <= r} D_j phi_{r-j} = 0    at every order r.

D_0 is multiplication by the exact Hamilton-Jacobi residual and
vanishes when the precondition holds.  The hierarchy is produced by a
direct lambda expansion of the represented operator; for the physical
family H = p^2 + V(q) it collapses to the classic amplitude transport

    (Lap S) phi_r + 2 <dS, grad phi_r> = i Lap phi_{r-1},

which ``physical_transport_equation`` builds independently so the two
routes can be compared operator-by-operator.

Numeric side.  In one dimension the transport recursion integrates in
closed form,

    phi_r = (S')^(-1/2) [ C + (i/2) Integral_a^q (S')^(-1/2) phi_{r-1}'' ],

which ``solve_transport_1d`` evaluates on a uniform grid with ghost
padding: fourth-order centered stencils for derivatives and composite
Simpson for the running integral.  Derivatives shrink the usable pad,
so grid functions carry their own pad width.  Grids are built with one
vectorized numpy pass: ``GridFunction1D.from_callable`` calls its
function once on the whole array of points, and a polynomial S' is
evaluated in floating point by ``_eval_base_poly``, to within a few
ulps of sum_k |c_k| |q|^k.  scipy is loaded on first use only, by the
running integral and by spline resampling, so importing the package
stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatch, GridTooCoarse, HamiltonJacobiViolated,
                     TurningPointError)
from .evolution import ActionData, evolve
from .gns import SchrodingerOperator, pi0
from .observables import PhasePolynomial
from .scalars import I, Rat, Scalar

MIN_SAMPLES = 16


# ---------------------------------------------------------------------------
# symbolic tier
# ---------------------------------------------------------------------------

def hj_residual(ham: PhasePolynomial, s: ActionData, energy: Rat) -> PhasePolynomial:
    """The exact base polynomial H(q, dS(q)) - E."""
    if ham.dim != s.dim:
        raise DimensionMismatch(f"hamiltonian dim {ham.dim} vs action dim {s.dim}")
    energy = Fraction(energy)
    restricted = ham.substitute_momenta(list(s.gradient)).restrict_zero_section()
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


def _hierarchy_orders(ham: PhasePolynomial, s: ActionData, energy: Fraction,
                      max_order: int) -> list[SchrodingerOperator]:
    """lambda components of pi0(A_{-1} H) - E, without the HJ gate."""
    n = ham.dim
    dressed = pi0(evolve(ham, -1, s))
    full = dressed - SchrodingerOperator.identity(n).scale(Scalar.of(energy))
    components = full.lambda_components()
    top = max(max_order, max(components, default=0))
    return [components.get(j, SchrodingerOperator.zero(n)) for j in range(top + 1)]


def eigenproblem_hierarchy(ham: PhasePolynomial, s: ActionData, energy: Rat,
                           max_order: int) -> TransportHierarchy:
    """Split the stationary problem for the dressed H into lambda orders.

    Requires a lambda-free Hamiltonian and an action that solves the
    corresponding Hamilton-Jacobi equation exactly; the residual is part
    of the raised error otherwise.  Orders above ``max_order`` that are
    not identically zero are kept, so no equation is silently dropped.
    """
    if ham.dim != s.dim:
        raise DimensionMismatch(f"hamiltonian dim {ham.dim} vs action dim {s.dim}")
    if not ham.is_lambda_free():
        raise ValueError("hierarchy requires a lambda-free hamiltonian")
    if max_order < 0:
        raise ValueError("max order must be nonnegative")
    energy = Fraction(energy)
    residual = hj_residual(ham, s, energy)
    if not residual.is_zero():
        raise HamiltonJacobiViolated(
            f"action does not solve H(q, dS) = E; residual {residual}",
            residual=residual)
    orders = _hierarchy_orders(ham, s, energy, max_order)
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
    lap_s = PhasePolynomial.zero(n)
    for k in range(n):
        lap_s = lap_s + s.action.diff_q(k).diff_q(k)
    zeros = (0,) * n
    lhs_terms: dict[tuple[int, tuple[int, ...]], PhasePolynomial] = {}
    if not lap_s.is_zero():
        lhs_terms[(0, zeros)] = lap_s
    for k in range(n):
        grad_k = s.gradient[k].scale(2)
        if not grad_k.is_zero():
            gamma = tuple(1 if m == k else 0 for m in range(n))
            lhs_terms[(0, gamma)] = grad_k
    rhs_terms = {}
    for k in range(n):
        gamma = tuple(2 if m == k else 0 for m in range(n))
        rhs_terms[(0, gamma)] = PhasePolynomial.constant(n, I)
    return (SchrodingerOperator(n, lhs_terms), SchrodingerOperator(n, rhs_terms))


# ---------------------------------------------------------------------------
# numeric tier
# ---------------------------------------------------------------------------

def fornberg_weights(order: int, offsets: Sequence[int]) -> list[Fraction]:
    """Exact finite-difference weights for d^order/dx^order at 0.

    Standard recursion over arbitrarily spaced integer offsets, done in
    rational arithmetic so stencils are reproducible to the bit.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    pts = [Fraction(o) for o in offsets]
    if len(set(pts)) != len(pts):
        raise ValueError("stencil offsets must be distinct")
    if len(pts) <= order:
        raise ValueError("not enough stencil points for the derivative order")
    m = order
    npts = len(pts)
    delta = [[[Fraction(0)] * (m + 1) for _ in range(npts)] for _ in range(npts)]
    delta[0][0][0] = Fraction(1)
    c1 = Fraction(1)
    for i in range(1, npts):
        c2 = Fraction(1)
        for j in range(i):
            c3 = pts[i] - pts[j]
            c2 *= c3
            for k in range(min(i, m), -1, -1):
                prev = delta[i - 1][j][k - 1] if k else Fraction(0)
                delta[i][j][k] = (pts[i] * delta[i - 1][j][k] - k * prev) / c3
        for k in range(min(i, m), -1, -1):
            prev = delta[i - 1][i - 1][k - 1] if k else Fraction(0)
            delta[i][i][k] = (c1 / c2) * (k * prev - pts[i - 1] * delta[i - 1][i - 1][k])
        c1 = c2
    return [delta[npts - 1][j][m] for j in range(npts)]


@lru_cache(maxsize=None)
def _central_weights(order: int) -> tuple[int, tuple[float, ...]]:
    """Radius and float weights of the 4th-order centered stencil (cached)."""
    radius = (order + 3) // 2
    weights = fornberg_weights(order, range(-radius, radius + 1))
    return radius, tuple(float(w) for w in weights)


@dataclass
class GridFunction1D:
    """Complex samples on a uniform grid over [a, b] with ghost padding.

    The interior has ``n`` samples including both endpoints; ``pad``
    ghost samples continue the grid on each side so centered stencils
    stay centered.  Derivatives return functions with a smaller pad:
    the data is only as wide as the stencil allows.
    """

    a: float
    b: float
    n: int
    pad: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.n < 2:
            raise GridTooCoarse("need at least two samples")
        if self.pad < 0:
            raise ValueError("pad must be nonnegative")
        if len(self.values) != self.n + 2 * self.pad:
            raise ValueError("sample array length does not match n + 2*pad")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        return self.a + self.h * np.arange(-self.pad, self.n + self.pad)

    def interior(self) -> np.ndarray:
        return self.values[self.pad:self.pad + self.n]

    @staticmethod
    def from_callable(fn, a: float, b: float, n: int, pad: int) -> "GridFunction1D":
        """Sample a vectorized ``fn`` on the grid: one call on the point array."""
        h = (b - a) / (n - 1)
        pts = a + h * np.arange(-pad, n + pad)
        return GridFunction1D(a, b, n, pad, fn(pts))

    @staticmethod
    def from_samples(qs: Sequence[float], vs: Sequence[float], a: float, b: float,
                     n: int, pad: int) -> "GridFunction1D":
        """Cubic resampling of scattered (q, value) data onto the grid."""
        from scipy.interpolate import CubicSpline

        qs = np.asarray(qs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if len(qs) != len(vs) or len(qs) < 4:
            raise ValueError("need at least four (q, value) samples")
        if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(vs))):
            raise ValueError("samples must be finite")
        order = np.argsort(qs)
        qs, vs = qs[order], vs[order]
        if np.any(np.diff(qs) <= 0):
            raise ValueError("sample abscissae must be distinct")
        spline = CubicSpline(qs, vs, extrapolate=True)
        h = (b - a) / (n - 1)
        pts = a + h * np.arange(-pad, n + pad)
        return GridFunction1D(a, b, n, pad, spline(pts))

    def same_grid(self, other: "GridFunction1D") -> bool:
        return self.a == other.a and self.b == other.b and self.n == other.n

    def derivative(self, order: int) -> "GridFunction1D":
        """4th-order centered derivative; pad shrinks by the stencil radius."""
        radius, weights = _central_weights(order)
        if self.pad < radius:
            raise ValueError(
                f"pad {self.pad} too small for an order-{order} stencil (needs {radius})")
        total = len(self.values)
        out = np.zeros(total - 2 * radius, dtype=complex)
        for s, w in zip(range(-radius, radius + 1), weights):
            out += w * self.values[radius + s: total - radius + s]
        out /= self.h ** order
        return GridFunction1D(self.a, self.b, self.n, self.pad - radius, out)

    def shrink_to(self, pad: int) -> "GridFunction1D":
        if pad > self.pad:
            raise ValueError("cannot grow the pad")
        cut = self.pad - pad
        vals = self.values[cut: len(self.values) - cut] if cut else self.values
        return GridFunction1D(self.a, self.b, self.n, pad, vals)


@dataclass
class WKBSolution:
    """Amplitudes phi_0..phi_R on a common interval, one grid throughout."""

    sprime: GridFunction1D
    orders: list[GridFunction1D]


def solve_transport_1d(sprime: GridFunction1D, phi_prev: GridFunction1D | None,
                       boundary: complex) -> GridFunction1D:
    """One transport order on the grid.

    With no previous amplitude this is the closed-form amplitude law
    phi_0 = C (S')^(-1/2); otherwise the inhomogeneous recursion

        phi_r = (S')^(-1/2) [ C + (i/2) Integral_a^q (S')^(-1/2) phi_{r-1}'' ds ]

    with C fixed by the value at the left endpoint a.  The second
    derivative uses the 4th-order stencil, the running integral
    composite Simpson, so the discretization error is O(h^4).
    """
    if sprime.n < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {sprime.n}")
    sp = sprime.values.real
    if not np.all(np.isfinite(sp)):
        worst = sprime.points()[int(np.argmin(np.isfinite(sp)))]
        raise ValueError(f"S' is not finite near q = {worst:.6g}")
    if np.any(sp <= 0):
        worst = sprime.points()[int(np.argmin(sp))]
        raise TurningPointError(f"S' is not strictly positive near q = {worst:.6g}")
    inv_sqrt = 1.0 / np.sqrt(sp)

    if phi_prev is None:
        c0 = boundary * np.sqrt(sp[sprime.pad])
        return GridFunction1D(sprime.a, sprime.b, sprime.n, sprime.pad, c0 * inv_sqrt)

    if not sprime.same_grid(phi_prev):
        raise ValueError("S' and the previous amplitude live on different grids")
    from scipy.integrate import cumulative_simpson

    d2 = phi_prev.derivative(2)
    pad = min(sprime.pad, d2.pad)
    d2 = d2.shrink_to(pad)
    sp_v = sprime.shrink_to(pad)
    inv = 1.0 / np.sqrt(sp_v.values.real)
    integrand = 0.5j * inv * d2.values
    # scipy's cumulative Simpson is real-only; integrate the parts
    running = (cumulative_simpson(integrand.real, dx=sp_v.h, initial=0.0)
               + 1j * cumulative_simpson(integrand.imag, dx=sp_v.h, initial=0.0))
    running = running - running[pad]  # anchor the integral at q = a
    c0 = boundary * np.sqrt(sp_v.values.real[pad])
    return GridFunction1D(sprime.a, sprime.b, sprime.n, pad, inv * (c0 + running))


def _eval_base_poly(poly: PhasePolynomial, x: np.ndarray) -> np.ndarray:
    """Evaluate a base-only, lambda-free polynomial coefficient on the grid."""
    out = np.zeros_like(x, dtype=complex)
    for (k, alpha, beta), c in poly.terms.items():
        if k != 0 or any(beta):
            raise ValueError("grid evaluation needs a plain q-polynomial")
        out += complex(c) * x ** alpha[0]
    return out


def _apply_operator_grid(op: SchrodingerOperator, phi: GridFunction1D) -> GridFunction1D:
    """Apply a lambda-free 1-D operator to grid samples."""
    if op.dim != 1:
        raise DimensionMismatch("grid application is one-dimensional")
    if op.rate != 0:
        raise ValueError("grid application needs an envelope-free operator")
    if op.is_zero():
        return GridFunction1D(phi.a, phi.b, phi.n, phi.pad,
                              np.zeros(phi.n + 2 * phi.pad, dtype=complex))
    pieces: list[GridFunction1D] = []
    for (k, gamma), coeff in op.sorted_terms():
        if k != 0:
            raise ValueError("grid application needs a lambda-free operator")
        dphi = phi.derivative(gamma[0]) if gamma[0] else phi
        vals = _eval_base_poly(coeff, dphi.points()) * dphi.values
        pieces.append(GridFunction1D(phi.a, phi.b, phi.n, dphi.pad, vals))
    pad = min(p.pad for p in pieces)
    acc = np.zeros(phi.n + 2 * pad, dtype=complex)
    for p in pieces:
        acc += p.shrink_to(pad).values
    return GridFunction1D(phi.a, phi.b, phi.n, pad, acc)


@dataclass
class ResidualReport:
    """Per-lambda-order residual norms of a grid solution."""

    norms: list[float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(x <= self.tol for x in self.norms)


def verify_eigen_residual(hier: TransportHierarchy, sol: WKBSolution,
                          tol: float) -> ResidualReport:
    """Check sum_j D_j phi_{r-j} = 0 on the grid at every computable order.

    Order r is computable when every referenced amplitude exists; since
    D_0 = 0 in a constructed hierarchy, that means r up to R plus the
    lowest nonzero operator order.  Norms are max-abs over the interior.
    """
    if hier.action.dim != 1:
        raise DimensionMismatch("grid verification is one-dimensional")
    top = len(sol.orders) - 1
    j_min = hier.min_nonzero_order()
    if j_min is None:
        return ResidualReport([0.0] * (top + 1), tol)
    r_max = top + j_min
    norms: list[float] = []
    for r in range(r_max + 1):
        acc: GridFunction1D | None = None
        for j, op in enumerate(hier.orders):
            if op.is_zero() or not 0 <= r - j <= top:
                continue
            piece = _apply_operator_grid(op, sol.orders[r - j])
            if acc is None:
                acc = piece
            else:
                pad = min(acc.pad, piece.pad)
                acc = GridFunction1D(
                    acc.a, acc.b, acc.n, pad,
                    acc.shrink_to(pad).values + piece.shrink_to(pad).values)
        if acc is None:
            norms.append(0.0)
        else:
            norms.append(float(np.max(np.abs(acc.interior()))))
    return ResidualReport(norms, tol)


def transport_residuals_1d(sprime: GridFunction1D, orders: Sequence[GridFunction1D],
                           tol: float) -> ResidualReport:
    """Grid residuals of the literal transport recursion.

    Uses only S' samples (S'' by stencil), so it applies to file-fed
    data where no polynomial Hamiltonian is available:

        S'' phi_r + 2 S' phi_r' - i phi_{r-1}'' = 0.
    """
    s2 = sprime.derivative(1)
    norms: list[float] = []
    for r, phi in enumerate(orders):
        d1 = phi.derivative(1)
        pad = min(s2.pad, d1.pad, phi.pad, sprime.pad)
        res = (s2.shrink_to(pad).values * phi.shrink_to(pad).values
               + 2.0 * sprime.shrink_to(pad).values.real * d1.shrink_to(pad).values)
        if r > 0:
            d2 = orders[r - 1].derivative(2)
            pad2 = min(pad, d2.pad)
            res = res[pad - pad2: len(res) - (pad - pad2)] if pad > pad2 else res
            res = res - 1j * d2.shrink_to(pad2).values
            pad = pad2
        grid = GridFunction1D(sprime.a, sprime.b, sprime.n, pad, res)
        norms.append(float(np.max(np.abs(grid.interior()))))
    return ResidualReport(norms, tol)
