"""A numeric 1-D amplitude solver for the WKB transport hierarchy.

The exact hierarchy lives in ``evolution``.  In one dimension its
transport recursion integrates in closed form,

    phi_r = (S')^(-1/2) [ C + (i/2) Integral_a^q (S')^(-1/2) phi_{r-1}'' ],

which ``solve_transport_1d`` evaluates on a uniform grid with ghost
padding: fourth-order centered stencils for derivatives and composite
Simpson for the running integral.  phi_1 converges as h^4, and deeper
orders, whose recursion differentiates the last one twice, as h^2.
Derivatives shrink the usable pad, so grid functions carry their own
pad width, kept on each amplitude for the next order's second
derivative; the residual checks read the n interior samples alone.
Grids are built with one vectorized numpy pass: ``from_callable``
calls its function once on the whole array of points, and a polynomial
S' is evaluated in floating point by ``_eval_base_poly``, to within a
few ulps of sum_k |c_k| |q|^k.  The running integral and the spline
resampling of file data are small numpy routines here, so the numeric
tier needs numpy alone: ``_cumulative_simpson`` repeats the operations
of scipy's equal-step ``cumulative_simpson`` and gives the same bits,
and ``_not_a_knot_spline`` solves the not-a-knot cubic spline's slope
system in one O(n) sweep.  This is the one module that imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, GridTooCoarse, TurningPointError
# eigenproblem_hierarchy stays bound here too: the benchmark tracer looks
# it up as starquant.wkb.eigenproblem_hierarchy
from .evolution import TransportHierarchy, eigenproblem_hierarchy
from .gns import SchrodingerOperator
from .observables import PhasePolynomial

MIN_SAMPLES = 16


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


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running composite Simpson integral of samples y with step h.

    Bit for bit scipy's ``cumulative_simpson(y, dx=h, initial=0.0)``
    on real y, and on each part of complex y, by the same operations in
    the same order: each step integrates the parabola through its two
    ends and the next sample, forward on y and backward on y reversed;
    even steps come from the forward pass, odd steps and the last one
    from the backward pass.  Adding 0.0 after the sum turns -0.0 into
    0.0, as scipy's ``initial`` does, which also undoes the zero signs
    that complex products by real constants may flip.
    """
    def steps(f: np.ndarray) -> np.ndarray:
        return h / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    forward, backward = steps(y), steps(y[::-1])[::-1]
    pieces = np.empty(len(y) - 1, dtype=forward.dtype)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (x, y), evaluated at pts.

    x is strictly increasing with at least four entries.  The knot
    slopes solve scipy ``CubicSpline``'s tridiagonal system: row i of
    the interior matches second derivatives at x[i], and the end rows
    make the third derivative continuous at x[1] and x[-2].  One Thomas
    sweep solves it in O(n) without pivoting: every pivot stays
    positive (eliminating row 0 leaves row 1 the pivot dx[0] + dx[1]).
    Each point takes the cubic of its interval, the end ones
    extrapolating.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate(([0.0], dx[1:], [d1])).tolist()
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1], [0.0])).tolist()
    rhs = np.concatenate((
        [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1])).tolist()
    n = len(diag)
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    cubic, square = t / dx, (slope - s[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, n - 2)
    u = pts - x[i]
    return ((cubic[i] * u + square[i]) * u + s[i]) * u + y[i]


def _grid_points(a: float, b: float, n: int, pad: int) -> np.ndarray:
    """The n points of [a, b], both ends included, and pad more beyond each end."""
    if n < 2:
        raise GridTooCoarse("need at least two samples")
    return a + (b - a) / (n - 1) * np.arange(-pad, n + pad)


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
        return _grid_points(self.a, self.b, self.n, self.pad)

    def interior(self) -> np.ndarray:
        return self.values[self.pad:self.pad + self.n]

    @staticmethod
    def from_callable(fn, a: float, b: float, n: int, pad: int) -> "GridFunction1D":
        """Sample a vectorized ``fn`` on the grid: one call on the point array."""
        return GridFunction1D(a, b, n, pad, fn(_grid_points(a, b, n, pad)))

    @staticmethod
    def from_samples(qs: Sequence[float], vs: Sequence[float], a: float, b: float,
                     n: int, pad: int) -> "GridFunction1D":
        """Not-a-knot cubic resampling of scattered (q, value) data onto the grid."""
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
        pts = _grid_points(a, b, n, pad)
        return GridFunction1D(a, b, n, pad, _not_a_knot_spline(qs, vs, pts))

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
    derivative uses the 4th-order stencil and the running integral
    composite Simpson: phi_1 converges as h^4, phi_2 and deeper as h^2.
    """
    if sprime.n < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {sprime.n}")
    sp = sprime.values.real
    if not np.all(np.isfinite(sp)):
        worst = sprime.points()[int(np.argmin(np.isfinite(sp)))]
        raise ValueError(f"S' is not finite near q = {worst:.6g}")
    if np.any(sp <= 0):
        inner = sprime.interior().real
        if np.any(inner <= 0):
            worst = sprime.points()[sprime.pad + int(np.argmin(inner))]
            raise TurningPointError(f"S' is not strictly positive near q = {worst:.6g}")
        worst = sprime.points()[int(np.argmin(sp))]
        raise TurningPointError(
            f"S' is not strictly positive near q = {worst:.6g}, in the ghost padding: "
            f"{sprime.pad} samples ({sprime.pad * sprime.h:.6g} wide) beyond each end "
            f"of [{sprime.a:.6g}, {sprime.b:.6g}] for the stencils; use more samples "
            "or a lower order, which narrows the padding")
    inv_sqrt = 1.0 / np.sqrt(sp)
    c0 = boundary * np.sqrt(sp[sprime.pad])

    if phi_prev is None:
        return GridFunction1D(sprime.a, sprime.b, sprime.n, sprime.pad, c0 * inv_sqrt)

    if not sprime.same_grid(phi_prev):
        raise ValueError("S' and the previous amplitude live on different grids")
    d2 = phi_prev.derivative(2)
    pad = min(sprime.pad, d2.pad)
    inv = inv_sqrt[sprime.pad - pad: sprime.pad + sprime.n + pad]
    d2_vals = d2.values[d2.pad - pad: d2.pad + d2.n + pad]
    running = _cumulative_simpson(0.5j * inv * d2_vals, sprime.h)
    running = running - running[pad]  # anchor the integral at q = a
    return GridFunction1D(sprime.a, sprime.b, sprime.n, pad, inv * (c0 + running))


def _eval_base_poly(poly: PhasePolynomial, x: np.ndarray) -> np.ndarray:
    """Evaluate a base-only, lambda-free polynomial coefficient on the grid."""
    out = np.zeros_like(x, dtype=complex)
    for (k, alpha, beta), c in poly.terms.items():
        if k != 0 or any(beta):
            raise ValueError("grid evaluation needs a plain q-polynomial")
        out += complex(c) * x ** alpha[0]
    return out


def _apply_operator_grid(op: SchrodingerOperator, phi: GridFunction1D) -> np.ndarray:
    """The n interior samples of a lambda-free 1-D operator applied to phi."""
    if op.dim != 1:
        raise DimensionMismatch("grid application is one-dimensional")
    if op.rate != 0:
        raise ValueError("grid application needs an envelope-free operator")
    x = _grid_points(phi.a, phi.b, phi.n, 0)
    acc = np.zeros(phi.n, dtype=complex)
    for (k, gamma), coeff in op.sorted_terms():
        if k != 0:
            raise ValueError("grid application needs a lambda-free operator")
        dphi = phi.derivative(gamma[0]) if gamma[0] else phi
        acc += _eval_base_poly(coeff, x) * dphi.interior()
    return acc


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
    r_max = top + (hier.min_nonzero_order() or 0)
    norms: list[float] = []
    for r in range(r_max + 1):
        acc = np.zeros(sol.sprime.n, dtype=complex)
        for j, op in enumerate(hier.orders):
            if 0 <= r - j <= top:
                acc += _apply_operator_grid(op, sol.orders[r - j])
        norms.append(float(np.max(np.abs(acc))))
    return ResidualReport(norms, tol)


def transport_residuals_1d(sprime: GridFunction1D, orders: Sequence[GridFunction1D],
                           tol: float) -> ResidualReport:
    """Grid residuals of the literal transport recursion.

    Uses only S' samples (S'' by stencil), so it applies to file-fed
    data where no polynomial Hamiltonian is available:

        S'' phi_r + 2 S' phi_r' - i phi_{r-1}'' = 0.
    """
    s1 = sprime.interior().real
    s2 = sprime.derivative(1).interior()
    norms: list[float] = []
    for r, phi in enumerate(orders):
        res = s2 * phi.interior() + 2.0 * s1 * phi.derivative(1).interior()
        if r > 0:
            res = res - 1j * orders[r - 1].derivative(2).interior()
        norms.append(float(np.max(np.abs(res))))
    return ResidualReport(norms, tol)
