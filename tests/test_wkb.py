from __future__ import annotations

from fractions import Fraction
from math import factorial

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import starquant
from starquant import (ActionData, BudgetExceeded, DimensionMismatch, GridFunction1D,
                       GridTooCoarse, HamiltonJacobiViolated, PhasePolynomial,
                       Scalar, SchrodingerOperator, TurningPointError,
                       WKBSolution, eigenproblem_hierarchy, fornberg_weights,
                       hj_residual, physical_transport_equation,
                       solve_transport_1d, transport_residuals_1d,
                       verify_eigen_residual)
from starquant.wkb import (MAX_HIERARCHY_ORDER, _central_weights, _cumulative_simpson,
                           _eval_base_poly, _not_a_knot_spline)

from conftest import base_polynomials, real_scalars
from oracles import exact_poly_at, exact_transport

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
MINUS_I = Scalar(Fraction(0), Fraction(-1))

S_QUAD = ActionData(Q * Q * Fraction(1, 2))
HAM = P * P + PhasePolynomial.one(1) - Q * Q  # p^2 + 1 - q^2, solved by S = q^2/2 at E = 1


def frac_list(xs):
    return [Fraction(x) for x in xs]


# ---------------------------------------------------------------------------
# stencil weights
# ---------------------------------------------------------------------------

def test_fornberg_reproduces_textbook_stencils():
    assert fornberg_weights(1, range(-2, 3)) == frac_list(
        ["1/12", "-2/3", "0", "2/3", "-1/12"])
    assert fornberg_weights(2, range(-2, 3)) == frac_list(
        ["-1/12", "4/3", "-5/2", "4/3", "-1/12"])
    assert fornberg_weights(1, [0, 1, 2]) == frac_list(["-3/2", "2", "-1/2"])
    assert fornberg_weights(0, [0]) == [Fraction(1)]


def test_fornberg_weights_are_exact_on_polynomials():
    # sum_j w_j (offset_j)^m reproduces m! [m == order] for all m < len(offsets)
    offsets = [-3, -1, 0, 2, 5]
    for order in range(3):
        w = fornberg_weights(order, offsets)
        for m in range(len(offsets)):
            total = sum(c * Fraction(o) ** m for c, o in zip(w, offsets))
            want = Fraction(factorial(order)) if m == order else Fraction(0)
            assert total == want


def test_fornberg_rejections():
    with pytest.raises(ValueError):
        fornberg_weights(-1, [0, 1])
    with pytest.raises(ValueError):
        fornberg_weights(1, [0, 0, 1])
    with pytest.raises(ValueError):
        fornberg_weights(2, [0, 1])


# ---------------------------------------------------------------------------
# symbolic hierarchy
# ---------------------------------------------------------------------------

def test_hj_residual_examples():
    assert hj_residual(HAM, S_QUAD, 1).is_zero()
    assert hj_residual(P * P, S_QUAD, 0) == Q * Q
    with pytest.raises(DimensionMismatch):
        hj_residual(PhasePolynomial.coordinate_p(0, 2), S_QUAD, 0)


def test_hierarchy_exact_operators():
    hier = eigenproblem_hierarchy(HAM, S_QUAD, 1, 3)
    assert hier.order(0).is_zero()
    d1 = SchrodingerOperator(1, {
        (0, (0,)): PhasePolynomial.constant(1, MINUS_I),
        (0, (1,)): Q.scale(MINUS_I * 2),
    })
    d2 = SchrodingerOperator(1, {(0, (2,)): PhasePolynomial.constant(1, -1)})
    assert hier.order(1) == d1
    assert hier.order(2) == d2
    assert hier.order(3).is_zero()
    assert hier.order(99).is_zero()
    assert hier.min_nonzero_order() == 1


def test_hierarchy_matches_physical_transport():
    # for H = p^2 + V the dressed expansion must reproduce the classic
    # amplitude transport: D_1 = -i*(S'' + 2 S' d), D_2 = i*(i d^2)
    i = Scalar(Fraction(0), Fraction(1))
    for action_poly, energy in ((Q * Q * Fraction(1, 2), 1), (Q ** 4, 2), (Q, 1)):
        s = ActionData(action_poly)
        sprime = s.gradient[0]
        v = PhasePolynomial.constant(1, energy) - sprime * sprime
        hier = eigenproblem_hierarchy(P * P + v, s, energy, 3)
        lhs, rhs = physical_transport_equation(s, 1)
        assert hier.order(1) == lhs.scale(MINUS_I)
        assert hier.order(2) == rhs.scale(i)
        assert hier.order(3).is_zero()


def test_hierarchy_rejections():
    with pytest.raises(HamiltonJacobiViolated) as err:
        eigenproblem_hierarchy(P * P, S_QUAD, 0, 2)
    assert err.value.residual == Q * Q
    with pytest.raises(ValueError):
        eigenproblem_hierarchy(P * P + PhasePolynomial.lam(1), S_QUAD, 0, 2)
    with pytest.raises(ValueError):
        eigenproblem_hierarchy(HAM, S_QUAD, 1, -1)
    with pytest.raises(DimensionMismatch):
        eigenproblem_hierarchy(PhasePolynomial.coordinate_p(0, 2) ** 2, S_QUAD, 0, 2)
    # orders past the last nonzero one are zero padding, capped
    assert len(eigenproblem_hierarchy(HAM, S_QUAD, 1, MAX_HIERARCHY_ORDER).orders) == \
        MAX_HIERARCHY_ORDER + 1
    with pytest.raises(BudgetExceeded):
        eigenproblem_hierarchy(HAM, S_QUAD, 1, MAX_HIERARCHY_ORDER + 1)


def test_physical_transport_equation_shape():
    lhs, rhs = physical_transport_equation(S_QUAD, 0)
    assert lhs == SchrodingerOperator(1, {
        (0, (0,)): PhasePolynomial.one(1),
        (0, (1,)): Q.scale(2),
    })
    assert rhs == SchrodingerOperator(
        1, {(0, (2,)): PhasePolynomial.constant(1, Scalar(Fraction(0), Fraction(1)))})
    with pytest.raises(ValueError):
        physical_transport_equation(S_QUAD, -1)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def test_grid_function_layout():
    g = GridFunction1D.from_callable(np.sin, 0.0, 1.0, 21, 3)
    assert g.h == pytest.approx(0.05)
    assert len(g.values) == 27
    assert g.points()[3] == pytest.approx(0.0)
    assert g.interior()[0] == pytest.approx(0.0)
    assert g.interior()[-1] == pytest.approx(np.sin(1.0))
    with pytest.raises(GridTooCoarse):
        GridFunction1D(0.0, 1.0, 1, 0, np.zeros(1))
    with pytest.raises(ValueError):
        GridFunction1D(0.0, 1.0, 4, 1, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction1D(0.0, 1.0, 4, -1, np.zeros(2))
    with pytest.raises(GridTooCoarse):
        GridFunction1D.from_callable(np.sin, 0.0, 1.0, 1, 2)
    with pytest.raises(GridTooCoarse):
        GridFunction1D.from_samples([0, 1, 2, 3], [0, 1, 4, 9], 0.0, 1.0, 1, 2)


def test_stencil_derivatives_converge():
    g = GridFunction1D.from_callable(np.sin, 0.0, 1.0, 201, 4)
    d1 = g.derivative(1)
    assert d1.pad == 2
    assert np.max(np.abs(d1.interior() - np.cos(
        np.linspace(0.0, 1.0, 201)))) < 1e-8
    d2 = g.derivative(2)
    assert np.max(np.abs(d2.interior() + np.sin(
        np.linspace(0.0, 1.0, 201)))) < 1e-6
    with pytest.raises(ValueError):
        d1.derivative(2).derivative(2)  # pad exhausted


def test_stencil_weights_are_cached_and_immutable():
    g = GridFunction1D.from_callable(np.sin, 0.0, 1.0, 201, 4)
    assert g.derivative(2).values.tobytes() == g.derivative(2).values.tobytes()
    radius, weights = _central_weights(2)
    assert _central_weights(2)[1] is weights
    exact = fornberg_weights(2, range(-radius, radius + 1))
    assert weights == tuple(float(w) for w in exact)
    with pytest.raises(TypeError):
        weights[0] = 1.0


# kept clear of underflow, where no relative error bound holds
grid_points = st.one_of(st.just(0.0), st.floats(2.0 ** -64, 4.0),
                        st.floats(-4.0, -2.0 ** -64))


@given(base_polynomials(max_terms=7, max_degree=6, coeffs=real_scalars),
       st.lists(grid_points, min_size=1, max_size=16))
def test_eval_base_poly_matches_exact_evaluation(poly, xs):
    fast = _eval_base_poly(poly, np.array(xs)).real
    eps = Fraction(float(np.finfo(float).eps))
    for x, got in zip(xs, fast):
        scale = sum(abs(c.re) * abs(Fraction(x)) ** alpha[0]
                    for (_, alpha, _), c in poly.terms.items())
        assert abs(Fraction(float(got)) - exact_poly_at(poly, x)) <= (
            (len(poly.terms) + 2) * eps * scale)


def test_linear_sprime_grid_is_exact():
    g = GridFunction1D.from_callable(lambda x: _eval_base_poly(Q, x).real,
                                     1.0, 2.0, 4096, 4)
    assert g.values.real.tolist() == [float(exact_poly_at(Q, x)) for x in g.points()]


def test_import_does_not_load_scipy(tmp_path):
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-c", "import starquant, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)
    qs = np.linspace(-0.25, 1.25, 40)
    path = tmp_path / "sprime.dat"
    np.savetxt(path, np.column_stack([qs, np.sqrt(1.0 + qs ** 2)]))
    solve = ("import sys; from starquant.cli import main; code = main(sys.argv[1:]); "
             "assert 'scipy' not in sys.modules; sys.exit(code)")
    for source, order in ((["--sprime-file", str(path)], "2"),
                          (["--sprime-expr", "q"], "3")):
        done = subprocess.run(
            [sys.executable, "-c", solve, "wkb", "solve1d", *source, "--interval", "1", "1.2",
             "--samples", "64", "--order", order, "--bc", "1", "--json"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["orders"]) == int(order) + 1


def test_cumulative_simpson_matches_scipy_bit_for_bit():
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(11)
    lengths = [3, 4, 5, 6, 7, 499, 500, *rng.integers(3, 501, size=200).tolist()]
    for k, n in enumerate(lengths):
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, size=n)
        y[rng.random(n) < 0.3] = 0.0
        y[rng.random(n) < 0.2] = -0.0
        if k % 10 == 0:
            y = np.full(n, -0.0)
        h = float(rng.uniform(1e-3, 3.0))
        want = cumulative_simpson(y, dx=h, initial=0.0)
        assert _cumulative_simpson(y, h).tobytes() == want.tobytes()
        z = np.empty(n, dtype=complex)  # the solver integrates complex samples
        z.real, z.imag = rng.standard_normal(n) * (rng.random(n) < 0.7), -y
        got = _cumulative_simpson(z, h)
        assert got.real.tobytes() == cumulative_simpson(z.real, dx=h, initial=0.0).tobytes()
        assert got.imag.tobytes() == cumulative_simpson(z.imag, dx=h, initial=0.0).tobytes()


def test_not_a_knot_spline_matches_scipy():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(12)
    cases = [np.array([0.0, 0.4, 1.1, 2.0]),                 # n = 4
             np.array([0.0, 1e-4, 2e-4, 0.5, 0.5001, 1.0]),  # clustered
             np.sort(rng.uniform(-2.0, 3.0, size=300))]
    cases += [np.sort(rng.uniform(-1.0, 1.0, size=n)) for n in rng.integers(4, 60, size=40)]
    for x in cases:
        y = rng.standard_normal(len(x))
        width = x[-1] - x[0]
        pts = np.concatenate([np.linspace(x[0] - width / 2, x[-1] + width / 2, 301), x])
        want = CubicSpline(x, y)(pts)
        got = _not_a_knot_spline(x, y, pts)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_from_samples_reproduces_cubics():
    rng = np.random.default_rng(7)
    qs = np.sort(rng.uniform(-0.5, 1.5, size=60))
    vs = qs ** 3 - 2 * qs + 1
    g = GridFunction1D.from_samples(qs, vs, 0.0, 1.0, 64, 4)
    pts = g.points()
    assert np.max(np.abs(g.values - (pts ** 3 - 2 * pts + 1))) < 1e-10
    with pytest.raises(ValueError):
        GridFunction1D.from_samples([0, 1, 2], [0, 1, 2], 0.0, 1.0, 32, 2)
    with pytest.raises(ValueError):
        GridFunction1D.from_samples([0, 0, 1, 2], [0, 1, 2, 3], 0.0, 1.0, 32, 2)


# ---------------------------------------------------------------------------
# transport solver
# ---------------------------------------------------------------------------

def sprime_linear(n, pad=4, a=1.0, b=2.0):
    return GridFunction1D.from_callable(lambda q: q, a, b, n, pad)


def phi1_exact(q):
    # S' = q, boundary 1 at q = 1: phi_0 = q^(-1/2) and
    # phi_1 = (3 i / 16) q^(-1/2) (1 - q^(-2))
    return 0.1875j * q ** -0.5 * (1.0 - q ** -2.0)


def test_order_zero_closed_form_is_machine_exact():
    sp = sprime_linear(512)
    phi0 = solve_transport_1d(sp, None, 1.0)
    pts = phi0.points()
    assert np.max(np.abs(phi0.values - pts ** -0.5)) < 1e-14
    assert phi0.interior()[0] == pytest.approx(1.0)


def test_order_one_against_closed_form():
    sp = sprime_linear(512)
    phi0 = solve_transport_1d(sp, None, 1.0)
    phi1 = solve_transport_1d(sp, phi0, 0.0)
    err = np.max(np.abs(phi1.interior() - phi1_exact(
        np.linspace(1.0, 2.0, 512))))
    assert err < 1e-9


def test_solver_converges_at_fourth_order():
    errs = []
    for n in (64, 128, 256):
        sp = sprime_linear(n)
        phi0 = solve_transport_1d(sp, None, 1.0)
        phi1 = solve_transport_1d(sp, phi0, 0.0)
        errs.append(np.max(np.abs(
            phi1.interior() - phi1_exact(np.linspace(1.0, 2.0, n)))))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_solver_boundary_value_is_respected():
    sp = sprime_linear(128, a=2.0, b=3.0)
    phi0 = solve_transport_1d(sp, None, 0.25 + 1.0j)
    assert phi0.interior()[0] == pytest.approx(0.25 + 1.0j)
    phi1 = solve_transport_1d(sp, phi0, -2.0j)
    assert phi1.interior()[0] == pytest.approx(-2.0j)


def test_turning_point_and_coarse_grid():
    bad = GridFunction1D.from_callable(lambda q: q, -1.0, 1.0, 64, 4)
    with pytest.raises(TurningPointError) as err:
        solve_transport_1d(bad, None, 1.0)
    assert "not strictly positive" in str(err.value)
    with pytest.raises(GridTooCoarse):
        solve_transport_1d(sprime_linear(15), None, 1.0)
    # mismatched grids are rejected
    with pytest.raises(ValueError):
        solve_transport_1d(sprime_linear(128),
                           solve_transport_1d(sprime_linear(64), None, 1.0), 0.0)


def test_eigen_residual_verification():
    sp = sprime_linear(512)
    phi0 = solve_transport_1d(sp, None, 1.0)
    phi1 = solve_transport_1d(sp, phi0, 0.0)
    hier = eigenproblem_hierarchy(HAM, S_QUAD, 1, 3)
    report = verify_eigen_residual(hier, WKBSolution(sp, [phi0, phi1]), 1e-5)
    # orders r = 0 .. R + 1 are computable; D_0 = 0 makes the first exact
    assert len(report.norms) == 3
    assert report.norms[0] == 0.0
    assert report.passed
    loose = verify_eigen_residual(hier, WKBSolution(sp, [phi0, phi1]), 1e-20)
    assert not loose.passed


def test_transport_residuals_from_samples_only():
    # file-style input: scattered samples of S' = sqrt(1 + q^2)
    rng = np.random.default_rng(11)
    qs = np.sort(rng.uniform(-0.25, 1.25, size=300))
    vs = np.sqrt(1.0 + qs ** 2)
    sp = GridFunction1D.from_samples(qs, vs, 0.0, 1.0, 256, 4)
    phi0 = solve_transport_1d(sp, None, 1.0)
    exact = (1.0 + np.linspace(0.0, 1.0, 256) ** 2) ** -0.25
    assert np.max(np.abs(phi0.interior() - exact)) < 1e-5
    phi1 = solve_transport_1d(sp, phi0, 0.0)
    report = transport_residuals_1d(sp, [phi0, phi1], 1e-3)
    assert len(report.norms) == 2
    assert report.passed


def solve_orders(sprime_fn, n, top, a=1.0):
    """S' sampled on [a, a + 1] with the CLI's pad, and phi_0..phi_top from phi_0(a) = 1."""
    sp = GridFunction1D.from_callable(sprime_fn, a, a + 1.0, n, max(4, 2 * (top + 1)))
    orders = [solve_transport_1d(sp, None, 1.0)]
    for _ in range(top):
        orders.append(solve_transport_1d(sp, orders[-1], 0.0))
    return sp, orders


def transport_errors(m, n, top=3, root=Fraction(1)):
    """Max interior error of orders 1..top against the exact recursion,
    for S' = q^m on [a, a + 1], a = root^2, with the CLI's pad."""
    a = float(root * root)
    _, orders = solve_orders(lambda q: q ** m, n, top, a)
    exact = exact_transport(m, top, root)
    q = np.linspace(a, a + 1.0, n)
    return [np.max(np.abs(orders[r].interior() - 1j ** r * sum(
        float(c) * q ** float(e) for e, c in exact[r].items()))) for r in range(1, top + 1)]


def _diff(terms, times=1):
    for _ in range(times):
        terms = {e - 1: c * e for e, c in terms.items() if e}
    return terms


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_transport_solves_the_recursion(m):
    # 2 S' phi_r' + S'' phi_r = i phi_(r-1)'', phi_r(1) = 0, in Fractions
    orders = exact_transport(m, 4)
    assert orders[0] == {Fraction(-m, 2): 1}
    for r in range(1, 5):
        lhs: dict = {}
        for e, c in _diff(orders[r]).items():
            lhs[e + m] = lhs.get(e + m, 0) + 2 * c
        for e, c in orders[r].items():
            lhs[e + m - 1] = lhs.get(e + m - 1, 0) + m * c
        # phi_r carries i^r and phi_(r-1) carries i^(r-1): the i cancels
        assert {e: c for e, c in lhs.items() if c} == _diff(orders[r - 1], 2)
        assert sum(orders[r].values()) == 0  # phi_r(1) = 0
    assert exact_transport(1, 1)[1] == {Fraction(-1, 2): Fraction(3, 16),
                                         Fraction(-5, 2): Fraction(-3, 16)}


def _at(terms, root):
    # sum c a^e at a = root^2, exactly: every 2e is an integer
    return sum(c * root ** int(2 * e) for e, c in terms.items())


@pytest.mark.parametrize("root", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_transport_from_other_endpoints_solves_the_recursion(m, root):
    # the same recursion from a = root^2, with phi_0(a) = 1 and phi_r(a) = 0
    orders = exact_transport(m, 4, root)
    assert orders[0] == {Fraction(-m, 2): root ** m}
    assert _at(orders[0], root) == 1
    for r in range(1, 5):
        lhs: dict = {}
        for e, c in _diff(orders[r]).items():
            lhs[e + m] = lhs.get(e + m, 0) + 2 * c
        for e, c in orders[r].items():
            lhs[e + m - 1] = lhs.get(e + m - 1, 0) + m * c
        assert {e: c for e, c in lhs.items() if c} == _diff(orders[r - 1], 2)
        assert _at(orders[r], root) == 0
    assert exact_transport(m, 4, Fraction(1)) == exact_transport(m, 4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_transport_orders_converge_from_other_endpoints(m):
    # on [9/4, 13/4] the rates of [1, 2] hold from N = 65 on, and phi_0,
    # a pure power of q, is exact to rounding
    _, (phi0,) = solve_orders(lambda q: q ** m, 65, 0, 2.25)
    q = np.linspace(2.25, 3.25, 65)
    assert np.max(np.abs(phi0.interior() - (2.25 / q) ** (m / 2))) < 1e-14
    errs = [transport_errors(m, n, root=Fraction(3, 2)) for n in (65, 129, 257)]
    for coarse, fine in zip(errs, errs[1:]):
        ratios = [c / f for c, f in zip(coarse, fine)]
        assert 13 <= ratios[0] <= 18, errs
        assert all(3.6 <= x <= 4.4 for x in ratios[1:]), errs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_transport_rates_settle_later_near_zero(m):
    # at a = 1/4, where S'(a) is small, the coarse grids converge more
    # slowly (order 1 about 12-13x, orders 2 and 3 about 3.1-3.9x per
    # halving from N = 65) and reach the rates of [1, 2] by N = 257
    errs = [transport_errors(m, n, root=Fraction(1, 2)) for n in (65, 129, 257, 513)]
    ratios = [[c / f for c, f in zip(coarse, fine)] for coarse, fine in zip(errs, errs[1:])]
    assert ratios[0][0] >= 11 and all(x >= 3 for x in ratios[0][1:]), errs
    assert 13 <= ratios[-1][0] <= 18, errs
    assert all(3.6 <= x <= 4.4 for x in ratios[-1][1:]), errs


@pytest.mark.parametrize("m", [1, 2])
def test_transport_orders_converge_at_their_rates(m):
    # order 1 is Simpson-limited (h^4); orders 2 and 3 differentiate an
    # approximate amplitude twice and lose h^2
    errs = [transport_errors(m, n) for n in (65, 129, 257, 513, 1025)]
    for coarse, fine in zip(errs[:3], errs[1:4]):
        ratios = [c / f for c, f in zip(coarse, fine)]
        assert 13 <= ratios[0] <= 18, errs
        assert all(3.6 <= x <= 4.4 for x in ratios[1:]), errs
    # from N = 1025 on roundoff, not h^4, bounds order 1
    assert errs[3][0] / errs[4][0] < 13, errs
    assert errs[3][1] / errs[4][1] >= 3.6, errs


@pytest.mark.parametrize("sprime_fn, sprime, action", [
    (lambda q: q, Q, Q * Q * Fraction(1, 2)),
    (lambda q: q + 1.0, Q + PhasePolynomial.one(1), Q * Q * Fraction(1, 2) + Q),
    (lambda q: 3.0 * q * q, Q * Q * 3, Q * Q * Q)])
@pytest.mark.parametrize("top", [1, 2, 3])
def test_residual_routes_agree(sprime_fn, sprime, action, top):
    # H = p^2 + 1 - S'^2 at E = 1 has D_0 = 0 and D_1 phi = -i (S'' phi + 2 S' phi'),
    # D_2 phi = -phi'': the hierarchy's order r + 1 is the recursion's order r
    ham = P * P + PhasePolynomial.one(1) - sprime * sprime
    hier = eigenproblem_hierarchy(ham, ActionData(action), 1, 3)
    sp, orders = solve_orders(sprime_fn, 128, top)
    eigen = verify_eigen_residual(hier, WKBSolution(sp, orders), 1e-6).norms
    literal = transport_residuals_1d(sp, orders, 1e-6).norms
    assert len(eigen) == top + 2 and len(literal) == top + 1
    assert eigen[0] == 0.0
    for r, norm in enumerate(literal):
        assert eigen[r + 1] == pytest.approx(norm, rel=1e-4)


def test_residual_norms_are_frozen():
    # bit-for-bit pins: reading the interior alone must not change a norm
    sp, orders = solve_orders(lambda q: q, 512, 2)
    hier = eigenproblem_hierarchy(HAM, S_QUAD, 1, 3)
    eigen = verify_eigen_residual(hier, WKBSolution(sp, orders), 1e-6).norms
    literal = transport_residuals_1d(sp, orders, 1e-6).norms
    assert [x.hex() for x in literal] == [
        "0x1.fdc1000000000p-36", "0x1.363b300000000p-31", "0x1.ac2906b7e0000p-17"]
    assert [x.hex() for x in eigen] == [
        "0x0.0p+0", "0x1.fd81000000000p-36", "0x1.363b300000000p-31",
        "0x1.ac2906b7e0000p-17"]
