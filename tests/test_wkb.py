from __future__ import annotations

from fractions import Fraction
from math import factorial

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import starquant
from starquant import (ActionData, DimensionMismatch, GridFunction1D,
                       GridTooCoarse, HamiltonJacobiViolated, PhasePolynomial,
                       Scalar, SchrodingerOperator, TurningPointError,
                       WKBSolution, eigenproblem_hierarchy, fornberg_weights,
                       hj_residual, physical_transport_equation,
                       solve_transport_1d, transport_residuals_1d,
                       verify_eigen_residual)
from starquant.wkb import _central_weights, _eval_base_poly

from conftest import base_polynomials, real_scalars
from oracles import exact_poly_at

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


def test_import_does_not_load_scipy():
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-c", "import starquant, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)


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
