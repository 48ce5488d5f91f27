"""End-to-end acceptance checks, one test per shipped guarantee.

Each criterion prints a single pass/fail line and then asserts, so a
plain pytest run doubles as a checklist.  Tolerances and case grids are
stated inline; the symbolic criteria are exact equalities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from starquant import (ActionData, GaussianObservable, GridFunction1D,
                       PhasePolynomial, Scalar, TurningPointError, WKBSolution,
                       conjugate, conjugate_by_phase, eigenproblem_hierarchy,
                       evolve, gelfand_member0, gelfand_member1, inner0,
                       inner0_factorized, laurent_is_positive, momenta_decompose,
                       omega0, omega1, op_compose, physical_transport_equation,
                       pi0, solve_transport_1d, star, star_commutator,
                       verify_eigen_residual, weyl_check)
from starquant.cli import main as cli_main

from oracles import picard_evolve
from test_star import random_polynomial

GOLDEN = Path(__file__).parent / "golden"

Q = PhasePolynomial.coordinate_q(0, 1)
P = PhasePolynomial.coordinate_p(0, 1)
I = Scalar(Fraction(0), Fraction(1))
MINUS_I = Scalar(Fraction(0), Fraction(-1))


def _run(num: int, desc: str, fn) -> None:
    try:
        ok = bool(fn())
    except BaseException:
        print(f"criterion {num:02d} [FAIL] {desc} (raised)")
        raise
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _coord(letter: str, k: int, n: int) -> GaussianObservable:
    maker = PhasePolynomial.coordinate_q if letter == "q" else PhasePolynomial.coordinate_p
    return GaussianObservable(maker(k, n))


def test_criterion_01_ccr_and_associativity():
    def check():
        for n in (1, 2):
            i_lam = GaussianObservable(PhasePolynomial.lam(n, 1, I))
            for k in range(n):
                for l in range(n):
                    want = i_lam if k == l else GaussianObservable.zero(n)
                    if star_commutator(_coord("q", k, n), _coord("p", l, n)) != want:
                        return False
                    if not star_commutator(_coord("q", k, n), _coord("q", l, n)).is_zero():
                        return False
                    if not star_commutator(_coord("p", k, n), _coord("p", l, n)).is_zero():
                        return False
        witness = star(_coord("q", 0, 1), _coord("p", 0, 1))
        if witness != GaussianObservable(Q * P + PhasePolynomial.lam(1, 1, Scalar(Fraction(0), Fraction(1, 2)))):
            return False
        rng = random.Random(910)
        for case in range(100):
            n = 1 if case % 2 else 2
            f, g, h = (GaussianObservable(random_polynomial(rng, n, 4, -1, 1, 3))
                       for _ in range(3))
            if star(star(f, g), h) != star(f, star(g, h)):
                return False
        return True

    _run(1, "exact CCR anchors; associativity on 100 random triples "
            "(dim <= 2, degree <= 4, lambda orders -1..1)", check)


def test_criterion_02_factorization_and_positivity():
    def check():
        rng = random.Random(1202)
        for case in range(50):
            n = 2 if case % 3 == 0 else 1
            f = GaussianObservable(random_polynomial(rng, n, 3, 0, 1, 3), 1)
            g = GaussianObservable(random_polynomial(rng, n, 3, 0, 1, 3), 1)
            if inner0(f, g) != inner0_factorized(f, g):
                return False
            norm = omega0(star(conjugate(f), f))
            if not (norm.is_zero() or laurent_is_positive(norm.coeff)):
                return False
        return True

    _run(2, "inner product factorizes through the equivalence map on 50 pairs; "
            "norms are nonnegative in the ordered field", check)


def test_criterion_03_null_ideal_structure():
    def check():
        for n in (1, 2):
            for k in range(n):
                if not gelfand_member0(_coord("p", k, n)):
                    return False
        rng = random.Random(303)
        for case in range(25):
            n = 1 if case % 2 else 2
            f = GaussianObservable.zero(n)
            for k in range(n):
                g = random_polynomial(rng, n, 3, 0, 1, 2)
                f = f + star(GaussianObservable(g), _coord("p", k, n))
            if not gelfand_member0(f):
                return False
            parts = momenta_decompose(f)
            rebuilt = GaussianObservable.zero(n)
            for k, part in enumerate(parts):
                rebuilt = rebuilt + star(GaussianObservable(part), _coord("p", k, n))
            if rebuilt != f:
                return False
            h = GaussianObservable(random_polynomial(rng, n, 2, 0, 1, 2))
            if not gelfand_member0(star(h, f)):
                return False
        return True

    _run(3, "momenta generate the null ideal: 25 constructed members decompose "
            "and reconstruct exactly; left multiples stay inside", check)


def test_criterion_04_weyl_correspondence():
    def check():
        for n, top in ((1, 6), (2, 4)):
            if weyl_check(n, top)[1]:
                return False
        rng = random.Random(404)
        for _ in range(15):
            f = GaussianObservable(random_polynomial(rng, 1, 3, 0, 1, 2))
            g = GaussianObservable(random_polynomial(rng, 1, 3, 0, 1, 2))
            if pi0(star(f, g)) != op_compose(pi0(f), pi0(g)):
                return False
        return True

    _run(4, "pi0 equals symmetrized operator words for all monomials "
            "(total degree <= 6 in dim 1, <= 4 in dim 2) and is a star homomorphism", check)


def test_criterion_05_heisenberg_evolution():
    def check():
        s_cube = ActionData(Q ** 3)
        for t in (Fraction(1), Fraction(-1), Fraction(5, 7)):
            got = evolve(GaussianObservable(P ** 3), t, s_cube)
            want = (P - Q * Q * (3 * t)) ** 3 + PhasePolynomial.lam(1, 2, Fraction(3, 2) * t)
            if got != GaussianObservable(want):
                return False
        rng = random.Random(505)
        actions = [ActionData(Q * Q * Fraction(1, 2)), s_cube, ActionData(Q ** 4 - Q)]
        for case in range(12):
            f = GaussianObservable(random_polynomial(rng, 1, 3, 0, 1, 2))
            s = actions[case % 3]
            t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if evolve(f, t, s) != picard_evolve(f, t, s):
                return False
        f = GaussianObservable(P ** 3 + Q * P)
        if evolve(evolve(f, Fraction(1, 2), s_cube), Fraction(1, 2), s_cube) \
                != evolve(f, 1, s_cube):
            return False
        if evolve(evolve(f, 1, s_cube), -1, s_cube) != f:
            return False
        g = GaussianObservable(Q * Q - P)
        if evolve(star(f, g), 1, s_cube) != star(evolve(f, 1, s_cube),
                                                 evolve(g, 1, s_cube)):
            return False
        return True

    _run(5, "A_t matches a term-by-term Picard oracle, carries the exact "
            "(3/2) t lambda^2 correction on p^3, and is a one-parameter "
            "star automorphism group", check)


def test_criterion_06_transported_state():
    def check():
        s = ActionData(Q * Q * Fraction(1, 2))
        rng = random.Random(606)
        for _ in range(15):
            f = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2), 1)
            g = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2), 1)
            lhs = omega0(star(conjugate(f), g))
            rhs = omega1(star(conjugate(evolve(f, 1, s)), evolve(g, 1, s)), s)
            if lhs != rhs:
                return False
        for action in (s, ActionData(Q ** 3)):
            for k in range(action.dim):
                gen = GaussianObservable(
                    PhasePolynomial.coordinate_p(k, action.dim) - action.gradient[k])
                if not gelfand_member1(gen, action):
                    return False
                h = GaussianObservable(random_polynomial(rng, 1, 2, 0, 1, 2))
                if not gelfand_member1(star(h, gen), action):
                    return False
        return True

    _run(6, "omega1 turns A_1 into a GNS unitary on 15 pairs; p_k - d_k S "
            "generate its null ideal and absorb left multiples", check)


def test_criterion_07_phase_conjugation():
    def check():
        for action_poly in (Q * Q * Fraction(1, 2), Q ** 3):
            s = ActionData(action_poly)
            for h in (P, P * P, P ** 3):
                for t in (1, -1):
                    if conjugate_by_phase(h, s, t) != evolve(GaussianObservable(h), t, s).body:
                        return False
        return True

    _run(7, "oscillatory-phase conjugation equals the Heisenberg flow for "
            "H in {p, p^2, p^3}, S in {q^2/2, q^3}, t in {-1, 1}, exactly", check)


def test_criterion_08_transport_hierarchy():
    def check():
        for action_poly, energy in ((Q * Q * Fraction(1, 2), Fraction(1)),
                                    (Q, Fraction(1)),
                                    (Q ** 4, Fraction(2))):
            s = ActionData(action_poly)
            sprime = s.gradient[0]
            v = PhasePolynomial.constant(1, energy) - sprime * sprime
            hier = eigenproblem_hierarchy(P * P + v, s, energy, 6)
            lhs, rhs = physical_transport_equation(s, 1)
            if not hier.order(0).is_zero():
                return False
            if hier.order(1) != lhs.scale(MINUS_I):
                return False
            if hier.order(2) != rhs.scale(I):
                return False
            for j in range(3, len(hier.orders) + 2):
                if not hier.order(j).is_zero():
                    return False
        return True

    _run(8, "eigenproblem hierarchy collapses to the physical transport "
            "equation: D_1 = -i(S'' + 2 S' d), D_2 = -d^2, D_j = 0 for j >= 3, exactly", check)


def test_criterion_09_transport_solver():
    def check():
        sp = GridFunction1D.from_callable(lambda q: q, 1.0, 2.0, 512, 4)
        phi0 = solve_transport_1d(sp, None, 1.0)
        pts = np.linspace(1.0, 2.0, 512)
        if np.max(np.abs(phi0.interior() - pts ** -0.5)) > 1e-6:
            return False
        errs = []
        for n in (64, 128, 256):
            spn = GridFunction1D.from_callable(lambda q: q, 1.0, 2.0, n, 4)
            p1 = solve_transport_1d(spn, solve_transport_1d(spn, None, 1.0), 0.0)
            x = np.linspace(1.0, 2.0, n)
            exact = 0.1875j * x ** -0.5 * (1.0 - x ** -2.0)
            errs.append(np.max(np.abs(p1.interior() - exact)))
        if errs[0] / errs[1] < 8.0 or errs[1] / errs[2] < 8.0:
            return False
        phi1 = solve_transport_1d(sp, phi0, 0.0)
        ham = P * P + PhasePolynomial.one(1) - Q * Q
        hier = eigenproblem_hierarchy(ham, ActionData(Q * Q * Fraction(1, 2)), 1, 3)
        if not verify_eigen_residual(hier, WKBSolution(sp, [phi0, phi1]), 1e-5).passed:
            return False
        try:
            solve_transport_1d(
                GridFunction1D.from_callable(lambda q: q, -1.0, 1.0, 64, 4), None, 1.0)
            return False
        except TurningPointError:
            pass
        rng = np.random.default_rng(909)
        qs = np.sort(rng.uniform(-0.25, 1.25, size=300))
        spf = GridFunction1D.from_samples(qs, np.sqrt(1.0 + qs ** 2), 0.0, 1.0, 256, 4)
        p0 = solve_transport_1d(spf, None, 1.0)
        exact0 = (1.0 + np.linspace(0.0, 1.0, 256) ** 2) ** -0.25
        return bool(np.max(np.abs(p0.interior() - exact0)) <= 1e-5)

    _run(9, "solver: order 0 within 1e-6 at N=512; error shrinks >= 8x per "
            "halving at order 1; hierarchy residuals pass at 1e-5; turning "
            "points refused; scattered S' = sqrt(1+q^2) file data within 1e-5", check)


def test_criterion_10_cli_golden_output(capsys):
    cases = [
        (["star", "q", "p", "--dim", "1", "--json"], "star_qp.json"),
        (["wkb", "hierarchy", "--ham", "p^2+1-q^2", "--action", "q^2/2",
          "--energy", "1", "--order", "3", "--json"], "hierarchy_harmonic.json"),
        (["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
          "--samples", "256", "--order", "0", "--bc", "1", "--json"],
         "solve1d_linear.json"),
    ]

    def check():
        for argv, name in cases:
            code = cli_main(argv)
            out = capsys.readouterr().out
            if code != 0 or out != (GOLDEN / name).read_text():
                return False
        return True

    _run(10, "CLI reproduces the three golden JSON outputs byte for byte", check)
