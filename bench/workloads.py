"""Seeded op streams for the three benchmark workloads.

An op is one closed-loop request: it calls the library, or the CLI in
process, and checks what comes back by an independent route.  ``run``
returns None when the check holds and a one-line reason when it does
not; an exception raised by the library also counts as a failure.

Every workload cycles through a fixed schedule of op structures
(dimension, exponents, coefficient sizes, grid size, subcommand), and
the seed draws the values inside that structure: the unit (1, -1, i or
-i) of every coefficient, coordinate labels, times, intervals and
boundary values.  Runs at different seeds therefore do the same amount
of work on different inputs, which is what keeps a 25-second run steady
when single ops range from 2 ms to 1 s.

The library is always reached through module attributes (``sq.star``,
``cli.main``) at call time, so the tracer can patch them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from fractions import Fraction

import numpy as np

import starquant as sq
from starquant import cli, render
from starquant import GaussianObservable as G
from starquant import PhasePolynomial as PP
from starquant import Scalar

WORKLOADS = ("assoc", "transport", "wkb_cli")


class Op:
    """``run()`` -> None or a failure reason; ``inputs`` is what the library sees."""

    __slots__ = ("label", "run", "inputs")

    def __init__(self, label: str, run, inputs: tuple):
        self.label = label
        self.run = run
        self.inputs = inputs


UNITS = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1))


def _draw_terms(rng: random.Random, dim: int, max_degree: int, lo: int, hi: int,
                terms: int) -> list[tuple[tuple, Scalar]]:
    """The nonzero terms of one ``random_polynomial`` draw of the test suite.

    Consumes the generator exactly as tests/test_star.py does, so a
    fixed seed reproduces the criterion inputs.
    """
    out = {}
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(lo, hi)
        alpha = tuple(rng.randint(0, max_degree) for _ in range(dim))
        beta = tuple(rng.randint(0, max_degree) for _ in range(dim))
        c = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out[(k, alpha, beta)] = c
    return [(key, c) for key, c in out.items() if not c.is_zero()]


def _fill(rng: random.Random, dim: int, terms, swap: bool = False) -> PP:
    """The polynomial with every coefficient times a seeded unit.

    A unit keeps the sizes of the rationals, so the work stays the same.
    """
    out = {}
    for (k, alpha, beta), c in terms:
        if swap:
            alpha, beta = alpha[::-1], beta[::-1]
        out[(k, alpha, beta)] = c * rng.choice(UNITS)
    return PP(dim, out)


# -- assoc -------------------------------------------------------------

# Criterion 01 draws 100 triples from random.Random(910), alternating
# dim 2 and dim 1.  These 35 dim-2 cases take 0.5-11 s each to check on
# the reference machine (2 vCPU, Python 3.11); left in, they make a
# 25 s run's tail percentile rest on a handful of long ops, each as noisy
# as the machine.  The other 65 (15 of them dim 2) take 2-500 ms and
# make up the cycle.
CRITERION_SEED = 910
HEAVY_CASES = frozenset({0, 2, 4, 8, 10, 16, 20, 26, 30, 32, 34, 36, 40, 42, 44, 46,
                         50, 52, 54, 56, 58, 60, 62, 64, 72, 74, 76, 78, 80, 82, 84,
                         88, 90, 94, 98})
MONO_EVERY = 9


@functools.cache
def _criterion_shapes() -> list[tuple[int, list]]:
    rng = random.Random(CRITERION_SEED)
    shapes = []
    for case in range(100):
        n = 1 if case % 2 else 2
        triple = [_draw_terms(rng, n, 4, -1, 1, 3) for _ in range(3)]
        if case not in HEAVY_CASES:
            shapes.append((n, triple))
    return shapes


def _assoc_op(f: G, g: G, h: G, label: str) -> Op:
    def run():
        if sq.star(sq.star(f, g), h) != sq.star(f, sq.star(g, h)):
            return "star(star(f,g),h) != star(f,star(g,h))"
        return None
    return Op(label, run, (f, g, h))


def _mono_op(a: int, b: int, c: int, d: int, label: str) -> Op:
    f = G(PP.monomial(1, 0, (a,), (b,)))
    g = G(PP.monomial(1, 0, (c,), (d,)))

    def run():
        if sq.star(f, g) - sq.star(g, f) != sq.star_commutator(f, g):
            return "star(f,g) - star(g,f) != star_commutator(f,g)"
        return None
    return Op(label, run, (f, g))


def assoc_cycle(rng: random.Random, cycle: int) -> list[Op]:
    ops = []
    for j, (n, triple) in enumerate(_criterion_shapes()):
        if j and j % MONO_EVERY == 0:
            a, b, c, d = (rng.randint(8, 14) for _ in range(4))
            ops.append(_mono_op(a, b, c, d, f"c{cycle} mono q^{a}p^{b}*q^{c}p^{d}"))
        swap = n == 2 and rng.random() < 0.5
        f, g, h = (G(_fill(rng, n, terms, swap)) for terms in triple)
        ops.append(_assoc_op(f, g, h, f"c{cycle} triple {j} dim {n}"))
    return ops


# -- transport ---------------------------------------------------------

def _q(k: int, n: int) -> PP:
    return PP.coordinate_q(k, n)


@functools.cache
def _actions(n: int) -> tuple[sq.ActionData, ...]:
    if n == 1:
        q = _q(0, 1)
        polys = (q * q * Fraction(1, 2), q ** 3, q ** 4 - q)
    else:
        q1, q2 = _q(0, 2), _q(1, 2)
        polys = ((q1 * q1 + q2 * q2) * Fraction(1, 2), q1 * q2,
                 q1 ** 3 + q2 * q2 * Fraction(1, 2))
    return tuple(sq.ActionData(p) for p in polys)


# Op structures come from random.Random(TRANSPORT_POOL_SEED).  These 12
# dim-2 slots take 0.4-11 s per op, nearly all of it in the enveloped
# inner product; they are left out for the same reason as HEAVY_CASES,
# and so that the tail percentile falls among several slots of similar
# cost rather than on the boundary between two outliers.
TRANSPORT_POOL_SEED = 1202
TRANSPORT_SLOTS = 48
TRANSPORT_HEAVY = frozenset({0, 4, 6, 14, 16, 22, 26, 32, 36, 40, 44, 46})


@functools.cache
def _transport_shapes() -> list[dict]:
    rng = random.Random(TRANSPORT_POOL_SEED)
    shapes = []
    for j in range(TRANSPORT_SLOTS):
        n = 2 if j % 2 == 0 else 1
        shape = {"slot": j, "n": n, "action": (j // 2) % 3,
                 "f": _draw_terms(rng, n, 3, 0, 1, 2),
                 "g": _draw_terms(rng, n, 3, 0, 1, 2),
                 "h": _draw_terms(rng, n, 2, 0, 1, 2),
                 "k": (j // 2) % n}
        if j not in TRANSPORT_HEAVY and shape["f"] and shape["g"] and shape["h"]:
            shapes.append(shape)
    return shapes


def _transport_op(n: int, s: sq.ActionData, t: Fraction, f: PP, g: PP, h: PP,
                  k: int, label: str) -> Op:
    low = PP(n, {key: c for key, c in f.terms.items() if sum(key[2]) <= 2})
    if low.is_zero():
        low = PP.coordinate_p(0, n)
    generator = G(PP.coordinate_p(k, n) - s.gradient[k])
    fe, ge = G(f, 1), G(g, 1)

    def run():
        if sq.conjugate_by_phase(low, s, t) != sq.evolve(G(low), t, s).body:
            return "conjugate_by_phase != evolve at p-degree <= 2"
        if sq.evolve(sq.evolve(G(f), t, s), -t, s) != G(f):
            return "evolve(evolve(f,t),-t) != f"
        if n == 1 and sq.pi0(sq.star(G(f), G(g))) != sq.op_compose(sq.pi0(G(f)), sq.pi0(G(g))):
            return "pi0(f*g) != pi0(f) pi0(g)"
        if not sq.gelfand_member1(sq.star(G(h), generator), s):
            return "star(h, p_k - d_k S) not in the transported ideal"
        if sq.inner0(fe, ge) != sq.inner0_factorized(fe, ge):
            return "inner0 != inner0_factorized"
        norm = sq.omega0(sq.star(sq.conjugate(fe), fe))
        if not (norm.is_zero() or sq.laurent_is_positive(norm.coeff)):
            return "omega0(conj f * f) is negative"
        return None
    return Op(label, run, (s.action, t, f, g, h, k))


def transport_cycle(rng: random.Random, cycle: int) -> list[Op]:
    ops = []
    for shape in _transport_shapes():
        n = shape["n"]
        s = _actions(n)[shape["action"]]
        t = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        f, g, h = (_fill(rng, n, shape[x]) for x in ("f", "g", "h"))
        ops.append(_transport_op(n, s, t, f, g, h, shape["k"],
                                 f"c{cycle} slot {shape['slot']} dim {n} t={t}"))
    return ops


# -- wkb_cli -----------------------------------------------------------

SPRIMES = {  # expression -> (numeric S', left endpoints where S' > 0 on the grid)
    "q": (lambda x: x, ("0.5", "1", "1.5")),
    "q^2+q": (lambda x: x * x + x, ("0.5", "1", "1.5")),
    "1+q^3/4": (lambda x: 1.0 + x ** 3 / 4.0, ("-1", "-0.5", "0.5")),
}
BOUNDARY = {"1": 1.0, "2": 2.0, "1/2": 0.5, "1+i": 1 + 1j, "-1/2+3*i": -0.5 + 3j}
# S(q) for `wkb hierarchy`, with S'(q) written out for H = p^2 + E - S'^2
HIERARCHY_ACTIONS = (("q^2/2", "q"), ("q", "1"), ("q^3", "3*q^2"),
                     ("q^4", "4*q^3"), ("q^2/2+q", "q+1"))
SYNTAX_ERRORS = ("q+", "q*(p", "2^^q", "q p", "(q", "q^-1", "p^q", "q2*p", "3/0+q")
FILE_DATA = (-0.25, 1.25, 300)  # scattered S' = sqrt(1+q^2) samples on this range
PHI_TOL = 1e-9      # order 0 on an exact polynomial S' grid, relative to |bc|
PHI1_TOL = 1e-6     # order 1 for S' = q against the closed form, relative to |bc|;
                    # at N = 16384 stencil roundoff alone reaches ~3e-8
SPLINE_TOL = 1e-5   # order 0 on cubic-spline resampled file data (criterion 09)
GOLDEN = (
    (["star", "q", "p", "--dim", "1", "--json"], "star_qp.json"),
    (["wkb", "hierarchy", "--ham", "p^2+1-q^2", "--action", "q^2/2",
      "--energy", "1", "--order", "3", "--json"], "hierarchy_harmonic.json"),
    (["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
      "--samples", "256", "--order", "0", "--bc", "1", "--json"], "solve1d_linear.json"),
)
# Contract probes that fail at the time of writing; run once per wkb_cli
# run outside the timed loop and listed by argv (see bench/README.md).
KNOWN_DEFECTS = (
    (["star", "(" * 3000 + "q" + ")" * 3000, "p", "--json"], 2,
     "RecursionError escapes the parser"),
    (["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "inf",
      "--samples", "256", "--order", "0", "--bc", "1", "--json"], 3,
     "OverflowError escapes the grid set-up"),
    (["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
      "--samples", "256", "--order", "-1", "--bc", "1", "--json"], 3,
     "negative order is accepted with exit 0"),
)
# (kind, samples, order, S'); the cycle's first op doubles as the warm-up,
# and it touches CubicSpline and cumulative_simpson so scipy is loaded.
WKB_SCHEDULE = (
    ("file", 1024, 1, None),
    ("expr", 1024, 0, "q"), ("expr", 4096, 1, "q^2+q"), ("expr", 16384, 2, "1+q^3/4"),
    ("golden", 0, 0, None),
    ("expr", 1024, 3, "q^2+q"), ("expr", 4096, 2, "1+q^3/4"), ("expr", 16384, 1, "q"),
    ("hierarchy", 0, 2, None), ("syntax", 0, 0, None),
    ("expr", 1024, 2, "1+q^3/4"), ("expr", 4096, 3, "q"), ("expr", 16384, 0, "q^2+q"),
    ("golden", 1, 0, None), ("turning", 0, 0, None),
    ("file", 4096, 2, None), ("hierarchy", 0, 3, None), ("hj", 0, 0, None),
    ("golden", 2, 0, None),
)


def call_cli(argv: list[str]) -> tuple[object, str, str]:
    """cli.main in process with captured streams; (exit code, stdout, stderr).

    An exception that escapes main is returned as its type name in place
    of the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a contract breach, reported by the caller
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def _error_line(code, out: str, err: str, want: int) -> str | None:
    if code != want:
        return f"exit {code}, want {want}"
    if out:
        return "stdout not empty on an error exit"
    lines = err.splitlines()
    if len(lines) != 1 or "error" not in json.loads(lines[0]):
        return "stderr is not one JSON error line"
    return None


def _success(code, out: str, err: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit {code}: {err.strip()[:120]}"
    return json.loads(out), None


def _interior(grid: dict) -> np.ndarray:
    pad, n = grid["pad"], grid["n"]
    re = np.asarray(grid["re"][pad:pad + n])
    im = np.asarray(grid["im"][pad:pad + n])
    return re + 1j * im


def _solve_op(argv: list[str], sprime, a: float, b: float, n: int, order: int,
              c: complex, tol: float, ctx: "WkbContext", closed_form_order1: bool,
              label: str) -> Op:
    def run():
        payload, why = _success(*call_cli(argv))
        if why:
            return why
        orders = payload["orders"]
        if len(orders) != order + 1 or any(g["n"] != n for g in orders):
            return "wrong number or size of amplitude grids"
        x = np.linspace(a, b, n)
        want0 = c * np.sqrt(sprime(a) / sprime(x))
        if np.max(np.abs(_interior(orders[0]) - want0)) > tol * abs(c):
            return "phi_0 differs from c (S'(a)/S'(q))^(1/2)"
        if closed_form_order1 and order >= 1:
            want1 = 0.1875j * c * np.sqrt(a) * x ** -0.5 * (a ** -2.0 - x ** -2.0)
            err = float(np.max(np.abs(_interior(orders[1]) - want1)))
            ctx.order1_max_err = max(ctx.order1_max_err, err)
            if err > PHI1_TOL * abs(c):
                return f"phi_1 differs from the closed form by {err:.3g}"
        return None
    return Op(label, run, tuple(argv))


def _hierarchy_op(argv: list[str], action: str, label: str) -> Op:
    s = sq.ActionData(sq.parse_observable(action, 1).body)
    lhs, rhs = sq.physical_transport_equation(s, 1)
    want1 = render.operator_json(lhs.scale(Scalar(0, -1)))["terms"]
    want2 = render.operator_json(rhs.scale(Scalar(0, 1)))["terms"]

    def run():
        payload, why = _success(*call_cli(argv))
        if why:
            return why
        orders = payload["orders"]
        if orders[0]["terms"]:
            return "D_0 is not zero"
        if orders[1]["terms"] != want1 or orders[2]["terms"] != want2:
            return "D_1, D_2 differ from the physical transport equation"
        if any(o["terms"] for o in orders[3:]):
            return "an order above 2 is nonzero"
        return None
    return Op(label, run, tuple(argv))


def _golden_op(argv: list[str], want: str, label: str) -> Op:
    def run():
        code, out, err = call_cli(argv)
        if code != 0 or out != want:
            return f"exit {code} or stdout differs from the golden file"
        return None
    return Op(label, run, tuple(argv))


def _error_op(argv: list[str], want: int, label: str) -> Op:
    def run():
        return _error_line(*call_cli(argv), want=want)
    return Op(label, run, tuple(argv))


def _fmt(x: float) -> str:
    return repr(float(x))


class WkbContext:
    """Per-run state outside the op list: golden text, the S' file, and the
    largest phi_1 error seen, which the traced run reports."""

    def __init__(self, root: str, scratch: str, seed: int):
        self.golden = []
        for argv, name in GOLDEN:
            with open(os.path.join(root, "tests", "golden", name)) as fh:
                self.golden.append((argv, fh.read()))
        rng = np.random.default_rng(seed)
        lo, hi, count = FILE_DATA
        qs = np.sort(rng.uniform(lo, hi, size=count))
        self.sprime_file = os.path.join(scratch, f"sprime-{seed}.txt")
        np.savetxt(self.sprime_file, np.column_stack([qs, np.sqrt(1.0 + qs ** 2)]))
        self.order1_max_err = 0.0


def wkb_cycle(rng: random.Random, cycle: int, ctx: WkbContext) -> list[Op]:
    ops = []
    for kind, n, order, expr in WKB_SCHEDULE:
        bc = rng.choice(sorted(BOUNDARY))
        c = BOUNDARY[bc]
        tag = f"c{cycle} {kind}"
        if kind == "expr":
            fn, starts = SPRIMES[expr]
            a = float(rng.choice(starts))
            b = a + rng.choice((1.0, 1.5, 2.0))
            argv = ["wkb", "solve1d", "--sprime-expr", expr, "--interval", _fmt(a), _fmt(b),
                    "--samples", str(n), "--order", str(order), f"--bc={bc}", "--json"]
            ops.append(_solve_op(argv, fn, a, b, n, order, c, PHI_TOL, ctx,
                                 expr == "q", f"{tag} {' '.join(argv)}"))
        elif kind == "file":
            a = rng.choice((0.0, 0.125, 0.25))
            b = a + rng.choice((0.5, 0.75))
            argv = ["wkb", "solve1d", "--sprime-file", ctx.sprime_file, "--interval",
                    _fmt(a), _fmt(b), "--samples", str(n), "--order", str(order),
                    f"--bc={bc}", "--json"]
            ops.append(_solve_op(argv, lambda x: np.sqrt(1.0 + x * x), a, b, n, order, c,
                                 SPLINE_TOL, ctx, False, f"{tag} {' '.join(argv)}"))
        elif kind == "hierarchy":
            action, sp = rng.choice(HIERARCHY_ACTIONS)
            energy = f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}"
            ham = f"p^2+({energy})-({sp})^2"
            argv = ["wkb", "hierarchy", "--ham", ham, "--action", action,
                    f"--energy={energy}", "--order", str(order), "--json"]
            ops.append(_hierarchy_op(argv, action, f"{tag} {' '.join(argv)}"))
        elif kind == "golden":
            argv, want = ctx.golden[n]
            ops.append(_golden_op(argv, want, f"{tag} {' '.join(argv)}"))
        elif kind == "syntax":
            argv = [rng.choice(("star", "omega0", "pi0", "smap")), rng.choice(SYNTAX_ERRORS)]
            if argv[0] == "star":
                argv.append("p")
            argv.append("--json")
            ops.append(_error_op(argv, 2, f"{tag} {' '.join(argv)}"))
        elif kind == "turning":
            a = -rng.choice((0.25, 0.5, 1.0))
            argv = ["wkb", "solve1d", "--sprime-expr", "q", "--interval", _fmt(a),
                    _fmt(a + 2.0), "--samples", "256", "--order", "1", f"--bc={bc}", "--json"]
            ops.append(_error_op(argv, 3, f"{tag} {' '.join(argv)}"))
        else:  # hj: p^2 with S = q^2/2 leaves the residual q^2 - E, never zero
            energy = str(rng.randint(-3, 3))
            argv = ["wkb", "hierarchy", "--ham", "p^2", "--action", "q^2/2",
                    f"--energy={energy}", "--order", "2", "--json"]
            ops.append(_error_op(argv, 3, f"{tag} {' '.join(argv)}"))
    return ops


def run_known_defects() -> list[dict]:
    out = []
    for argv, want, defect in KNOWN_DEFECTS:
        why = _error_line(*call_cli(argv), want=want)
        shown = argv if len(" ".join(argv)) < 200 else [argv[0], "(((...3000 levels...",
                                                         *argv[2:]]
        out.append({"argv": shown, "want_exit": want, "passed": why is None,
                    "defect": defect, "detail": why})
    return out


# -- stream ------------------------------------------------------------

def make_ops(workload: str, seed: int, cycles: int, root: str, scratch: str):
    """The first ``cycles`` cycles of the op stream, plus the wkb context."""
    ctx = WkbContext(root, scratch, seed) if workload == "wkb_cli" else None
    ops: list[Op] = []
    for cycle in range(cycles):
        rng = random.Random(f"{workload}:{seed}:{cycle}")
        if workload == "assoc":
            ops += assoc_cycle(rng, cycle)
        elif workload == "transport":
            ops += transport_cycle(rng, cycle)
        else:
            ops += wkb_cycle(rng, cycle, ctx)
    return ops, ctx
