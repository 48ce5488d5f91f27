"""Command-line front end.

Every pipeline stage is a subcommand over expressions in q, p, lambda
and i.  Output is deterministic: --json emits canonical JSON (exact
rationals as "num/den" strings, terms in canonical order), the default
pretty mode prints grammar-conformant expressions that parse back.
Each call renders only the form it prints, and pretty output is the
same bytes on a terminal and on a pipe.

Exit codes: 0 success, 2 parse/usage error, 3 precondition failure
(turning point, Hamilton-Jacobi violation, non-member, ...).  Errors go
to stderr as a one-line JSON body with the diagnostic attached.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings
from fractions import Fraction

from . import render
from .errors import BudgetExceeded, GridTooCoarse, StarquantError
from .evolution import ActionData, eigenproblem_hierarchy, evolve, omega1, pi1
from .gns import (gelfand_member0, inner0, momenta_decompose, omega0, pi0,
                  project_H0, weyl_check)
from .observables import GaussianObservable, PhasePolynomial
from .parsing import (ObservableParseError, parse_complex_constant,
                      parse_observable, parse_rational)
from .phase import conjugate_by_phase
from .scalars import IntegralValue
from .star import s_map, star, star_commutator

# Largest `wkb solve1d --samples`: past it the 4th-order second-derivative
# stencil's roundoff, about eps/h^2 on a unit interval, exceeds 1e-4, and
# the arrays and the JSON output grow without bound.
MAX_SAMPLES = 2 ** 20
# Most grid values one `wkb solve1d` may write: order + 1 amplitude grids
# of samples + 2 * pad values each.  It admits MAX_SAMPLES at order 0,
# 1048584 values, which write 51.6 MB of JSON at 135 MB peak RSS (Python
# 3.11, numpy 2.4; the grids are written a slice at a time); the output
# would otherwise grow as order^2 through the order-dependent pad.
MAX_GRID_VALUES = 2 ** 21
# Largest --dim of a command that parses operands: every term of every
# operand and result carries two exponent tuples of dim entries, a cost no
# other budget counts.  No test, corpus entry or benchmark op parses above
# dim 8.
MAX_DIM = 64
# Words that are values, never flags: argparse's own negative numbers
# ("-1", "-0.5"), the same with an exponent as parse_rational reads them
# ("-1e-3", "-2.5E-3"), negative fractions ("-1/2") and complex constants
# with a negative real part ("-1/2+3*i", "-1-i").  Any other word that
# starts with "-" stays a flag, so "--t -1/2" reads like "--t=-1/2".
_NEGATIVE_VALUE = re.compile(
    r"^-(\d+/\d+|(\d+|\d*\.\d+)([eE][-+]?\d+)?)([+-](\d+(/\d+)?\*)?i)?$")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with JSON usage errors, matching the error contract, that
    reads a negative fraction or complex constant as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        sys.stderr.write(json.dumps({"error": "UsageError", "message": message}) + "\n")
        raise SystemExit(2)


# -- shared argument plumbing ------------------------------------------


def _rate(args) -> Fraction:
    rate = parse_rational(args.envelope)
    if rate < 0:
        raise ValueError("envelope rate must be nonnegative")
    return rate


def _dim(args) -> int:
    if args.dim < 1:
        raise ValueError("dimension must be at least 1")
    if args.dim > MAX_DIM:
        raise BudgetExceeded("--dim", args.dim, MAX_DIM, "dimensions")
    return args.dim


def _obs(args, text: str) -> GaussianObservable:
    return parse_observable(text, _dim(args), _rate(args))


def _poly(args, text: str) -> PhasePolynomial:
    return parse_observable(text, _dim(args), 0).body


def _action(args) -> ActionData:
    return ActionData(_poly(args, args.action))


def _out(args, result) -> dict | str:
    """The JSON payload or the pretty text of an observable, value or operator."""
    if isinstance(result, GaussianObservable):
        return render.observable_json(result) if args.json else render.pretty_observable(result)
    if isinstance(result, IntegralValue):
        return render.value_json(result) if args.json else render.pretty_value(result)
    return render.operator_json(result) if args.json else render.pretty_operator(result)


def _shown(call, action: bool = False):
    """A handler rendering call on the subcommand's operands, then on the action S."""
    def handler(args):
        parsed = [_obs(args, getattr(args, name)) for name in args.operands]
        return _out(args, call(*parsed, *([_action(args)] if action else [])))
    return handler


# -- subcommand handlers -----------------------------------------------


def _cmd_star(args):
    # not a _shown handler: star is looked up per call, so it can be replaced
    return _out(args, star(_obs(args, args.f), _obs(args, args.g)))


def _cmd_smap(args):
    return _out(args, s_map(_obs(args, args.f), "backward" if args.inverse else "forward"))


def _cmd_ideal0(args):
    f = _obs(args, args.f)
    member = gelfand_member0(f)
    parts = momenta_decompose(f.body) if member and f.rate == 0 else None
    if args.json:
        payload: dict = {"member": member}
        if parts is not None:
            payload["parts"] = [{"index": k, "terms": render.observable_terms_json(g)}
                                for k, g in enumerate(parts, 1)]
        return payload
    return "\n".join([f"member: {'yes' if member else 'no'}"] +
                     [f"g_{k} = {render.pretty_polynomial(g)}"
                      for k, g in enumerate(parts or (), 1)])


def _cmd_weyl_check(args):
    # the library sweeps no monomial below degree 0 and reports all equal
    if args.max_degree < 0:
        raise ValueError("degree must be nonnegative")
    checked, mismatches = weyl_check(_dim(args), args.max_degree)
    if args.json:
        return {"dim": args.dim, "max_degree": args.max_degree, "checked": checked,
                "mismatches": [{"q": list(alpha), "p": list(beta)}
                               for alpha, beta in mismatches],
                "all_equal": not mismatches}
    verdict = "all equal" if not mismatches else f"{len(mismatches)} mismatches"
    return f"weyl check: {checked} monomials, {verdict}"


def _cmd_evolve(args):
    t = parse_rational(args.t)
    return _out(args, evolve(_obs(args, args.f), t, _action(args)))


def _cmd_ideal1(args):
    f = _obs(args, args.f)
    s = _action(args)
    # one pullback serves the membership test and the witness
    pulled = evolve(f, -1, s)
    member = gelfand_member0(pulled)
    parts = None
    if member and f.rate == 0:
        # constructive witness: split the pullback over the p_k, push forward
        parts = []
        for k, g in enumerate(momenta_decompose(pulled.body)):
            p_k = GaussianObservable(PhasePolynomial.coordinate_p(k, s.dim))
            parts.append((evolve(GaussianObservable(g), 1, s).body, evolve(p_k, 1, s).body))
    if args.json:
        payload: dict = {"member": member}
        if parts is not None:
            payload["parts"] = [{"index": k, "factor": render.observable_terms_json(factor),
                                 "generator": render.observable_terms_json(generator)}
                                for k, (factor, generator) in enumerate(parts, 1)]
        return payload
    return "\n".join([f"member: {'yes' if member else 'no'}"] +
                     [f"g_{k} = {render.pretty_polynomial(factor)}"
                      f"   (generator {render.pretty_polynomial(generator)})"
                      for k, (factor, generator) in enumerate(parts or (), 1)])


def _cmd_phase_conj(args):
    t = parse_rational(args.t)
    h = _poly(args, args.h)
    s = _action(args)
    result = conjugate_by_phase(h, s, t)
    direct = evolve(GaussianObservable(h), t, s)
    matches = direct.rate == 0 and direct.body == result
    if args.json:
        return {"observable": render.observable_json(GaussianObservable(result)),
                "matches_evolve": matches}
    return f"{render.pretty_polynomial(result)}\nmatches evolve: {'yes' if matches else 'no'}"


def _cmd_wkb_hierarchy(args):
    ham = _poly(args, args.ham)
    s = _action(args)
    energy = parse_rational(args.energy)
    hierarchy = eigenproblem_hierarchy(ham, s, energy, args.order)
    if args.json:
        return render.hierarchy_json(hierarchy)
    return "\n".join(f"D_{j} = {render.pretty_operator(op)}"
                     for j, op in enumerate(hierarchy.orders))


def _cmd_wkb_solve1d(args):
    # the one handler on the grid tier: numpy loads when it runs
    import numpy as np

    from .wkb import (MIN_SAMPLES, GridFunction1D, WKBSolution, _eval_base_poly,
                      solve_transport_1d, transport_residuals_1d)

    a, b = args.interval
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not b > a:
        raise ValueError("interval must satisfy a < b")
    if args.order < 0:
        raise ValueError("order must be nonnegative")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("tolerance must be finite and nonnegative")
    n = args.samples
    if n < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {n}")
    pad = max(4, 2 * (args.order + 1))
    values = (args.order + 1) * (n + 2 * pad)
    if values > MAX_GRID_VALUES:
        raise BudgetExceeded(f"order {args.order} on {n} samples", values, MAX_GRID_VALUES,
                             "grid values")
    if args.sprime_expr is not None:
        poly = parse_observable(args.sprime_expr, 1, 0).body
        if not poly.is_base_only() or not poly.is_lambda_free() or not poly.is_real():
            raise ValueError("S' must be a real polynomial in q alone")
        # overflow gives inf or nan samples, which the solver refuses
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sprime = GridFunction1D.from_callable(
                    lambda x: _eval_base_poly(poly, x).real, a, b, n, pad)
        except OverflowError:  # a coefficient beyond the float range
            raise ValueError("a coefficient of S' is outside the float range") from None
    else:
        with warnings.catch_warnings():
            # numpy warns on a file without rows; the error below says so on one line
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.sprime_file, dtype=float, ndmin=2)
        if data.size == 0:
            raise ValueError("S' file holds no samples")
        if data.shape[1] != 2:
            raise ValueError("S' file must have two columns: q and S'(q)")
        sprime = GridFunction1D.from_samples(data[:, 0], data[:, 1], a, b, n, pad)
    try:
        boundary = complex(parse_complex_constant(args.bc))
    except OverflowError:
        raise ValueError("boundary value is outside the float range") from None
    orders = []
    prev = None
    # a grid step too small for the stencils (h^order underflows) gives
    # inf or nan, which is refused below instead of warned about
    with np.errstate(all="ignore"):
        for r in range(args.order + 1):
            phi = solve_transport_1d(sprime, prev, boundary if r == 0 else 0.0)
            orders.append(phi)
            prev = phi
        report = transport_residuals_1d(sprime, orders, args.tol)
    if not (all(np.all(np.isfinite(phi.values)) for phi in orders)
            and np.all(np.isfinite(report.norms))):
        raise ValueError("amplitudes or residuals are not finite; "
                         "the interval may be too narrow for the grid")
    if args.json:
        payload = render.solution_json(WKBSolution(sprime, orders))
        payload["residuals"] = {"norms": report.norms, "tol": report.tol,
                                "passed": report.passed}
        return payload
    lines = []
    for r, phi in enumerate(orders):
        peak = float(np.max(np.abs(phi.interior())))
        lines.append(f"phi_{r}: max|phi| = {peak:.6g}, residual = {report.norms[r]:.3e}")
    lines.append(f"residual check: {'passed' if report.passed else 'FAILED'} "
                 f"at tol {report.tol:g}")
    return "\n".join(lines)


# -- parser construction -----------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once a process: parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="starquant",
                             description="exact Weyl star-product workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(name, handler, help_text, *operands, dim=True, envelope=True, group=sub):
        """A subcommand with its positional operands and the shared flags it reads."""
        p = group.add_parser(name, help=help_text)
        if dim:
            p.add_argument("--dim", type=int, default=1, metavar="N",
                           help="phase-space dimension n (default 1)")
        if envelope:
            p.add_argument("--envelope", default="0", metavar="C",
                           help="Gaussian envelope rate c in exp(-c|q|^2), rational")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", help="canonical JSON output")
        mode.add_argument("--pretty", action="store_true",
                          help="human-readable output (default)")
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(handler=handler, operands=operands)
        return p

    leaf("star", _cmd_star, "star product F * G", "f", "g")
    leaf("commutator", _shown(star_commutator), "star commutator [F, G]", "f", "g")
    p = leaf("smap", _cmd_smap, "apply the equivalence map S (or its inverse)", "f")
    p.add_argument("--inverse", action="store_true")
    leaf("omega0", _shown(omega0), "flat-state expectation of F", "f")
    leaf("inner0", _shown(inner0), "GNS inner product of F and G", "f", "g")
    leaf("ideal0", _cmd_ideal0, "null-ideal membership and decomposition", "f")
    leaf("project", _shown(project_H0), "project onto base functions", "f")
    leaf("pi0", _shown(pi0), "operator representation of F", "f")

    p = leaf("weyl-check", _cmd_weyl_check, "compare pi0 with symmetrized words",
             envelope=False)
    p.add_argument("--max-degree", type=int, required=True, metavar="D")

    p = leaf("evolve", _cmd_evolve, "Heisenberg evolution A_t F", "f")
    p.add_argument("--t", required=True, metavar="T")
    p.add_argument("--action", required=True, metavar="S")

    for name, handler, text in (
            ("omega1", _shown(omega1, action=True), "transported-state expectation"),
            ("ideal1", _cmd_ideal1, "transported null-ideal membership"),
            ("pi1", _shown(pi1, action=True), "transported operator representation")):
        p = leaf(name, handler, text, "f")
        p.add_argument("--action", required=True, metavar="S")

    wkb = sub.add_parser("wkb", help="transport hierarchy and 1-d solver")
    wkb_sub = wkb.add_subparsers(dest="wkb_command", required=True)

    p = leaf("hierarchy", _cmd_wkb_hierarchy, "lambda-split eigenproblem operators",
             envelope=False, group=wkb_sub)
    p.add_argument("--ham", required=True, metavar="H")
    p.add_argument("--action", required=True, metavar="S")
    p.add_argument("--energy", required=True, metavar="E")
    p.add_argument("--order", type=int, required=True, metavar="R")

    p = leaf("solve1d", _cmd_wkb_solve1d, "solve the transport recursion on a grid",
             dim=False, envelope=False, group=wkb_sub)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sprime-expr", metavar="EXPR")
    source.add_argument("--sprime-file", metavar="FILE")
    p.add_argument("--interval", nargs=2, type=float, required=True,
                   metavar=("A", "B"))
    p.add_argument("--samples", type=int, required=True, metavar="N")
    p.add_argument("--order", type=int, required=True, metavar="R")
    p.add_argument("--bc", required=True, metavar="VALUE",
                   help="boundary value of phi_0 at q = A")
    p.add_argument("--tol", type=float, default=1e-5)

    p = leaf("phase-conj", _cmd_phase_conj,
             "conjugate H by the phase of S and compare with evolve", "h", envelope=False)
    p.add_argument("--t", required=True, metavar="T")
    p.add_argument("--action", required=True, metavar="S")

    return parser


def _emit_error(exc: Exception, code: int) -> int:
    body: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ObservableParseError):
        body["line"] = exc.line
        body["column"] = exc.column
    residual = getattr(exc, "residual", None)
    if residual is not None:
        body["residual"] = render.observable_terms_json(residual)
    sys.stderr.write(json.dumps(body) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        result = args.handler(args)
    except ObservableParseError as exc:
        return _emit_error(exc, 2)
    except OSError as exc:  # unreadable --sprime-file
        return _emit_error(exc, 2)
    except (StarquantError, ValueError) as exc:
        return _emit_error(exc, 3)
    if args.json:
        # each chunk is written as it is made: the text is never held whole
        write = sys.stdout.write
        for chunk in render.json_chunks(result):
            write(chunk)
    else:
        sys.stdout.write(result + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
