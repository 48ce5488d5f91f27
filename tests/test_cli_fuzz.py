"""Fuzz the CLI contract over argv drawn from the argument parser.

Subcommands and their flags come from ``cli._build_parser()``; operands
and expression-valued flags come from the observable grammar, hostile
cases included.  Every call must exit 0, 2 or 3.  A nonzero exit leaves
stdout empty and writes exactly one JSON line holding "error" to stderr;
exit 0 writes nothing to stderr; and no call runs longer than
``CALL_SECONDS``.  ``main`` runs in process, as in ``test_corpus.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from starquant.cli import _build_parser, main

CALL_SECONDS = 5.0

NUMERAL_20 = "12345678901234567890"
# valid atoms are listed three times, so most drawn expressions parse
ATOMS = ("0", "1", "2", "7", "i", "lambda", "q", "p", "q1", "p1") * 3 + (
    NUMERAL_20, "q2", "p3", "", "q²")
EXPONENTS = ("0", "1", "2", "3") * 2 + ("-1", NUMERAL_20)


def _combine(inner):
    # a leading minus stays inside parentheses: argparse reads "-q" as a flag
    return st.one_of(
        inner.map(lambda a: f"(-{a})"),
        st.tuples(inner, st.sampled_from("+-*" * 3 + "/"), inner).map("".join),
        st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"))


expressions = st.recursive(st.sampled_from(ATOMS), _combine, max_leaves=6)

# values for each flag, keyed by its dest: a flag without an entry fails the test
VALUES = {
    "dim": st.sampled_from(["1", "2", "3", "0", "-1", "65", "x"]),
    "envelope": st.sampled_from(["0", "1", "1/2", "-1", "x", "2.5e-3"]),
    "max_degree": st.sampled_from(["-3", "0", "1", "2", "3", "9", "x"]),
    "t": st.sampled_from(["0", "1", "-1/2", "x", "1e5000"]),
    "energy": st.sampled_from(["0", "1", "-1/2", "x"]),
    "order": st.sampled_from(["-1", "0", "1", "2", "3", "1000000"]),
    "sprime_file": st.sampled_from([os.devnull, "missing.dat"]),
    "interval": st.sampled_from(["1", "2", "0", "-1", "inf", "nan", "1e308"]),
    "samples": st.sampled_from(["16", "64", "3", "0", "-5", str(2 ** 21)]),
    "tol": st.sampled_from(["1e-5", "0", "-1", "nan"]),
}
for name in ("action", "ham", "sprime_expr", "bc"):
    VALUES[name] = expressions
UNDECLARED = ("--dim", "--envelope", "--bogus")


def _leaves(parser, prefix=()):
    """(argv prefix, parser) for every subcommand that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(list(prefix), parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _leaves(sub, prefix + (name,))]


LEAVES = _leaves(_build_parser())


@st.composite
def argvs(draw):
    """(argv, whether it holds an undeclared flag): a subcommand with its
    operands and a draw of its flags, in any order."""
    prefix, parser = draw(st.sampled_from(LEAVES))
    operands, flags = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            operands.append(draw(expressions))
        elif draw(st.integers(0, 9)) < (9 if action.required else 2):
            count = 1 if action.nargs is None else action.nargs
            flags.append([action.option_strings[0],
                          *(draw(VALUES[action.dest]) for _ in range(count))])
    declared = {s for action in parser._actions for s in action.option_strings}
    stray = draw(st.integers(0, 9)) == 0
    if stray:
        flags.append([draw(st.sampled_from([f for f in UNDECLARED if f not in declared])),
                      "1"])
    flags = draw(st.permutations(flags))
    return prefix + operands + [word for flag in flags for word in flag], stray


def check_contract(argv: list[str], stray: bool) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in ((2,) if stray else (0, 2, 3))
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    else:
        assert err.getvalue() == ""
    assert elapsed < CALL_SECONDS


@settings(max_examples=200)
@given(argvs())
def test_cli_contract_holds_for_drawn_argv(case):
    check_contract(*case)
