from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from starquant import GridFunction1D, cli, errors
from starquant.cli import MAX_GRID_VALUES, MAX_SAMPLES, _build_parser, main

STAR_QP_JSON = ('{"dim": 1, "envelope": "0/1", "terms": ['
                '{"l": 0, "q": [1], "p": [1], "re": "1/1", "im": "0/1"}, '
                '{"l": 1, "q": [0], "p": [0], "re": "0/1", "im": "1/2"}]}\n')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_golden_line(capsys):
    code, out, err = run(capsys, "star", "q", "p", "--dim", "1", "--json")
    assert code == 0
    assert out == STAR_QP_JSON
    assert err == ""


def test_output_is_deterministic(capsys):
    first = run(capsys, "star", "q+p", "q-p", "--json")
    second = run(capsys, "star", "q+p", "q-p", "--json")
    assert first == second


def test_pretty_mode_is_plain_text(capsys):
    code, out, _ = run(capsys, "star", "q", "p")
    assert code == 0
    assert out == "q*p + i/2*lambda\n"
    assert "\x1b" not in out  # no color codes when stdout is not a tty


def test_commutator_and_smap(capsys):
    code, out, _ = run(capsys, "commutator", "q", "p")
    assert (code, out) == (0, "i*lambda\n")
    code, out, _ = run(capsys, "smap", "q*p")
    assert (code, out) == (0, "q*p - i/2*lambda\n")
    code, out, _ = run(capsys, "smap", "q*p", "--inverse")
    assert (code, out) == (0, "q*p + i/2*lambda\n")


def test_parse_errors_exit_2_with_positions(capsys):
    code, out, err = run(capsys, "star", "q^-1", "p")
    assert code == 2 and out == ""
    body = json.loads(err)
    assert body["error"] == "NegativeExponent"
    assert (body["line"], body["column"]) == (1, 3)


LONG_NUMERAL = "9" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.parametrize("expr, column", [
    (LONG_NUMERAL + "*q", 1), ("q^" + LONG_NUMERAL, 3), ("2*q*p^\u00b2", 7)])
def test_unreadable_numerals_exit_2_with_positions(capsys, expr, column):
    # a numeral past the int-from-string limit, in the base or the exponent
    # position, or of digits int() does not read, is a syntax error
    code, out, err = run(capsys, "star", expr, "p", "--json")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    body = json.loads(lines[0])
    assert body["error"] == "ObservableSyntaxError"
    assert (body["line"], body["column"]) == (1, column)
    if "9" in expr:
        assert f"numeral of {len(LONG_NUMERAL)} digits" in body["message"]
    # the longest readable numeral still parses
    code, _, _ = run(capsys, "star", "9" * sys.get_int_max_str_digits() + "*q", "p", "--json")
    assert code == 0


def test_deep_nesting_exits_2_with_position(capsys):
    code, out, err = run(capsys, "star", "(" * 3000 + "q" + ")" * 3000, "p", "--json")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    body = json.loads(lines[0])
    assert body["error"] == "ObservableSyntaxError"
    assert (body["line"], body["column"]) == (1, 101)
    # nesting up to the limit still parses
    code, out, _ = run(capsys, "star", "(" * 100 + "q" + ")" * 100, "p")
    assert (code, out) == (0, "q*p + i/2*lambda\n")


def test_weyl_check_budget_exits_3_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "weyl-check", "--dim", "300", "--max-degree", "3", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    body = json.loads(lines[0])
    assert body["error"] == "BudgetExceeded"
    assert "C(603, 600) monomials" in body["message"]
    # the check itself must not evaluate C(10^9 + 2*10^6, 2*10^6): that takes minutes
    code, _, err = run(capsys, "weyl-check", "--dim", "1000000", "--max-degree", "1000000000")
    assert code == 3 and json.loads(err)["error"] == "BudgetExceeded"
    assert time.perf_counter() - start < 1.0


def test_weyl_check_degree_past_word_limit_exits_3_fast(capsys):
    # dim 1, degree 9 is only C(11, 2) = 55 monomials, but the oracle
    # refuses words of more than 8 factors: refused before any sweep
    start = time.perf_counter()
    code, out, err = run(capsys, "weyl-check", "--max-degree", "9", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BudgetExceeded"


def test_hierarchy_order_budget_exits_3_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "wkb", "hierarchy", "--ham", "p^2+1-q^2",
                         "--action", "q^2/2", "--energy", "1", "--order", "1000000",
                         "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BudgetExceeded"


def test_power_budget_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "star", "(q+p)^5000", "1", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BudgetExceeded"
    # a power of a monomial has one term, whatever the exponent
    code, out, _ = run(capsys, "star", "q^2000", "1")
    assert (code, out) == (0, "q^2000\n")


@pytest.mark.parametrize("argv", [
    ["star", "q^2000*p^2000", "q^2000*p^2000"],
    ["star", "q^1000", "p^1000", "--envelope", "1"],
    ["smap", "q^300*p^300", "--envelope", "1"],
    ["smap", "q^100000000*p^100000000"],
    # 6 table entries a dimension, 6^8 combined: the tables are cheap
    ["star", "*".join(f"q{k}^2*p{k}^3" for k in range(1, 9)),
     "*".join(f"q{k}^3*p{k}^2" for k in range(1, 9)), "--dim", "8"]])
def test_table_work_budget_exits_3_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(code, out, err, "BudgetExceeded")


@pytest.mark.parametrize("dim", [3000000, cli.MAX_DIM + 1])
def test_dimension_past_the_limit_exits_3_fast(capsys, dim):
    # refused before any operand is parsed; combining the kernel's keys
    # costs time quadratic in dim, which no budget counts
    start = time.perf_counter()
    code, out, err = run(capsys, "star", "q1", "p1", "--dim", str(dim), "--json")
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(code, out, err, "BudgetExceeded")
    # the same limit holds for a command that parses only polynomials
    code, out, err = run(capsys, "phase-conj", "q1", "--t", "1", "--action", "q1",
                         "--dim", str(dim))
    assert_one_error_line(code, out, err, "BudgetExceeded")


def test_dimension_at_the_limit_runs(capsys):
    code, out, err = run(capsys, "star", "q1", "p1", "--dim", str(cli.MAX_DIM), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["dim"] == cli.MAX_DIM == 64


def test_pi0_of_a_huge_momentum_power_is_fast(capsys):
    # s_map visits only the derivative orders that can be nonzero: one here
    start = time.perf_counter()
    code, out, _ = run(capsys, "pi0", "p^100000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "lambda^100000000*d^100000000\n")


def test_huge_moment_exits_3_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "omega0", "q^100000000", "--envelope", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ("smap", "q^2000*p^2000", "--json"),
    ("star", "2^20000*q", "p"),
])
def test_integers_past_the_digit_limit_exit_3_with_budget_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    body = json.loads(err)
    assert body["error"] == "BudgetExceeded"
    assert "digits exceeds the limit of 4300 digits" in body["message"]


def test_reused_parser_matches_fresh_parsers(capsys):
    calls = (
        ("star", "q", "p", "--json"),
        ("star", "q+p", "q-p"),
        ("wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
         "--samples", "16", "--order", "1", "--bc", "1", "--json"),
        ("star", "q", "--json"),
        ("star", "q^-1", "p"),
        ("star", "q", "p", "--json"),
    )
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "star")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
    code, _, err = run(capsys, "star", "q", "p", "--json", "--pretty")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_hamilton_jacobi_violation_exits_3_with_residual(capsys):
    code, out, err = run(capsys, "wkb", "hierarchy", "--ham", "p^2",
                         "--action", "q^2/2", "--energy", "0", "--order", "2")
    assert code == 3 and out == ""
    body = json.loads(err)
    assert body["error"] == "HamiltonJacobiViolated"
    assert body["residual"] == [
        {"l": 0, "q": [2], "p": [0], "re": "1/1", "im": "0/1"}]


def test_hierarchy_frozen_payload(capsys):
    code, out, _ = run(capsys, "wkb", "hierarchy", "--ham", "p^2+1-q^2",
                       "--action", "q^2/2", "--energy", "1", "--order", "3",
                       "--json")
    assert code == 0
    assert json.loads(out) == {
        "dim": 1,
        "energy": "1/1",
        "orders": [
            {"order": 0, "terms": []},
            {"order": 1, "terms": [
                {"l": 0, "d": [0],
                 "coeff": [{"l": 0, "q": [0], "p": [0], "re": "0/1", "im": "-1/1"}]},
                {"l": 0, "d": [1],
                 "coeff": [{"l": 0, "q": [1], "p": [0], "re": "0/1", "im": "-2/1"}]},
            ]},
            {"order": 2, "terms": [
                {"l": 0, "d": [2],
                 "coeff": [{"l": 0, "q": [0], "p": [0], "re": "-1/1", "im": "0/1"}]},
            ]},
            {"order": 3, "terms": []},
        ],
    }


def test_hierarchy_pretty_lines(capsys):
    code, out, _ = run(capsys, "wkb", "hierarchy", "--ham", "p^2+1-q^2",
                       "--action", "q^2/2", "--energy", "1", "--order", "3")
    assert code == 0
    assert out == ("D_0 = 0\n"
                   "D_1 = -i - 2*i*q*d\n"
                   "D_2 = -d^2\n"
                   "D_3 = 0\n")


def test_turning_point_and_coarse_grid_exit_3(capsys):
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "-1", "1", "--samples", "64",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "TurningPointError"
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "8",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "GridTooCoarse"


def test_nonintegrable_exits_3(capsys):
    code, _, err = run(capsys, "omega0", "q^2")
    assert code == 3
    assert json.loads(err)["error"] == "NonIntegrable"


def test_negative_envelope_exits_3(capsys):
    code, _, err = run(capsys, "omega0", "q^2", "--envelope", "-1")
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ("star", "q", "p", "--envelope", "1e30000000", "--json"),
    ("evolve", "p^3", "--t=-2.5E-30000000", "--action", "q^3", "--json"),
    ("phase-conj", "p^2", "--t", "1e30000000", "--action", "q^3", "--json"),
    ("wkb", "hierarchy", "--ham", "p^2", "--action", "q^2", "--energy", "1e30000000",
     "--order", "1", "--json")])
def test_huge_exponent_exits_2_fast(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ObservableSyntaxError"


def test_envelope_in_exponent_notation(capsys):
    spelled = run(capsys, "star", "q", "p", "--envelope", "1" + "0" * 999, "--json")
    assert spelled[0] == 0
    assert run(capsys, "star", "q", "p", "--envelope", "1e999", "--json") == spelled


def test_omega0_and_inner0_values(capsys):
    code, out, _ = run(capsys, "omega0", "1", "--envelope", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"unit": {"c": "1/1", "n": 1},
                               "series": {"0": {"re": "1/1", "im": "0/1"}}}
    code, out, _ = run(capsys, "inner0", "p", "p", "--envelope", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"unit": {"c": "2/1", "n": 1},
                               "series": {"2": {"re": "1/4", "im": "0/1"}}}


def test_ideal0_membership_payloads(capsys):
    code, out, _ = run(capsys, "ideal0", "p", "--json")
    assert code == 0
    assert json.loads(out) == {
        "member": True,
        "parts": [{"index": 1,
                   "terms": [{"l": 0, "q": [0], "p": [0], "re": "1/1", "im": "0/1"}]}],
    }
    code, out, _ = run(capsys, "ideal0", "q", "--json")
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_ideal1_constructive_witness(capsys):
    code, out, _ = run(capsys, "ideal1", "p - q", "--action", "q^2/2", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["member"] is True
    part, = body["parts"]
    assert part["factor"] == [{"l": 0, "q": [0], "p": [0], "re": "1/1", "im": "0/1"}]
    assert part["generator"] == [
        {"l": 0, "q": [0], "p": [1], "re": "1/1", "im": "0/1"},
        {"l": 0, "q": [1], "p": [0], "re": "-1/1", "im": "0/1"}]
    code, out, _ = run(capsys, "ideal1", "p", "--action", "q^2/2", "--json")
    assert json.loads(out) == {"member": False}


def test_weyl_check_counts_monomials(capsys):
    code, out, _ = run(capsys, "weyl-check", "--max-degree", "2", "--json")
    assert code == 0
    body = json.loads(out)
    assert body == {"dim": 1, "max_degree": 2, "checked": 6,
                    "mismatches": [], "all_equal": True}


def test_evolve_and_phase_conj_agree(capsys):
    code, out, _ = run(capsys, "evolve", "p", "--t", "1",
                       "--action", "q^2/2")
    assert (code, out) == (0, "p - q\n")
    code, out, _ = run(capsys, "phase-conj", "p^3", "--t", "1",
                       "--action", "q^3", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["matches_evolve"] is True
    code, out2, _ = run(capsys, "evolve", "p^3", "--t", "1",
                        "--action", "q^3", "--json")
    assert body["observable"] == json.loads(out2)


def test_pi0_and_pi1_render(capsys):
    code, out, _ = run(capsys, "pi0", "p")
    assert (code, out) == (0, "-i*lambda*d\n")
    code, out, _ = run(capsys, "pi1", "p", "--action", "q^2/2")
    assert (code, out) == (0, "q - i*lambda*d\n")


def test_project_command(capsys):
    code, out, _ = run(capsys, "project", "p", "--envelope", "1")
    assert code == 0
    assert out == "(i*lambda*q) * exp(-1*|q|^2)\n"


def test_solve1d_json_shape_and_boundary(capsys):
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "1", "--bc", "1", "--json")
    assert code == 0
    body = json.loads(out)
    assert set(body) == {"sprime", "orders", "residuals"}
    assert body["sprime"]["n"] == 64
    assert body["sprime"]["pad"] == 4
    assert len(body["orders"]) == 2
    pad = body["orders"][0]["pad"]
    assert body["orders"][0]["re"][pad] == pytest.approx(1.0)
    assert body["residuals"]["passed"] is True
    assert len(body["residuals"]["norms"]) == 2


def test_solve1d_residual_failure_keeps_exit_0(capsys):
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "1", "--bc", "1", "--tol", "1e-30", "--json")
    assert code == 0
    assert json.loads(out)["residuals"]["passed"] is False


def test_solve1d_rejects_momentum_dependent_sprime(capsys):
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "p",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


def test_solve1d_file_input(tmp_path, capsys):
    qs = np.linspace(-0.25, 1.25, 200)
    table = np.column_stack([qs, np.sqrt(1.0 + qs ** 2)])
    path = tmp_path / "sprime.dat"
    np.savetxt(path, table)
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-file", str(path),
                       "--interval", "0", "1", "--samples", "128",
                       "--order", "1", "--bc", "1", "--tol", "1e-3", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["residuals"]["passed"] is True
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-file",
                       str(tmp_path / "missing.dat"),
                       "--interval", "0", "1", "--samples", "128",
                       "--order", "0", "--bc", "1")
    assert code == 2
    assert "Error" in json.loads(err)["error"] or json.loads(err)["error"]


@pytest.mark.parametrize("interval", [("1", "inf"), ("nan", "2")])
def test_solve1d_rejects_nonfinite_interval(capsys, interval):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", *interval, "--samples", "256",
                         "--order", "0", "--bc", "1", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def test_solve1d_rejects_negative_order(capsys):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "256",
                         "--order", "-1", "--bc", "1", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def assert_one_error_line(code, out, err, error):
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


ERROR_CLASSES = [cls for cls in vars(errors).values() if isinstance(cls, type)
                 and issubclass(cls, errors.StarquantError) and cls is not errors.StarquantError]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_package_error_exits_3(capsys, monkeypatch, error):
    def failing_star(*args):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "star", failing_star)
    code, out, err = run(capsys, "star", "q", "p", "--json")
    assert_one_error_line(code, out, err, error.__name__)


@pytest.mark.parametrize("samples, error", [
    ("1", "GridTooCoarse"), ("0", "GridTooCoarse"),
    (str(MAX_SAMPLES + 1), "ValueError")])
def test_solve1d_rejects_samples_out_of_range(capsys, monkeypatch, samples, error):
    def no_grid(*args):
        raise AssertionError("grid built for an out-of-range sample count")

    monkeypatch.setattr(GridFunction1D, "from_callable", staticmethod(no_grid))
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", samples,
                         "--order", "0", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, error)


class GridBuilt(Exception):
    pass


@pytest.mark.parametrize("samples, order, admitted", [
    (str(MAX_SAMPLES), "0", True), ("16384", "3", True), ("16384", "123", True),
    ("16384", "124", False), (str(MAX_SAMPLES), "1", False), ("16", "1000000", False)])
def test_solve1d_grid_value_budget(capsys, monkeypatch, samples, order, admitted):
    # (order + 1) grids of samples + 2 * pad values, pad = max(4, 2 (order + 1))
    def no_grid(*args):
        raise GridBuilt

    monkeypatch.setattr(GridFunction1D, "from_callable", staticmethod(no_grid))
    argv = ["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
            "--samples", samples, "--order", order, "--bc", "1", "--json"]
    pad = max(4, 2 * (int(order) + 1))
    assert ((int(order) + 1) * (int(samples) + 2 * pad) <= MAX_GRID_VALUES) == admitted
    if admitted:
        with pytest.raises(GridBuilt):
            main(argv)
    else:
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err, "BudgetExceeded")


def test_solve1d_turning_point_in_padding_is_named(capsys):
    # pad 16 of step 1/15 reaches q = -1/15, outside [1, 2] where S' = q > 0
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "16",
                         "--order", "7", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "TurningPointError")
    message = json.loads(err)["message"]
    assert "ghost padding" in message and "16 samples" in message
    assert "more samples" in message and "lower order" in message
    # order 6 pads by 14 samples and stays at q > 0
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "16",
                       "--order", "6", "--bc", "1", "--json")
    assert code == 0 and len(json.loads(out)["orders"]) == 7
    # a turning point inside the interval keeps the plain message
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "-1", "1", "--samples", "64",
                       "--order", "0", "--bc", "1")
    assert code == 3 and "padding" not in json.loads(err)["message"]


@pytest.mark.filterwarnings("error")
def test_solve1d_nonfinite_sprime_exits_3(capsys):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q^400",
                         "--interval", "1", "10", "--samples", "64",
                         "--order", "0", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, bad", [(1, "nan"), (1, "-inf"), (0, "nan"), (0, "inf")])
def test_solve1d_nonfinite_file_rows_exit_3(tmp_path, capsys, column, bad):
    qs = np.linspace(-0.25, 1.25, 20)
    rows = [[repr(q), repr(float(np.sqrt(1.0 + q * q)))] for q in qs]
    for row in rows[5], rows[9]:
        row[column] = bad
    path = tmp_path / "sprime.dat"
    path.write_text("".join(" ".join(row) + "\n" for row in rows))
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-file", str(path),
                         "--interval", "0", "1", "--samples", "64",
                         "--order", "1", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.parametrize("bc", ["10^400", "-10^400*i"])
def test_solve1d_rejects_boundary_beyond_float_range(capsys, bc):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "64",
                         "--order", "0", f"--bc={bc}", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-5"])
def test_solve1d_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "64",
                         "--order", "0", "--bc", "1", f"--tol={tol}", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", ["0", "1"])
def test_solve1d_underflowing_grid_step_exits_3(capsys, order):
    # h = 1e-320/63 is subnormal, so h**order in the stencils underflows
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "1",
                         "--interval", "0", "1e-320", "--samples", "64",
                         "--order", order, "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")
    assert "not finite" in err


HIERARCHY_ARGV = ["wkb", "hierarchy", "--ham", "p^2+1-q^2", "--action", "q^2/2",
                  "--energy", "1", "--order", "1"]
SOLVE1D_ARGV = ["wkb", "solve1d", "--sprime-expr", "q", "--interval", "1", "2",
                "--samples", "16", "--order", "0", "--bc", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["weyl-check", "--max-degree", "1"], ["--envelope", "1"]),
    (["phase-conj", "p", "--t", "1", "--action", "q"], ["--envelope", "1"]),
    (HIERARCHY_ARGV, ["--envelope", "1"]),
    (SOLVE1D_ARGV, ["--dim", "2"]),
    (SOLVE1D_ARGV, ["--envelope", "1"])])
def test_flags_a_subcommand_never_reads_exit_2(capsys, argv, flag):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *flag)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "UsageError",
                                    "message": f"unrecognized arguments: {' '.join(flag)}"}


def test_weyl_check_rejects_negative_degree(capsys):
    code, out, err = run(capsys, "weyl-check", "--max-degree", "-3", "--json")
    assert_one_error_line(code, out, err, "ValueError")
    assert "degree must be nonnegative" in err


@pytest.mark.parametrize("text", ["", "# no samples\n\n"])
def test_solve1d_file_without_samples_exits_3_on_one_line(tmp_path, text):
    # numpy warns on such a file; in process pytest would capture the warning,
    # so the streams are read from a child process
    path = tmp_path / "sprime.dat"
    path.write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "starquant.cli", "wkb", "solve1d", "--sprime-file", str(path),
         "--interval", "0", "1", "--samples", "64", "--order", "0", "--bc", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert [json.loads(line) for line in done.stderr.splitlines()] == [
        {"error": "ValueError", "message": "S' file holds no samples"}]


def test_solve1d_one_row_file_counts_samples(tmp_path, capsys):
    # one row of two columns is two columns, too few samples for a spline
    path = tmp_path / "sprime.dat"
    path.write_text("1 2\n")
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-file", str(path),
                         "--interval", "0", "1", "--samples", "64",
                         "--order", "0", "--bc", "1")
    assert_one_error_line(code, out, err, "ValueError")
    assert "need at least four (q, value) samples" in err
